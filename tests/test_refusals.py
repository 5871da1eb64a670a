"""One refusal rule per input kind, checked for every public name.

A parameter annotated ``int`` refuses a value of another type, a ``bool``
included, with the TypeError of the int rule, ``<kind> are integers, got
<type> <value>``; an int out of range is a ValueError.  The walk below reaches
every name of ``spinverlinde.__all__`` and every public method and classmethod
of its classes through ``inspect.signature``.  Each callable it meets with an
``int`` parameter has valid arguments in ``VALID`` or a reason in ``EXEMPT``,
so a new public name fails here until it is given one or the other.
"""

import inspect
import re

import pytest

import spinverlinde
from spinverlinde import (
    F2Vector,
    HeisenbergGroup,
    Lattice,
    QuadraticRefinement,
    SymplecticF2Space,
    projection,
)
from spinverlinde._value import _require_bit, _require_genus, _require_int

SPACE = SymplecticF2Space(2)
SIGMA = QuadraticRefinement(SPACE, 0)
VECTOR = F2Vector(1, 4)

#: the instance whose bound method a walked instance method is called as
RECEIVERS = {"F2Vector": VECTOR, "SymplecticF2Space": SPACE, "HeisenbergGroup": HeisenbergGroup(2)}

#: valid keyword arguments of every walked callable with an ``int`` parameter
VALID = {
    "CertifiedInteger": dict(value=1, bound=2, modulus=5, precision_bits=128),
    "F2Vector": dict(bits=1, dim=4),
    "F2Vector.coordinate": dict(index=0),
    "HeisenbergElement": dict(central=1, vector=VECTOR),
    "HeisenbergGroup": dict(genus=2),
    "HeisenbergGroup.element": dict(central=1, vector=VECTOR),
    "LevelValue": dict(lattice=Lattice.SO3, value=1),
    "MonomialMatrix.identity": dict(n=2),
    "QuadraticRefinement": dict(space=SPACE, basis_values=1),
    "QuadraticRefinement.canonical": dict(space=SPACE, arf_value=1),
    "SymplecticF2Space": dict(genus=2),
    "SymplecticF2Space.basis_a": dict(i=1),
    "SymplecticF2Space.basis_b": dict(i=1),
    "arf_gauss_sum": dict(genus=2),
    "bhmv_level": dict(p=4),
    "bm_even_dim": dict(g=2, p=8, eps=1),
    "bm_level": dict(p=8),
    "bm_odd_dim": dict(g=2, p=8, eps=1),
    "corollary_bases": dict(g=2, k=1),
    "corollary_dims": dict(g=2, k=1, eps=1),
    "count_by_arf": dict(genus=2),
    "dims_via_traces": dict(g=2, eps=0, base_dim=10, lambda_rho=1, w2=0),
    "lift_sign": dict(sigma=SIGMA, z=VECTOR, w2_bundle=1, w2_rho=1),
    "so3_level": dict(n=1),
    "spin_cs_dims": dict(g=2, m=1, eps=1),
    "su2_level": dict(n=1),
    "sum_over_spin": dict(g=2, p=8),
    "trace_functional": dict(x=projection(SIGMA), base_dim=10, lambda_rho=1, w2=1),
    "twisted_dim": dict(g=2, p=8),
    "twisted_trig_oracle": dict(g=2, p=8, precision_bits=128),
    "verlinde_dim": dict(g=2, k=1),
    "verlinde_trig_oracle": dict(g=2, k=1, precision_bits=128),
}

#: walked callables with an ``int`` parameter that validate nothing, and why
EXEMPT = {
    "GradedDimension": "a result record, built only from the dimensions the package computes",
}


def _walk():
    """(name, callable) of every name of ``__all__`` that can be called, and of
    the public methods and classmethods of its classes; an instance method is
    bound to the receiver of its class, or left unbound if it has none."""
    for name in spinverlinde.__all__:
        obj = getattr(spinverlinde, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attribute, member in vars(obj).items():
                if attribute.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{name}.{attribute}", getattr(obj, attribute)
                elif inspect.isfunction(member):
                    receiver = RECEIVERS.get(name)
                    yield f"{name}.{attribute}", member if receiver is None else getattr(receiver, attribute)


def _int_parameters(function) -> list[str]:
    try:
        parameters = inspect.signature(function).parameters.values()
    except ValueError:  # a builtin without a signature takes no annotated parameter
        return []
    return [p.name for p in parameters if p.annotation in (int, "int")]


CALLABLES = dict(_walk())
INT_PARAMETERS = [(name, parameter) for name, function in CALLABLES.items() for parameter in _int_parameters(function)]


def test_every_int_parameter_has_valid_arguments_or_an_exemption():
    walked = {name for name, _ in INT_PARAMETERS}
    assert not set(VALID) & set(EXEMPT)
    assert walked == set(VALID) | set(EXEMPT)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_arguments_are_accepted(name):
    # so that each refusal below is the refusal of the one argument replaced
    CALLABLES[name](**VALID[name])


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "name, parameter",
    [case for case in INT_PARAMETERS if case[0] not in EXEMPT],
    ids=[f"{name}-{parameter}" for name, parameter in INT_PARAMETERS if name not in EXEMPT],
)
def test_an_int_parameter_refuses_another_type(name, parameter, bad):
    message = rf" are integers, got {type(bad).__name__} {re.escape(repr(bad))}\Z"
    with pytest.raises(TypeError, match=message):
        CALLABLES[name](**{**VALID[name], parameter: bad})


@pytest.mark.parametrize(
    "check, value, error, message",
    [
        (lambda v: _require_int(v, "levels"), 1.5, TypeError, "levels are integers, got float 1.5"),
        (lambda v: _require_bit(v, "eps"), True, TypeError, "eps values are integers, got bool True"),
        (lambda v: _require_bit(v, "eps"), 2, ValueError, "eps must be 0 or 1, got 2"),
        (lambda v: _require_bit(v, "eps", ("f(eps={})", v)), -1, ValueError, "f(eps=-1): eps must be 0 or 1, got -1"),
        (lambda v: _require_genus(v), "2", TypeError, "genera are integers, got str '2'"),
        (lambda v: _require_genus(v), 0, ValueError, "genus must be a positive integer, got 0"),
        (
            lambda v: _require_genus(v, ("f(g={})", v)),
            -2,
            ValueError,
            "f(g=-2): genus must be a positive integer, got -2",
        ),
    ],
    ids=["int", "bit-type", "bit-range", "bit-label", "genus-type", "genus-range", "genus-label"],
)
def test_each_rule_has_one_message(check, value, error, message):
    # the type is checked first, and only a ValueError carries the label
    with pytest.raises(error, match=rf"\A{re.escape(message)}\Z"):
        check(value)
