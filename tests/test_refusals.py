"""One refusal rule per input kind, checked for every public name.

A parameter annotated ``int`` refuses a value of another type, a ``bool``
included, with the TypeError of the int rule, ``<kind> are integers, got
<type> <value>``; an int out of range is a ValueError.  A parameter annotated
with a class of the package, a record such as ``F2Vector`` or the enum
``Lattice``, refuses a value of another type with the TypeError of the record
rule, ``<kind> are <class>s, got <type> <value>``.  The walk below reaches
every name of ``spinverlinde.__all__``, every record class of the package,
and every public method and classmethod of those classes through
``inspect.signature``.  Each callable it meets with such a parameter has
valid arguments in ``VALID`` or a reason in ``EXEMPT``, so a new public name
fails here until it is given one or the other.
"""

import importlib
import inspect
import pkgutil
import re
from fractions import Fraction

import pytest

import spinverlinde
from spinverlinde import (
    F2Vector,
    HeisenbergElement,
    HeisenbergGroup,
    Lattice,
    QuadraticRefinement,
    SymplecticF2Space,
    TwistedAlgebraElement,
    projection,
    so3_level,
)
from spinverlinde._value import Value, _require_bit, _require_genus, _require_int, _require_record

SPACE = SymplecticF2Space(2)
SIGMA = QuadraticRefinement(SPACE, 0)
VECTOR = F2Vector(1, 4)

#: the instance whose bound method a walked instance method is called as
RECEIVERS = {
    "F2Vector": VECTOR,
    "SymplecticF2Space": SPACE,
    "HeisenbergGroup": HeisenbergGroup(2),
    "QuadraticRefinement": SIGMA,
    "TwistedAlgebraElement": projection(SIGMA),
}

#: valid keyword arguments of every walked callable with an ``int`` or a record parameter
VALID = {
    "CertifiedInteger": dict(value=1, bound=2, modulus=5, precision_bits=128),
    "F2Vector": dict(bits=1, dim=4),
    "F2Vector.coordinate": dict(index=0),
    "HeisenbergElement": dict(central=1, vector=VECTOR),
    "HeisenbergGroup": dict(genus=2),
    "HeisenbergGroup.element": dict(central=1, vector=VECTOR),
    "HeisenbergGroup.from_vector": dict(vector=VECTOR),
    "LevelValue": dict(lattice=Lattice.SO3, value=1),
    "MonomialMatrix.identity": dict(n=2),
    "QuadraticRefinement": dict(space=SPACE, basis_values=1),
    "QuadraticRefinement.all_refinements": dict(space=SPACE),
    "QuadraticRefinement.canonical": dict(space=SPACE, arf_value=1),
    "QuadraticRefinement.evaluate": dict(v=VECTOR),
    "QuadraticRefinement.shift": dict(ell=VECTOR),
    "SymplecticF2Space": dict(genus=2),
    "SymplecticF2Space.basis_a": dict(i=1),
    "SymplecticF2Space.basis_b": dict(i=1),
    "SymplecticF2Space.character_sum": dict(b=VECTOR),
    "SymplecticF2Space.dual_bits": dict(v=VECTOR),
    "SymplecticF2Space.pair": dict(v=VECTOR, w=VECTOR),
    "TwistedAlgebraElement": dict(spin=SIGMA, coeffs={1: 1}),
    "TwistedAlgebraElement.coefficient": dict(z=VECTOR),
    "TwistedAlgebraElement.rebase": dict(ell=VECTOR),
    "TwistedAlgebraElement.symbol": dict(spin=SIGMA, z=VECTOR),
    "TwistedAlgebraElement.zero": dict(spin=SIGMA),
    "arf_gauss_sum": dict(genus=2),
    "bhmv_level": dict(p=4),
    "bm_even_dim": dict(g=2, p=8, eps=1),
    "bm_level": dict(p=8),
    "bm_odd_dim": dict(g=2, p=8, eps=1),
    "corollary_bases": dict(g=2, k=1),
    "corollary_dims": dict(g=2, k=1, eps=1),
    "count_by_arf": dict(genus=2),
    "dims_via_traces": dict(g=2, eps=0, base_dim=10, lambda_rho=1, w2=0),
    "heisenberg_rep": dict(h=HeisenbergElement(1, VECTOR)),
    "lift_sign": dict(sigma=SIGMA, z=VECTOR, w2_bundle=1, w2_rho=1),
    "metaplectic_shift": dict(level=so3_level(1)),
    "orthogonality_check": dict(sigma=SIGMA, ell=VECTOR),
    "projection": dict(sigma=SIGMA),
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

#: walked callables with an ``int`` or a record parameter that validate nothing, and why
EXEMPT = {
    "GradedDimension": "a result record, built only from the dimensions the package computes",
    "TableColumn": "a result record, a column of the residue table the package prints",
}


def _record_classes(cls=Value):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _record_classes(subclass)


def _walk():
    """(name, callable) of every name of ``__all__`` that can be called and of
    every record class of the package, ``CheckResult`` and ``TableColumn``
    included, and of the public methods and classmethods of those classes; an
    instance method is bound to the receiver of its class, or left unbound if
    it has none."""
    for module in pkgutil.iter_modules(spinverlinde.__path__):
        importlib.import_module(f"spinverlinde.{module.name}")
    records = {cls.__name__: cls for cls in _record_classes() if cls.__module__.startswith("spinverlinde.")}
    names = {name: getattr(spinverlinde, name) for name in spinverlinde.__all__}
    for name, obj in {**names, **records}.items():
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


#: the classes a record parameter is annotated with: every class of ``__all__``
RECORD_TYPES = {name for name in spinverlinde.__all__ if inspect.isclass(getattr(spinverlinde, name))}


def _annotated(function, annotations) -> list[str]:
    """The parameters of ``function`` annotated with one of ``annotations``."""
    try:
        parameters = inspect.signature(function).parameters.values()
    except ValueError:  # a builtin without a signature takes no annotated parameter
        return []
    return [p.name for p in parameters if p.annotation in annotations]


def _call(function, arguments):
    """function(**arguments), and the first item of a generator, which runs its checks."""
    result = function(**arguments)
    return next(result, None) if inspect.isgenerator(result) else result


CALLABLES = dict(_walk())
INT_PARAMETERS = [
    (name, parameter) for name, function in CALLABLES.items() for parameter in _annotated(function, (int, "int"))
]
RECORD_PARAMETERS = [
    (name, parameter) for name, function in CALLABLES.items() for parameter in _annotated(function, RECORD_TYPES)
]


def test_every_int_parameter_has_valid_arguments_or_an_exemption():
    assert {name for name, _ in INT_PARAMETERS} <= set(VALID) | set(EXEMPT)


def test_every_record_parameter_has_valid_arguments_or_an_exemption():
    assert {name for name, _ in RECORD_PARAMETERS} <= set(VALID) | set(EXEMPT)


def test_every_name_with_valid_arguments_or_an_exemption_is_walked():
    walked = {name for name, _ in INT_PARAMETERS + RECORD_PARAMETERS}
    assert not set(VALID) & set(EXEMPT)
    assert walked == set(VALID) | set(EXEMPT)


def test_the_walk_meets_the_record_parameters():
    # a record parameter of every layer, each refused through the record rule
    assert {
        ("lift_sign", "sigma"),
        ("lift_sign", "z"),
        ("projection", "sigma"),
        ("QuadraticRefinement", "space"),
        ("HeisenbergGroup.element", "vector"),
        ("trace_functional", "x"),
        ("orthogonality_check", "ell"),
        ("LevelValue", "lattice"),
        ("SymplecticF2Space.pair", "w"),
        ("metaplectic_shift", "level"),
    } <= set(RECORD_PARAMETERS)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_arguments_are_accepted(name):
    # so that each refusal below is the refusal of the one argument replaced
    _call(CALLABLES[name], VALID[name])


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "name, parameter",
    [case for case in INT_PARAMETERS if case[0] not in EXEMPT],
    ids=[f"{name}-{parameter}" for name, parameter in INT_PARAMETERS if name not in EXEMPT],
)
def test_an_int_parameter_refuses_another_type(name, parameter, bad):
    message = rf" are integers, got {type(bad).__name__} {re.escape(repr(bad))}\Z"
    with pytest.raises(TypeError, match=message):
        _call(CALLABLES[name], {**VALID[name], parameter: bad})


@pytest.mark.parametrize("bad", [3, "x", True], ids=["int", "str", "bool"])
@pytest.mark.parametrize(
    "name, parameter",
    [case for case in RECORD_PARAMETERS if case[0] not in EXEMPT],
    ids=[f"{name}-{parameter}" for name, parameter in RECORD_PARAMETERS if name not in EXEMPT],
)
def test_a_record_parameter_refuses_another_type(name, parameter, bad):
    # the record rule's TypeError, not an AttributeError or Python's own TypeError
    message = rf"\A[\w -]+ are \w+s, got {type(bad).__name__} {re.escape(repr(bad))}\Z"
    with pytest.raises(TypeError, match=message):
        _call(CALLABLES[name], {**VALID[name], parameter: bad})


@pytest.mark.parametrize(
    "check, value, error, message",
    [
        (lambda v: _require_int(v, "levels"), 1.5, TypeError, "levels are integers, got float 1.5"),
        (lambda v: _require_bit(v, "eps"), True, TypeError, "eps values are integers, got bool True"),
        (lambda v: _require_bit(v, "eps"), 2, ValueError, "eps must be 0 or 1, got 2"),
        (lambda v: _require_bit(v, "eps", ("f(eps={})", v)), -1, ValueError, "f(eps=-1): eps must be 0 or 1, got -1"),
        (lambda v: _require_record(v, F2Vector, "vectors"), 3, TypeError, "vectors are F2Vectors, got int 3"),
        (lambda v: _require_record(v, Lattice, "lattices"), "so3", TypeError, "lattices are Lattices, got str 'so3'"),
        (
            lambda v: _require_record(v, (int, Fraction), "coefficients", "exact rationals"),
            True,
            TypeError,
            "coefficients are exact rationals, got bool True",
        ),
        (lambda v: _require_genus(v), "2", TypeError, "genera are integers, got str '2'"),
        (lambda v: _require_genus(v), 0, ValueError, "genus must be a positive integer, got 0"),
        (
            lambda v: _require_genus(v, ("f(g={})", v)),
            -2,
            ValueError,
            "f(g=-2): genus must be a positive integer, got -2",
        ),
    ],
    ids=[
        "int", "bit-type", "bit-range", "bit-label", "record", "record-enum", "record-bool", "genus-type",
        "genus-range", "genus-label",
    ],
)
def test_each_rule_has_one_message(check, value, error, message):
    # the type is checked first, and only a ValueError carries the label
    with pytest.raises(error, match=rf"\A{re.escape(message)}\Z"):
        check(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymplecticF2Space(1).vector(1.0), "bit masks are integers, got float 1.0"),
        (lambda: TwistedAlgebraElement(SIGMA, {0: True}), "coefficients are exact rationals, got bool True"),
        (lambda: TwistedAlgebraElement(SIGMA, {True: 1}), "support masks are integers, got bool True"),
        (lambda: projection(SIGMA) * True, "unsupported operand type(s) for *: 'TwistedAlgebraElement' and 'bool'"),
        (lambda: False * projection(SIGMA), "unsupported operand type(s) for *: 'bool' and 'TwistedAlgebraElement'"),
    ],
    ids=["vector-float", "coefficient-bool", "mask-bool", "scalar-bool", "scalar-bool-left"],
)
def test_what_no_annotation_names_is_refused_too(build, message):
    # a bool is no int, no Fraction and no record; an operator keeps Python's protocol
    with pytest.raises(TypeError, match=rf"\A{re.escape(message)}\Z"):
        build()
