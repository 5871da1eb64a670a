"""Values built by the trusted constructors against their validated rebuilds.

The inner loops of f2, spin and heisenberg build vectors, refinements,
Heisenberg elements, monomial matrices and twisted-algebra elements, and
the oracle of fusion its certificates, without re-running the public
validation.  Exhaustively at g <= 2, every such value must equal the value
the public constructor builds from the same fields: equal under ==, with
equal hash, and with the same attributes.
"""

import itertools
from fractions import Fraction

import pytest

from spinverlinde.f2 import F2Vector, SymplecticF2Space
from spinverlinde.fusion import CertifiedInteger, twisted_trig_oracle, verlinde_trig_oracle
from spinverlinde.heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    TwistedAlgebraElement,
    heisenberg_rep,
    projection,
    trace_functional,
)
from spinverlinde.spin import QuadraticRefinement, lift_sign

GENERA = [1, 2]


def rebuilt(value):
    """The same value through its public, validating constructor."""
    if isinstance(value, F2Vector):
        return F2Vector(value.bits, value.dim)
    if isinstance(value, QuadraticRefinement):
        return QuadraticRefinement(value.space, value.basis_values)
    if isinstance(value, HeisenbergElement):
        return HeisenbergElement(value.central, rebuilt(value.vector))
    if isinstance(value, MonomialMatrix):
        return MonomialMatrix(value.columns, value.phases)
    if isinstance(value, CertifiedInteger):
        return CertifiedInteger(value.value, value.bound, value.modulus, value.precision_bits)
    raise TypeError(type(value).__name__)


def assert_same_as_rebuilt(value):
    twin = rebuilt(value)
    assert type(value) is type(twin)
    assert value == twin and twin == value
    assert hash(value) == hash(twin)
    assert vars(value) == vars(twin)


def assert_element_same_as_rebuilt(x):
    """A twisted-algebra element against the one built from its coefficients."""
    twin = TwistedAlgebraElement(x.spin, x.coeffs)
    assert x == twin
    assert (x.numerators, x.denominator) == (twin.numerators, twin.denominator)
    assert type(x.numerators) is tuple
    assert_same_as_rebuilt(x.spin)


@pytest.mark.parametrize("g", GENERA)
def test_enumerated_vectors_and_basis(g):
    space = SymplecticF2Space(g)
    for v in itertools.chain(space.vectors(), space.basis()):
        assert_same_as_rebuilt(v)


@pytest.mark.parametrize("g", GENERA)
def test_vector_sums(g):
    space = SymplecticF2Space(g)
    vectors = list(space.vectors())
    for v, w in itertools.product(vectors, vectors):
        total = v + w
        assert_same_as_rebuilt(total)
        assert total == F2Vector(v.bits ^ w.bits, 2 * g)


@pytest.mark.parametrize("g", GENERA)
def test_enumerated_refinements_and_shifts(g):
    space = SymplecticF2Space(g)
    vectors = list(space.vectors())
    for q in QuadraticRefinement.all_refinements(space):
        assert_same_as_rebuilt(q)
        for ell in vectors:
            shifted = q.shift(ell)
            assert_same_as_rebuilt(shifted)
            assert shifted == QuadraticRefinement(space, q.basis_values ^ space.dual_bits(ell))


@pytest.mark.parametrize("g", GENERA)
def test_heisenberg_products(g):
    group = HeisenbergGroup(g)
    elements = list(group.elements())
    for x, y in itertools.product(elements, elements):
        product = x * y
        assert_same_as_rebuilt(product)
        assert_same_as_rebuilt(product.vector)


@pytest.mark.parametrize("g", GENERA)
def test_monomial_products_negations_and_times_i(g):
    reps = [heisenberg_rep(el) for el in HeisenbergGroup(g).elements()]
    for a in reps:
        assert_same_as_rebuilt(a)
        assert_same_as_rebuilt(-a)
        assert_same_as_rebuilt(a.times_i())
        for b in reps:
            assert_same_as_rebuilt(a @ b)


@pytest.mark.parametrize("g", GENERA)
def test_rebases_and_reduced_products(g):
    space = SymplecticF2Space(g)
    vectors = list(space.vectors())
    for sigma in QuadraticRefinement.all_refinements(space):
        p = projection(sigma)
        assert_element_same_as_rebuilt(p)
        # a mixed element whose gcd is 1 and one whose numerators share a factor
        mixed = TwistedAlgebraElement(sigma, {0: Fraction(1, 3), len(vectors) - 1: Fraction(-5, 6)})
        scaled = mixed * 6
        for x in (mixed, scaled, p * p, mixed * p, mixed * mixed, -mixed):
            assert_element_same_as_rebuilt(x)
        for ell in vectors:
            for x in (p, mixed, scaled):
                moved = x.rebase(ell)
                assert_element_same_as_rebuilt(moved)
                assert moved.spin == sigma.shift(ell)
                for z in vectors:
                    sign = 1 - 2 * space.pair(z, ell)
                    assert moved.coefficient(z) == sign * x.coefficient(z)


class TestMonomialMatrixColumns:
    @pytest.mark.parametrize("columns", [(5, 1), (0, 2), (-1, 0)])
    def test_out_of_range_column_rejected(self, columns):
        with pytest.raises(ValueError, match=r"columns must lie in range\(2\)"):
            MonomialMatrix(columns, (0, 0))

    def test_in_range_columns_accepted(self):
        m = MonomialMatrix((1, 1), (0, 3))
        assert m.trace() == (0, -1)

    def test_product_of_different_sizes_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            MonomialMatrix.identity(2) @ MonomialMatrix.identity(4)
        with pytest.raises(ValueError, match="size mismatch"):
            MonomialMatrix.identity(4) @ MonomialMatrix.identity(2)


def test_heisenberg_dimension_mismatch_still_raises():
    x = HeisenbergGroup(1).identity
    y = HeisenbergGroup(2).identity
    with pytest.raises(ValueError, match="dimension mismatch between Heisenberg elements"):
        x * y


def test_vector_dimension_mismatch_still_raises():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 4"):
        F2Vector(1, 2) + F2Vector(1, 4)
    space = SymplecticF2Space(1)
    q = QuadraticRefinement(space, 0)
    with pytest.raises(ValueError, match="vector has dimension 4, space has 2"):
        q.shift(F2Vector(1, 4))
    with pytest.raises(ValueError, match="vector has dimension 4, space has 2"):
        projection(q).rebase(F2Vector(1, 4))
    with pytest.raises(ValueError, match="vector has dimension 4, space has 2"):
        space.pair(space.zero, F2Vector(1, 4))
    with pytest.raises(ValueError, match="vector has dimension 4, space has 2"):
        space.pair(F2Vector(1, 4), space.zero)


def test_lift_sign_errors_keep_their_order():
    space = SymplecticF2Space(1)
    sigma = QuadraticRefinement(space, 0)
    # a bad w2 input is reported before a vector of the wrong dimension
    with pytest.raises(ValueError, match="^w2_bundle must be 0 or 1, got 2$"):
        lift_sign(sigma, F2Vector(1, 4), 2, 0)
    with pytest.raises(ValueError, match="vector has dimension 4, space has 2"):
        lift_sign(sigma, F2Vector(1, 4), 0, 1)


def test_trace_functional_checks_w2_on_every_element():
    space = SymplecticF2Space(2)
    sigma = QuadraticRefinement(space, 0)
    identity = TwistedAlgebraElement.symbol(sigma, space.zero)
    # [0] alone and the zero element read no lift sign, and still refuse a w2 that is not a bit
    for element in (projection(sigma), identity, TwistedAlgebraElement.zero(sigma)):
        for w2 in (2, 7):
            with pytest.raises(ValueError, match=f"^w2 must be 0 or 1, got {w2}$"):
                trace_functional(element, 10, 1, w2)
        with pytest.raises(TypeError, match="^w2 values are integers, got str 'x'$"):
            trace_functional(element, 10, 1, "x")
    assert trace_functional(identity, 10, 1, 1) == 10
    assert trace_functional(TwistedAlgebraElement.zero(sigma), 10, 1, 1) == 0


@pytest.mark.parametrize(
    "oracle, g, level",
    [
        (verlinde_trig_oracle, 1, 5),
        (verlinde_trig_oracle, 2, 2),
        (verlinde_trig_oracle, 12, 40),
        (twisted_trig_oracle, 3, 16),
    ],
)
def test_certificates_equal_their_validated_rebuilds(oracle, g, level):
    # exact, at 128 bits, after a doubling, and twisted; each pins one integer
    certificate = oracle(g, level)
    assert_same_as_rebuilt(certificate)
    assert -certificate.bound <= certificate.value <= certificate.bound
    assert 2 * certificate.bound < certificate.modulus
