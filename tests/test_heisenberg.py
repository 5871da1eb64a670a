import copy
import itertools
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinverlinde import checks, heisenberg
from spinverlinde.f2 import EnumerationCapError, F2Vector, SymplecticF2Space
from spinverlinde.heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    TwistedAlgebraElement,
    _lift_signs,
    _signs,
    heisenberg_rep,
    orthogonality_check,
    projection,
    trace_functional,
)
from spinverlinde.spin import QuadraticRefinement, _lift_sign

# dense oracle: a monomial matrix expanded to n x n exact Gaussian integers (re, im)
POWERS_OF_I = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def dense(m):
    n = len(m.columns)
    rows = [[(0, 0)] * n for _ in range(n)]
    for x in range(n):
        rows[x][m.columns[x]] = POWERS_OF_I[m.phases[x]]
    return rows


def dense_mul(a, b):
    def dot(row, col):
        re = sum(p * r - q * s for (p, q), (r, s) in zip(row, col))
        im = sum(p * s + q * r for (p, q), (r, s) in zip(row, col))
        return re, im

    return [[dot(row, col) for col in zip(*b)] for row in a]


def every_column_map(n):
    """Matrices on every column map, a permutation or not; every phase vector for n <= 2."""
    phase_vectors = list(itertools.product(range(4), repeat=n)) if n <= 2 else [(0, 1, 2), (3, 3, 1)]
    return [
        MonomialMatrix(columns, phases)
        for columns in itertools.product(range(n), repeat=n)
        for phases in phase_vectors
    ]


# per-row oracle for the product: row x of a @ b picks row a.columns[x] of b,
# so it holds b's column there and the sum of the two phases
def per_row_product(a, b):
    columns = tuple(b.columns[c] for c in a.columns)
    phases = tuple((t + b.phases[c]) % 4 for c, t in zip(a.columns, a.phases))
    return columns, phases



@st.composite
def matrix_triples(draw, max_size=64):
    """Three (columns, phases) of one size n <= max_size, each column any of range(n)."""
    n = draw(st.integers(0, max_size))

    def rows():
        columns = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
        phases = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return tuple(columns), tuple(phases)

    return rows(), rows(), rows()


# literal oracle for the group-algebra product: the XOR convolution of two
# {mask: Fraction} coefficient dicts, accumulated entry by entry
def convolve_oracle(left, right):
    product = {}
    for m1, v1 in left.items():
        for m2, v2 in right.items():
            product[m1 ^ m2] = product.get(m1 ^ m2, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return {mask: value for mask, value in product.items() if value}


# literal oracle for rebase: the sign (-1)^{<Z, ell>} of each mask Z by its own popcount
def rebase_oracle(x, ell):
    dual = x.spin.space.dual_bits(ell)
    numerators = [-n if (m & dual).bit_count() & 1 else n for m, n in enumerate(x.numerators)]
    return x.spin.shift(ell), tuple(numerators), x.denominator


# literal oracle for trace_functional: the lift sign of each non-zero mask in
# the support, evaluated for every call
def trace_oracle(x, base_dim, lambda_rho, w2):
    terms = [(mask, n) for mask, n in enumerate(x.numerators[1:], start=1) if n]
    signed = sum(n * _lift_sign(x.spin, mask, w2, 1) for mask, n in terms)
    weight = (lambda_rho + 1) ** (x.spin.space.genus - 1)
    return Fraction(x.numerators[0] * base_dim + signed * weight, x.denominator)


def random_element(sigma, rng):
    """A seeded element over sigma: signed numerators, about half of them zero, over one denominator."""
    numerators = [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(1 << sigma.space.dimension)]
    return TwistedAlgebraElement._reduced(sigma, numerators, rng.randint(1, 12))


def assert_lowest_terms(x):
    assert x.denominator > 0
    assert math.gcd(x.denominator, *x.numerators) == 1


@pytest.fixture
def g1():
    space = SymplecticF2Space(1)
    return space, QuadraticRefinement.canonical(space, 0)


def projection_g1():
    return projection(QuadraticRefinement(SymplecticF2Space(1), 0))


# per case: the left operand's class, the operator, and the operation with an int on the right
OTHER_TYPE_OPERANDS = [
    ("F2Vector", "+", lambda: F2Vector(1, 2) + 1),
    ("F2Vector", "^", lambda: F2Vector(1, 2) ^ 1),
    ("HeisenbergElement", "*", lambda: HeisenbergGroup(1).identity * 1),
    ("MonomialMatrix", "@", lambda: MonomialMatrix.identity(2) @ 1),
    ("TwistedAlgebraElement", "+", lambda: projection_g1() + 1),
    ("TwistedAlgebraElement", "-", lambda: projection_g1() - 1),
]


@pytest.mark.parametrize(
    "name, symbol, operation", [pytest.param(*case, id=" ".join(case[:2])) for case in OTHER_TYPE_OPERANDS]
)
def test_an_operand_of_another_type_raises_type_error(name, symbol, operation):
    message = rf"^unsupported operand type\(s\) for {re.escape(symbol)}: '{name}' and 'int'$"
    with pytest.raises(TypeError, match=message):
        operation()


class TestAlgebraElements:
    def test_symbol_square_is_identity_symbol(self, g1):
        space, sigma = g1
        z = TwistedAlgebraElement.symbol(sigma, space.basis_a(1))
        assert z * z == TwistedAlgebraElement.symbol(sigma, space.zero)

    def test_identity_element(self, g1):
        space, sigma = g1
        one = TwistedAlgebraElement.symbol(sigma, space.zero)
        x = TwistedAlgebraElement(
            sigma, {0b01: Fraction(2, 3), 0b10: Fraction(-1, 5)}
        )
        assert one * x == x
        assert x * one == x

    def test_support_and_repr(self, g1):
        space, sigma = g1
        x = TwistedAlgebraElement(sigma, {0b01: Fraction(2, 3), 0b11: Fraction(-1, 5)})
        assert x.support() == [space.basis_a(1), space.basis_a(1) + space.basis_b(1)]
        assert repr(x) == "2/3*[a1] + -1/5*[a1+b1]"
        zero = TwistedAlgebraElement.zero(sigma)
        assert (zero.support(), repr(zero)) == ([], "0")

    def test_bilinearity(self, g1):
        space, sigma = g1
        z1 = TwistedAlgebraElement.symbol(sigma, space.basis_a(1))
        z2 = TwistedAlgebraElement.symbol(sigma, space.basis_b(1))
        z3 = TwistedAlgebraElement.symbol(sigma, space.basis_a(1) + space.basis_b(1))
        assert (z1 + z2) * z3 == z1 * z3 + z2 * z3

    def test_scalar_multiplication(self, g1):
        space, sigma = g1
        x = TwistedAlgebraElement.symbol(sigma, space.basis_a(1))
        assert (Fraction(1, 2) * x + Fraction(1, 2) * x) == x
        assert (0 * x).is_zero

    def test_float_coefficients_rejected(self, g1):
        space, sigma = g1
        with pytest.raises(TypeError):
            TwistedAlgebraElement(sigma, {0: 0.5})
        # a symbol too, which must not read 0.1 as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="^coefficients must be exact rationals, got float$"):
            TwistedAlgebraElement.symbol(sigma, space.basis_a(1), 0.1)

    def test_support_outside_group_rejected(self, g1):
        space, sigma = g1
        with pytest.raises(ValueError, match="group elements"):
            TwistedAlgebraElement(sigma, {16: Fraction(1)})

    def test_mismatched_reference_spin_rejected(self, g1):
        space, sigma = g1
        other = sigma.shift(space.basis_a(1))
        x = TwistedAlgebraElement.symbol(sigma, space.zero)
        y = TwistedAlgebraElement.symbol(other, space.zero)
        with pytest.raises(ValueError, match="reference spin"):
            x * y

    @pytest.mark.parametrize("g", [1, 2])
    def test_commutative_associative_exhaustive(self, g):
        space = SymplecticF2Space(g)
        sigma = QuadraticRefinement.canonical(space, 0)
        symbols = [TwistedAlgebraElement.symbol(sigma, v) for v in space.vectors()]
        for x, y in itertools.product(symbols, repeat=2):
            assert x * y == y * x
        for x, y, z in itertools.islice(itertools.product(symbols, repeat=3), 512):
            assert (x * y) * z == x * (y * z)

    def test_associative_randomized_genus_three(self):
        rng = random.Random(11)
        space = SymplecticF2Space(3)
        sigma = QuadraticRefinement.canonical(space, 0)

        def random_element():
            return TwistedAlgebraElement(
                sigma,
                {
                    rng.randrange(64): Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
                    for _ in range(5)
                },
            )

        for _ in range(25):
            x, y, z = random_element(), random_element(), random_element()
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x

    @pytest.mark.parametrize("g", [1, 2])
    def test_product_matches_literal_convolution_exhaustive(self, g):
        space = SymplecticF2Space(g)
        sigma = QuadraticRefinement.canonical(space, 1)
        coefficients = {
            v.bits: Fraction((-1) ** v.bits * (v.bits + 1), v.bits % 3 + 1) for v in space.vectors()
        }
        for v, w in itertools.product(space.vectors(), repeat=2):
            x = TwistedAlgebraElement.symbol(sigma, v, coefficients[v.bits])
            y = TwistedAlgebraElement.symbol(sigma, w, coefficients[w.bits])
            expected = convolve_oracle({v.bits: coefficients[v.bits]}, {w.bits: coefficients[w.bits]})
            product = x * y
            assert product.coeffs == expected
            assert product == TwistedAlgebraElement(sigma, expected)
            assert_lowest_terms(product)

    def test_product_matches_literal_convolution_random_genus_three(self):
        rng = random.Random(2024)
        space = SymplecticF2Space(3)
        sigma = QuadraticRefinement.canonical(space, 0)
        raw = [
            {
                rng.randrange(64): Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
                for _ in range(rng.randrange(1, 65))
            }
            for _ in range(50)
        ]
        elements = [TwistedAlgebraElement(sigma, coeffs) for coeffs in raw]
        for i, x in enumerate(elements):
            j = (i + 1) % len(elements)
            product = x * elements[j]
            expected = convolve_oracle(raw[i], raw[j])
            assert product.coeffs == expected
            assert product == TwistedAlgebraElement(sigma, expected)
            assert_lowest_terms(product)

    def test_difference_with_itself_and_zero_scalar_normalise(self):
        space = SymplecticF2Space(2)
        sigma = QuadraticRefinement.canonical(space, 0)
        x = TwistedAlgebraElement(sigma, {3: Fraction(-7, 6), 9: Fraction(5, 4)})
        zero = TwistedAlgebraElement.zero(sigma)
        assert x - x == zero
        assert (x - x).denominator == 1
        scaled = 0 * x
        assert scaled == zero and scaled.is_zero
        assert scaled.denominator == 1 and not any(scaled.numerators)
        assert x * 0 == zero

    def test_coeffs_is_read_only_view_in_lowest_terms(self, g1):
        _, sigma = g1
        x = TwistedAlgebraElement(sigma, {1: Fraction(2, 4), 2: 3, 3: 0})
        assert x.coeffs == {1: Fraction(1, 2), 2: Fraction(3)}
        assert (x.numerators, x.denominator) == ((0, 1, 6, 0), 2)
        with pytest.raises(AttributeError):
            x.coeffs = {}

    def test_dense_element_beyond_enumeration_cap_fails_before_allocating(self):
        space = SymplecticF2Space(20)
        sigma = QuadraticRefinement.canonical(space, 0)
        builders = (
            lambda: TwistedAlgebraElement.symbol(sigma, space.zero),
            lambda: TwistedAlgebraElement.zero(sigma),
            lambda: TwistedAlgebraElement(sigma, {0: 1}),
            lambda: projection(sigma),
        )
        tracemalloc.start()
        try:
            for build in builders:
                with pytest.raises(EnumerationCapError, match="enumeration cap"):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2^40 entries would be terabytes; the guard fires first
        assert peak < 1 << 20


class TestRebase:
    def test_identity_symbol_fixed(self, g1):
        space, sigma = g1
        x = TwistedAlgebraElement.symbol(sigma.shift(space.basis_b(1)), space.zero)
        assert x.rebase(space.basis_b(1)).coefficient(space.zero) == 1

    def test_sign_flip(self, g1):
        space, sigma = g1
        # [a1] over sigma + b1 equals -[a1] over sigma
        moved = sigma.shift(space.basis_b(1))
        x = TwistedAlgebraElement.symbol(moved, space.basis_a(1))
        rebased = x.rebase(space.basis_b(1))
        assert rebased.spin == sigma
        assert rebased.coefficient(space.basis_a(1)) == -1

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_involution(self, g):
        space = SymplecticF2Space(g)
        sigma = QuadraticRefinement.canonical(space, 1)
        x = TwistedAlgebraElement(
            sigma, {v.bits: Fraction(1 + v.bits) for v in space.vectors()}
        )
        for ell in space.basis():
            assert x.rebase(ell).rebase(ell) == x

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_per_mask_oracle_for_every_ell(self, g):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        # numerators of both signs, and zeros, over a denominator of 7
        mixed = TwistedAlgebraElement(
            refinements[-1],
            {v.bits: Fraction((v.bits % 3 - 1) * (v.bits + 1), 7) for v in space.vectors()},
        )
        # every P_sigma, so every operand P_(sigma+ell) of the orthogonality record
        elements = [projection(sigma) for sigma in refinements] + [mixed]
        for ell in space.vectors():
            dual = space.dual_bits(ell)
            popcounts = [(m & dual).bit_count() for m in range(1 << space.dimension)]
            assert _signs(space.dimension, dual) == tuple((-1) ** c for c in popcounts)
            for x in elements:
                moved = x.rebase(ell)
                assert (moved.spin, moved.numerators, moved.denominator) == rebase_oracle(x, ell)


class TestProjections:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_equals_the_reduced_and_the_validated_build(self, g):
        space = SymplecticF2Space(g)
        size = 1 << space.dimension
        for sigma in QuadraticRefinement.all_refinements(space):
            p = projection(sigma)
            r = TwistedAlgebraElement._reduced(sigma, [1] * size, size)
            assert (p.spin, p.numerators, p.denominator) == (r.spin, r.numerators, r.denominator)
        # no sigma changes the numerators, so once per genus against the validating constructor
        validated = TwistedAlgebraElement(sigma, {m: Fraction(1, size) for m in range(size)})
        assert (p.numerators, p.denominator) == (validated.numerators, validated.denominator)

    def test_coefficients_at_genus_one(self, g1):
        space, sigma = g1
        p = projection(sigma)
        for v in space.vectors():
            assert p.coefficient(v) == Fraction(1, 4)

    def test_idempotent(self, g1):
        _, sigma = g1
        p = projection(sigma)
        assert p * p == p

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_idempotent_all_spins(self, g):
        space = SymplecticF2Space(g)
        for sigma in QuadraticRefinement.all_refinements(space):
            p = projection(sigma)
            assert p * p == p
            assert p.coefficient(space.zero) == Fraction(1, 1 << (2 * g))

    def test_orthogonality_genus_one(self, g1):
        space, sigma = g1
        assert orthogonality_check(sigma, space.basis_a(1))

    @pytest.mark.parametrize("g", [1, 2])
    def test_orthogonality_exhaustive(self, g):
        space = SymplecticF2Space(g)
        for sigma in QuadraticRefinement.all_refinements(space):
            for ell in space.vectors():
                if not ell.is_zero:
                    assert orthogonality_check(sigma, ell)

    def test_idempotent_all_spins_genus_four(self):
        space = SymplecticF2Space(4)
        refinements = list(QuadraticRefinement.all_refinements(space))
        assert len(refinements) == 256
        for sigma in refinements:
            p = projection(sigma)
            assert p * p == p

    @pytest.mark.parametrize("arf_value", [0, 1])
    def test_orthogonality_genus_four_against_every_shift(self, arf_value):
        space = SymplecticF2Space(4)
        sigma = QuadraticRefinement.canonical(space, arf_value)
        shifts = [ell for ell in space.vectors() if not ell.is_zero]
        assert len(shifts) == 255
        for ell in shifts:
            assert orthogonality_check(sigma, ell)

    def test_trivial_shift_rejected(self, g1):
        space, sigma = g1
        with pytest.raises(ValueError, match="non-trivial"):
            orthogonality_check(sigma, space.zero)


class TestProjectionChecks:
    def test_details_count_every_case(self):
        details = {r.name: r.details for r in checks.check_projections(max_genus=2)}
        assert details["projections idempotent g=2"] == "16 squares P_sigma P_sigma"
        assert details["projections orthogonal g=2"] == "240 products P_(sigma+ell) P_sigma"

    @staticmethod
    def rebase_altered_at(monkeypatch, alter):
        """Make rebase return alter(element) for the case (sigma mask 5, ell mask 3) only.

        The rebased element of the case (sigma, ell) is expressed over sigma.
        """
        honest = TwistedAlgebraElement.rebase

        def rebase(self, ell):
            rebased = honest(self, ell)
            if (rebased.spin.basis_values, ell.bits) == (5, 3):
                return alter(rebased)
            return rebased

        monkeypatch.setattr(TwistedAlgebraElement, "rebase", rebase)

    def test_first_counterexample_reported(self, monkeypatch):
        # adding [0] leaves a non-zero product with P_sigma; the case before,
        # (4, 3), has the unaltered vectors, so its verdict must not be reused
        def perturbed(element):
            return element + TwistedAlgebraElement.symbol(element.spin, element.spin.space.zero)

        self.rebase_altered_at(monkeypatch, perturbed)
        results = {r.name: r for r in checks.check_projections(max_genus=2)}
        record = results["projections orthogonal g=2"]
        # ell-major: 16 spin structures for each of ell masks 1 and 2, then sigma masks 0..5
        assert not record.passed
        assert record.details == (
            "38 products P_(sigma+ell) P_sigma; first counterexample (sigma mask, ell mask) = (5, 3)"
        )
        assert results["projections orthogonal g=1"].passed

    def test_spin_mismatch_still_raises(self, monkeypatch):
        # the same vectors as the case before, over another spin structure
        def respun(element):
            space = element.spin.space
            return TwistedAlgebraElement._trusted(
                element.spin.shift(space.basis_a(1)), element.numerators, element.denominator
            )

        self.rebase_altered_at(monkeypatch, respun)
        with pytest.raises(ValueError, match="^mismatched reference spin structures$"):
            checks.check_projections(max_genus=2)

    def test_trace_decomposition_reports_spin_structures(self):
        results = checks.check_trace_decomposition(max_genus=2)
        assert [r.details for r in results] == [
            f"total {base} over {spins} spin structures"
            for spins in (4, 16)
            for base in checks.TRACE_BASE_DIMS
            for _ in checks.TRACE_LAMBDAS
        ]


class TestTraceFunctional:
    def test_identity_symbol_traces_to_base_dim(self, g1):
        space, sigma = g1
        one = TwistedAlgebraElement.symbol(sigma, space.zero)
        assert trace_functional(one, 10, 1, 0) == 10

    def test_nontrivial_symbol_at_genus_two(self):
        space = SymplecticF2Space(2)
        sigma = QuadraticRefinement.canonical(space, 0)
        # pick Z preserving the Arf invariant: sign +1, weight (lambda+1)^{g-1} = 2
        z = next(
            v
            for v in space.vectors()
            if not v.is_zero and sigma.shift(v).arf() == sigma.arf()
        )
        x = TwistedAlgebraElement.symbol(sigma, z)
        assert trace_functional(x, 10, 1, 0) == 2

    def test_projection_trace_reproduces_dimension(self):
        space = SymplecticF2Space(2)
        sigma = QuadraticRefinement.canonical(space, 0)
        assert trace_functional(projection(sigma), 10, 1, 0) == 1

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("base,lam", [(10, 1), (84, 3), (7, 2)])
    def test_projection_traces_sum_to_base(self, g, base, lam):
        space = SymplecticF2Space(g)
        total = sum(
            trace_functional(projection(sigma), base, lam, 0)
            for sigma in QuadraticRefinement.all_refinements(space)
        )
        assert total == base

    def test_matches_dims_via_traces(self):
        from spinverlinde.dimensions import dims_via_traces
        from spinverlinde.fusion import twisted_dim, verlinde_dim

        for g in (2, 3):
            space = SymplecticF2Space(g)
            for p in (8, 16):
                lam = p // 4 - 1
                for eps in (0, 1):
                    sigma = QuadraticRefinement.canonical(space, eps)
                    base_even = verlinde_dim(g, p // 2 - 2)
                    assert trace_functional(
                        projection(sigma), base_even, lam, 0
                    ) == dims_via_traces(g, eps, base_even, lam, 0)
                    base_odd = twisted_dim(g, p)
                    assert trace_functional(
                        projection(sigma), base_odd, lam, 1
                    ) == dims_via_traces(g, eps, base_odd, lam, 1)


class TestLiftSignTable:
    @pytest.fixture(autouse=True)
    def empty_table(self):
        _lift_signs.cache_clear()
        yield
        _lift_signs.cache_clear()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_the_per_mask_oracle_on_every_spin_structure(self, g):
        rng = random.Random(35 + g)
        for sigma in QuadraticRefinement.all_refinements(SymplecticF2Space(g)):
            for x in (projection(sigma), random_element(sigma, rng), TwistedAlgebraElement.zero(sigma)):
                for w2 in (0, 1):
                    for base, lam in ((10, 1), (84, 3), (7, 2)):
                        assert trace_functional(x, base, lam, w2) == trace_oracle(x, base, lam, w2)

    def test_matches_the_oracle_past_the_table_size(self):
        # two passes over 96 (sigma, w2) at genus 4 to 6, more than the 64
        # tables kept, so that the second pass finds its tables evicted
        rng = random.Random(35)
        cases = [
            (random_element(QuadraticRefinement(space, rng.randrange(1 << space.dimension)), rng), w2)
            for space in map(SymplecticF2Space, (4, 5, 6))
            for _ in range(16)
            for w2 in (0, 1)
        ]
        for x, w2 in cases + cases:
            assert trace_functional(x, 10, 1, w2) == trace_oracle(x, 10, 1, w2)
        info = _lift_signs.cache_info()
        assert info.misses > info.maxsize == info.currsize == 64

    def test_each_sign_once_per_spin_structure_and_w2(self, monkeypatch):
        # a sign per (sigma, non-zero mask, w2) that the suites trace:
        # 4 * 3 + 16 * 15 + 64 * 63 at g <= 3 for tracedecomp (w2 = 0), and
        # for traces 4 (eps, w2) at each default genus 2..5, of 4^g - 1 masks
        honest = heisenberg._lift_sign
        made = []

        def counted(*args):
            made.append(None)
            return honest(*args)

        monkeypatch.setattr(heisenberg, "_lift_sign", counted)
        assert all(r.passed for r in checks.check_trace_decomposition(3))
        assert len(made) == 4284
        made.clear()
        assert all(r.passed for r in checks.check_traces())
        assert len(made) == 5424 == 4 * sum(4**g - 1 for g in checks.DEFAULT_GENERA)


class TestHeisenbergGroup:
    def test_group_law_and_center(self):
        group = HeisenbergGroup(1)
        a = group.from_vector(group.space.basis_a(1))
        b = group.from_vector(group.space.basis_b(1))
        ab = a * b
        ba = b * a
        # the two products differ by the central sign (-1)^{<a,b>}
        assert ab.vector == ba.vector
        assert (ab.central - ba.central) % 4 == 2

    def test_inverse(self):
        group = HeisenbergGroup(2)
        for el in group.elements():
            assert el * el.inverse() == group.identity
            assert el.inverse() * el == group.identity

    def test_order(self):
        assert HeisenbergGroup(1).order == 16
        assert len(list(HeisenbergGroup(2).elements())) == 64 == HeisenbergGroup(2).order

    @pytest.mark.parametrize("g", [1, 2])
    def test_product_is_the_cocycle_formula_exhaustive(self, g):
        # (t, v)(t', w) = (t + t' + 2 sum_i a_i(v) b_i(w), v + w), read off the coordinates
        elements = list(HeisenbergGroup(g).elements())
        for x, y in itertools.product(elements, elements):
            v, w = x.vector, y.vector
            cocycle = sum(v.coordinate(2 * i) * w.coordinate(2 * i + 1) for i in range(g)) % 2
            central = (x.central + y.central + 2 * cocycle) % 4
            assert x * y == HeisenbergElement(central, F2Vector(v.bits ^ w.bits, 2 * g))

    def test_central_generator_order_four(self):
        group = HeisenbergGroup(1)
        w = group.central_generator
        assert w * w * w * w == group.identity
        assert w * w != group.identity


class TestHeisenbergRep:
    def test_swap_and_diagonal_generators(self):
        group = HeisenbergGroup(1)
        rep_a = heisenberg_rep(group.from_vector(group.space.basis_a(1)))
        assert dense(rep_a) == [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
        rep_b = heisenberg_rep(group.from_vector(group.space.basis_b(1)))
        assert dense(rep_b) == [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]

    def test_center_acts_by_i(self):
        for g in (1, 2, 3):
            group = HeisenbergGroup(g)
            assert heisenberg_rep(group.central_generator) == MonomialMatrix.identity(
                1 << g
            ).times_i()

    @pytest.mark.parametrize("g", [1, 2])
    def test_exact_homomorphism_exhaustive(self, g):
        group = HeisenbergGroup(g)
        elements = list(group.elements())
        reps = {el: heisenberg_rep(el) for el in elements}
        for x in elements:
            for y in elements:
                assert reps[x] @ reps[y] == reps[x * y]

    @pytest.mark.parametrize("g", [1, 2])
    def test_product_matches_dense_oracle_exhaustive(self, g):
        group = HeisenbergGroup(g)
        elements = list(group.elements())
        reps = {el: heisenberg_rep(el) for el in elements}
        for x in elements:
            for y in elements:
                product = dense(reps[x] @ reps[y])
                assert product == dense_mul(dense(reps[x]), dense(reps[y]))
                assert product == dense(reps[x * y])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_with_non_injective_columns_matches_dense_oracle(self, n):
        matrices = every_column_map(n)
        for a, b in itertools.product(matrices, matrices):
            assert dense(a @ b) == dense_mul(dense(a), dense(b))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_product_and_unary_operations_match_the_per_row_oracle(self, n):
        matrices = every_column_map(n)
        for a, b in itertools.product(matrices, matrices):
            product = a @ b
            assert (product.columns, product.phases) == per_row_product(a, b)
            assert product == MonomialMatrix(*per_row_product(a, b))
        for a in matrices:
            assert (-a).phases == tuple((t + 2) % 4 for t in a.phases) and (-a).columns == a.columns
            assert a.times_i().phases == tuple((t + 1) % 4 for t in a.phases)
            assert a.times_i().columns == a.columns
            fixed = [POWERS_OF_I[t] for x, (c, t) in enumerate(zip(a.columns, a.phases)) if c == x]
            assert a.trace() == (sum(re for re, _ in fixed), sum(im for _, im in fixed))

    def test_empty_matrix(self):
        empty = MonomialMatrix((), ())
        assert empty @ empty == empty == MonomialMatrix.identity(0)
        assert (empty @ empty).trace() == (0, 0)
        assert -empty == empty.times_i() == empty
        assert repr(empty @ empty) == "MonomialMatrix(columns=(), phases=())"

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(matrix_triples())
    @example(triple=(((0,), (3,)), ((0,), (1,)), ((0,), (2,))))
    @example(triple=(((), ()), ((), ()), ((), ())))
    @example(
        triple=((tuple(range(63, -1, -1)), (1,) * 64), ((0,) * 64, (2,) * 64), (tuple(range(64)), (3,) * 64))
    )
    def test_random_products_match_the_oracles(self, triple):
        # n in 0..64 and column maps that need not be injective; the n = 1 and
        # n = 0 examples pin the gathers of one index and of none, the n = 64
        # one the largest size with a reversal, a constant map and the identity
        a, b, c = (MonomialMatrix(columns, phases) for columns, phases in triple)
        for m, raw in zip((a, b, c), triple):
            assert (m.columns, m.phases) == raw
        product = a @ b
        assert (product.columns, product.phases) == per_row_product(a, b)
        assert dense(product) == dense_mul(dense(a), dense(b))
        assert (a @ b) @ c == a @ (b @ c)
        assert (-a).columns == a.columns and (-a).phases == tuple((t + 2) % 4 for t in a.phases)
        assert a.times_i().columns == a.columns
        assert a.times_i().phases == tuple((t + 1) % 4 for t in a.phases)
        fixed = [POWERS_OF_I[t] for x, (c, t) in enumerate(zip(a.columns, a.phases)) if c == x]
        assert a.trace() == (sum(re for re, _ in fixed), sum(im for _, im in fixed))
        # every one of them has now served as a right operand: it holds its
        # point map, and still behaves as a fresh copy of itself
        b @ a
        for used, raw in zip((a, b, c), triple):
            fresh = MonomialMatrix(*raw)
            assert used == fresh and fresh == used and hash(used) == hash(fresh) == hash((used.images,))
            assert repr(used) == repr(fresh) and vars(used) == vars(fresh) == {"images": used.images}
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                dumped = pickle.dumps(used, protocol)
                assert dumped == pickle.dumps(fresh, protocol)
                assert pickle.loads(dumped) == fresh
            for clone in (copy.copy(used), copy.deepcopy(used)):
                assert clone == fresh and vars(clone) == vars(fresh)
                assert clone @ a == fresh @ a

    @pytest.mark.parametrize("g", [1, 2])
    def test_unary_operations_and_trace_match_dense_oracle(self, g):
        group = HeisenbergGroup(g)
        n = 1 << g

        def scalar(unit):
            return [[unit if r == c else (0, 0) for c in range(n)] for r in range(n)]

        minus_one, i = scalar((-1, 0)), scalar((0, 1))
        assert dense(MonomialMatrix.identity(n)) == scalar((1, 0))
        for el in group.elements():
            rep = heisenberg_rep(el)
            assert dense(-rep) == dense_mul(minus_one, dense(rep))
            assert dense(rep.times_i()) == dense_mul(i, dense(rep))
            diagonal = [dense(rep)[x][x] for x in range(n)]
            assert rep.trace() == (sum(re for re, _ in diagonal), sum(im for _, im in diagonal))

    def test_homomorphism_sampled_genus_three(self):
        rng = random.Random(3)
        group = HeisenbergGroup(3)
        elements = list(group.elements())
        for _ in range(300):
            x, y = rng.choice(elements), rng.choice(elements)
            assert heisenberg_rep(x) @ heisenberg_rep(y) == heisenberg_rep(x * y)

    @pytest.mark.parametrize("g", [1, 2])
    def test_commutator_is_pairing_sign(self, g):
        group = HeisenbergGroup(g)
        space = group.space
        for v in space.vectors():
            for w in space.vectors():
                x, y = group.from_vector(v), group.from_vector(w)
                lhs = heisenberg_rep(x) @ heisenberg_rep(y)
                rhs = heisenberg_rep(y) @ heisenberg_rep(x)
                if space.pair(v, w):
                    assert lhs == -rhs
                else:
                    assert lhs == rhs

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_traces(self, g):
        group = HeisenbergGroup(g)
        n = 1 << g
        for el in group.elements():
            trace = heisenberg_rep(el).trace()
            if el.vector.is_zero:
                assert trace == [(n, 0), (0, n), (-n, 0), (0, -n)][el.central]
            else:
                assert trace == (0, 0)

    @pytest.mark.parametrize("g", [1, 2])
    def test_faithful(self, g):
        group = HeisenbergGroup(g)
        seen = {
            tuple(map(tuple, dense(heisenberg_rep(el)))) for el in group.elements()
        }
        assert len(seen) == group.order

    def test_entries_are_gaussian_units(self):
        group = HeisenbergGroup(2)
        for el in group.elements():
            for row in dense(heisenberg_rep(el)):
                assert set(row) <= {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
                assert sum(entry != (0, 0) for entry in row) == 1

    @pytest.mark.parametrize("value", [True, 3, None], ids=["bool", "int", "none"])
    def test_refuses_what_is_not_a_heisenberg_element(self, value):
        with pytest.raises(TypeError, match=rf"^heisenberg_rep needs a HeisenbergElement, got {type(value).__name__} "):
            heisenberg_rep(value)

    def test_representation_cap(self):
        # the cap is checked before any of the 2^11 rows is built
        group = HeisenbergGroup(heisenberg.DEFAULT_REPRESENTATION_CAP + 1)
        with pytest.raises(ValueError, match="^genus 11 exceeds the representation cap 10$"):
            heisenberg_rep(group.identity)

    def test_monomial_matrix_validated(self):
        with pytest.raises(ValueError, match="one entry per row"):
            MonomialMatrix((0, 1), (0,))
        with pytest.raises(ValueError, match="mod 4"):
            MonomialMatrix((0,), (4,))
        # the 0 x 0 identity is test_empty_matrix's; a negative size is no size
        for n in (-1, -3):
            with pytest.raises(ValueError, match=f"non-negative, got {n}"):
                MonomialMatrix.identity(n)

    def test_central_part_validated(self):
        space = SymplecticF2Space(1)
        with pytest.raises(ValueError):
            HeisenbergElement(4, space.zero)
