import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from spinverlinde import checks
from spinverlinde.f2 import EnumerationCapError, F2Vector, SymplecticF2Space
from spinverlinde.heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    TwistedAlgebraElement,
    heisenberg_rep,
    orthogonality_check,
    projection,
    trace_functional,
)
from spinverlinde.spin import QuadraticRefinement

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


def assert_lowest_terms(x):
    assert x.denominator > 0
    assert math.gcd(x.denominator, *x.numerators) == 1


@pytest.fixture
def g1():
    space = SymplecticF2Space(1)
    return space, QuadraticRefinement.canonical(space, 0)


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

    def test_dense_element_honours_a_lowered_cap(self):
        space = SymplecticF2Space(2, enumeration_cap=1)
        sigma = QuadraticRefinement.canonical(space, 0)
        with pytest.raises(EnumerationCapError):
            TwistedAlgebraElement.zero(sigma)


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
        elements = [projection(sigma) for sigma in refinements] + [mixed]
        for ell in space.vectors():
            for x in elements:
                moved = x.rebase(ell)
                assert (moved.spin, moved.numerators, moved.denominator) == rebase_oracle(x, ell)


class TestProjections:
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
        results = checks.check_trace_decomposition(max_genus=2, base_dims=(10,), lambdas=(1,))
        assert [r.details for r in results] == [
            "total 10 over 4 spin structures",
            "total 10 over 16 spin structures",
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
        # every column map, a permutation or not; every phase vector for n <= 2
        phase_vectors = list(itertools.product(range(4), repeat=n)) if n <= 2 else [(0, 1, 2), (3, 3, 1)]
        matrices = [
            MonomialMatrix(columns, phases)
            for columns in itertools.product(range(n), repeat=n)
            for phases in phase_vectors
        ]
        for a, b in itertools.product(matrices, matrices):
            assert dense(a @ b) == dense_mul(dense(a), dense(b))

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

    def test_representation_cap(self):
        group = HeisenbergGroup(4)
        with pytest.raises(ValueError, match="cap"):
            heisenberg_rep(group.identity, representation_cap=3)

    def test_monomial_matrix_validated(self):
        with pytest.raises(ValueError, match="one entry per row"):
            MonomialMatrix((0, 1), (0,))
        with pytest.raises(ValueError, match="mod 4"):
            MonomialMatrix((0,), (4,))

    def test_central_part_validated(self):
        space = SymplecticF2Space(1)
        with pytest.raises(ValueError):
            HeisenbergElement(4, space.zero)
