import itertools
import random
from fractions import Fraction

import pytest

from spinverlinde.f2 import SymplecticF2Space
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

    def test_trivial_shift_rejected(self, g1):
        space, sigma = g1
        with pytest.raises(ValueError, match="non-trivial"):
            orthogonality_check(sigma, space.zero)


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
