import random

import pytest

from spinverlinde.f2 import F2Vector, SymplecticF2Space
from spinverlinde.spin import (
    QuadraticRefinement,
    arf_gauss_sum,
    count_by_arf,
    lift_sign,
)


def eval_by_peeling(q, v, order=None):
    """Independent evaluation: peel off one basis vector at a time through
    q(u + e) = q(u) + q(e) + <u, e>, in any supplied order."""
    indices = [i for i in range(v.dim) if (v.bits >> i) & 1]
    if order is not None:
        indices = order
    total = 0
    accumulated = q.space.zero
    for i in indices:
        e = F2Vector(1 << i, v.dim)
        total ^= (q.basis_values >> i) & 1
        total ^= q.space.pair(accumulated, e)
        accumulated = accumulated + e
    return total


class TestEvaluate:
    def test_trivial_refinement_on_sum(self):
        space = SymplecticF2Space(1)
        q = QuadraticRefinement(space, 0b00)
        v = space.basis_a(1) + space.basis_b(1)
        assert q(v) == 1  # 0 + 0 + <a,b>

    def test_zero_vector(self):
        space = SymplecticF2Space(2)
        for q in QuadraticRefinement.all_refinements(space):
            assert q(space.zero) == 0

    def test_all_ones_refinement_on_sum(self):
        space = SymplecticF2Space(1)
        q = QuadraticRefinement(space, 0b11)
        v = space.basis_a(1) + space.basis_b(1)
        assert q(v) == 1  # 1 + 1 + 1 over GF(2)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_refinement_law_exhaustive(self, g):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for q in QuadraticRefinement.all_refinements(space):
            for v in vectors:
                for w in space.basis():
                    assert q(v + w) == q(v) ^ q(w) ^ space.pair(v, w)

    def test_well_defined_under_expansion_order(self):
        rng = random.Random(7)
        space = SymplecticF2Space(3)
        for q in [QuadraticRefinement(space, rng.randrange(64)) for _ in range(8)]:
            for v in space.vectors():
                indices = [i for i in range(v.dim) if (v.bits >> i) & 1]
                for _ in range(4):
                    rng.shuffle(indices)
                    assert eval_by_peeling(q, v, list(indices)) == q(v)


class TestShift:
    def test_shift_by_zero(self):
        space = SymplecticF2Space(2)
        q = QuadraticRefinement(space, 0b1010)
        assert q.shift(space.zero) == q

    def test_shift_example(self):
        space = SymplecticF2Space(1)
        q = QuadraticRefinement(space, 0b00)
        shifted = q.shift(space.basis_a(1))
        assert shifted(space.basis_a(1)) == 0  # <a,a> = 0
        assert shifted(space.basis_b(1)) == 1  # <a,b> = 1

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_involution_and_action_law(self, g):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for q in QuadraticRefinement.all_refinements(space):
            for ell in space.basis():
                assert q.shift(ell).shift(ell) == q
        base = QuadraticRefinement.canonical(space, 0)
        for ell in vectors:
            shifted = base.shift(ell)
            for v in vectors:
                assert shifted(v) == base(v) ^ space.pair(ell, v)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_free_transitive_torsor(self, g):
        space = SymplecticF2Space(g)
        base = QuadraticRefinement.canonical(space, 0)
        orbit = {base.shift(ell).basis_values for ell in space.vectors()}
        assert len(orbit) == 1 << (2 * g)


class TestArf:
    def test_trivial_refinement_is_even(self):
        space = SymplecticF2Space(1)
        assert QuadraticRefinement(space, 0b00).arf() == 0

    def test_all_ones_genus_one_is_odd(self):
        space = SymplecticF2Space(1)
        q = QuadraticRefinement(space, 0b11)
        assert q.arf() == 1
        # exactly one zero of q: the origin, which is 2^{2g-1} - 2^{g-1}
        zeros = [v for v in space.vectors() if q(v) == 0]
        assert len(zeros) == 1

    def test_all_ones_genus_two_is_even(self):
        space = SymplecticF2Space(2)
        q = QuadraticRefinement(space, 0b1111)
        assert q.arf() == 0
        assert sum(1 for v in space.vectors() if q(v) == 0) == 10

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_closed_form_matches_counting(self, g):
        space = SymplecticF2Space(g)
        for q in QuadraticRefinement.all_refinements(space):
            assert q.arf() == q.arf_by_counting()

    def test_canonical_refinements(self):
        space = SymplecticF2Space(3)
        assert QuadraticRefinement.canonical(space, 0).arf() == 0
        assert QuadraticRefinement.canonical(space, 1).arf() == 1
        with pytest.raises(ValueError):
            QuadraticRefinement.canonical(space, 2)


class TestArfCombinatorics:
    @pytest.mark.parametrize(
        "g,expected", [(1, (3, 1)), (2, (10, 6)), (3, (36, 28)), (4, (136, 120))]
    )
    def test_count_by_arf_closed_form(self, g, expected):
        assert count_by_arf(g) == expected
        assert sum(count_by_arf(g)) == 1 << (2 * g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_count_by_arf_matches_enumeration(self, g):
        space = SymplecticF2Space(g)
        counts = [0, 0]
        for q in QuadraticRefinement.all_refinements(space):
            counts[q.arf()] += 1
        assert tuple(counts) == count_by_arf(g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_gauss_sum(self, g):
        space = SymplecticF2Space(g)
        assert arf_gauss_sum(g) == 2**g
        assert arf_gauss_sum(g) == sum(
            (-1) ** q.arf() for q in QuadraticRefinement.all_refinements(space)
        )


class TestSigns:
    def test_lift_sign_trivial_class(self):
        space = SymplecticF2Space(1)
        sigma = QuadraticRefinement(space, 0b00)
        assert lift_sign(sigma, space.zero, 0, 1) == 1
        assert lift_sign(sigma, space.zero, 1, 1) == -1
        assert lift_sign(sigma, space.zero, 1, 0) == -1

    def test_lift_sign_arf_flip(self):
        space = SymplecticF2Space(1)
        sigma = QuadraticRefinement(space, 0b00)
        z = space.basis_a(1) + space.basis_b(1)
        assert sigma.shift(z).arf() == 1
        assert lift_sign(sigma, z, 0, 1) == -1
        assert lift_sign(sigma, z, 1, 1) == 1

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("w2", [0, 1])
    def test_lift_sign_sum_identity(self, g, w2):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for sigma in QuadraticRefinement.all_refinements(space):
            total = sum(lift_sign(sigma, z, w2, 1) for z in vectors)
            assert total == (-1) ** (w2 + sigma.arf()) * 2**g

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_lift_sign_equals_the_shift_then_arf_route(self, g):
        # the slow route of the definition, (-1)^{w2 + w2_rho (arf(sigma + Z) - arf(sigma))},
        # for every sigma and Z
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for sigma in QuadraticRefinement.all_refinements(space):
            for z in vectors:
                arf_difference = sigma.shift(z).arf() ^ sigma.arf()
                for w2 in (0, 1):
                    for w2_rho in (0, 1):
                        expected = (-1) ** (w2 + w2_rho * arf_difference)
                        assert lift_sign(sigma, z, w2, w2_rho) == expected

    def test_lift_sign_rejects_bad_inputs(self):
        space = SymplecticF2Space(2)
        sigma = QuadraticRefinement(space, 0)
        with pytest.raises(ValueError, match=r"^w2_bundle must be 0 or 1, got 2$"):
            lift_sign(sigma, space.zero, 2, 1)
        with pytest.raises(ValueError, match=r"^w2_rho must be 0 or 1, got -1$"):
            lift_sign(sigma, space.zero, 0, -1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            lift_sign(sigma, SymplecticF2Space(1).zero, 0, 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_arf_difference_is_quadratic(self, g):
        # Z -> arf(sigma + Z) - arf(sigma) refines the pairing again
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for sigma in QuadraticRefinement.all_refinements(space):
            diff = {z.bits: sigma.shift(z).arf() ^ sigma.arf() for z in vectors}
            for z in vectors:
                for w in space.basis():
                    assert (
                        diff[(z + w).bits]
                        == diff[z.bits] ^ diff[w.bits] ^ space.pair(z, w)
                    )


class TestRefusals:
    def test_count_by_arf_below_genus_one(self):
        with pytest.raises(ValueError, match=r"\Agenus must be a positive integer, got 0\Z"):
            count_by_arf(0)

    def test_basis_values_out_of_range(self):
        space = SymplecticF2Space(2)
        with pytest.raises(ValueError, match=r"\Abasis_values 16 out of range for dimension 4\Z"):
            QuadraticRefinement(space, 1 << 4)

    def test_evaluate_on_a_vector_of_another_dimension(self):
        q = QuadraticRefinement(SymplecticF2Space(2), 0)
        with pytest.raises(ValueError, match=r"\Adimension mismatch: vector has dimension 2, space has 4\Z"):
            q.evaluate(SymplecticF2Space(1).zero)
