from functools import partial

import pytest

from spinverlinde import dimensions, fusion
from spinverlinde.dimensions import (
    GradedDimension,
    IdentityViolationError,
    IntegralityError,
    bm_even_dim,
    bm_odd_dim,
    corollary_bases,
    corollary_dims,
    dims_via_traces,
    spin_cs_dims,
    sum_over_spin,
)
from spinverlinde.f2 import EnumerationCapError
from spinverlinde.fusion import twisted_dim, twisted_trig_oracle, verlinde_dim, verlinde_trig_oracle
from spinverlinde.spin import count_by_arf

GENERA = (2, 3, 4, 5)
LEVELS_P = (8, 16, 24, 32)

# frozen grid computed from the trigonometric sums at 200-bit precision
BM_EVEN = {
    (2, 8): (1, 0), (2, 16): (6, 4), (2, 24): (19, 16), (2, 32): (44, 40),
    (3, 8): (1, 0), (3, 16): (28, 24), (3, 24): (281, 272), (3, 32): (1520, 1504),
    (4, 8): (1, 0), (4, 16): (168, 160), (4, 24): (5755, 5728), (4, 32): (74048, 73984),
    (5, 8): (1, 0), (5, 16): (1104, 1088), (5, 24): (126449, 126368), (5, 32): (3831040, 3830784),
}
BM_ODD = {
    (2, 8): (0, 1), (2, 16): (2, 4), (2, 24): (8, 11), (2, 32): (20, 24),
    (3, 8): (0, 1), (3, 16): (20, 24), (3, 24): (232, 241), (3, 32): (1296, 1312),
    (4, 8): (0, 1), (4, 16): (152, 160), (4, 24): (5504, 5531), (4, 32): (71360, 71424),
    (5, 8): (0, 1), (5, 16): (1072, 1088), (5, 24): (125056, 125137), (5, 32): (3795712, 3795968),
}


class TestBmDims:
    def test_genus_two_level_eight(self):
        assert bm_even_dim(2, 8, 0) == 1
        assert bm_even_dim(2, 8, 1) == 0
        assert bm_odd_dim(2, 8, 0) == 0
        assert bm_odd_dim(2, 8, 1) == 1

    def test_genus_two_level_sixteen(self):
        assert bm_even_dim(2, 16, 0) == 6

    def test_genus_three_level_eight_odd(self):
        # (28 - 4 * 7) / 64 = 0
        assert bm_odd_dim(3, 8, 0) == 0

    @pytest.mark.parametrize("g", GENERA)
    @pytest.mark.parametrize("p", LEVELS_P)
    def test_frozen_grid(self, g, p):
        assert (bm_even_dim(g, p, 0), bm_even_dim(g, p, 1)) == BM_EVEN[(g, p)]
        assert (bm_odd_dim(g, p, 0), bm_odd_dim(g, p, 1)) == BM_ODD[(g, p)]

    def test_level_validation(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            bm_even_dim(2, 12, 0)
        with pytest.raises(ValueError, match="multiple of 8"):
            bm_odd_dim(2, -8, 0)
        with pytest.raises(ValueError):
            bm_even_dim(2, 8, 2)

    def test_genus_one_needs_flag(self):
        with pytest.raises(ValueError, match="allow_genus_one"):
            bm_even_dim(1, 8, 0)
        assert bm_even_dim(1, 8, 0, allow_genus_one=True) == 1
        assert bm_even_dim(1, 8, 1, allow_genus_one=True) == 0


class TestSpinCsDims:
    def test_index_one(self):
        assert spin_cs_dims(2, 1, 0) == GradedDimension(even=1, odd=0)
        assert spin_cs_dims(2, 1, 1) == GradedDimension(even=0, odd=1)

    def test_index_two(self):
        dims = spin_cs_dims(2, 2, 0)
        assert dims.even == 6
        assert dims.odd == (twisted_dim(2, 16) - 4 * 3) // 16 == 2
        assert dims.total == 8

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            spin_cs_dims(2, 0, 0)


class TestCorollaryDims:
    def test_explicit_bases_match_bm(self):
        # given bases reach the same formula through the trace route, with lambda_rho = p/4 - 1
        assert corollary_dims(2, 1, 0) == GradedDimension(1, 0) == GradedDimension(
            dims_via_traces(2, 0, 10, 1, 0), dims_via_traces(2, 0, 6, 1, 1)
        )
        assert corollary_dims(2, 1, 1) == GradedDimension(0, 1) == GradedDimension(
            dims_via_traces(2, 1, 10, 1, 0), dims_via_traces(2, 1, 6, 1, 1)
        )

    def test_explicit_level_sixteen(self):
        assert corollary_dims(2, 3, 0).even == dims_via_traces(2, 0, 84, 3, 0) == 6
        assert corollary_dims(2, 2, 0, convention="corollary") == corollary_dims(2, 3, 0)

    def test_default_binding_coincides_with_bm(self):
        for g in (2, 3):
            for k in (1, 3, 5):
                p = 4 * (k + 1)
                for eps in (0, 1):
                    dims = corollary_dims(g, k, eps)
                    assert dims.even == bm_even_dim(g, p, eps)
                    assert dims.odd == bm_odd_dim(g, p, eps)

    def test_corollary_binding_is_integral_too(self):
        # the literal reading binds even k to p = 4(k + 2); it lands on the
        # same formulas at a shifted level, so it stays integral
        for g in (2, 3):
            for k in (0, 2, 4):
                p = 4 * (k + 2)
                base_even, base_odd, c = corollary_bases(g, k, "corollary")
                assert base_even == verlinde_dim(g, p // 2 - 2)
                assert base_odd == twisted_dim(g, p)
                assert c == p // 4
                for eps in (0, 1):
                    dims = corollary_dims(g, k, eps, convention="corollary")
                    assert dims.even >= 0 and dims.odd >= 0

    def test_parity_constraints_per_convention(self):
        with pytest.raises(ValueError, match="odd"):
            corollary_bases(2, 2, "bm")
        with pytest.raises(ValueError, match="even"):
            corollary_bases(2, 1, "corollary")
        with pytest.raises(ValueError, match="convention"):
            corollary_bases(2, 1, "other")

    @pytest.mark.parametrize("convention, level", [("bm", True), ("corollary", False)])
    def test_a_bool_level_is_refused(self, convention, level):
        # as LevelValue refuses a float: the shift k + 0 would turn True into the level 1
        message = rf"^levels are integers, got bool {level!r}$"
        with pytest.raises(TypeError, match=message):
            corollary_dims(2, level, 0, convention=convention)

    # each call after its int twin, which is equal and hashes equal: were the
    # caches untyped, verlinde_dim and twisted_dim would answer from them
    @pytest.mark.parametrize(
        "function, twin, args, message",
        [
            (verlinde_dim, (2, 1), (2, True), "levels are integers, got bool True"),
            (verlinde_dim, (1, 2), (True, 2), "genera are integers, got bool True"),
            (verlinde_dim, (2, 2), (2, 2.0), "levels are integers, got float 2.0"),
            (twisted_dim, (1, 8), (True, 8), "genera are integers, got bool True"),
            (bm_even_dim, (2, 8, 1), (2, 8, True), "eps values are integers, got bool True"),
            (bm_odd_dim, (2, 8, 0), (2, 8, False), "eps values are integers, got bool False"),
            (
                partial(bm_even_dim, allow_genus_one=True),
                (1, 8, 0),
                (True, 8, 0),
                "genera are integers, got bool True",
            ),
            (spin_cs_dims, (2, 1, 0), (2, True, 0), "indices are integers, got bool True"),
            (verlinde_trig_oracle, (2, 1), (2, True), "levels are integers, got bool True"),
            (twisted_trig_oracle, (1, 8), (True, 8), "genera are integers, got bool True"),
        ],
        ids=[
            "verlinde-level", "verlinde-genus", "verlinde-float", "twisted-genus", "even-eps", "odd-eps",
            "even-genus", "spin-cs-index", "verlinde-oracle", "twisted-oracle",
        ],
    )
    def test_a_bool_argument_is_refused_after_its_int_twin(self, function, twin, args, message):
        function(*twin)
        with pytest.raises(TypeError, match=f"^{message}$"):
            function(*args)

    def test_non_integral_raises_with_convention(self, monkeypatch):
        # a base off by one: the message names the level p each convention pairs k with
        monkeypatch.setattr(dimensions, "verlinde_dim", lambda g, k: fusion.verlinde_dim(g, k) + 1)
        with pytest.raises(IntegralityError, match=r"^bm_even_dim\(g=2, p=8, eps=0\) \[base dim 11\]"):
            corollary_dims(2, 1, 0)
        with pytest.raises(IntegralityError, match=r"^bm_even_dim\(g=2, p=16, eps=0\) \[base dim 85\]"):
            corollary_dims(2, 2, 0, convention="corollary")

    def test_negative_raises(self, monkeypatch):
        # odd part (-10 - 2 * 3) / 16 = -1: exactly divisible but negative
        monkeypatch.setattr(dimensions, "twisted_dim", lambda g, p: -10)
        with pytest.raises(IntegralityError, match="negative"):
            corollary_dims(2, 1, 0)

    def test_base_past_the_str_digit_limit(self, monkeypatch):
        # a 5001-digit base, past CPython's default limit of 4300 digits for
        # int-to-str conversion: a call that raises nothing must not convert it
        monkeypatch.setattr(dimensions, "verlinde_dim", lambda g, k: 16 * 10**5000 - 6)
        monkeypatch.setattr(dimensions, "twisted_dim", lambda g, p: 16 * 10**5000 + 6)
        assert bm_even_dim(2, 8, 0) == bm_odd_dim(2, 8, 0) == 10**5000
        assert corollary_dims(2, 1, 0) == GradedDimension(10**5000, 10**5000)


class TestDimsViaTraces:
    def test_matches_bm_even_at_level_eight(self):
        assert dims_via_traces(2, 0, 10, 1, 0) == bm_even_dim(2, 8, 0) == 1

    def test_matches_bm_odd_at_level_eight(self):
        assert dims_via_traces(2, 1, 6, 1, 1) == bm_odd_dim(2, 8, 1) == 1

    @pytest.mark.parametrize("g", GENERA)
    @pytest.mark.parametrize("p", LEVELS_P)
    @pytest.mark.parametrize("eps", [0, 1])
    def test_trace_route_equals_closed_form_on_grid(self, g, p, eps):
        lam = p // 4 - 1
        assert dims_via_traces(g, eps, verlinde_dim(g, p // 2 - 2), lam, 0) == bm_even_dim(g, p, eps)
        assert dims_via_traces(g, eps, twisted_dim(g, p), lam, 1) == bm_odd_dim(g, p, eps)

    def test_genus_one_flagged(self):
        with pytest.raises(ValueError, match="allow_genus_one"):
            dims_via_traces(1, 0, 3, 1, 0)
        # (lambda + 1)^0 = 1: 2^{-2} (3 + (2 - 1)) = 1
        assert dims_via_traces(1, 0, 3, 1, 0, allow_genus_one=True) == 1

    def test_non_integral_raises(self):
        with pytest.raises(IntegralityError):
            dims_via_traces(2, 0, 11, 1, 0)

    def test_termwise_disagreement_raises(self, lift_sign_flipped_at_a1):
        # the lift sign of [a1], flipped at the name the sign tables of
        # trace_functional call, moves the termwise sum by
        # 2 (lambda + 1)^{g-1} = 4 off the closed form
        with pytest.raises(IdentityViolationError, match="termwise trace sum 12 != closed form 16"):
            dims_via_traces(2, 0, 10, 1, 0)

    @pytest.mark.parametrize("g", [7, 10_000])
    def test_enumeration_cap_raises(self, g):
        # the cap is checked before the 2^{2g} projection vector is built
        with pytest.raises(EnumerationCapError, match=f"genus {g} exceeds enumeration cap 6"):
            dims_via_traces(g, 0, 1, 1, 0)


class TestSumOverSpin:
    def test_level_eight(self):
        assert sum_over_spin(2, 8) == 10 == verlinde_dim(2, 2)

    def test_level_sixteen(self):
        n_even, n_odd = count_by_arf(2)
        assert sum_over_spin(2, 16) == 84 == n_even * 6 + n_odd * 4

    def test_genus_one_flagged(self):
        with pytest.raises(ValueError, match="allow_genus_one"):
            sum_over_spin(1, 8)
        assert sum_over_spin(1, 8, allow_genus_one=True) == 3 == verlinde_dim(1, 2)

    @pytest.mark.parametrize("g", GENERA)
    @pytest.mark.parametrize("p", LEVELS_P)
    def test_refinement_identity_on_grid(self, g, p):
        assert sum_over_spin(g, p) == verlinde_dim(g, p // 2 - 2)

    @pytest.mark.parametrize("g", GENERA)
    @pytest.mark.parametrize("p", LEVELS_P)
    def test_total_dimension_identity_on_grid(self, g, p):
        n_even, n_odd = count_by_arf(g)
        total = sum(
            count * (bm_even_dim(g, p, eps) + bm_odd_dim(g, p, eps))
            for count, eps in ((n_even, 0), (n_odd, 1))
        )
        assert total == verlinde_dim(g, p // 2 - 2) + twisted_dim(g, p)


class TestIntegralitySweep:
    def test_full_grid_integral_and_nonnegative(self):
        for g in range(2, 7):
            for p in range(8, 65, 8):
                for eps in (0, 1):
                    assert bm_even_dim(g, p, eps) >= 0
                    assert bm_odd_dim(g, p, eps) >= 0

    def test_arf_dependence_only(self):
        # only the Arf invariant of the refinement enters the formulas;
        # dims_via_traces is pinned to a canonical refinement, so cross-check
        # the underlying sign sums over every refinement of each parity
        from spinverlinde.f2 import SymplecticF2Space
        from spinverlinde.spin import QuadraticRefinement, lift_sign

        for g in (2, 3):
            space = SymplecticF2Space(g)
            by_arf = {0: set(), 1: set()}
            for sigma in QuadraticRefinement.all_refinements(space):
                signs = sum(lift_sign(sigma, z, 0, 1) for z in space.vectors())
                by_arf[sigma.arf()].add(signs)
            assert by_arf[0] == {2**g}
            assert by_arf[1] == {-(2**g)}
