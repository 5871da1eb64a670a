"""Acceptance suite: every finite identity the library asserts, each at its
stated tolerance (exact integer equality unless noted) and runtime budget.
One pass/fail line per criterion is reported at the end of the run."""

import time

import pytest

from _acceptance_report import criterion
from spinverlinde.dimensions import (
    IntegralityError,
    bm_even_dim,
    bm_odd_dim,
    corollary_dims,
    dims_via_traces,
    sum_over_spin,
)
from spinverlinde.f2 import SymplecticF2Space
from spinverlinde.fusion import (
    _csc_square_enclosures,
    _interval_context,
    twisted_dim,
    twisted_trig_oracle,
    verlinde_dim,
    verlinde_trig_oracle,
)
from spinverlinde.heisenberg import (
    HeisenbergGroup,
    MonomialMatrix,
    heisenberg_rep,
    orthogonality_check,
    projection,
)
from spinverlinde.levels import (
    beta_pullback,
    bhmv_from_su2,
    bm_from_so3,
    correspondence_table,
)
from spinverlinde.spin import QuadraticRefinement, arf_gauss_sum, count_by_arf

GRID_GENERA = (2, 3, 4, 5)
GRID_LEVELS = (8, 16, 24, 32)


def _cold_caches():
    verlinde_dim.cache_clear()
    twisted_dim.cache_clear()
    _csc_square_enclosures.cache_clear()
    _interval_context.cache_clear()


def test_criterion_01_verlinde_values():
    with criterion(1, "Verlinde values: genus-1 sweep k<=64 and genus-2 cells, trace = oracle, <1s"):
        _cold_caches()
        start = time.perf_counter()
        for k in range(65):
            assert verlinde_dim(1, k) == k + 1
            assert verlinde_trig_oracle(1, k).value == k + 1
        for k, expected in ((1, 4), (2, 10), (4, 35), (6, 84)):
            assert verlinde_dim(2, k) == expected
            certified = verlinde_trig_oracle(2, k)
            assert certified.value == expected
            assert certified.upper - certified.lower < 0.5
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_02_twisted_values():
    with criterion(2, "twisted values (2,8)=6 (3,8)=28 (1,8)=1, trace = oracle, <1s"):
        _cold_caches()
        start = time.perf_counter()
        for g, p, expected in ((2, 8, 6), (3, 8, 28), (1, 8, 1)):
            assert twisted_dim(g, p) == expected
            certified = twisted_trig_oracle(g, p)
            assert certified.value == expected
            assert certified.upper - certified.lower < 0.5
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_03_bm_spin_dimensions():
    with criterion(3, "graded spin dimensions at (g=2, p=8) and (g=2, p=16), exact"):
        assert (bm_even_dim(2, 8, 0), bm_odd_dim(2, 8, 0)) == (1, 0)
        assert (bm_even_dim(2, 8, 1), bm_odd_dim(2, 8, 1)) == (0, 1)
        assert bm_even_dim(2, 16, 0) == 6


def test_criterion_04_refinement_identity():
    with criterion(4, "sum over spin structures = unrefined dimension, g in 2..5, p in 8..32, <30s"):
        start = time.perf_counter()
        for g in GRID_GENERA:
            for p in GRID_LEVELS:
                assert sum_over_spin(g, p) == verlinde_dim(g, p // 2 - 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_05_trace_route_equals_closed_form():
    with criterion(5, "termwise lift-sign trace route = closed form, cell by cell on the grid"):
        for g in GRID_GENERA:
            for p in GRID_LEVELS:
                lam = p // 4 - 1
                for eps in (0, 1):
                    assert dims_via_traces(
                        g, eps, verlinde_dim(g, p // 2 - 2), lam, 0
                    ) == bm_even_dim(g, p, eps)
                    assert dims_via_traces(
                        g, eps, twisted_dim(g, p), lam, 1
                    ) == bm_odd_dim(g, p, eps)


def test_criterion_06_projection_algebra():
    with criterion(6, "P^2 = P and P_{s+l} P_s = 0 for all s, l != 0, exhaustive g<=3, <5s"):
        start = time.perf_counter()
        for g in (1, 2, 3):
            space = SymplecticF2Space(g)
            refinements = list(QuadraticRefinement.all_refinements(space))
            assert len(refinements) == 1 << (2 * g)
            for sigma in refinements:
                p_sigma = projection(sigma)
                assert p_sigma * p_sigma == p_sigma
            for sigma in refinements:
                for ell in space.vectors():
                    if not ell.is_zero:
                        assert orthogonality_check(sigma, ell)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"


def test_criterion_07_arf_combinatorics():
    with criterion(7, "Arf counts (3,1),(10,6),(36,28),(136,120) vs enumeration; Gauss sum 2^g, g<=4"):
        expected_counts = {1: (3, 1), 2: (10, 6), 3: (36, 28), 4: (136, 120)}
        for g in (1, 2, 3, 4):
            assert count_by_arf(g) == expected_counts[g]
            space = SymplecticF2Space(g)
            enumerated = [0, 0]
            for q in QuadraticRefinement.all_refinements(space):
                enumerated[q.arf()] += 1
            assert tuple(enumerated) == expected_counts[g]
            assert arf_gauss_sum(g) == 2**g == enumerated[0] - enumerated[1]


def test_criterion_08_character_sums():
    with criterion(8, "character sums: 2^{2g} at b = 0 and 0 elsewhere, exhaustive g<=3"):
        for g in (1, 2, 3):
            space = SymplecticF2Space(g)
            for b in space.vectors():
                closed = space.character_sum(b)
                brute = sum(1 - 2 * space.pair(b, ell) for ell in space.vectors())
                assert closed == brute
                assert closed == ((1 << (2 * g)) if b.is_zero else 0)


def test_criterion_09_level_correspondences():
    with criterion(9, "level pairing consistency m<=50; residue table verbatim and validated"):
        for m in range(1, 51):
            k = 2 * m - 1
            assert bm_from_so3(k).value == bhmv_from_su2(beta_pullback(k)).value == 8 * m
        table = correspondence_table()
        assert [c.bhmv_mod8 for c in table.columns] == [0, 4, 2, 6]
        assert [c.su2_mod4 for c in table.columns] == [2, 0, 1, 3]
        assert [c.so3_mod2 for c in table.columns] == [1, 0, None, None]
        assert [c.structure for c in table.columns] == [
            "spin structure",
            "Z/2-bundle",
            None,
            None,
        ]
        assert table.validate()


def test_criterion_10_heisenberg_model():
    with criterion(10, "Heisenberg rep: exact homomorphism, commutator sign, center i, traces, g<=3"):
        for g in (1, 2, 3):
            group = HeisenbergGroup(g)
            elements = list(group.elements())
            reps = {el: heisenberg_rep(el) for el in elements}
            n = 1 << g
            for x in elements:
                for y in elements:
                    assert reps[x] @ reps[y] == reps[x * y]
            space = group.space
            for v in space.vectors():
                for w in space.vectors():
                    x, y = group.from_vector(v), group.from_vector(w)
                    product = reps[x] @ reps[y]
                    reverse = reps[y] @ reps[x]
                    if space.pair(v, w):
                        assert product == -reverse
                    else:
                        assert product == reverse
            assert reps[group.central_generator] == MonomialMatrix.identity(n).times_i()
            for el in elements:
                if el.vector.is_zero:
                    assert reps[el].trace() == [(n, 0), (0, n), (-n, 0), (0, -n)][el.central]
                else:
                    assert reps[el].trace() == (0, 0)
            assert reps[group.identity].trace() == (n, 0)


def test_criterion_11_integrality_sweep():
    with criterion(11, "full grid g<=6, p<=64 integral and non-negative; non-integral aborts loudly"):
        for g in range(2, 7):
            for p in range(8, 65, 8):
                for eps in (0, 1):
                    even = bm_even_dim(g, p, eps)
                    odd = bm_odd_dim(g, p, eps)
                    assert isinstance(even, int) and even >= 0
                    assert isinstance(odd, int) and odd >= 0
        with pytest.raises(IntegralityError) as excinfo:
            corollary_dims(2, 1, 0, base_even=11, base_odd=6, correction_base=2)
        assert "convention='bm'" in str(excinfo.value)
        assert "11" in str(excinfo.value)
