"""Named verification suites for every finite identity the library asserts.

Each suite returns a list of CheckResult records; a suite passes when all
of its records do.  The suites deliberately recompute quantities along
independent routes (brute-force enumeration against closed forms, the
exact power-sum dimensions against interval-certified trigonometric sums)
rather than trusting the primary implementation.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .dimensions import bm_even_dim, bm_odd_dim, dims_via_traces, sum_over_spin
from .f2 import F2Vector, SymplecticF2Space
from .fusion import twisted_dim, twisted_trig_oracle, verlinde_dim, verlinde_trig_oracle
from .heisenberg import (
    HeisenbergGroup,
    MonomialMatrix,
    heisenberg_rep,
    orthogonality_check,
    projection,
    trace_functional,
)
from .levels import (
    beta_pullback,
    bhmv_from_su2,
    bm_from_so3,
    correspondence_table,
    metaplectic_shift,
    so3_level,
    su2_from_bhmv,
)
from .spin import QuadraticRefinement, arf_gauss_sum, count_by_arf, lift_sign

DEFAULT_GENERA = (2, 3, 4, 5)
DEFAULT_LEVELS_P = (8, 16, 24, 32)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""


def _result(name: str, passed: bool, details: str = "") -> CheckResult:
    return CheckResult(name, passed, details)


# ---------------------------------------------------------------------------
# symplectic pairing and character sums


def check_pairing(max_genus: int = 4) -> list[CheckResult]:
    results = []
    # full bilinearity sweeps are exhaustive only up to genus 3
    for g in range(1, min(max_genus, 3) + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        bilinear = all(
            space.pair(v + w, x) == (space.pair(v, x) ^ space.pair(w, x))
            for v in vectors
            for w in vectors
            for x in space.basis()
        )
        results.append(_result(f"pairing bilinear g={g}", bilinear))
        alternating = all(space.pair(v, v) == 0 for v in vectors)
        results.append(_result(f"pairing alternating g={g}", alternating))
        symmetric = all(space.pair(v, w) == space.pair(w, v) for v in vectors for w in vectors)
        results.append(_result(f"pairing symmetric g={g}", symmetric))
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        nondegenerate = all(
            any(space.pair(v, w) for w in space.basis())
            for v in space.vectors()
            if not v.is_zero
        )
        results.append(_result(f"pairing non-degenerate g={g}", nondegenerate))
    return results


def brute_character_sum(space: SymplecticF2Space, b: F2Vector) -> int:
    """Literal sum over all vectors of (-1)^{<b, l>}; the enumeration oracle."""
    return sum(1 - 2 * space.pair(b, ell) for ell in space.vectors())


def check_character_sums(max_genus: int = 3) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        agree = all(
            space.character_sum(b) == brute_character_sum(space, b) for b in space.vectors()
        )
        results.append(_result(f"character sum closed form = brute force g={g}", agree))
        dichotomy = all(
            space.character_sum(b) == ((1 << (2 * g)) if b.is_zero else 0)
            for b in space.vectors()
        )
        results.append(_result(f"character sum dichotomy g={g}", dichotomy))
    return results


# ---------------------------------------------------------------------------
# quadratic refinements


def check_refinements(max_genus: int = 3) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        refinements = list(QuadraticRefinement.all_refinements(space))
        law = all(
            q(v + w) == (q(v) ^ q(w) ^ space.pair(v, w))
            for q in refinements
            for v in vectors
            for w in space.basis()
        )
        results.append(_result(f"refinement law g={g}", law))
        base = QuadraticRefinement.canonical(space, 0)
        orbit = {base.shift(ell).basis_values for ell in vectors}
        transitive = orbit == {q.basis_values for q in refinements}
        involutive = all(q.shift(ell).shift(ell) == q for q in refinements for ell in space.basis())
        results.append(
            _result(f"shift is a free transitive torsor action g={g}", transitive and involutive)
        )
        arf_match = all(q.arf() == q.arf_by_counting() for q in refinements)
        results.append(_result(f"arf closed form = zero counting g={g}", arf_match))
    return results


def check_arf(max_genus: int = 4) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        counted = [0, 0]
        for q in QuadraticRefinement.all_refinements(space):
            counted[q.arf()] += 1
        expected = count_by_arf(g)
        results.append(
            _result(
                f"arf counts g={g}",
                tuple(counted) == expected,
                f"enumerated {tuple(counted)}, closed form {expected}",
            )
        )
        results.append(
            _result(
                f"arf gauss sum g={g}",
                arf_gauss_sum(g) == 2**g == counted[0] - counted[1],
                f"sum {counted[0] - counted[1]}",
            )
        )
    return results


def check_lift_signs(max_genus: int = 3) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        refinements = list(QuadraticRefinement.all_refinements(space))
        for w2 in (0, 1):
            summed = all(
                sum(lift_sign(sigma, z, w2, 1) for z in vectors)
                == (-1) ** (w2 + sigma.arf()) * 2**g
                for sigma in refinements
            )
            results.append(_result(f"lift sign sum identity g={g} w2={w2}", summed))
        quadratic = all(
            (sigma.shift(z + w).arf() ^ sigma.arf())
            == (sigma.shift(z).arf() ^ sigma.arf())
            ^ (sigma.shift(w).arf() ^ sigma.arf())
            ^ space.pair(z, w)
            for sigma in refinements
            for z in vectors
            for w in space.basis()
        )
        results.append(_result(f"arf difference is a quadratic refinement g={g}", quadratic))
    return results


# ---------------------------------------------------------------------------
# exact dimensions against the interval oracle


def check_verlinde(
    genera: Iterable[int] = range(1, 7), su2_levels: Iterable[int] = range(0, 17)
) -> list[CheckResult]:
    results = []
    for g in genera:
        for k in su2_levels:
            series_value = verlinde_dim(g, k)
            certified = verlinde_trig_oracle(g, k)
            results.append(
                _result(
                    f"verlinde trace = oracle (g={g}, k={k})",
                    series_value == certified.value and certified.width < Fraction(1, 2),
                    f"series {series_value}, oracle {certified.value}",
                )
            )
    return results


def check_twisted(
    genera: Iterable[int] = range(1, 7), levels_p: Iterable[int] | None = None
) -> list[CheckResult]:
    if levels_p is None:
        levels_p = [2 * (k + 2) for k in range(0, 17)]
    levels_p = [p for p in levels_p if p >= 4 and p % 2 == 0]
    results = []
    for g in genera:
        for p in levels_p:
            series_value = twisted_dim(g, p)
            certified = twisted_trig_oracle(g, p)
            results.append(
                _result(
                    f"twisted trace = oracle (g={g}, p={p})",
                    series_value == certified.value and certified.width < Fraction(1, 2),
                    f"series {series_value}, oracle {certified.value}",
                )
            )
    return results


# ---------------------------------------------------------------------------
# projection algebra


def _first_failure(cases: Iterable, holds: Callable[[Any], bool]) -> tuple[int, Any]:
    """Run holds over the cases in order: how many ran, and the first that failed (or None)."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(case):
            return checked, case
    return checked, None


def check_projections(max_genus: int = 3) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        checked, failure = _first_failure(
            refinements, lambda sigma: projection(sigma) * projection(sigma) == projection(sigma)
        )
        details = f"{checked} squares P_sigma P_sigma"
        if failure is not None:
            details += f"; first counterexample sigma mask {failure.basis_values}"
        results.append(_result(f"projections idempotent g={g}", failure is None, details))
        nonzero = [ell for ell in space.vectors() if not ell.is_zero]
        checked, failure = _first_failure(
            itertools.product(refinements, nonzero), lambda pair: orthogonality_check(*pair)
        )
        details = f"{checked} products P_(sigma+ell) P_sigma"
        if failure is not None:
            sigma, ell = failure
            details += (
                f"; first counterexample (sigma mask, ell mask) = ({sigma.basis_values}, {ell.bits})"
            )
        results.append(_result(f"projections orthogonal g={g}", failure is None, details))
    return results


def check_trace_decomposition(
    max_genus: int = 3, base_dims: Sequence[int] = (10, 84), lambdas: Sequence[int] = (1, 3)
) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        for base in base_dims:
            for lam in lambdas:
                total = sum(
                    trace_functional(projection(sigma), base, lam, 0) for sigma in refinements
                )
                results.append(
                    _result(
                        f"sum of projection traces g={g} base={base} lambda={lam}",
                        total == base,
                        f"total {total} over {len(refinements)} spin structures",
                    )
                )
    return results


# ---------------------------------------------------------------------------
# dimension identities


def check_traces(
    genera: Iterable[int] = DEFAULT_GENERA, levels_p: Iterable[int] = DEFAULT_LEVELS_P
) -> list[CheckResult]:
    levels_p = [p for p in levels_p if p > 0 and p % 8 == 0]
    results = []
    for g in genera:
        for p in levels_p:
            lam = p // 4 - 1
            for eps in (0, 1):
                via_traces = dims_via_traces(g, eps, verlinde_dim(g, p // 2 - 2), lam, 0)
                closed = bm_even_dim(g, p, eps)
                results.append(
                    _result(
                        f"trace route = even closed form (g={g}, p={p}, eps={eps})",
                        via_traces == closed,
                        f"traces {via_traces}, closed {closed}",
                    )
                )
                via_traces_odd = dims_via_traces(g, eps, twisted_dim(g, p), lam, 1)
                closed_odd = bm_odd_dim(g, p, eps)
                results.append(
                    _result(
                        f"trace route = odd closed form (g={g}, p={p}, eps={eps})",
                        via_traces_odd == closed_odd,
                        f"traces {via_traces_odd}, closed {closed_odd}",
                    )
                )
    return results


def check_decomposition(
    genera: Iterable[int] = DEFAULT_GENERA, levels_p: Iterable[int] = DEFAULT_LEVELS_P
) -> list[CheckResult]:
    levels_p = [p for p in levels_p if p > 0 and p % 8 == 0]
    results = []
    for g in genera:
        for p in levels_p:
            refined = sum_over_spin(g, p)
            unrefined = verlinde_dim(g, p // 2 - 2)
            results.append(
                _result(
                    f"refinement identity (g={g}, p={p})",
                    refined == unrefined,
                    f"sum over spin structures {refined}, unrefined {unrefined}",
                )
            )
            n_even, n_odd = count_by_arf(g)
            graded_total = sum(
                count * (bm_even_dim(g, p, eps) + bm_odd_dim(g, p, eps))
                for count, eps in ((n_even, 0), (n_odd, 1))
            )
            expected = unrefined + twisted_dim(g, p)
            results.append(
                _result(
                    f"total dimension identity (g={g}, p={p})",
                    graded_total == expected,
                    f"graded total {graded_total}, expected {expected}",
                )
            )
    return results


def check_integrality(max_genus: int = 6, max_p: int = 64) -> list[CheckResult]:
    """Sweep the full grid; the formulas themselves raise on non-integrality."""
    results = []
    cells = 0
    for g in range(2, max_genus + 1):
        for p in range(8, max_p + 1, 8):
            for eps in (0, 1):
                even = bm_even_dim(g, p, eps)
                odd = bm_odd_dim(g, p, eps)
                if even < 0 or odd < 0:
                    results.append(
                        _result(f"integrality (g={g}, p={p}, eps={eps})", False, "negative value")
                    )
                    return results
                cells += 1
    results.append(
        _result(
            f"integrality sweep g<={max_genus} p<={max_p}",
            True,
            f"{cells} graded cells, all non-negative integers",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Heisenberg model


def check_heisenberg(max_genus: int = 3) -> list[CheckResult]:
    results = []
    for g in range(1, max_genus + 1):
        group = HeisenbergGroup(g)
        elements = list(group.elements())
        reps = {el: heisenberg_rep(el) for el in elements}
        n = 1 << g
        homomorphism = all(
            reps[x] @ reps[y] == reps[x * y] for x in elements for y in elements
        )
        results.append(_result(f"heisenberg rep is a homomorphism g={g}", homomorphism))
        vector_elements = [el for el in elements if el.central == 0]
        commutator = all(
            reps[x] @ reps[y]
            == (reps[y] @ reps[x] if group.space.pair(x.vector, y.vector) == 0 else -(reps[y] @ reps[x]))
            for x in vector_elements
            for y in vector_elements
        )
        results.append(_result(f"heisenberg commutator pairing g={g}", commutator))
        center = (
            heisenberg_rep(group.central_generator)
            == MonomialMatrix.identity(n).times_i()
        )
        results.append(_result(f"central generator acts by i g={g}", center))
        off_center = all(reps[el].trace() == (0, 0) for el in elements if not el.vector.is_zero)
        central_traces = all(
            heisenberg_rep(group.element(t, group.space.zero)).trace()
            == [(n, 0), (0, n), (-n, 0), (0, -n)][t]
            for t in range(4)
        )
        results.append(_result(f"heisenberg traces g={g}", off_center and central_traces))
        faithful = len(set(reps.values())) == len(elements)
        results.append(_result(f"heisenberg rep faithful g={g}", faithful))
    return results


# ---------------------------------------------------------------------------
# levels


def check_levels(max_m: int = 50) -> list[CheckResult]:
    results = []
    consistent = all(
        bm_from_so3(2 * m - 1).value == bhmv_from_su2(beta_pullback(2 * m - 1)).value
        for m in range(1, max_m + 1)
    )
    results.append(_result(f"bm/so3/su2/bhmv consistency m<={max_m}", consistent))
    round_trips = all(su2_from_bhmv(bhmv_from_su2(k)).value == k for k in range(0, 2 * max_m))
    results.append(_result("bhmv round trips", round_trips))
    shift_commutes = all(
        beta_pullback(metaplectic_shift(so3_level(k))).value
        == metaplectic_shift(beta_pullback(k)).value
        for k in range(0, 20)
    )
    results.append(_result("metaplectic shift commutes with pullback", shift_commutes))
    table = correspondence_table()
    try:
        performed = table.validate()
        results.append(_result("correspondence table validates", True, f"{len(performed)} checks"))
    except ValueError as exc:
        results.append(_result("correspondence table validates", False, str(exc)))
    return results


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "pairing": check_pairing,
    "charsum": check_character_sums,
    "refinement": check_refinements,
    "arf": check_arf,
    "liftsign": check_lift_signs,
    "verlinde": check_verlinde,
    "twisted": check_twisted,
    "projs": check_projections,
    "tracedecomp": check_trace_decomposition,
    "traces": check_traces,
    "decomp": check_decomposition,
    "integrality": check_integrality,
    "heisenberg": check_heisenberg,
    "levels": check_levels,
}


def run_suite(name: str, **params) -> list[CheckResult]:
    """Run one named suite, or every suite for name = 'all'.

    Parameters not accepted by a given suite are dropped, so shared
    options like genus ranges can be passed to 'all' safely.
    """
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(run_suite(suite_name, **params))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown check suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    suite = SUITES[name]
    accepted = inspect.signature(suite).parameters
    applicable = {key: value for key, value in params.items() if key in accepted}
    return suite(**applicable)
