"""Named verification suites for every finite identity the library asserts.

Each suite returns a list of CheckResult records; a suite passes when all
of its records do.  The suites deliberately recompute quantities along
independent routes (brute-force enumeration against closed forms, the
exact power-sum dimensions against the trigonometric sums certified by
their residues modulo Phi_n(2^t)) rather than trusting the primary
implementation.  An exact value meets its certified oracle in
``_oracle_record`` alone, which the CLI's verlinde table shares; the record
passes when the values agree and the certificate pins one integer,
2 bound < modulus.  A cell the oracle cannot certify is a failed record.
A suite whose grid has no cell, a genus range below 1 included, raises
ValueError rather than pass vacuously, and so does a suite given a genus
or level below the least it takes, before its first cell, a grid
larger than ``MAX_RANGE_VALUES``, or an oracle level whose certified sum
has more terms than that.  ``run_suite`` takes the options of ``spinverlinde
check`` and reads one table, ``_OPTIONS``, for the keyword argument each
option sets and the grid check each suite runs before any suite does:
``_grid_check`` for every suite but ``integrality``, which bounds its cells itself.

Every case still runs, in order, but a suite computes each sub-result that
its cases share once.  ``pairing``, ``refinement`` and ``liftsign`` make
their sums, pairings and refinement values once per distinct argument and
hand ``_counted`` the verdicts, so that a case evaluates only its own part.
The projection products depend on the spin structure only through its
label, so ``projs`` reuses the previous case's product while both factors'
vectors repeat, and ``heisenberg`` keeps its representation matrices in a
list indexed by element rather than a dict keyed by the elements.  The
``heisenberg`` commutator record reads the products of central part 0 that
the homomorphism record has made, and multiplies only where that record
stopped at a counterexample before making them; without that store the
benchmark workload ``identities`` (``check all``) took 0.423 s against 0.406 s,
medians of 5 alternating runs of wall_s at reference speed.  The suites over
a genus x level grid, ``integrality`` included, evaluate their cells
level-major through ``_level_major``, as the CLI's tables do, and list them
genus-major.  The graded suites read ``dimensions._graded_cell``
and ``_level_bases``; a violated trace route fails its record.
"""

from __future__ import annotations

import itertools
from operator import eq
from typing import Any, Callable, Iterable, Sequence

from ._value import Value
from .dimensions import IdentityViolationError, _graded_cell, _level_bases, dims_via_traces
from .f2 import F2Vector, SymplecticF2Space
from .fusion import MAX_RANGE_VALUES, CertificationError, CertifiedInteger, _require_terms, twisted_dim
from .fusion import twisted_trig_oracle, verlinde_dim, verlinde_trig_oracle
from .heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    heisenberg_rep,
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


class CheckResult(Value):
    name: str
    passed: bool
    details: str

    def __init__(self, name: str, passed: bool, details: str = "") -> None:
        self._store(name=name, passed=passed, details=details)


def _masks(case: Any) -> str:
    """A case by bit masks: vectors and refinements by their masks, Heisenberg elements as (t, mask)."""
    if isinstance(case, tuple):
        return "(" + ", ".join(map(_masks, case)) + ")"
    if isinstance(case, F2Vector):
        return str(case.bits)
    if isinstance(case, QuadraticRefinement):
        return str(case.basis_values)
    if isinstance(case, HeisenbergElement):
        return f"({case.central}, {case.vector.bits})"
    return str(case)


def _counted(
    name: str, cases: Iterable, holds: Callable[[Any], bool] | Iterable[bool], counted: str, labels: str
) -> CheckResult:
    """A record that passes when holds is true on every case.

    ``holds`` is a predicate, or the verdicts in case order, zipped lazily
    with the cases; verdicts more or fewer than the cases raise ValueError.
    The cases run in order and stop at the first failure.
    The details give the number run, named by ``counted``, and on failure
    the counterexample, its parts named by ``labels``.
    """
    if callable(holds):
        cases, each = itertools.tee(cases)
        holds = map(holds, each)
    checked = 0
    for case, verdict in zip(cases, holds, strict=True):
        checked += 1
        if not verdict:
            details = f"{checked} {counted}; first counterexample {labels} = {_masks(case)}"
            return CheckResult(name, False, details)
    return CheckResult(name, True, f"{checked} {counted}")


def _require_genera(suite: str, max_genus: int) -> None:
    """Before a sweep over genus 1..max_genus starts: a ValueError naming the
    suite if the range is empty, and the EnumerationCapError the sweep would reach."""
    if max_genus < 1:
        raise ValueError(f"check {suite}: no genus g with 1 <= g <= {max_genus}")
    for g in range(1, max_genus + 1):
        SymplecticF2Space(g)._check_enumeration_cap()


# the least genus that each suite over a list of genera takes
_LEAST_GENUS = {"verlinde": 1, "twisted": 1, "traces": 2, "decomp": 2}


def _genera_from(suite: str, genera: Iterable[int]) -> list[int]:
    """The genera as a list; a ValueError naming the suite if one is below its least genus."""
    genera = list(genera)
    least = _LEAST_GENUS[suite]
    if genera and min(genera) < least:
        raise ValueError(f"check {suite}: genus must be >= {least}, got {min(genera)}")
    return genera


def _su2_levels_from(su2_levels: Iterable[int]) -> list[int]:
    """The levels k of the verlinde suite as a list; a ValueError if one is
    negative, or if the oracle's sum over j < k + 2 at one is too long."""
    su2_levels = list(su2_levels)
    if su2_levels and min(su2_levels) < 0:
        raise ValueError(f"check verlinde: level must be >= 0, got {min(su2_levels)}")
    if su2_levels:
        _require_terms(max(su2_levels) + 2, ("check verlinde: level k={}", max(su2_levels)))
    return su2_levels


# (least, step) of the levels p that each level-filtering suite keeps
_LEVEL_FILTERS = {"twisted": (4, 2), "traces": (8, 8), "decomp": (8, 8)}


def _levels_kept(suite: str, levels_p: Iterable[int]) -> list[int]:
    """The levels p >= least that are multiples of step, by the suite's filter;
    a ValueError naming the suite if none is, or, for twisted, if the oracle's
    sum over j < p/2 at one is too long."""
    least, step = _LEVEL_FILTERS[suite]
    kept = [p for p in levels_p if p >= least and p % step == 0]
    if not kept:
        raise ValueError(f"check {suite}: none of the levels p given is a multiple of {step} and >= {least}")
    if suite == "twisted":
        _require_terms(max(kept) // 2, ("check twisted: level p={}", max(kept)))
    return kept


def _level_major(genera: Sequence[int], levels: Sequence[int], cell: Callable[[int, int], Any]) -> list:
    """cell(g, level) on every cell of the grid, evaluated level-major, so that a
    level's power-sum and residue tables serve every genus while the bounded
    caches of ``fusion`` hold them, and returned genus-major, the order of every
    table and record list.  The CLI's lists are sorted, so an invalid genus or
    level is the first of its list and the first cell raises in either order."""
    by_level = [[cell(g, level) for g in genera] for level in levels]
    return [result for row in zip(*by_level) for result in row]


# ---------------------------------------------------------------------------
# symplectic pairing and character sums


def check_pairing(max_genus: int = 4) -> list[CheckResult]:
    _require_genera("pairing", max_genus)
    results = []
    # full bilinearity sweeps are exhaustive only up to genus 3
    for g in range(1, min(max_genus, 3) + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        basis = space.basis()
        pair = space.pair
        # <v, x> by the mask of v, for each basis x; v + w once per (v, w)
        at_basis = [list(map(pair, itertools.repeat(v), basis)) for v in vectors]

        def bilinear():
            for v, v_at in zip(vectors, at_basis):
                for w, w_at in zip(vectors, at_basis):
                    vw = v + w
                    for x, a, b in zip(basis, v_at, w_at):
                        yield pair(vw, x) == (a ^ b)

        results.append(
            _counted(
                f"pairing bilinear g={g}",
                itertools.product(vectors, vectors, basis),
                bilinear(),
                "triples (v, w, basis x)",
                "(v, w, x) masks",
            )
        )
        alternating = _counted(
            f"pairing alternating g={g}", vectors, lambda v: pair(v, v) == 0, "vectors v", "v mask"
        )
        results.append(alternating)
        # <v, w> once per ordered pair, against its transpose
        table = [list(map(pair, itertools.repeat(v), vectors)) for v in vectors]
        results.append(
            _counted(
                f"pairing symmetric g={g}",
                itertools.product(vectors, vectors),
                map(eq, itertools.chain(*table), itertools.chain(*zip(*table))),
                "pairs (v, w)",
                "(v, w) masks",
            )
        )
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        basis = space.basis()
        results.append(
            _counted(
                f"pairing non-degenerate g={g}",
                (v for v in space.vectors() if not v.is_zero),
                lambda v: any(space.pair(v, w) for w in basis),
                "non-zero vectors v",
                "v mask",
            )
        )
    return results


def brute_character_sum(space: SymplecticF2Space, b: F2Vector) -> int:
    """Literal sum over all vectors of (-1)^{<b, l>}; the enumeration oracle."""
    return sum(1 - 2 * space.pair(b, ell) for ell in space.vectors())


def check_character_sums(max_genus: int = 3) -> list[CheckResult]:
    _require_genera("charsum", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        results.append(
            _counted(
                f"character sum closed form = brute force g={g}",
                space.vectors(),
                lambda b: space.character_sum(b) == brute_character_sum(space, b),
                "vectors b",
                "b mask",
            )
        )
        results.append(
            _counted(
                f"character sum dichotomy g={g}",
                space.vectors(),
                lambda b: space.character_sum(b) == ((1 << (2 * g)) if b.is_zero else 0),
                "vectors b",
                "b mask",
            )
        )
    return results


# ---------------------------------------------------------------------------
# quadratic refinements


def check_refinements(max_genus: int = 3) -> list[CheckResult]:
    _require_genera("refinement", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        basis = space.basis()
        refinements = list(QuadraticRefinement.all_refinements(space))
        # v + w and <v, w> once per (v, basis w), q(w) once per (q, w) and
        # q(v) once per (q, v): a case evaluates only q(v + w)
        steps = [[(v + w, space.pair(v, w)) for w in basis] for v in vectors]

        def law():
            for q in refinements:
                q_basis = list(map(q, basis))
                for v, row in zip(vectors, steps):
                    qv = q(v)
                    for (vw, pair), qw in zip(row, q_basis):
                        yield q(vw) == (qv ^ qw ^ pair)

        results.append(
            _counted(
                f"refinement law g={g}",
                itertools.product(refinements, vectors, basis),
                law(),
                "triples (q, v, basis w)",
                "(q, v, w) masks",
            )
        )
        base = QuadraticRefinement.canonical(space, 0)
        orbit = {base.shift(ell).basis_values for ell in vectors}
        transitive = orbit == {q.basis_values for q in refinements}
        name = f"shift is a free transitive torsor action g={g}"
        involutive = _counted(
            name,
            itertools.product(refinements, basis),
            lambda case: case[0].shift(case[1]).shift(case[1]) == case[0],
            "double shifts (q, basis ell)",
            "(q, ell) masks",
        )
        results.append(
            CheckResult(
                name,
                transitive and involutive.passed,
                f"orbit of {len(orbit)} of {len(refinements)} refinements; {involutive.details}",
            )
        )
        results.append(
            _counted(
                f"arf closed form = zero counting g={g}",
                refinements,
                lambda q: q.arf() == q.arf_by_counting(),
                "refinements q",
                "q mask",
            )
        )
    return results


def check_arf(max_genus: int = 4) -> list[CheckResult]:
    _require_genera("arf", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        counted = [0, 0]
        for q in QuadraticRefinement.all_refinements(space):
            counted[q.arf()] += 1
        expected = count_by_arf(g)
        results.append(
            CheckResult(
                f"arf counts g={g}",
                tuple(counted) == expected,
                f"enumerated {tuple(counted)}, closed form {expected}",
            )
        )
        results.append(
            CheckResult(
                f"arf gauss sum g={g}",
                arf_gauss_sum(g) == 2**g == counted[0] - counted[1],
                f"sum {counted[0] - counted[1]}",
            )
        )
    return results


def check_lift_signs(max_genus: int = 3) -> list[CheckResult]:
    _require_genera("liftsign", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        refinements = list(QuadraticRefinement.all_refinements(space))
        for w2 in (0, 1):
            results.append(
                _counted(
                    f"lift sign sum identity g={g} w2={w2}",
                    refinements,
                    lambda sigma: sum(lift_sign(sigma, z, w2, 1) for z in vectors)
                    == (-1) ** (w2 + sigma.arf()) * 2**g,
                    f"spin structures sigma, each summed over {len(vectors)} classes",
                    "sigma mask",
                )
            )
        # the shift-then-Arf route, independent of lift_sign: the table of
        # d(z) = arf(sigma + z) - arf(sigma) over the masks of z, once per sigma
        differences = []
        for sigma in refinements:
            arf = sigma.arf()
            differences.append([sigma.shift(z).arf() ^ arf for z in vectors])
        basis = space.basis()
        # (z + w).bits and <z, w> once per (z, basis w), and d(w) once per sigma
        steps = [[((z + w).bits, space.pair(z, w)) for w in basis] for z in vectors]

        def quadratic():
            for d in differences:
                d_basis = [d[w.bits] for w in basis]
                for dz, row in zip(d, steps):
                    for (zw, pair), dw in zip(row, d_basis):
                        yield d[zw] == dz ^ dw ^ pair

        results.append(
            _counted(
                f"arf difference is a quadratic refinement g={g}",
                itertools.product(refinements, vectors, basis),
                quadratic(),
                "triples (sigma, z, basis w)",
                "(sigma, z, w) masks",
            )
        )
    return results


# ---------------------------------------------------------------------------
# exact dimensions against the modular oracle


def _oracle_record(
    name: str, series_value: int, oracle: Callable[..., CertifiedInteger], *args
) -> tuple[CheckResult, CertifiedInteger | None]:
    """The record that ``series_value`` equals the certified ``oracle(*args)``, and the
    certificate; a failed record with the message, and None, if certification fails."""
    try:
        certificate = oracle(*args)
    except CertificationError as exc:
        return CheckResult(name, False, str(exc)), None
    passed = series_value == certificate.value and 2 * certificate.bound < certificate.modulus
    return CheckResult(name, passed, f"series {series_value}, oracle {certificate.value}"), certificate


def check_verlinde(
    genera: Iterable[int] = range(1, 7), su2_levels: Iterable[int] = range(0, 17)
) -> list[CheckResult]:
    genera = _genera_from("verlinde", genera)
    su2_levels = _su2_levels_from(su2_levels)

    def cell(g: int, k: int) -> CheckResult:
        name = f"verlinde trace = oracle (g={g}, k={k})"
        return _oracle_record(name, verlinde_dim(g, k), verlinde_trig_oracle, g, k)[0]

    return _level_major(genera, su2_levels, cell)


def check_twisted(
    genera: Iterable[int] = range(1, 7), levels_p: Iterable[int] | None = None
) -> list[CheckResult]:
    genera = _genera_from("twisted", genera)
    if levels_p is None:
        levels_p = [2 * (k + 2) for k in range(0, 17)]
    levels_p = _levels_kept("twisted", levels_p)

    def cell(g: int, p: int) -> CheckResult:
        name = f"twisted trace = oracle (g={g}, p={p})"
        return _oracle_record(name, twisted_dim(g, p), twisted_trig_oracle, g, p)[0]

    return _level_major(genera, levels_p, cell)


# ---------------------------------------------------------------------------
# projection algebra


def _once_per_vector_pair(holds: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    """holds(left, right) on twisted-algebra elements, computed once per run of equal vectors.

    A product's vector depends only on its factors' numerators and
    denominators, so while consecutive cases repeat both pairs the previous
    verdict stands.  Only that one entry is remembered.  The spins are
    compared in every case; on a mismatch holds runs anyway, so that the
    product raises as it would without the reuse.
    """
    last_key, last_verdict = None, False

    def verdict(left, right) -> bool:
        nonlocal last_key, last_verdict
        if left.spin != right.spin:
            return holds(left, right)
        key = (left.numerators, left.denominator, right.numerators, right.denominator)
        if key != last_key:
            last_key, last_verdict = key, holds(left, right)
        return last_verdict

    return verdict


def check_projections(max_genus: int = 3) -> list[CheckResult]:
    """Idempotence of every P_sigma and orthogonality of every P_(sigma+ell) P_sigma.

    Every P_sigma has the numerators (1, ..., 1) over 2^{2g}, and the signs
    that rebase(ell) puts on them depend on ell alone.  The cases therefore
    run ell-major, each builds its own inputs, and a product is computed
    only when a case's vectors differ from the previous case's: once per
    ell, and once per genus for the squares.
    """
    _require_genera("projs", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        squares = _once_per_vector_pair(lambda p, q: p * q == q)
        results.append(
            _counted(
                f"projections idempotent g={g}",
                refinements,
                lambda sigma: squares(projection(sigma), projection(sigma)),
                "squares P_sigma P_sigma",
                "sigma mask",
            )
        )
        nonzero = [ell for ell in space.vectors() if not ell.is_zero]
        vanishes = _once_per_vector_pair(lambda left, right: (left * right).is_zero)

        def orthogonal(case):
            sigma, ell = case
            return vanishes(projection(sigma.shift(ell)).rebase(ell), projection(sigma))

        results.append(
            _counted(
                f"projections orthogonal g={g}",
                ((sigma, ell) for ell in nonzero for sigma in refinements),
                orthogonal,
                "products P_(sigma+ell) P_sigma",
                "(sigma mask, ell mask)",
            )
        )
    return results


def check_trace_decomposition(
    max_genus: int = 3, base_dims: Sequence[int] = (10, 84), lambdas: Sequence[int] = (1, 3)
) -> list[CheckResult]:
    _require_genera("tracedecomp", max_genus)
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
                    CheckResult(
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
    """The trace route of each graded part against the cell's closed form; a
    violation that ``dims_via_traces`` raises fails its record."""
    genera = _genera_from("traces", genera)
    levels_p = _levels_kept("traces", levels_p)

    def cell(g: int, p: int) -> list[CheckResult]:
        dims = _graded_cell(g, p)[0]
        *bases, correction_base = _level_bases(g, p)
        records = []
        for eps in (0, 1):
            for parity, part in enumerate(("even", "odd")):
                name = f"trace route = {part} closed form (g={g}, p={p}, eps={eps})"
                closed = dims[eps][parity]
                try:
                    via_traces = dims_via_traces(g, eps, bases[parity], correction_base - 1, parity)
                except IdentityViolationError as exc:
                    records.append(CheckResult(name, False, str(exc)))
                    continue
                records.append(CheckResult(name, via_traces == closed, f"traces {via_traces}, closed {closed}"))
        return records

    return list(itertools.chain.from_iterable(_level_major(genera, levels_p, cell)))


def _refinement_record(name: str, g: int, p: int, refined: int) -> CheckResult:
    """The record that ``refined``, the even total of the cell (g, p) over all
    spin structures, equals the unrefined dimension: the ``spin-dims``
    checksum and the ``decomp`` refinement identity."""
    unrefined = _level_bases(g, p)[0]
    details = f"sum over spin structures {refined}, unrefined {unrefined}"
    return CheckResult(f"{name} (g={g}, p={p})", refined == unrefined, details)


def check_decomposition(
    genera: Iterable[int] = DEFAULT_GENERA, levels_p: Iterable[int] = DEFAULT_LEVELS_P
) -> list[CheckResult]:
    genera = _genera_from("decomp", genera)
    levels_p = _levels_kept("decomp", levels_p)

    def cell(g: int, p: int) -> tuple[CheckResult, CheckResult]:
        _, refined, odd_total = _graded_cell(g, p)
        refinement = _refinement_record("refinement identity", g, p, refined)
        base_even, base_odd, _ = _level_bases(g, p)
        graded_total, expected = refined + odd_total, base_even + base_odd
        total = CheckResult(
            f"total dimension identity (g={g}, p={p})",
            graded_total == expected,
            f"graded total {graded_total}, expected {expected}",
        )
        return refinement, total

    return list(itertools.chain.from_iterable(_level_major(genera, levels_p, cell)))


def _require_integrality_cells(max_genus: int = 6, max_p: int = 64) -> None:
    if max_genus < 2 or max_p < 8:
        raise ValueError(
            f"check integrality: no cell (g, p) with 2 <= g <= {max_genus} "
            f"and p a multiple of 8 in 8..{max_p}"
        )
    # the sweep covers the whole grid below the largest genus and level given
    cells = (max_genus - 1) * (max_p // 8)
    if cells > MAX_RANGE_VALUES:
        raise ValueError(
            f"check integrality: {cells} cells (g, p) with 2 <= g <= {max_genus} "
            f"and p a multiple of 8 in 8..{max_p}, more than {MAX_RANGE_VALUES}"
        )


def check_integrality(max_genus: int = 6, max_p: int = 64) -> list[CheckResult]:
    """Sweep the full grid through ``_level_major``, keeping only the number of
    graded cells; the formulas themselves raise on a non-integral or negative value."""
    _require_integrality_cells(max_genus, max_p)

    def cell(g: int, p: int) -> int:
        _graded_cell(g, p)
        return 2

    cells = sum(_level_major(range(2, max_genus + 1), range(8, max_p + 1, 8), cell))
    return [
        CheckResult(
            f"integrality sweep g<={max_genus} p<={max_p}",
            True,
            f"{cells} graded cells, all non-negative integers",
        )
    ]


# ---------------------------------------------------------------------------
# Heisenberg model


def check_heisenberg(max_genus: int = 3) -> list[CheckResult]:
    _require_genera("heisenberg", max_genus)
    results = []
    for g in range(1, max_genus + 1):
        group = HeisenbergGroup(g)
        elements = list(group.elements())
        # the elements come in the order (t, v) -> 4 v + t, so the rep of (t, v)
        # sits at index 4 v + t, an index that hashes no record
        reps = list(map(heisenberg_rep, elements))

        def rep(el: HeisenbergElement) -> MonomialMatrix:
            return reps[(el.vector.bits << 2) | el.central]

        dim = group.space.dimension
        # rep(x) @ rep(y) for x, y of central part 0, at index (x mask << 2g) | y mask:
        # the homomorphism record makes all 4^{2g} of them, both (x, y) and (y, x),
        # and the commutator record reads them back instead of multiplying again.
        # Where the product == rep(x * y), the store keeps that equal matrix of
        # reps, so it holds references, not 4^{2g} more matrices.
        products = [None] * (1 << 2 * dim)

        def homomorphism():
            # rep(x) @ rep(y) == rep(x * y) over 4^{2g+2} pairs, with what x alone gives hoisted
            for x, rx in zip(elements, reps):
                t, row = x.central, x.vector.bits << dim
                for y, ry in zip(elements, reps):
                    xy = x * y
                    product = rx @ ry
                    expected = reps[(xy.vector.bits << 2) | xy.central]
                    holds = product == expected
                    if not (t or y.central):
                        products[row | y.vector.bits] = expected if holds else product
                    yield holds

        n = 1 << g
        results.append(
            _counted(
                f"heisenberg rep is a homomorphism g={g}",
                itertools.product(elements, elements),
                homomorphism(),
                "pairs (x, y)",
                "(x, y) as (t, mask)",
            )
        )
        vector_elements = [el for el in elements if el.central == 0]

        def commutator(case):
            # a product is made here only if the homomorphism record stopped before it
            x, y = case
            v, w = x.vector.bits, y.vector.bits
            xy = products[(v << dim) | w] or rep(x) @ rep(y)
            yx = products[(w << dim) | v] or rep(y) @ rep(x)
            return xy == (yx if group.space.pair(x.vector, y.vector) == 0 else -yx)

        results.append(
            _counted(
                f"heisenberg commutator pairing g={g}",
                itertools.product(vector_elements, vector_elements),
                commutator,
                "pairs (x, y) of central part 0",
                "(x, y) as (t, mask)",
            )
        )
        center = (
            heisenberg_rep(group.central_generator)
            == MonomialMatrix.identity(n).times_i()
        )
        results.append(CheckResult(f"central generator acts by i g={g}", center))
        # i^t n on the center (t, 0), and 0 off it
        central_traces = [(n, 0), (0, n), (-n, 0), (0, -n)]
        results.append(
            _counted(
                f"heisenberg traces g={g}",
                elements,
                lambda el: rep(el).trace()
                == (central_traces[el.central] if el.vector.is_zero else (0, 0)),
                "elements",
                "element (t, mask)",
            )
        )
        distinct = len(set(reps))
        results.append(
            CheckResult(
                f"heisenberg rep faithful g={g}",
                distinct == len(elements),
                f"{distinct} distinct matrices for {len(elements)} elements",
            )
        )
    return results


# ---------------------------------------------------------------------------
# levels


def _require_max_m(max_m: int) -> None:
    if max_m < 1:
        raise ValueError(f"check levels: max_m must be >= 1, got {max_m}")
    # the suite walks 1..max_m and 0..2 max_m - 1
    if max_m > MAX_RANGE_VALUES:
        raise ValueError(f"check levels: --max-m {max_m} is more than {MAX_RANGE_VALUES}")


def _table_record(name: str) -> CheckResult:
    """The record, named ``name``, that the correspondence table passes its own
    validation: the number of checks it ran, or the first that failed."""
    try:
        performed = correspondence_table().validate()
    except ValueError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True, f"{len(performed)} checks")


def check_levels(max_m: int = 50) -> list[CheckResult]:
    _require_max_m(max_m)
    return [
        _counted(
            f"bm/so3/su2/bhmv consistency m<={max_m}",
            range(1, max_m + 1),
            lambda m: bm_from_so3(2 * m - 1).value
            == bhmv_from_su2(beta_pullback(2 * m - 1)).value,
            "odd so3 levels 2m - 1",
            "m",
        ),
        _counted(
            "bhmv round trips",
            range(0, 2 * max_m),
            lambda k: su2_from_bhmv(bhmv_from_su2(k)).value == k,
            "su2 levels k",
            "k",
        ),
        _counted(
            "metaplectic shift commutes with pullback",
            range(0, 20),
            lambda k: beta_pullback(metaplectic_shift(so3_level(k))).value
            == metaplectic_shift(beta_pullback(k)).value,
            "so3 levels k",
            "k",
        ),
        _table_record("correspondence table validates"),
    ]


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


def _grid_check(suite: str, arguments: dict) -> None:
    """Raise what ``suite`` raises on ``arguments`` before its first cell: each
    keyword present is checked, in the order in which the suites check them."""
    if "max_genus" in arguments:
        _require_genera(suite, arguments["max_genus"])
    if "genera" in arguments:
        _genera_from(suite, arguments["genera"])
    if "su2_levels" in arguments:
        _su2_levels_from(arguments["su2_levels"])
    if "levels_p" in arguments:
        _levels_kept(suite, arguments["levels_p"])
    if "max_m" in arguments:
        _require_max_m(arguments["max_m"])


#: For each suite: the ``check`` options it takes, each with the keyword
#: argument it sets, and the grid check that raises, before the suite runs,
#: what the suite raises on those arguments when their grid has no cell or
#: a genus or level below the least the suite takes.
_OPTIONS: dict[str, tuple[dict[str, str], Callable[[str, dict], None]]] = {
    "pairing": ({"genus": "max_genus"}, _grid_check),
    "charsum": ({"genus": "max_genus"}, _grid_check),
    "refinement": ({"genus": "max_genus"}, _grid_check),
    "arf": ({"genus": "max_genus"}, _grid_check),
    "liftsign": ({"genus": "max_genus"}, _grid_check),
    "verlinde": ({"genus": "genera", "level": "su2_levels"}, _grid_check),
    "twisted": ({"genus": "genera", "p": "levels_p"}, _grid_check),
    "projs": ({"genus": "max_genus"}, _grid_check),
    "tracedecomp": ({"genus": "max_genus"}, _grid_check),
    "traces": ({"genus": "genera", "p": "levels_p"}, _grid_check),
    "decomp": ({"genus": "genera", "p": "levels_p"}, _grid_check),
    "integrality": (
        {"genus": "max_genus", "p": "max_p"},
        lambda suite, arguments: _require_integrality_cells(**arguments),
    ),
    "heisenberg": ({"genus": "max_genus"}, _grid_check),
    "levels": ({"max_m": "max_m"}, _grid_check),
}


def run_suite(name: str, **options) -> list[CheckResult]:
    """Run one named suite, or every suite for name = 'all', on the given ``check`` options.

    The options are those of ``spinverlinde check``: the lists ``genus``,
    ``p`` and ``level``, and the integer ``max_m``.  _OPTIONS turns them into
    each suite's keyword arguments; a ``max_genus`` or ``max_p`` is the
    largest value of its option.  An unknown suite and an option the named
    suite does not take are ValueErrors, while 'all' passes each suite only
    the options it takes.  Every suite's grid is checked before the first
    suite runs, its size included: a ``max_m`` above ``MAX_RANGE_VALUES`` and
    an integrality grid of more cells are ValueErrors, for a library caller
    as for the CLI, which reads its bound from here.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown check suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    takes = dict.fromkeys(option for suite in names for option in _OPTIONS[suite][0])
    unusable = [option for option in options if option not in takes]
    if unusable:
        flags = ["--" + option.replace("_", "-") for option in (unusable[0], *takes)]
        raise ValueError(f"check {name}: {flags[0]} does not apply; the suite takes {', '.join(flags[1:])}")
    runs = []
    for suite in names:
        keywords, grid = _OPTIONS[suite]
        arguments = {
            keyword: max(options[option]) if keyword in ("max_genus", "max_p") else options[option]
            for option, keyword in keywords.items()
            if option in options
        }
        grid(suite, arguments)
        runs.append((suite, arguments))
    return [result for suite, arguments in runs for result in SUITES[suite](**arguments)]
