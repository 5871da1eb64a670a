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
A suite whose grid has no cell, a genus range below 1 and an empty list
of genera or levels included, raises ValueError rather than pass
vacuously, and so does a suite given a genus or level below the least it
takes, before its first cell, a grid larger than ``MAX_RANGE_VALUES``, an
oracle level whose certified sum has more terms than that, or a grid whose
power-sum tables at its largest genus are over ``fusion.TABLE_BUDGET_MB``.
A suite is one generator of its records under ``@_suite(name)``, which
registers it in ``SUITES`` and records in ``_OPTIONS`` the ``spinverlinde
check`` option that sets each of its keyword arguments.  What it registers
binds a call's arguments over the suite's defaults, passes them to
``_grid``, the one spelling of every suite's preconditions, before the
suite starts, and returns the list of the records the suite yields on the
values ``_grid`` keeps; ``run_suite`` calls the same ``_grid`` on every
suite it will run before the first one runs.

Every case still runs, in order, but a suite computes each sub-result that
its cases share once.  ``pairing``, ``refinement`` and ``liftsign`` evaluate
each function once per vector, into a table of its values by bit mask, and
hand ``_counted`` the verdicts, each a few lookups in that table: the
pairing's bilinear and symmetric records read one table of <v, w> over
ordered pairs, and ``_quadratic_law`` checks f(v + w) = f(v) + f(w) + <v, w>
on the table of each refinement q and of each Arf difference.
The projection products depend on the spin structure only through its
label, so ``projs`` builds each P_sigma once per genus and reuses the
previous case's product while both factors' vectors repeat, and
``heisenberg`` keeps its representation matrices in a list indexed by
element rather than a dict keyed by the elements.  Its
homomorphism record compares the n basis images of each product
rep(x) @ rep(y) with those of rep(x * y), which decides their equality
without a call to ``MonomialMatrix.__eq__``.  Its commutator record reads
the homomorphism record's verdict: once that record has passed,
rep(x) @ rep(y) is rep(x * y), which the commutator looks up in that list,
and otherwise it multiplies both products itself.  The suites over a
genus x level grid, ``integrality`` included, evaluate their cells
level-major through ``_level_major``, as the CLI's tables do, and list them
genus-major.  The graded suites read ``dimensions._graded_cell``
and ``_level_bases``; a violated trace route fails its record.
``tracedecomp`` walks the spin structures outermost and adds each trace
of P_sigma to the total of its (base, lambda), so that the lift-sign
table of sigma (``heisenberg._lift_signs``, 64 entries) serves the four
totals in a row at any genus, not only while a genus has at most 64 spin
structures; its records and details are those of the (base, lambda)-outer
walk.  ``traces`` checks every genus of its list against the enumeration
cap before its first cell, as the suites over a genus range do.
"""

from __future__ import annotations

import functools
import itertools
from operator import eq
from typing import Any, Callable, Iterable, Iterator, Sequence

from ._value import Value
from .dimensions import IdentityViolationError, _graded_cell, _level_bases, dims_via_traces
from .f2 import F2Vector, SymplecticF2Space
from .fusion import MAX_RANGE_VALUES, CertificationError, CertifiedInteger, _is_twisted_level, _require_tables
from .fusion import _require_terms, _twisted_tables, _verlinde_tables, twisted_dim, twisted_trig_oracle, verlinde_dim
from .fusion import verlinde_trig_oracle
from .heisenberg import (
    HeisenbergElement,
    HeisenbergGroup,
    MonomialMatrix,
    heisenberg_rep,
    projection,
    trace_functional,
)
from .levels import (
    _is_bm_level,
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
# the base dimensions and the lambda_rho of the ``tracedecomp`` suite
TRACE_BASE_DIMS = (10, 84)
TRACE_LAMBDAS = (1, 3)


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


def _require_enumerable(genera: Iterable[int]) -> None:
    """The EnumerationCapError of the first of the genera over the enumeration
    cap, which a walk over the 2^{2g} classes of each genus in turn would reach."""
    for g in genera:
        SymplecticF2Space(g)._check_enumeration_cap()


# ---------------------------------------------------------------------------
# registry


# the ``check`` option that sets each keyword argument a suite may take
_OPTION_OF = {
    "max_genus": "genus", "genera": "genus", "su2_levels": "level", "levels_p": "p", "max_p": "p", "max_m": "max_m"
}

SUITES: dict[str, Callable[..., list[CheckResult]]] = {}
#: For each suite: the ``check`` options it takes, each with the keyword argument it sets.
_OPTIONS: dict[str, dict[str, str]] = {}
#: For each suite: its keyword arguments' defaults, which ``run_suite`` checks where no option sets them.
_DEFAULTS: dict[str, dict[str, Any]] = {}


def _suite(name: str) -> Callable[[Callable], Callable]:
    """Register the decorated suite, a generator of its records, as ``name``, in
    definition order, with the ``check`` option of each of its keyword
    arguments; a keyword that no option sets is a TypeError, and one with no
    default a ValueError, before anything is registered.

    What is registered, and returned, is a function of the suite's arguments
    that binds them as the suite's own call does, so that a bad call raises
    Python's TypeError, passes them to ``_grid`` before the suite starts, and
    returns the list of the records the suite yields on the values ``_grid``
    returns.
    """

    def register(body: Callable) -> Callable:
        code = body.__code__
        keywords = code.co_varnames[: code.co_argcount]
        try:
            options = {_OPTION_OF[keyword]: keyword for keyword in keywords}
        except KeyError as exc:
            raise TypeError(f"check {name}: no check option sets the keyword {exc}") from None
        # every keyword has a default, which `check all` runs
        defaults = dict(zip(keywords, body.__defaults__ or (), strict=True))

        @functools.wraps(body)
        def check(*args, **kwargs) -> list[CheckResult]:
            # the call binds the arguments in a generator that has not started
            bound = body(*args, **kwargs).gi_frame.f_locals
            return list(body(*_grid(name, **{keyword: bound[keyword] for keyword in keywords})))

        SUITES[name], _OPTIONS[name], _DEFAULTS[name] = check, options, defaults
        return check

    return register


def _grid(suite: str, **arguments) -> list:
    """Raise what the suite ``suite`` would raise on its keyword ``arguments``
    before its first cell, and return their values in order, each list of
    genera or levels as the list of those the suite keeps.

    A genus range below 1 and a genus over the enumeration cap that the sweep
    would reach, an empty list, a genus or level below the least the suite
    takes, a level filter that keeps none, an oracle level whose certified sum
    is too long, a grid larger than ``MAX_RANGE_VALUES`` and a grid whose
    power-sum tables at its largest genus are over the budget all raise.
    """
    if suite == "integrality":
        max_genus, max_p = arguments["max_genus"], arguments["max_p"]
        grid = f"(g, p) with 2 <= g <= {max_genus} and p a multiple of 8 in 8..{max_p}"
        if max_genus < 2 or max_p < 8:
            raise ValueError(f"check integrality: no cell {grid}")
        # the sweep covers the whole grid below the largest genus and level given
        cells = (max_genus - 1) * (max_p // 8)
        if cells > MAX_RANGE_VALUES:
            raise ValueError(f"check integrality: {cells} cells {grid}, more than {MAX_RANGE_VALUES}")
        tables = _twisted_tables(range(8, max_p + 1, 8))
        _require_tables(max_genus - 1, tables, ("check integrality: cell (g={}, p={})", max_genus, max_p))
        return [max_genus, max_p]
    values = []
    for keyword, value in arguments.items():
        if keyword == "max_genus":
            if value < 1:
                raise ValueError(f"check {suite}: no genus g with 1 <= g <= {value}")
            _require_enumerable(range(1, value + 1))
        elif keyword == "genera":
            value = list(value)
            if not value:
                raise ValueError(f"check {suite}: no genus given")
            least = 2 if suite in ("traces", "decomp") else 1
            if min(value) < least:
                raise ValueError(f"check {suite}: genus must be >= {least}, got {min(value)}")
        elif keyword == "su2_levels":
            value = list(value)
            if not value:
                raise ValueError(f"check {suite}: no level given")
            if min(value) < 0:
                raise ValueError(f"check {suite}: level must be >= 0, got {min(value)}")
            # the oracle sums over j < k + 2
            _require_terms(max(value) + 2, ("check {}: level k={}", suite, max(value)))
            level, tables = "k", _verlinde_tables(value)
        elif keyword == "levels_p":
            # twisted keeps the levels of the twisted sum, the graded suites those of the spin theory
            keeps, kind = (_is_twisted_level, "2 and >= 4") if suite == "twisted" else (_is_bm_level, "8 and >= 8")
            value = list(filter(keeps, value))
            if not value:
                raise ValueError(f"check {suite}: none of the levels p given is a multiple of {kind}")
            if suite == "twisted":
                # the oracle sums over j < p/2
                _require_terms(max(value) // 2, ("check {}: level p={}", suite, max(value)))
            level, tables = "p", _twisted_tables(value)
        elif keyword == "max_m":
            if value < 1:
                raise ValueError(f"check {suite}: max_m must be >= 1, got {value}")
            # the suite walks 1..max_m and 0..2 max_m - 1
            if value > MAX_RANGE_VALUES:
                raise ValueError(f"check {suite}: --max-m {value} is more than {MAX_RANGE_VALUES}")
        values.append(value)
    if suite == "traces":
        # after the level filter: each cell's trace route walks the 2^{2g} classes of its genus
        _require_enumerable(values[0])
    if len(values) == 2:
        # a genus x level grid, whose largest genus needs every level's power-sum tables
        g = max(values[0])
        _require_tables(g - 1, tables, ("check {}: cell (g={}, {}={})", suite, g, level, max(values[1])))
    return values


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


@_suite("pairing")
def check_pairing(max_genus: int = 4) -> Iterator[CheckResult]:
    # full bilinearity sweeps are exhaustive only up to genus 3
    for g in range(1, min(max_genus, 3) + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        basis = space.basis()
        pair = space.pair
        # <v, w> once per ordered pair, by the masks of v and w
        table = [list(map(pair, itertools.repeat(v), vectors)) for v in vectors]
        masks = [x.bits for x in basis]

        def bilinear():
            for v, v_at in zip(vectors, table):
                for w, w_at in zip(vectors, table):
                    vw_at = table[(v + w).bits]
                    for x in masks:
                        yield vw_at[x] == v_at[x] ^ w_at[x]

        yield _counted(
            f"pairing bilinear g={g}",
            itertools.product(vectors, vectors, basis),
            bilinear(),
            "triples (v, w, basis x)",
            "(v, w, x) masks",
        )
        yield _counted(
            f"pairing alternating g={g}", vectors, lambda v: pair(v, v) == 0, "vectors v", "v mask"
        )
        yield _counted(
            f"pairing symmetric g={g}",
            itertools.product(vectors, vectors),
            map(eq, itertools.chain(*table), itertools.chain(*zip(*table))),
            "pairs (v, w)",
            "(v, w) masks",
        )
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        basis = space.basis()
        yield _counted(
            f"pairing non-degenerate g={g}",
            (v for v in space.vectors() if not v.is_zero),
            lambda v: any(space.pair(v, w) for w in basis),
            "non-zero vectors v",
            "v mask",
        )


def brute_character_sum(space: SymplecticF2Space, b: F2Vector) -> int:
    """Literal sum over all vectors of (-1)^{<b, l>}; the enumeration oracle."""
    return sum(1 - 2 * space.pair(b, ell) for ell in space.vectors())


@_suite("charsum")
def check_character_sums(max_genus: int = 3) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        # both records read the enumerated sums, so the dichotomy is checked
        # on them rather than on the closed form it restates
        vectors = list(space.vectors())
        sums = [brute_character_sum(space, b) for b in vectors]
        yield _counted(
            f"character sum closed form = brute force g={g}",
            vectors,
            map(eq, map(space.character_sum, vectors), sums),
            "vectors b",
            "b mask",
        )
        yield _counted(
            f"character sum dichotomy g={g}",
            vectors,
            (total == ((1 << (2 * g)) if b.is_zero else 0) for b, total in zip(vectors, sums)),
            "vectors b",
            "b mask",
        )


# ---------------------------------------------------------------------------
# quadratic refinements


def _quadratic_law(
    tables: Iterable[Sequence[int]], space: SymplecticF2Space, vectors: Sequence[F2Vector], basis: Iterable[F2Vector]
) -> Iterator[bool]:
    """The verdicts f[v + w] == f[v] ^ f[w] ^ <v, w> over (f, v, basis w), in that order,
    for each table f of a function's values by vector mask; ``vectors`` lists the
    space in mask order.  v + w and <v, w> are made once per (v, w)."""
    steps = [[((v + w).bits, w.bits, space.pair(v, w)) for w in basis] for v in vectors]
    for f in tables:
        for fv, row in zip(f, steps):
            for vw, w, pair in row:
                yield f[vw] == fv ^ f[w] ^ pair


@_suite("refinement")
def check_refinements(max_genus: int = 3) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        basis = space.basis()
        refinements = list(QuadraticRefinement.all_refinements(space))
        values = [list(map(q, vectors)) for q in refinements]
        yield _counted(
            f"refinement law g={g}",
            itertools.product(refinements, vectors, basis),
            _quadratic_law(values, space, vectors, basis),
            "triples (q, v, basis w)",
            "(q, v, w) masks",
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
        yield CheckResult(
            name,
            transitive and involutive.passed,
            f"orbit of {len(orbit)} of {len(refinements)} refinements; {involutive.details}",
        )
        yield _counted(
            f"arf closed form = zero counting g={g}",
            refinements,
            lambda q: q.arf() == q.arf_by_counting(),
            "refinements q",
            "q mask",
        )


@_suite("arf")
def check_arf(max_genus: int = 4) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        counted = [0, 0]
        for q in QuadraticRefinement.all_refinements(space):
            counted[q.arf()] += 1
        expected = count_by_arf(g)
        yield CheckResult(
            f"arf counts g={g}",
            tuple(counted) == expected,
            f"enumerated {tuple(counted)}, closed form {expected}",
        )
        yield CheckResult(
            f"arf gauss sum g={g}",
            arf_gauss_sum(g) == 2**g == counted[0] - counted[1],
            f"sum {counted[0] - counted[1]}",
        )


@_suite("liftsign")
def check_lift_signs(max_genus: int = 3) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        refinements = list(QuadraticRefinement.all_refinements(space))
        for w2 in (0, 1):
            yield _counted(
                f"lift sign sum identity g={g} w2={w2}",
                refinements,
                lambda sigma: sum(lift_sign(sigma, z, w2, 1) for z in vectors)
                == (-1) ** (w2 + sigma.arf()) * 2**g,
                f"spin structures sigma, each summed over {len(vectors)} classes",
                "sigma mask",
            )
        # the shift-then-Arf route, independent of lift_sign: the table of
        # d(z) = arf(sigma + z) - arf(sigma) over the masks of z, once per sigma
        differences = [
            [sigma.shift(z).arf() ^ arf for z in vectors]
            for sigma, arf in zip(refinements, map(QuadraticRefinement.arf, refinements))
        ]
        basis = space.basis()
        yield _counted(
            f"arf difference is a quadratic refinement g={g}",
            itertools.product(refinements, vectors, basis),
            _quadratic_law(differences, space, vectors, basis),
            "triples (sigma, z, basis w)",
            "(sigma, z, w) masks",
        )


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


@_suite("verlinde")
def check_verlinde(
    genera: Iterable[int] = range(1, 7), su2_levels: Iterable[int] = range(0, 17)
) -> Iterator[CheckResult]:
    def cell(g: int, k: int) -> CheckResult:
        name = f"verlinde trace = oracle (g={g}, k={k})"
        return _oracle_record(name, verlinde_dim(g, k), verlinde_trig_oracle, g, k)[0]

    yield from _level_major(genera, su2_levels, cell)


@_suite("twisted")
def check_twisted(
    genera: Iterable[int] = range(1, 7), levels_p: Iterable[int] = range(4, 37, 2)
) -> Iterator[CheckResult]:
    def cell(g: int, p: int) -> CheckResult:
        name = f"twisted trace = oracle (g={g}, p={p})"
        return _oracle_record(name, twisted_dim(g, p), twisted_trig_oracle, g, p)[0]

    yield from _level_major(genera, levels_p, cell)


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


@_suite("projs")
def check_projections(max_genus: int = 3) -> Iterator[CheckResult]:
    """Idempotence of every P_sigma and orthogonality of every P_(sigma+ell) P_sigma.

    Every P_sigma has the numerators (1, ..., 1) over 2^{2g}, and the signs
    that rebase(ell) puts on them depend on ell alone.  The cases therefore
    run ell-major, each shifts sigma by ell and rebases P_(sigma+ell), and a
    product is computed only when a case's vectors differ from the previous
    case's: once per ell, and once per genus for the squares.  Each P_sigma
    is built once per genus, into a list indexed by the mask of sigma, the
    order of ``all_refinements``; ``rebase`` reads its signs from a table
    keyed by ell's dual mask (``heisenberg._signs``).
    """
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        projections = list(map(projection, refinements))
        squares = _once_per_vector_pair(lambda p, q: p * q == q)
        yield _counted(
            f"projections idempotent g={g}",
            refinements,
            map(squares, projections, projections),
            "squares P_sigma P_sigma",
            "sigma mask",
        )
        nonzero = [ell for ell in space.vectors() if not ell.is_zero]
        vanishes = _once_per_vector_pair(lambda left, right: (left * right).is_zero)

        def orthogonal(case):
            sigma, ell = case
            return vanishes(projections[sigma.shift(ell).basis_values].rebase(ell), projections[sigma.basis_values])

        yield _counted(
            f"projections orthogonal g={g}",
            ((sigma, ell) for ell in nonzero for sigma in refinements),
            orthogonal,
            "products P_(sigma+ell) P_sigma",
            "(sigma mask, ell mask)",
        )


@_suite("tracedecomp")
def check_trace_decomposition(max_genus: int = 3) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        space = SymplecticF2Space(g)
        refinements = list(QuadraticRefinement.all_refinements(space))
        # sigma outermost, so that each sigma's sign table serves all four totals
        totals = dict.fromkeys(itertools.product(TRACE_BASE_DIMS, TRACE_LAMBDAS), 0)
        for sigma in refinements:
            for base, lam in totals:
                totals[base, lam] += trace_functional(projection(sigma), base, lam, 0)
        for (base, lam), total in totals.items():
            yield CheckResult(
                f"sum of projection traces g={g} base={base} lambda={lam}",
                total == base,
                f"total {total} over {len(refinements)} spin structures",
            )


# ---------------------------------------------------------------------------
# dimension identities


@_suite("traces")
def check_traces(
    genera: Iterable[int] = DEFAULT_GENERA, levels_p: Iterable[int] = DEFAULT_LEVELS_P
) -> Iterator[CheckResult]:
    """The trace route of each graded part against the cell's closed form; a
    violation that ``dims_via_traces`` raises fails its record."""

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

    yield from itertools.chain.from_iterable(_level_major(genera, levels_p, cell))


def _refinement_record(name: str, g: int, p: int, refined: int) -> CheckResult:
    """The record that ``refined``, the even total of the cell (g, p) over all
    spin structures, equals the unrefined dimension: the ``spin-dims``
    checksum and the ``decomp`` refinement identity."""
    unrefined = _level_bases(g, p)[0]
    details = f"sum over spin structures {refined}, unrefined {unrefined}"
    return CheckResult(f"{name} (g={g}, p={p})", refined == unrefined, details)


@_suite("decomp")
def check_decomposition(
    genera: Iterable[int] = DEFAULT_GENERA, levels_p: Iterable[int] = DEFAULT_LEVELS_P
) -> Iterator[CheckResult]:
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

    yield from itertools.chain.from_iterable(_level_major(genera, levels_p, cell))


@_suite("integrality")
def check_integrality(max_genus: int = 6, max_p: int = 64) -> Iterator[CheckResult]:
    """Sweep the full grid through ``_level_major``, keeping only the number of
    graded cells; the formulas themselves raise on a non-integral or negative value."""

    def cell(g: int, p: int) -> int:
        _graded_cell(g, p)
        return 2

    cells = sum(_level_major(range(2, max_genus + 1), range(8, max_p + 1, 8), cell))
    yield CheckResult(
        f"integrality sweep g<={max_genus} p<={max_p}",
        True,
        f"{cells} graded cells, all non-negative integers",
    )


# ---------------------------------------------------------------------------
# Heisenberg model


@_suite("heisenberg")
def check_heisenberg(max_genus: int = 3) -> Iterator[CheckResult]:
    for g in range(1, max_genus + 1):
        group = HeisenbergGroup(g)
        elements = list(group.elements())
        # the elements come in the order (t, v) -> 4 v + t, so the rep of (t, v)
        # sits at index 4 v + t, an index that hashes no record
        reps = list(map(heisenberg_rep, elements))
        # two monomial matrices are equal exactly when their basis images are
        images = [r.images for r in reps]

        def homomorphism():
            # rep(x) @ rep(y) == rep(x * y) over 4^{2g+2} pairs
            for x, rx in zip(elements, reps):
                for y, ry in zip(elements, reps):
                    xy = x * y
                    yield (rx @ ry).images == images[(xy.vector.bits << 2) | xy.central]

        n = 1 << g
        homomorphic = _counted(
            f"heisenberg rep is a homomorphism g={g}",
            itertools.product(elements, elements),
            homomorphism(),
            "pairs (x, y)",
            "(x, y) as (t, mask)",
        )
        yield homomorphic
        vector_elements = [el for el in elements if el.central == 0]
        pair = group.space.pair

        def commutator():
            # once the homomorphism record has passed, rep(x * y) is rep(x) @ rep(y)
            for x, y in itertools.product(vector_elements, vector_elements):
                if homomorphic.passed:
                    xy, yx = x * y, y * x
                    xy = reps[(xy.vector.bits << 2) | xy.central]
                    yx = reps[(yx.vector.bits << 2) | yx.central]
                else:
                    # of central part 0, the rep of (0, v) sits at index 4 v
                    rx, ry = reps[x.vector.bits << 2], reps[y.vector.bits << 2]
                    xy, yx = rx @ ry, ry @ rx
                yield xy == (yx if pair(x.vector, y.vector) == 0 else -yx)

        yield _counted(
            f"heisenberg commutator pairing g={g}",
            itertools.product(vector_elements, vector_elements),
            commutator(),
            "pairs (x, y) of central part 0",
            "(x, y) as (t, mask)",
        )
        center = (
            heisenberg_rep(group.central_generator)
            == MonomialMatrix.identity(n).times_i()
        )
        yield CheckResult(f"central generator acts by i g={g}", center)
        # i^t n on the center (t, 0), and 0 off it
        central_traces = [(n, 0), (0, n), (-n, 0), (0, -n)]
        yield _counted(
            f"heisenberg traces g={g}",
            elements,
            (
                r.trace() == (central_traces[el.central] if el.vector.is_zero else (0, 0))
                for el, r in zip(elements, reps)
            ),
            "elements",
            "element (t, mask)",
        )
        distinct = len(set(reps))
        yield CheckResult(
            f"heisenberg rep faithful g={g}",
            distinct == len(elements),
            f"{distinct} distinct matrices for {len(elements)} elements",
        )


# ---------------------------------------------------------------------------
# levels


def _table_record(name: str) -> CheckResult:
    """The record, named ``name``, that the correspondence table passes its own
    validation: the number of checks it ran, or the first that failed."""
    try:
        performed = correspondence_table().validate()
    except ValueError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True, f"{len(performed)} checks")


@_suite("levels")
def check_levels(max_m: int = 50) -> Iterator[CheckResult]:
    yield _counted(
        f"bm/so3/su2/bhmv consistency m<={max_m}",
        range(1, max_m + 1),
        lambda m: bm_from_so3(2 * m - 1).value
        == bhmv_from_su2(beta_pullback(2 * m - 1)).value,
        "odd so3 levels 2m - 1",
        "m",
    )
    yield _counted(
        "bhmv round trips",
        range(0, 2 * max_m),
        lambda k: su2_from_bhmv(bhmv_from_su2(k)).value == k,
        "su2 levels k",
        "k",
    )
    yield _counted(
        "metaplectic shift commutes with pullback",
        range(0, 20),
        lambda k: beta_pullback(metaplectic_shift(so3_level(k))).value
        == metaplectic_shift(beta_pullback(k)).value,
        "so3 levels k",
        "k",
    )
    yield _table_record("correspondence table validates")


def run_suite(name: str, **options) -> list[CheckResult]:
    """Run one named suite, or every suite for name = 'all', on the given ``check`` options.

    The options are those of ``spinverlinde check``: the lists ``genus``,
    ``p`` and ``level``, and the integer ``max_m``.  _OPTIONS turns them into
    each suite's keyword arguments; a ``max_genus`` or ``max_p`` is the
    largest value of its option.  An unknown suite and an option the named
    suite does not take are ValueErrors, and so is an empty list, before
    any ``max`` is taken, while 'all' passes each suite only the options it
    takes, each list read once.  Every suite's grid is checked before the
    first suite runs, by the ``_grid`` that ``_suite`` runs before the suite,
    on the options given over the suite's defaults, its size included: a ``max_m`` above
    ``MAX_RANGE_VALUES`` and an integrality grid of more cells are
    ValueErrors, for a library caller as for the CLI, which reads its bound
    from here.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown check suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    takes = dict.fromkeys(option for suite in names for option in _OPTIONS[suite])
    unusable = [option for option in options if option not in takes]
    if unusable:
        flags = ["--" + option.replace("_", "-") for option in (unusable[0], *takes)]
        raise ValueError(f"check {name}: {flags[0]} does not apply; the suite takes {', '.join(flags[1:])}")
    for option in ("genus", "p", "level"):
        if option in options:
            # a list once, so that every suite under 'all' reads the same values
            options[option] = list(options[option])
            if not options[option]:
                raise ValueError(f"check {name}: no value given for --{option}")
    runs = []
    for suite in names:
        arguments = {
            keyword: max(options[option]) if keyword in ("max_genus", "max_p") else options[option]
            for option, keyword in _OPTIONS[suite].items()
            if option in options
        }
        _grid(suite, **(_DEFAULTS[suite] | arguments))
        runs.append((suite, arguments))
    return [result for suite, arguments in runs for result in SUITES[suite](**arguments)]
