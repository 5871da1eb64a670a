"""Command-line surface: dimension tables, identity suites, level conversions.

Exit codes are a stable contract: 0 success, 1 identity, integrality or
certification failure (any ArithmeticError, a power sum that is not an
integer included), 2 usage error.  argparse refuses only an unknown, missing
or conflicting option, a value outside an option's choices, and a malformed
integer or a malformed or over-long list: it prints its usage line and
raises SystemExit(2).  Every refusal of a well-formed value, a value of
--p, --so3-level or --arf and a grid bound of ``checks`` included (which
``run_suite`` holds too), prints ``error: <message>`` and ``main`` returns
2, or 1 for an ArithmeticError.
Every genus x level grid is evaluated level-major (``checks._level_major``),
so that each level's cached tables serve every genus, and emitted
genus-major, so output ordering is deterministic.  ``spin-dims`` reads each
cell from ``dimensions._graded_cell``, as the graded check suites do,
``verlinde`` refuses a level whose certified sum is longer than
``MAX_RANGE_VALUES`` terms before its first cell, and both refuse a grid
whose power-sum tables at its largest genus are together over
``fusion.TABLE_BUDGET_MB``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Callable

from ._value import _require_bit, _require_genus
from .checks import SUITES, CheckResult, _level_major, _oracle_record, _refinement_record, _table_record, run_suite
from .dimensions import _graded_cell, _level_p, _pairs
from .fusion import MAX_RANGE_VALUES, _require_tables, _require_terms, _twisted_tables, _verlinde_tables
from .fusion import verlinde_dim, verlinde_trig_oracle
from .levels import (
    Lattice,
    LevelValue,
    _is_bm_level,
    beta_pullback,
    bhmv_from_su2,
    bm_from_so3,
    correspondence_table,
    metaplectic_shift,
    so3_from_bm,
    so3_from_su2,
    su2_from_bhmv,
)

# argparse reads "--genus -2..0" as an option with no value
GENUS_HELP = "genera such as 2, 1..5 or 2,4..6; write a range below 0 as --genus=-2..0"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_int(text: str) -> int:
    """The one integer grammar of every option and range atom: a sign, or none, and ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return int(text)


def _parse_int_range(text: str) -> list[int]:
    """Parse '4', '1..5' and comma-combinations thereof into a sorted list."""
    values: set[int] = set()
    for atom in text.split(","):
        atom = atom.strip()
        if ".." in atom:
            lo_text, _, hi_text = atom.partition("..")
            try:
                lo, hi = _parse_int(lo_text), _parse_int(hi_text)
            except (argparse.ArgumentTypeError, ValueError):  # ValueError: more digits than int() converts
                raise argparse.ArgumentTypeError(f"malformed range {atom!r}") from None
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty range {atom!r}")
            # checked before the range is built, so a huge range allocates nothing
            if hi - lo >= MAX_RANGE_VALUES:
                raise argparse.ArgumentTypeError(
                    f"range {atom!r} has {hi - lo + 1} values, more than {MAX_RANGE_VALUES}"
                )
            values.update(range(lo, hi + 1))
        else:
            try:
                values.add(_parse_int(atom))
            except (argparse.ArgumentTypeError, ValueError):
                raise argparse.ArgumentTypeError(f"malformed range entry {atom!r}") from None
        # after every atom, so that many ranges never build more than one past the bound
        if len(values) > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(f"{text!r} lists more than {MAX_RANGE_VALUES} values")
    return sorted(values)


def _level_text(text: str) -> str:
    """The text of --p or --so3-level, once ``_parse_int_range`` takes it.
    Which of its values name levels is read after parsing, by ``_parse_levels``."""
    _parse_int_range(text)
    return text


def _parse_levels(text: str, keeps: Callable[[int], bool], level_of: Callable[[int], int], kind: str) -> list[int]:
    """The levels a list such as '8', '1..5' or '8,24..40' names.  A range a..b
    names ``level_of`` each of its values that ``keeps``, and one that keeps
    none is a ValueError naming it and ``kind``; a listed value names
    ``level_of`` itself, which raises ValueError for a value it does not keep.
    The text is one that ``_level_text`` has taken."""
    levels: set[int] = set()
    for atom in text.split(","):
        atom = atom.strip()
        if ".." in atom:
            in_range = [level_of(value) for value in _parse_int_range(atom) if keeps(value)]
            if not in_range:
                raise ValueError(f"range {atom!r} contains no {kind}")
            levels.update(in_range)
        else:
            levels.add(level_of(_parse_int(atom)))
    return sorted(levels)


def _bm_level(p: int) -> int:
    if not _is_bm_level(p):
        raise ValueError(f"--p values must be positive multiples of 8, got {p}")
    return p


# ---------------------------------------------------------------------------
# output emission


def _emit_text(headers: list[str], payload: dict, stream) -> None:
    rows = payload["rows"]
    if rows:
        # a missing or None value is an empty cell, as in CSV
        cells = [["" if row.get(h) is None else str(row[h]) for h in headers] for row in rows]
        widths = [max(len(h), *(len(line[i]) for line in cells)) for i, h in enumerate(headers)]
        for line in [headers, *cells]:
            stream.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")
    for check in payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        details = f"  {check['details']}" if check.get("details") else ""
        stream.write(f"[{status}] {check['name']}{details}\n")


def _emit(args, command: str, params: dict, rows: list[dict], results: list[CheckResult]) -> int:
    """Write the payload in ``args.format`` to stdout or ``args.out``; return the exit code.

    The one place where the check records become ``{"name", "passed", "details"}``.
    """
    checks = [{"name": r.name, "passed": r.passed, "details": r.details} for r in results]
    payload = {"command": command, "params": params, "rows": rows, "checks": checks}
    if args.format == "json":
        # one line: without ``indent``, json.dumps runs CPython's C encoder
        rendered = json.dumps(payload) + "\n"
    else:
        headers = list(dict.fromkeys(key for row in rows for key in row))
        buffer = io.StringIO()
        if args.format == "csv":
            writer = csv.DictWriter(buffer, fieldnames=headers, restval="")
            writer.writeheader()
            writer.writerows(rows)
        else:
            _emit_text(headers, payload, buffer)
        rendered = buffer.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


# ---------------------------------------------------------------------------
# subcommands


def _verlinde_cell(g: int, k: int) -> tuple[dict, CheckResult]:
    """The row and the certification check of one (g, k) cell."""
    dim = verlinde_dim(g, k)
    check, certificate = _oracle_record(f"certified (g={g}, k={k})", dim, verlinde_trig_oracle, g, k)
    bits = None if certificate is None else certificate.precision_bits
    row = {"g": g, "k": k, "dim": dim, "oracle_precision_bits": bits}
    return row, check


def _cmd_verlinde(args) -> int:
    # the levels are sorted: the last has the longest certified sum, over j < k + 2,
    # and the last genus the largest power-sum tables
    _require_terms(args.level[-1] + 2, ("verlinde: level k={}", args.level[-1]))
    g, k = args.genus[-1], args.level[-1]
    _require_tables(g - 1, _verlinde_tables(args.level), ("verlinde: cell (g={}, k={})", g, k))
    cells = _level_major(args.genus, args.level, _verlinde_cell)
    rows, checks = [row for row, _ in cells], [check for _, check in cells]
    params = {"genus": args.genus, "level": args.level}
    return _emit(args, "verlinde", params, rows, checks)


def _cmd_spin_dims(args) -> int:
    # --convention pairs SO3 levels with p; a level p given as such resolves none
    if args.p is not None:
        if args.convention is not None:
            raise ValueError("spin-dims --p: --convention does not apply; it resolves --so3-level only")
        text, keeps, level_of, kind = args.p, _is_bm_level, _bm_level, "positive multiple of 8"
        resolved = {}
    else:
        convention = args.convention or "bm"
        text, kind = args.so3_level, f"level that convention {convention!r} pairs"
        keeps, level_of = (lambda k: _pairs(k, convention)), (lambda k: _level_p(k, convention))
        resolved = {"convention": convention}
    levels = _parse_levels(text, keeps, level_of, kind)
    for eps in args.arf:
        _require_bit(eps, "--arf")
    # the genera are sorted: the first is the least, the one the cells would refuse
    _require_genus(args.genus[0])
    if args.genus[0] == 1 and not args.allow_genus_one:
        raise ValueError(
            "spin-dims --genus 1: genus 1 sits outside the moduli-space derivation; "
            "pass --allow-genus-one to extrapolate"
        )
    # the last genus is the largest, and the one whose power-sum tables the budget counts
    g = args.genus[-1]
    _require_tables(g - 1, _twisted_tables(levels), ("spin-dims: cell (g={}, p={})", g, levels[-1]))

    def cell(g: int, p: int) -> tuple[list[dict], CheckResult]:
        """The rows and the checksum record of one (g, p) cell."""
        # both Arf values, whichever rows are asked for: the checksum weights both
        dims, even_total, odd_total = _graded_cell(g, p)
        flag = {"extrapolated": True} if g == 1 or args.convention == "corollary" else {}
        rows = [
            {"g": g, "p": p, "arf": arf, "even": even, "odd": odd, **flag}
            for arf, even, odd in [(eps, *dims[eps]) for eps in args.arf] + [("*", even_total, odd_total)]
        ]
        return rows, _refinement_record("decomposition checksum", g, p, even_total)

    cells = _level_major(args.genus, levels, cell)
    rows = [row for cell_rows, _ in cells for row in cell_rows]
    checks = [check for _, check in cells]
    params = {"genus": args.genus, "p": levels, "arf": args.arf, **resolved}
    return _emit(args, "spin-dims", params, rows, checks)


def _cmd_check(args) -> int:
    given = {name: getattr(args, name) for name in ("genus", "p", "level", "max_m")}
    options = {name: value for name, value in given.items() if value is not None}
    return _emit(args, "check", {"suite": args.suite, **options}, [], run_suite(args.suite, **options))


_CONVERSIONS = {
    (Lattice.SO3, Lattice.SU2): beta_pullback,
    (Lattice.SO3, Lattice.BM): bm_from_so3,
    (Lattice.SO3, Lattice.BHMV): lambda level: bhmv_from_su2(beta_pullback(level)),
    (Lattice.SU2, Lattice.BHMV): bhmv_from_su2,
    (Lattice.SU2, Lattice.SO3): so3_from_su2,
    (Lattice.BHMV, Lattice.SU2): su2_from_bhmv,
    (Lattice.BM, Lattice.SO3): so3_from_bm,
}


# the conversion options of ``levels`` and their defaults, which --table leaves unused
_CONVERSION_OPTIONS = {"so3": None, "su2": None, "bhmv": None, "bm": None, "to": None, "shift": False}


def _cmd_levels(args) -> int:
    if args.table:
        given = [name for name, default in _CONVERSION_OPTIONS.items() if getattr(args, name) is not default]
        if given:
            raise ValueError(f"levels --table: --{given[0]} does not apply; the table takes no conversion option")
        table = correspondence_table()
        rows = [
            {"row": labels[0], "col1": labels[1], "col2": labels[2], "col3": labels[3], "col4": labels[4]}
            for labels in table.rows()
        ]
        checks = [
            _table_record("correspondence table internally validated"),
            CheckResult("erratum note", True, table.erratum),
        ]
        return _emit(args, "levels", {"table": True}, rows, checks)

    sources = [
        (Lattice.SO3, args.so3),
        (Lattice.SU2, args.su2),
        (Lattice.BHMV, args.bhmv),
        (Lattice.BM, args.bm),
    ]
    given = [(lattice, value) for lattice, value in sources if value is not None]
    if len(given) != 1:
        raise ValueError("provide exactly one of --so3/--su2/--bhmv/--bm (or --table)")
    lattice, value = given[0]
    level = LevelValue(lattice, value)
    if args.shift:
        level = metaplectic_shift(level)
    target_lattice = level.lattice if args.to is None else Lattice(args.to)
    if target_lattice is level.lattice:
        target = level
    else:
        converter = _CONVERSIONS.get((level.lattice, target_lattice))
        if converter is None:
            raise ValueError(f"no conversion from {level.lattice.value} to {target_lattice.value}")
        target = converter(level)
    params = {
        "from_lattice": lattice.value,
        "from_value": value,
        "shift": args.shift,
        "to": target.lattice.value,
    }
    row = {
        "from_lattice": lattice.value,
        "from_value": value,
        "to_lattice": target.lattice.value,
        "to_value": target.value,
    }
    return _emit(args, "levels", params, [row], [])


# ---------------------------------------------------------------------------
# parser setup


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json", "csv")) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinverlinde",
        description="Exact spin-refined dimension tables and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verl = sub.add_parser("verlinde", help="genus/level dimension table with certification")
    p_verl.add_argument("--genus", type=_parse_int_range, required=True, help=GENUS_HELP)
    p_verl.add_argument("--level", type=_parse_int_range, required=True, help="SU2 levels k")
    _add_common(p_verl)

    p_spin = sub.add_parser("spin-dims", help="graded spin dimension table")
    p_spin.add_argument("--genus", type=_parse_int_range, required=True, help=GENUS_HELP)
    p_level = p_spin.add_mutually_exclusive_group(required=True)
    p_level.add_argument("--p", type=_level_text, default=None, help="levels p = 0 mod 8")
    p_level.add_argument(
        "--so3-level", type=_level_text, default=None,
        help="SO3 levels, resolved to p per --convention; a range keeps the levels it pairs",
    )
    p_spin.add_argument("--arf", type=_parse_int_range, default=[0, 1])
    p_spin.add_argument(
        "--convention", choices=("bm", "corollary"), default=None,
        help="pairing of --so3-level with p (default bm); not with --p",
    )
    p_spin.add_argument("--allow-genus-one", action="store_true")
    _add_common(p_spin)

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}, all")
    p_check.add_argument("--genus", type=_parse_int_range, default=None, help=GENUS_HELP)
    p_check.add_argument("--p", type=_parse_int_range, default=None)
    p_check.add_argument("--level", type=_parse_int_range, default=None)
    p_check.add_argument("--max-m", type=_parse_int, default=None)
    # CSV holds rows only, and a check prints none
    _add_common(p_check, formats=("text", "json"))

    p_levels = sub.add_parser("levels", help="level lattice conversions and the residue table")
    p_levels.add_argument("--so3", type=_parse_int, default=None)
    p_levels.add_argument("--su2", type=_parse_int, default=None)
    p_levels.add_argument("--bhmv", type=_parse_int, default=None)
    p_levels.add_argument("--bm", type=_parse_int, default=None)
    p_levels.add_argument("--to", choices=[l.value for l in Lattice], default=None)
    p_levels.add_argument("--shift", action="store_true", help="apply the metaplectic shift first")
    p_levels.add_argument("--table", action="store_true", help="print the correspondence table")
    _add_common(p_levels)

    return parser


_COMMANDS = {"verlinde": _cmd_verlinde, "spin-dims": _cmd_spin_dims, "check": _cmd_check, "levels": _cmd_levels}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # an exact value can have more digits than CPython 3.11+ converts to str
    # by default; lift that limit while this call runs, and give an
    # in-process caller its own setting back afterwards
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
