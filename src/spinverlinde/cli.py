"""Command-line surface: dimension tables, identity suites, level conversions.

Exit codes are a stable contract: 0 success, 1 identity or certification
failure, 2 usage error.  Sweep cells are evaluated in order, genus-major,
so output ordering is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .checks import SUITES, CheckResult, run_suite
from .dimensions import (
    IdentityViolationError,
    IntegralityError,
    _level_p,
    bm_even_dim,
    bm_odd_dim,
    sum_over_spin,
)
from .fusion import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_PRECISION_CEILING,
    CertificationError,
    verlinde_dim,
    verlinde_trig_oracle,
)
from .levels import (
    Lattice,
    LevelValue,
    beta_pullback,
    bhmv_from_su2,
    bm_from_so3,
    correspondence_table,
    metaplectic_shift,
    so3_from_bm,
    so3_from_su2,
    su2_from_bhmv,
)
from .spin import count_by_arf

PRECISION_CEILING_ENV = "SPINVERLINDE_PRECISION_CEILING"

#: Most values one integer-range option may list; a larger sweep is a usage error.
MAX_RANGE_VALUES = 100_000

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_int_range(text: str) -> list[int]:
    """Parse '4', '1..5' and comma-combinations thereof into a sorted list."""
    values: set[int] = set()
    for atom in text.split(","):
        atom = atom.strip()
        if ".." in atom:
            lo_text, _, hi_text = atom.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"malformed range {atom!r}") from None
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty range {atom!r}")
            # checked before the range is built, so a huge range allocates nothing
            if hi - lo >= MAX_RANGE_VALUES:
                raise argparse.ArgumentTypeError(
                    f"range {atom!r} has {hi - lo + 1} values, more than {MAX_RANGE_VALUES}"
                )
            values.update(range(lo, hi + 1))
            if len(values) > MAX_RANGE_VALUES:
                raise argparse.ArgumentTypeError(
                    f"{text!r} lists more than {MAX_RANGE_VALUES} values"
                )
        else:
            try:
                values.add(int(atom))
            except ValueError:
                raise argparse.ArgumentTypeError(f"malformed range entry {atom!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return sorted(values)


def _parse_bits(text: str) -> list[int]:
    values = _parse_int_range(text)
    if any(v not in (0, 1) for v in values):
        raise argparse.ArgumentTypeError(f"arf values must be bits, got {text!r}")
    return values


def _parse_bm_levels(text: str) -> list[int]:
    """Levels p for the graded sweep.  A range a..b sweeps the multiples of 8
    it contains; an explicitly listed value must itself be a positive
    multiple of 8."""
    values: set[int] = set()
    for atom in text.split(","):
        atom = atom.strip()
        if ".." in atom:
            in_range = [p for p in _parse_int_range(atom) if p > 0 and p % 8 == 0]
            if not in_range:
                raise argparse.ArgumentTypeError(
                    f"range {atom!r} contains no positive multiple of 8"
                )
            values.update(in_range)
        else:
            (value,) = _parse_int_range(atom)
            if value <= 0 or value % 8:
                raise argparse.ArgumentTypeError(
                    f"--p values must be positive multiples of 8, got {value}"
                )
            values.add(value)
    return sorted(values)


def _default_ceiling() -> int:
    raw = os.environ.get(PRECISION_CEILING_ENV)
    if raw is None:
        return DEFAULT_PRECISION_CEILING
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{PRECISION_CEILING_ENV} must be an integer, got {raw!r}"
        ) from None


# ---------------------------------------------------------------------------
# output emission


def _emit_text(payload: dict, stream) -> None:
    rows = payload["rows"]
    if rows:
        headers = list(dict.fromkeys(key for row in rows for key in row))
        widths = [
            max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers
        ]
        stream.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for row in rows:
            stream.write(
                "  ".join(str(row.get(h, "")).ljust(w) for h, w in zip(headers, widths)).rstrip()
                + "\n"
            )
    for check in payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        details = f"  {check['details']}" if check.get("details") else ""
        stream.write(f"[{status}] {check['name']}{details}\n")


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        rendered = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        rows = payload["rows"]
        if rows:
            headers = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(buffer, fieldnames=headers, restval="")
            writer.writeheader()
            writer.writerows(rows)
        rendered = buffer.getvalue()
    else:
        buffer = io.StringIO()
        _emit_text(payload, buffer)
        rendered = buffer.getvalue()
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot write --out {out!r}: {exc.strerror}"
            ) from None
    else:
        sys.stdout.write(rendered)


def _check_dicts(results: list[CheckResult]) -> list[dict]:
    return [{"name": r.name, "passed": r.passed, "details": r.details} for r in results]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verlinde(args) -> int:
    cells = [(g, k) for g in args.genus for k in args.level]
    ceiling = args.precision_ceiling
    if ceiling is None:
        ceiling = _default_ceiling()

    def worker(cell):
        g, k = cell
        dim = verlinde_dim(g, k)
        try:
            certificate = verlinde_trig_oracle(g, k, args.precision_bits, ceiling)
            width, bits = float(certificate.width), certificate.precision_bits
            certified = certificate.value == dim and certificate.width < Fraction(1, 2)
            details = f"series {dim}, oracle {certificate.value}"
        except CertificationError as exc:
            width, bits, certified, details = float("nan"), None, False, str(exc)
        return (
            {"g": g, "k": k, "dim": dim, "oracle_interval_width": width, "oracle_precision_bits": bits},
            {"name": f"certified (g={g}, k={k})", "passed": certified, "details": details},
        )

    outcomes = [worker(cell) for cell in cells]
    rows = [row for row, _ in outcomes]
    checks = [check for _, check in outcomes]
    payload = {
        "command": "verlinde",
        "params": {"genus": args.genus, "level": args.level},
        "rows": rows,
        "checks": checks,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_FAILURE


def _cmd_spin_dims(args, parser: argparse.ArgumentParser) -> int:
    extrapolated_convention = args.convention != "bm"
    if args.p is not None:
        levels = args.p
    else:
        try:
            levels = [_level_p(k, args.convention) for k in args.so3_level]
        except ValueError as exc:
            parser.error(str(exc))
    cells = [(g, p) for g in args.genus for p in sorted(set(levels))]

    def worker(cell):
        g, p = cell
        rows = []
        extrapolated = g == 1 or extrapolated_convention
        for eps in args.arf:
            row = {
                "g": g,
                "p": p,
                "arf": eps,
                "even": bm_even_dim(g, p, eps, allow_genus_one=args.allow_genus_one),
                "odd": bm_odd_dim(g, p, eps, allow_genus_one=args.allow_genus_one),
            }
            if extrapolated:
                row["extrapolated"] = True
            rows.append(row)
        n_even, n_odd = count_by_arf(g)
        even_total = sum_over_spin(g, p, allow_genus_one=args.allow_genus_one)
        odd_total = n_even * bm_odd_dim(g, p, 0, allow_genus_one=args.allow_genus_one) + n_odd * bm_odd_dim(
            g, p, 1, allow_genus_one=args.allow_genus_one
        )
        checksum = {"g": g, "p": p, "arf": "*", "even": even_total, "odd": odd_total}
        if extrapolated:
            checksum["extrapolated"] = True
        rows.append(checksum)
        check = {
            "name": f"decomposition checksum (g={g}, p={p})",
            "passed": even_total == verlinde_dim(g, p // 2 - 2),
            "details": f"sum over spin structures {even_total} = unrefined dimension",
        }
        return rows, check

    outcomes = [worker(cell) for cell in cells]
    rows = [row for cell_rows, _ in outcomes for row in cell_rows]
    checks = [check for _, check in outcomes]
    payload = {
        "command": "spin-dims",
        "params": {
            "genus": args.genus,
            "p": sorted(set(levels)),
            "arf": args.arf,
            "convention": args.convention,
        },
        "rows": rows,
        "checks": checks,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_FAILURE


def _cmd_check(args) -> int:
    params = {}
    if args.genus is not None:
        params["max_genus"] = max(args.genus)
        params["genera"] = args.genus
    if args.p is not None:
        params["levels_p"] = args.p
        params["max_p"] = max(args.p)
    if args.level is not None:
        params["su2_levels"] = args.level
    if args.max_m is not None:
        params["max_m"] = args.max_m
    try:
        results = run_suite(args.suite, **params)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "command": "check",
        "params": {"suite": args.suite, **params},
        "rows": [],
        "checks": _check_dicts(results),
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


_CONVERSIONS = {
    (Lattice.SO3, Lattice.SU2): beta_pullback,
    (Lattice.SO3, Lattice.BM): bm_from_so3,
    (Lattice.SO3, Lattice.BHMV): lambda level: bhmv_from_su2(beta_pullback(level)),
    (Lattice.SU2, Lattice.BHMV): bhmv_from_su2,
    (Lattice.SU2, Lattice.SO3): so3_from_su2,
    (Lattice.BHMV, Lattice.SU2): su2_from_bhmv,
    (Lattice.BM, Lattice.SO3): so3_from_bm,
}


def _cmd_levels(args, parser: argparse.ArgumentParser) -> int:
    if args.table:
        table = correspondence_table()
        rows = [
            {"row": labels[0], "col1": labels[1], "col2": labels[2], "col3": labels[3], "col4": labels[4]}
            for labels in table.rows()
        ]
        try:
            performed = table.validate()
            checks = [
                {"name": "correspondence table internally validated", "passed": True,
                 "details": f"{len(performed)} checks"},
            ]
            status = EXIT_OK
        except ValueError as exc:
            checks = [{"name": "correspondence table internally validated", "passed": False,
                       "details": str(exc)}]
            status = EXIT_FAILURE
        checks.append({"name": "erratum note", "passed": True, "details": table.erratum})
        payload = {"command": "levels", "params": {"table": True}, "rows": rows, "checks": checks}
        _emit(payload, args.format, args.out)
        return status

    sources = [
        (Lattice.SO3, args.so3),
        (Lattice.SU2, args.su2),
        (Lattice.BHMV, args.bhmv),
        (Lattice.BM, args.bm),
    ]
    given = [(lattice, value) for lattice, value in sources if value is not None]
    if len(given) != 1:
        parser.error("provide exactly one of --so3/--su2/--bhmv/--bm (or --table)")
    lattice, value = given[0]
    level = LevelValue(lattice, value)
    if args.shift:
        level = metaplectic_shift(level)
    if args.to is None:
        target = level
    else:
        target_lattice = Lattice(args.to)
        if target_lattice is level.lattice:
            target = level
        else:
            converter = _CONVERSIONS.get((level.lattice, target_lattice))
            if converter is None:
                parser.error(
                    f"no conversion from {level.lattice.value} to {target_lattice.value}"
                )
            target = converter(level)
    payload = {
        "command": "levels",
        "params": {
            "from_lattice": lattice.value,
            "from_value": value,
            "shift": args.shift,
            "to": target.lattice.value,
        },
        "rows": [
            {
                "from_lattice": lattice.value,
                "from_value": value,
                "to_lattice": target.lattice.value,
                "to_value": target.value,
            }
        ],
        "checks": [],
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser setup


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinverlinde",
        description="Exact spin-refined dimension tables and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verl = sub.add_parser("verlinde", help="genus/level dimension table with certification")
    p_verl.add_argument("--genus", type=_parse_int_range, required=True)
    p_verl.add_argument("--level", type=_parse_int_range, required=True, help="SU2 levels k")
    p_verl.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    p_verl.add_argument("--precision-ceiling", type=int, default=None)
    _add_common(p_verl)

    p_spin = sub.add_parser("spin-dims", help="graded spin dimension table")
    p_spin.add_argument("--genus", type=_parse_int_range, required=True)
    p_spin.add_argument("--p", type=_parse_bm_levels, default=None, help="levels p = 0 mod 8")
    p_spin.add_argument(
        "--so3-level", type=_parse_int_range, default=None,
        help="SO3 levels, resolved to p per --convention",
    )
    p_spin.add_argument("--arf", type=_parse_bits, default=[0, 1])
    p_spin.add_argument("--convention", choices=("bm", "corollary"), default="bm")
    p_spin.add_argument("--allow-genus-one", action="store_true")
    _add_common(p_spin)

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}, all")
    p_check.add_argument("--genus", type=_parse_int_range, default=None)
    p_check.add_argument("--p", type=_parse_int_range, default=None)
    p_check.add_argument("--level", type=_parse_int_range, default=None)
    p_check.add_argument("--max-m", type=int, default=None)
    _add_common(p_check)

    p_levels = sub.add_parser("levels", help="level lattice conversions and the residue table")
    p_levels.add_argument("--so3", type=int, default=None)
    p_levels.add_argument("--su2", type=int, default=None)
    p_levels.add_argument("--bhmv", type=int, default=None)
    p_levels.add_argument("--bm", type=int, default=None)
    p_levels.add_argument("--to", choices=[l.value for l in Lattice], default=None)
    p_levels.add_argument("--shift", action="store_true", help="apply the metaplectic shift first")
    p_levels.add_argument("--table", action="store_true", help="print the correspondence table")
    _add_common(p_levels)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verlinde":
            return _cmd_verlinde(args)
        if args.command == "spin-dims":
            if (args.p is None) == (args.so3_level is None):
                parser.error("provide exactly one of --p or --so3-level")
            return _cmd_spin_dims(args, parser)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "levels":
            return _cmd_levels(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (IdentityViolationError, IntegralityError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
