import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spinverlinde import checks, cli, dimensions, fusion
from spinverlinde.cli import main
from spinverlinde.levels import CorrespondenceTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def uncertifiable_above_genus_one(monkeypatch):
    """Make every sum above genus one read the residue (n - 1) n^{3m} + 1,
    past its bound (n - 1)(n/2)^{3m}, so its certification fails; the
    genus-one sums stay exact."""
    honest = fusion._sum_residue
    monkeypatch.setattr(
        fusion,
        "_sum_residue",
        lambda m, n, bits, alternating: honest(m, n, bits, alternating) if m == 0 else (n - 1) * n ** (3 * m) + 1,
    )


# the message of a residue outside its bound
OUTSIDE_THE_BOUND = r"residue 0x[0-9a-f]+ at \d+ bits exceeds the bound 0x[0-9a-f]+$"


class TestVerlindeCommand:
    def test_text_table_has_precision_column(self, capsys):
        code, out, _ = run_cli(capsys, "verlinde", "--genus", "2", "--level", "2")
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header.split()[-1] == "oracle_precision_bits"
        assert row.split()[-1] == "128"
        assert "series 10, oracle 10" in out

    def test_table_contains_expected_cell(self, capsys):
        code, payload, _ = run_json(capsys, "verlinde", "--genus", "2", "--level", "1..4")
        assert code == 0
        rows = {(r["g"], r["k"]): r for r in payload["rows"]}
        assert rows[(2, 2)]["dim"] == 10
        assert rows[(2, 2)]["oracle_precision_bits"] == 128
        assert all(c["passed"] for c in payload["checks"])

    def test_genus_one_row(self, capsys):
        code, payload, _ = run_json(capsys, "verlinde", "--genus", "1", "--level", "5")
        assert code == 0
        assert payload["rows"] == [
            {"g": 1, "k": 5, "dim": 6, "oracle_precision_bits": 128}
        ]

    def test_malformed_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", "1..x"])
        assert excinfo.value.code == 2

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", "4..1"])
        assert excinfo.value.code == 2

    def test_oversized_range_is_usage_error(self, capsys, monkeypatch):
        # the cap must reject the range before it is built; should it ever
        # stop doing so, this stand-in fails the test instead of allocating
        def bounded_range(*args):
            values = range(*args)
            assert len(values) <= cli.MAX_RANGE_VALUES, "range built before the cap check"
            return values

        monkeypatch.setattr(cli, "range", bounded_range, raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", f"0..{10**12}"])
        assert excinfo.value.code == 2
        assert f"0..{10**12}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("option", "listed"),
        [
            # 100 001 single values, and nine ranges of 12 500 multiples of 8 or fewer each
            ("--genus", ",".join(map(str, range(1, cli.MAX_RANGE_VALUES + 2)))),
            ("--p", ",".join(f"{start}..{start + 99_999}" for start in range(0, 900_000, 100_000))),
        ],
        ids=["genus-values", "p-ranges"],
    )
    def test_oversized_comma_list_is_usage_error(self, capsys, option, listed):
        command = ["verlinde", "--level", "1"] if option == "--genus" else ["spin-dims", "--genus", "2"]
        with pytest.raises(SystemExit) as excinfo:
            main([*command, option, listed])
        assert excinfo.value.code == 2
        assert f"lists more than {cli.MAX_RANGE_VALUES} values" in capsys.readouterr().err

    def test_non_integral_power_sum_is_a_failure(self, capsys, monkeypatch, cold_caches):
        # the exactness guard of fusion raises a plain ArithmeticError, the base
        # of every failure that exits 1; P_1(3) = 8 reads 9 here
        honest = fusion._scaled_power_sum
        monkeypatch.setattr(fusion, "_scaled_power_sum", lambda m, n: honest(m, n) + 1)
        code, out, err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "1")
        assert (code, out) == (1, "")
        assert err == "error: verlinde_dim(g=2, k=1): power-sum value 9/2 is not an integer\n"

    def test_json_round_trips(self, capsys):
        _, payload, _ = run_json(capsys, "verlinde", "--genus", "1..2", "--level", "0..3")
        assert json.loads(json.dumps(payload)) == payload

    def test_jobs_option_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", "1", "--jobs", "2"])
        assert excinfo.value.code == 2

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verlinde", "--genus", "2", "--level", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["dim"] == "10"
        assert rows[0]["oracle_precision_bits"] == "128"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "verlinde", "--genus", "2", "--level", "2",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "verlinde"

    def test_unwritable_out_file_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "levels", "--su2", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert str(target) in err
        assert not target.exists()

    def test_precision_ceiling_env_var(self, capsys, monkeypatch):
        # the oracle works out its own last precision, so the variable that
        # once capped it is not read, whatever its value
        for value in ("64", "abc"):
            monkeypatch.setenv("SPINVERLINDE_PRECISION_CEILING", value)
            code, payload, _ = run_json(capsys, "verlinde", "--genus", "12,400", "--level", "40")
            assert code == 0
            assert all(c["passed"] for c in payload["checks"])
            # the doublings show in the rows: both cells certify above the 128-bit start
            assert [row["oracle_precision_bits"] for row in payload["rows"]] == [256, 8192]

    @pytest.mark.parametrize("option", ["--precision-bits", "--precision-ceiling"])
    def test_precision_options_are_usage_errors(self, capsys, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", "1", option, "256"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option} 256" in capsys.readouterr().err

    def test_values_past_the_str_digit_limit(self, capsys, monkeypatch):
        # a 5001-digit value, past CPython's default limit of 4300 digits for
        # int-to-str conversion, in every format; the exact cell that big,
        # verlinde --genus 1000 --level 1000, takes about a minute
        value = 10**5000 + 1
        monkeypatch.setattr(cli, "verlinde_dim", lambda g, k: value)
        monkeypatch.setattr(
            cli, "verlinde_trig_oracle", lambda g, k: fusion.CertifiedInteger(value, value, 2 * value + 1, 128)
        )
        limited = hasattr(sys, "set_int_max_str_digits")
        before = sys.get_int_max_str_digits() if limited else None
        outputs = {}
        for form in ("json", "csv", "text"):
            code, outputs[form], err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "3", "--format", form)
            assert (code, err) == (0, "")
            # main gives an in-process caller its own limit back
            assert (sys.get_int_max_str_digits() if limited else None) == before
        if limited:
            sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(outputs["json"])
            (row,) = csv.DictReader(io.StringIO(outputs["csv"]))
            text_row = outputs["text"].splitlines()[1].split()
            assert payload["rows"][0]["dim"] == int(row["dim"]) == int(text_row[2]) == value
            assert payload["checks"][0]["details"] == f"series {value}, oracle {value}"
        finally:
            if limited:
                sys.set_int_max_str_digits(before)

    # (1, 40) certifies at 128 bits, (30, 40) cannot: one row of each kind
    FAILED_CELL = ("verlinde", "--genus", "1,30", "--level", "40")

    def test_failed_certification_is_strict_json(self, capsys, monkeypatch):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        uncertifiable_above_genus_one(monkeypatch)
        code, out, _ = run_cli(capsys, *self.FAILED_CELL, "--format", "json")
        assert code == 1
        payload = json.loads(out, parse_constant=reject)
        certified, failed = payload["rows"]
        assert "oracle_interval_width" not in certified
        assert (certified["oracle_precision_bits"], failed["oracle_precision_bits"]) == (128, None)
        assert [c["passed"] for c in payload["checks"]] == [True, False]
        assert re.match(f"verlinde\\(g=30, k=40\\): {OUTSIDE_THE_BOUND}", payload["checks"][1]["details"])

    def test_failed_certification_cells_are_empty(self, capsys, monkeypatch):
        uncertifiable_above_genus_one(monkeypatch)
        code, out, _ = run_cli(capsys, *self.FAILED_CELL)
        assert code == 1
        header, certified, failed = out.splitlines()[:3]
        assert header.split() == ["g", "k", "dim", "oracle_precision_bits"]
        assert certified.split() == ["1", "40", "41", "128"]
        assert failed.split() == ["30", "40", str(cli.verlinde_dim(30, 40))]
        code, out, _ = run_cli(capsys, *self.FAILED_CELL, "--format", "csv")
        assert code == 1
        certified, failed = csv.DictReader(io.StringIO(out))
        assert list(certified) == ["g", "k", "dim", "oracle_precision_bits"]
        assert (certified["oracle_precision_bits"], failed["oracle_precision_bits"]) == ("128", "")

    def test_residue_beyond_the_float_range_is_a_failed_record(self, capsys, monkeypatch):
        # a residue outside its bound near 2^1200, past the largest float
        monkeypatch.setattr(fusion, "_sum_residue", lambda m, n, bits, alternating: 2**1200 + 1)
        code, payload, err = run_json(capsys, "verlinde", "--genus", "5", "--level", "10")
        assert (code, err) == (1, "")
        (row,) = payload["rows"]
        assert row == {"g": 5, "k": 10, "dim": 129443600, "oracle_precision_bits": None}
        (check,) = payload["checks"]
        assert check["passed"] is False
        # the bound at n = 12, m = 4 is 11 * 6^12
        bound = hex(11 * 6**12)
        assert check["details"] == f"verlinde(g=5, k=10): residue {hex(2**1200 + 1)} at 128 bits exceeds the bound {bound}"


@pytest.mark.parametrize("command", ["verlinde", "spin-dims", "check"])
def test_genus_help_names_the_negative_range_spelling(command, capsys):
    # argparse takes "--genus -2..0" for an option without its value
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--genus=-2..0" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--genus", "-2..0"])
    assert excinfo.value.code == 2
    assert "--genus: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("levels", "--so3", "1", "--su2", "2"), "provide exactly one of --so3/--su2/--bhmv/--bm (or --table)"),
        (("levels", "--to", "bm"), "provide exactly one of --so3/--su2/--bhmv/--bm (or --table)"),
        (("levels", "--bm", "8", "--to", "bhmv"), "no conversion from bm to bhmv"),
        (("spin-dims", "--genus", "2", "--so3-level", "2"), "convention 'bm' pairs only positive odd levels, got k=2"),
        (
            ("spin-dims", "--genus", "2", "--p", "8", "--convention", "corollary"),
            "spin-dims --p: --convention does not apply; it resolves --so3-level only",
        ),
        (
            ("verlinde", "--genus", "2", "--level", "2", "--out", "{missing}"),
            "cannot write --out '{missing}': No such file or directory",
        ),
        (("check", "levels", "--max-m", "1000000000000"), "check levels: --max-m 1000000000000 is more than 100000"),
        (("check", "nonsense"), f"unknown check suite 'nonsense'; known: {', '.join(sorted(checks.SUITES))}, all"),
        (("spin-dims", "--genus", "2", "--p", "12"), "--p values must be positive multiples of 8, got 12"),
        (("spin-dims", "--genus", "2", "--p", "8,12"), "--p values must be positive multiples of 8, got 12"),
        (("spin-dims", "--genus", "2", "--p", "9..15"), "range '9..15' contains no positive multiple of 8"),
        (("spin-dims", "--genus", "2", "--p", "8", "--arf", "2"), "--arf must be 0 or 1, got 2"),
        (("levels", "--bhmv", "2", "--to", "su2"), "BHMV level 2 is below 4; p = 2(k + 2) has no preimage at k >= 0"),
        (("levels", "--so3=-1", "--to", "su2"), "SO3 levels are non-negative integers, got -1"),
        (("levels", "--su2=-4", "--to", "so3"), "SU2 levels are non-negative integers, got -4"),
        (("levels", "--so3=-3", "--shift"), "SO3 levels are non-negative integers, got -3"),
    ],
    ids=[
        "two-sources",
        "no-source",
        "no-conversion",
        "so3-level-parity",
        "p-convention",
        "unwritable-out",
        "max-m",
        "unknown-suite",
        "p-level",
        "p-list-level",
        "p-range-keeps-none",
        "arf-bit",
        "bhmv-below-four",
        "negative-so3",
        "negative-su2",
        "negative-so3-shift",
    ],
)
def test_refusal_after_parsing_returns_usage_error(argv, message, capsys, tmp_path):
    # one path for every request refused after argparse: main returns 2 and
    # prints the message alone, without a usage line
    missing = str(tmp_path / "missing" / "x.json")
    argv = [arg.format(missing=missing) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message.format(missing=missing)}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verlinde", "--genus", "2", "--level", f"0..{10**12}"), "range '0..1000000000000' has 1000000000001 values"),
        (("spin-dims", "--genus", "2"), "one of the arguments --p --so3-level is required"),
        (("spin-dims", "--genus", "2", "--p", "1..x"), "argument --p: malformed range '1..x'"),
        (("spin-dims", "--genus", "2", "--p", f"0..{10**12}"), "argument --p: range '0..1000000000000' has 1000000000001 values"),
        (("spin-dims", "--genus", "2", "--p", "8", "--arf", "x"), "argument --arf: malformed range entry 'x'"),
        # CSV holds rows only, and check prints none: it would write 0 bytes, even on a failure
        (("check", "all", "--format", "csv"), "argument --format: invalid choice: 'csv'"),
        # one integer grammar, a sign and ASCII digits, for every list atom and integer option
        (("verlinde", "--genus", "2", "--level", "1_0"), "argument --level: malformed range entry '1_0'"),
        (("verlinde", "--genus", "\u0662", "--level", "1"), "argument --genus: malformed range entry '\u0662'"),
        (("verlinde", "--genus", "2", "--level", "0..1_0"), "argument --level: malformed range '0..1_0'"),
        (("check", "levels", "--max-m", "1_0"), "argument --max-m: malformed integer '1_0'"),
        (("levels", "--so3", "\u0663"), "argument --so3: malformed integer '\u0663'"),
    ],
    ids=[
        "oversized-range", "no-level", "malformed-p", "oversized-p", "malformed-arf", "check-csv",
        "underscore-level", "arabic-indic-genus", "underscore-range", "underscore-max-m", "arabic-indic-so3",
    ],
)
def test_parse_errors_exit_through_argparse(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: spinverlinde {argv[0]} ")
    assert message in err


@pytest.mark.parametrize("text, value", [("10", 10), ("+5", 5), ("-3", -3), ("007", 7)])
def test_an_integer_is_a_sign_and_ascii_digits(text, value):
    assert cli._parse_int(text) == value


# int() reads the first four as 10, 2, 1 and 1; the grammar takes none of these
@pytest.mark.parametrize("text", ["1_0", "\u0662", "\uff11", " 1", "1.0", "", "+", "--1", "0x10"])
def test_anything_else_is_a_malformed_integer(text):
    with pytest.raises(argparse.ArgumentTypeError, match=rf"\Amalformed integer {re.escape(repr(text))}\Z"):
        cli._parse_int(text)


@pytest.mark.parametrize("text", ["", ",", " ", "1,"])
def test_an_empty_atom_is_a_malformed_entry(text):
    # every atom adds a value or raises, so a list of no values fails at its empty atom
    with pytest.raises(argparse.ArgumentTypeError, match=r"\Amalformed range entry ''\Z"):
        cli._parse_int_range(text)


# every option of build_parser() that takes an integer list
INTEGER_LIST_OPTIONS = {"--genus", "--level", "--p", "--so3-level", "--arf"}


# well-formed lists, each with a value that some option refuses after parsing
@pytest.mark.parametrize("text", ["0", "12", "-3..5", "1,2"])
def test_integer_lists_parse_syntax_only(text):
    # a value check at parse time would refuse a well-formed list through
    # argparse's usage path; each is read after parsing instead
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for parser in subparsers.choices.values():
        for action in parser._actions:
            for option in INTEGER_LIST_OPTIONS.intersection(action.option_strings):
                action.type(text)
                seen.add(option)
    assert seen == INTEGER_LIST_OPTIONS


# a genus whose power-sum table is past any budget, and whose 2^{2g} spin structures no int can count
HUGE_GENUS = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verlinde", "--genus", HUGE_GENUS, "--level", "1"],
            f"verlinde: cell (g={HUGE_GENUS}, k=1): the power-sum table at n=3 fits in 2048 MB only up to genus 111680",
        ),
        (
            ["check", "verlinde", "--genus", HUGE_GENUS, "--level", "1"],
            f"check verlinde: cell (g={HUGE_GENUS}, k=1): "
            "the power-sum table at n=3 fits in 2048 MB only up to genus 111680",
        ),
        (
            ["spin-dims", "--genus", "3000000", "--p", "8"],
            "spin-dims: cell (g=3000000, p=8): the power-sum table at n=4 fits in 2048 MB only up to genus 92682",
        ),
        (
            ["spin-dims", "--genus", HUGE_GENUS, "--p", "8"],
            f"spin-dims: cell (g={HUGE_GENUS}, p=8): the power-sum table at n=4 fits in 2048 MB only up to genus 92682",
        ),
        # grids whose every table is under the budget alone, but not all of a grid's tables together
        (
            ["verlinde", "--genus", "50000", "--level", "0..14"],
            "verlinde: cell (g=50000, k=14): the 14 power-sum tables up to n=16 fit in 2048 MB only up to genus 18377",
        ),
        (
            ["check", "verlinde", "--genus", "50000", "--level", "0..14"],
            "check verlinde: cell (g=50000, k=14): "
            "the 14 power-sum tables up to n=16 fit in 2048 MB only up to genus 18377",
        ),
        (
            ["check", "twisted", "--genus", "50000", "--p", "32"],
            "check twisted: cell (g=50000, p=32): the 2 power-sum tables up to n=16 fit in 2048 MB only up to genus 44958",
        ),
        (
            ["spin-dims", "--genus", "50000", "--p", "8..32"],
            "spin-dims: cell (g=50000, p=32): the 5 power-sum tables up to n=16 fit in 2048 MB only up to genus 31107",
        ),
        (
            ["check", "decomp", "--genus", "50000", "--p", "8..32"],
            "check decomp: cell (g=50000, p=32): the 5 power-sum tables up to n=16 fit in 2048 MB only up to genus 31107",
        ),
    ],
    ids=[
        "verlinde", "check-verlinde", "spin-dims", "spin-dims-huge",
        "verlinde-grid", "check-verlinde-grid", "check-twisted-grid", "spin-dims-grid", "check-decomp-grid",
    ],
)
def test_a_cell_over_the_table_budget_is_a_usage_error(argv, message, capsys, cold_caches):
    # each used to run until killed, or (spin-dims at the huge genus) exit 1
    # with "too many digits in integer" from its Arf counts
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "spinverlinde.cli", *argv],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=2,
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert elapsed < 2.0, f"{argv} took {elapsed:.2f}s"
    # in process, the refusal builds no table
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fusion._power_sum_table.cache_info().currsize == 0


class TestLevelMajorWalk:
    """Every genus x level grid reads a level's cached tables for every genus.

    Each grid below needs more power-sum tables than the 128 the cache
    holds, or more residue tables than its 64, so a genus-major walk would
    evict a level's tables before the next genus reads them and build every
    table once per genus.
    """

    @pytest.mark.parametrize(
        ("argv", "genera", "tables", "residues"),
        [
            pytest.param(("verlinde", "--level", "0..129"), (1, 2), 130, 130, id="verlinde"),
            pytest.param(("check", "verlinde", "--level", "0..129"), (1, 2), 130, 130, id="check-verlinde"),
            pytest.param(("check", "twisted", "--p", "4..1024"), (2, 3), 449, 256, id="check-twisted"),
            pytest.param(("check", "traces", "--p", "8..1024"), (2, 3), 193, 0, id="check-traces"),
            pytest.param(("check", "decomp", "--p", "8..1024"), (2, 3), 193, 0, id="check-decomp"),
            pytest.param(("spin-dims", "--p", "8..1024"), (2, 3), 193, 0, id="spin-dims"),
            # the sweep takes 2 <= g <= 3 from the largest genus given
            pytest.param(("check", "integrality", "--p", "1024"), (3,), 193, 0, id="check-integrality"),
        ],
    )
    def test_sweep_builds_each_power_sum_table_once(self, capsys, cold_caches, argv, genera, tables, residues):
        genus = ",".join(map(str, genera))
        code, out, _ = run_cli(capsys, *argv, "--genus", genus, "--format", "json")
        assert code == 0
        misses = fusion._power_sum_table.cache_info().misses, fusion._residue_table.cache_info().misses
        assert misses == (tables, residues)
        # byte for byte the genus-major output: the one-genus sweeps, concatenated
        singles = [run_json(capsys, *argv, "--genus", str(g))[1] for g in genera]
        expected = {
            **singles[0],
            "params": {**singles[0]["params"], "genus": list(genera)},
            "rows": [row for single in singles for row in single["rows"]],
            "checks": [check for single in singles for check in single["checks"]],
        }
        assert out == json.dumps(expected) + "\n"


class TestSpinDimsCommand:
    def test_level_eight_rows_and_checksum(self, capsys):
        code, payload, _ = run_json(capsys, "spin-dims", "--genus", "2", "--p", "8")
        assert code == 0
        by_arf = {r["arf"]: r for r in payload["rows"]}
        assert (by_arf[0]["even"], by_arf[0]["odd"]) == (1, 0)
        assert (by_arf[1]["even"], by_arf[1]["odd"]) == (0, 1)
        assert by_arf["*"]["even"] == 10  # checksum row equals the unrefined dimension
        assert payload["checks"][0]["passed"]

    def test_level_sixteen_checksum(self, capsys):
        code, payload, _ = run_json(capsys, "spin-dims", "--genus", "2", "--p", "16")
        assert code == 0
        checksum = [r for r in payload["rows"] if r["arf"] == "*"][0]
        assert checksum["even"] == 84

    def test_non_multiple_of_eight_rejected(self, capsys):
        expected = (2, "", "error: --p values must be positive multiples of 8, got 12\n")
        assert run_cli(capsys, "spin-dims", "--genus", "2", "--p", "12") == expected

    def test_genus_one_requires_flag(self, capsys):
        code, _, err = run_cli(capsys, "spin-dims", "--genus", "1", "--p", "8")
        assert code == 2
        assert "--allow-genus-one" in err
        code, payload, _ = run_json(
            capsys, "spin-dims", "--genus", "1", "--p", "8", "--allow-genus-one"
        )
        assert code == 0
        assert all(r.get("extrapolated") for r in payload["rows"])

    GENUS_ONE = (
        "error: spin-dims --genus 1: genus 1 sits outside the moduli-space derivation; "
        "pass --allow-genus-one to extrapolate\n"
    )

    @pytest.mark.parametrize("argv, message", [
        # the CLI option, not the library's keyword allow_genus_one
        (("--genus", "1", "--p", "8"), GENUS_ONE),
        (("--genus", "1..3", "--so3-level", "1", "--format", "json"), GENUS_ONE),
        # a genus below 1 is refused before the first cell, as the cells would refuse it
        (("--genus", "0,1", "--p", "8"), "error: genus must be a positive integer, got 0\n"),
    ])
    def test_genus_one_refusal_names_the_flag(self, argv, message, capsys):
        assert run_cli(capsys, "spin-dims", *argv) == (2, "", message)

    def test_so3_level_input_default_convention(self, capsys):
        code, payload, _ = run_json(capsys, "spin-dims", "--genus", "2", "--so3-level", "1")
        assert code == 0
        assert {r["p"] for r in payload["rows"]} == {8}
        assert payload["params"]["convention"] == "bm"
        assert not any("extrapolated" in r for r in payload["rows"])

    def test_p_resolves_no_convention(self, capsys):
        # a level p names its level itself: no convention in the params, and
        # no row marked extrapolated by one; --convention bm is refused too
        code, payload, _ = run_json(capsys, "spin-dims", "--genus", "2", "--p", "8,16")
        assert code == 0
        assert payload["params"] == {"genus": [2], "p": [8, 16], "arf": [0, 1]}
        assert not any("extrapolated" in r for r in payload["rows"])
        code, out, err = run_cli(capsys, "spin-dims", "--genus", "2", "--p", "8", "--convention", "bm")
        assert (code, out) == (2, "")
        assert err == "error: spin-dims --p: --convention does not apply; it resolves --so3-level only\n"

    def test_so3_level_parity_per_convention(self, capsys):
        code, _, _ = run_cli(capsys, "spin-dims", "--genus", "2", "--so3-level", "2")
        assert code == 2
        code, payload, _ = run_json(
            capsys,
            "spin-dims", "--genus", "2", "--so3-level", "2", "--convention", "corollary",
        )
        assert code == 0
        assert {r["p"] for r in payload["rows"]} == {16}
        assert all(r.get("extrapolated") for r in payload["rows"])

    @pytest.mark.parametrize("levels, convention", [("1..21", "bm"), ("0..20", "corollary")])
    def test_so3_level_range_keeps_the_levels_it_pairs(self, levels, convention, capsys):
        code, payload, _ = run_json(
            capsys,
            "spin-dims", "--genus", "1..5", "--so3-level", levels,
            "--convention", convention, "--allow-genus-one",
        )
        assert code == 0
        assert payload["params"]["p"] == list(range(8, 89, 8))
        assert [r["p"] for r in payload["rows"] if r["g"] == 2 and r["arf"] == 0] == list(range(8, 89, 8))

    @pytest.mark.parametrize(
        "levels, convention, message",
        [
            ("1,2", "bm", "convention 'bm' pairs only positive odd levels, got k=2"),
            ("1..3,4", "bm", "convention 'bm' pairs only positive odd levels, got k=4"),
            ("2..2", "bm", "range '2..2' contains no level that convention 'bm' pairs"),
            ("1..1", "corollary", "range '1..1' contains no level that convention 'corollary' pairs"),
            ("-3..-1", "corollary", "range '-3..-1' contains no level that convention 'corollary' pairs"),
        ],
    )
    def test_so3_level_refusals_name_the_convention(self, levels, convention, message, capsys):
        argv = ["spin-dims", "--genus", "2", f"--so3-level={levels}", "--convention", convention]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_malformed_so3_level_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2", "--so3-level", "1..x"])
        assert excinfo.value.code == 2
        assert "error: argument --so3-level: malformed range '1..x'" in capsys.readouterr().err

    def test_requires_exactly_one_level_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2"])
        assert excinfo.value.code == 2
        assert "error: one of the arguments --p --so3-level is required" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2", "--p", "8", "--so3-level", "1"])
        assert excinfo.value.code == 2
        assert "error: argument --so3-level: not allowed with argument --p" in capsys.readouterr().err

    def test_checksum_sums_the_printed_rows(self, capsys, monkeypatch):
        # one more at eps = 0: the rows read 2 and 0, so the checksum is 10 * 2 + 6 * 0
        # the graded cell, which spin-dims shares with the suites, reads the kernel _graded_dim in dimensions
        honest = dimensions._graded_dim
        monkeypatch.setattr(
            dimensions, "_graded_dim", lambda g, p, eps, odd: honest(g, p, eps, odd) + (eps == 0 and not odd)
        )
        code, payload, err = run_json(capsys, "spin-dims", "--genus", "2", "--p", "8")
        assert (code, err) == (1, "")
        assert [(r["arf"], r["even"], r["odd"]) for r in payload["rows"]] == [(0, 2, 0), (1, 0, 1), ("*", 20, 6)]
        (record,) = payload["checks"]
        assert (record["passed"], record["details"]) == (False, "sum over spin structures 20, unrefined 10")

    def test_failed_checksum_names_both_numbers(self, capsys, monkeypatch):
        # the checksum record is built in checks, where it looks the level bases up
        honest = checks._level_bases
        monkeypatch.setattr(checks, "_level_bases", lambda g, p: (honest(g, p)[0] + 1, *honest(g, p)[1:]))
        code, out, err = run_cli(capsys, "spin-dims", "--genus", "2", "--p", "8")
        assert (code, err) == (1, "")
        # the whole table, then the failed record
        assert out.splitlines()[1:] == [
            "2  8  0    1     0",
            "2  8  1    0     1",
            "2  8  *    10    6",
            "[FAIL] decomposition checksum (g=2, p=8)  sum over spin structures 10, unrefined 11",
        ]


class TestOneEvaluationPerCell:
    """Each graded dimension is evaluated once per (g, p, eps) for rows, checksums
    and records, by the kernel ``_graded_dim`` ("even" and "odd" count its calls),
    and the graded cell calls none of the validating public functions."""

    NAMES = ("bm_even_dim", "bm_odd_dim", "sum_over_spin")

    @pytest.fixture
    def calls(self, monkeypatch):
        made = dict.fromkeys(("even", "odd", *self.NAMES), 0)
        kernel = dimensions._graded_dim

        def counted_kernel(g, p, eps, odd):
            made["odd" if odd else "even"] += 1
            return kernel(g, p, eps, odd)

        monkeypatch.setattr(dimensions, "_graded_dim", counted_kernel)

        def counting(name, function):
            def counted(*args, **kwargs):
                made[name] += 1
                return function(*args, **kwargs)

            return counted

        # wrapped where each caller looks it up
        for module in (cli, checks, dimensions):
            for name in self.NAMES:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(dimensions, name)))
        return made

    @pytest.mark.parametrize("arf", [(), ("--arf", "1")], ids=["both-arf", "arf-1"])
    def test_spin_dims(self, capsys, calls, arf):
        code, _, _ = run_json(capsys, "spin-dims", "--genus", "2..4", "--p", "8..32", *arf)
        assert code == 0
        # 3 genera and 4 levels, two Arf values each, whichever rows are printed
        assert calls == {"even": 24, "odd": 24, "bm_even_dim": 0, "bm_odd_dim": 0, "sum_over_spin": 0}

    def test_decomposition_suite(self, calls):
        results = checks.check_decomposition()
        assert len(results) == 32 and all(r.passed for r in results)
        assert calls == {"even": 32, "odd": 32, "bm_even_dim": 0, "bm_odd_dim": 0, "sum_over_spin": 0}

    def test_trace_suite(self, capsys, calls):
        code, payload, _ = run_json(capsys, "check", "traces", "--genus", "2..4", "--p", "8..32")
        # four records per cell read the cell's two Arf values once
        assert (code, len(payload["checks"])) == (0, 48)
        assert calls == {"even": 24, "odd": 24, "bm_even_dim": 0, "bm_odd_dim": 0, "sum_over_spin": 0}

    def test_integrality_suite(self, capsys, calls):
        code, payload, _ = run_json(capsys, "check", "integrality", "--genus", "4", "--p", "32")
        assert code == 0
        assert payload["checks"][0]["details"] == "24 graded cells, all non-negative integers"
        assert calls == {"even": 24, "odd": 24, "bm_even_dim": 0, "bm_odd_dim": 0, "sum_over_spin": 0}

    def test_sum_over_spin(self, calls):
        for g in range(2, 5):
            for p in range(8, 33, 8):
                assert dimensions.sum_over_spin(g, p) == fusion.verlinde_dim(g, p // 2 - 2)
        assert calls == {"even": 24, "odd": 24, "bm_even_dim": 0, "bm_odd_dim": 0, "sum_over_spin": 12}


class TestCheckCommand:
    def test_projs_suite(self, capsys):
        code, payload, _ = run_json(capsys, "check", "projs", "--genus", "2")
        assert code == 0
        assert payload["checks"]
        assert all(c["passed"] for c in payload["checks"])

    def test_decomp_suite_with_ranges(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "decomp", "--genus", "2..3", "--p", "8..16"
        )
        assert code == 0
        names = {c["name"] for c in payload["checks"]}
        assert any("refinement identity" in n for n in names)

    def test_levels_suite(self, capsys):
        code, payload, _ = run_json(capsys, "check", "levels")
        assert code == 0

    def test_table_validation_failure_is_a_failed_record(self, capsys, monkeypatch):
        def fails(table):
            raise ValueError("correspondence table validation failed: forced")

        monkeypatch.setattr(CorrespondenceTable, "validate", fails)
        code, payload, err = run_json(capsys, "check", "levels", "--max-m", "2")
        assert (code, err) == (1, "")
        assert payload["checks"][-1] == {
            "name": "correspondence table validates",
            "passed": False,
            "details": "correspondence table validation failed: forced",
        }
        assert all(c["passed"] for c in payload["checks"][:-1])

    def test_term_not_a_unit_is_a_failed_record(self, capsys, monkeypatch, cold_caches):
        # a folded term that is not a unit modulo M fails its cell, not the
        # command: here M = 2^130 and w -> 2, so every term is even
        monkeypatch.setattr(fusion, "_modulus", lambda n, bits: (1, 1 << bits + 2))
        code, payload, err = run_json(capsys, "check", "verlinde", "--genus", "2", "--level", "3")
        assert (code, err) == (1, "")
        assert payload["checks"] == [
            {
                "name": "verlinde trace = oracle (g=2, k=3)",
                "passed": False,
                "details": "residue table at n=5, 128 bits: the term of j=1 is not a unit",
            }
        ]
        # the error caches no table, so none reaches a later test
        assert fusion._residue_table.cache_info().currsize == 0

    def test_trace_route_violation_is_a_failed_record(self, capsys, monkeypatch):
        # one more on the trace of P_sigma at (g, eps, w2) = (3, 1, 1), p = 16:
        # that record fails with the violation, and every other cell still runs
        honest = dimensions._trace
        odd_base = fusion.twisted_dim(3, 16)

        def broken(x, base_dim, lambda_rho, w2):
            trace = honest(x, base_dim, lambda_rho, w2)
            broken_here = (x.spin.space.genus, x.spin.arf(), base_dim, lambda_rho, w2) == (3, 1, odd_base, 3, 1)
            return trace + broken_here

        monkeypatch.setattr(dimensions, "_trace", broken)
        code, payload, err = run_json(capsys, "check", "traces", "--genus", "2..3", "--p", "8,16")
        assert (code, err, len(payload["checks"])) == (1, "", 16)
        failed = [c for c in payload["checks"] if not c["passed"]]
        closed = dimensions._numerator(3, 1, odd_base, -1, 4)
        assert failed == [
            {
                "name": "trace route = odd closed form (g=3, p=16, eps=1)",
                "passed": False,
                "details": f"dims_via_traces(g=3, eps=1, base_dim={odd_base}, lambda_rho=3, w2=1): "
                f"termwise trace sum {closed + 64} != closed form {closed}",
            }
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("verlinde", "--genus", "2", "--level", "1000000000"),
                "verlinde: level k=1000000000: the certified sum has 1000000001 terms, more than 100000",
            ),
            (
                ("check", "twisted", "--p", "1000000000"),
                "check twisted: level p=1000000000: the certified sum has 499999999 terms, more than 100000",
            ),
            (
                ("check", "all", "--level", "1000000000"),
                "check verlinde: level k=1000000000: the certified sum has 1000000001 terms, more than 100000",
            ),
            (
                ("check", "verlinde", "--level", "5,100000"),
                "check verlinde: level k=100000: the certified sum has 100001 terms, more than 100000",
            ),
            (
                ("check", "twisted", "--p", "8,200004"),
                "check twisted: level p=200004: the certified sum has 100001 terms, more than 100000",
            ),
        ],
        ids=["verlinde", "check-twisted", "check-all", "check-verlinde-first-past", "check-twisted-first-past"],
    )
    def test_sum_past_the_range_bound_is_refused_before_any_cell(self, capsys, monkeypatch, argv, message):
        def ran(*arguments, **keywords):
            raise AssertionError("a cell ran before the level was bounded")

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, ran)
        monkeypatch.setattr(cli, "verlinde_dim", ran)
        monkeypatch.setattr(fusion, "_modulus", ran)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verlinde", "--genus", "2", "--level", "99999"),
            ("check", "verlinde", "--genus", "2", "--level", "99999"),
            ("check", "twisted", "--genus", "2", "--p", "200002"),
        ],
        ids=["verlinde", "check-verlinde", "check-twisted"],
    )
    def test_largest_sum_within_the_range_bound_is_certified(self, capsys, monkeypatch, argv):
        # the oracle reaches its modulus; building it is not this test's business
        class ReachedTheModulus(Exception):
            pass

        def reached(n, bits):
            raise ReachedTheModulus(n)

        monkeypatch.setattr(fusion, "_modulus", reached)
        with pytest.raises(ReachedTheModulus, match="^100001$"):
            main([*argv, "--format", "json"])

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "check", "nonsense")
        assert code == 2
        assert "unknown check suite" in err

    def test_pass_fail_lines_in_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "arf", "--genus", "2")
        assert code == 0
        assert "[PASS]" in out

    ENUMERATING = ["pairing", "charsum", "refinement", "arf", "liftsign", "projs", "tracedecomp", "heisenberg"]
    EIGHTS = "none of the levels p given is a multiple of 8 and >= 8"
    NO_CELL = "no cell (g, p) with 2 <= g <= {} and p a multiple of 8 in 8..{}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("traces", "--p", "12"), "check traces: " + EIGHTS),
            (("decomp", "--p", "12"), "check decomp: " + EIGHTS),
            (("twisted", "--p", "3"), "check twisted: none of the levels p given is a multiple of 2 and >= 4"),
            (("integrality", "--p", "4"), "check integrality: " + NO_CELL.format(6, 4)),
            (("integrality", "--genus", "1"), "check integrality: " + NO_CELL.format(1, 64)),
            (("levels", "--max-m", "0"), "check levels: max_m must be >= 1, got 0"),
            # traces is the first suite of `all` whose filter keeps nothing
            (("all", "--p", "12"), "check traces: " + EIGHTS),
            *(((suite, "--genus", "0"), f"check {suite}: no genus g with 1 <= g <= 0") for suite in ENUMERATING),
            (("pairing", "--genus=-2..0"), "check pairing: no genus g with 1 <= g <= 0"),
            (("all", "--genus", "0"), "check pairing: no genus g with 1 <= g <= 0"),
        ],
        ids=[
            "traces", "decomp", "twisted", "integrality-p", "integrality-genus", "levels", "all",
            *(f"{suite}-genus-0" for suite in ENUMERATING), "pairing-genus-range", "all-genus-0",
        ],
    )
    def test_grid_without_cells_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "check", *argv, "--format", "json")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--genus", "1..3"), "check traces: genus must be >= 2, got 1"),
            (("--level=-1",), "check verlinde: level must be >= 0, got -1"),
            # the suites before verlinde read only the largest genus
            (("--genus", "0..3"), "check verlinde: genus must be >= 1, got 0"),
        ],
        ids=["traces-genus-1", "verlinde-level-below-0", "verlinde-genus-0"],
    )
    def test_invalid_cell_is_usage_error_before_any_suite_runs(self, capsys, monkeypatch, argv, message):
        def ran(**arguments):
            raise AssertionError("a suite ran before every grid was checked")

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, ran)
        code, out, err = run_cli(capsys, "check", "all", *argv, "--format", "json")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_max_m_above_the_range_cap_is_usage_error(self, capsys, monkeypatch):
        def ran(**arguments):
            raise AssertionError("the levels suite ran with an unbounded max_m")

        monkeypatch.setitem(checks.SUITES, "levels", ran)
        code, out, err = run_cli(capsys, "check", "levels", "--max-m", "1000000000000")
        assert (code, out) == (2, "")
        assert "--max-m 1000000000000 is more than 100000" in err

    @pytest.mark.parametrize(
        "argv, params",
        [
            (("pairing", "--genus", "2"), {"suite": "pairing", "genus": [2]}),
            (("decomp", "--genus", "2..3", "--p", "8,16"), {"suite": "decomp", "genus": [2, 3], "p": [8, 16]}),
            (("all",), {"suite": "all"}),
        ],
        ids=["pairing", "decomp", "all"],
    )
    def test_params_echo_the_options_given(self, cli_json, argv, params):
        code, payload = cli_json("check", *argv)
        assert (code, payload["params"]) == (0, params)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("levels", "--p", "8", "--genus", "3"), "check levels: --genus does not apply; {} --max-m"),
            (("verlinde", "--p", "8"), "check verlinde: --p does not apply; {} --genus, --level"),
            (("pairing", "--max-m", "3"), "check pairing: --max-m does not apply; {} --genus"),
            (("traces", "--level", "3"), "check traces: --level does not apply; {} --genus, --p"),
        ],
        ids=["levels", "verlinde", "pairing", "traces"],
    )
    def test_option_the_suite_cannot_use_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "check", *argv, "--format", "json")
        assert (code, out, err) == (2, "", f"error: {message.format('the suite takes')}\n")

    def test_all_passes_each_option_to_the_suites_that_take_it(self, capsys):
        code, payload, _ = run_json(capsys, "check", "all", "--genus", "2", "--level", "3", "--max-m", "2")
        assert code == 0
        names = [c["name"] for c in payload["checks"]]
        assert [n for n in names if n.startswith("verlinde")] == ["verlinde trace = oracle (g=2, k=3)"]
        assert "bm/so3/su2/bhmv consistency m<=2" in names

    def test_all_with_levels_keeps_every_suite(self, capsys):
        code, payload, _ = run_json(capsys, "check", "all", "--genus", "2", "--p", "8..32")
        assert code == 0
        assert len(payload["checks"]) == 109
        assert all(c["passed"] for c in payload["checks"])
        for prefix in ("twisted trace", "trace route", "refinement identity", "integrality sweep"):
            assert any(c["name"].startswith(prefix) for c in payload["checks"])

    @pytest.mark.parametrize(
        "suite, level, name",
        [
            ("verlinde", ("--level", "40"), "verlinde trace = oracle (g={}, k=40)"),
            ("twisted", ("--p", "84"), "twisted trace = oracle (g={}, p=84)"),
        ],
        ids=["verlinde", "twisted"],
    )
    def test_uncertifiable_cell_is_a_failed_record(self, capsys, monkeypatch, suite, level, name):
        # a sum that cannot be certified is a failed record, not an error
        uncertifiable_above_genus_one(monkeypatch)
        code, payload, err = run_json(capsys, "check", suite, "--genus", "1,400", *level)
        assert (code, err) == (1, "")
        certified, failed = payload["checks"]
        assert (certified["name"], certified["passed"]) == (name.format(1), True)
        assert (failed["name"], failed["passed"]) == (name.format(400), False)
        assert re.search(OUTSIDE_THE_BOUND, failed["details"])

    @pytest.mark.parametrize(
        "suite, level", [("verlinde", ("--level", "40")), ("twisted", ("--p", "84"))], ids=["verlinde", "twisted"]
    )
    def test_high_genus_cell_certifies(self, capsys, suite, level):
        # g = 400 certifies at 8192 bits, past the old 4096-bit ceiling
        code, payload, err = run_json(capsys, "check", suite, "--genus", "2,400", *level)
        assert (code, err) == (0, "")
        assert [c["passed"] for c in payload["checks"]] == [True, True]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

#: The benchmark's workloads: name, argv without ``--format`` and the row fields the harness compares.
WORKLOADS = [
    ("sweep", ("verlinde", "--genus", "2..8,24", "--level", "0..48"), ("g", "k", "dim")),
    ("spin-table", ("spin-dims", "--genus", "2..10", "--p", "8..128"), ("g", "p", "arf", "even", "odd")),
    ("identities", ("check", "all"), ()),
]


class TestJsonOutput:
    """JSON output is one line in ``json.dumps``'s default form, the same
    bytes on stdout and in ``--out``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verlinde", "--genus", "1..3", "--level", "0..4"),
            ("spin-dims", "--genus", "2..3", "--p", "8..16"),
            ("check", "arf", "--genus", "2"),
            ("levels", "--table"),
        ],
        ids=["verlinde", "spin-dims", "check", "levels"],
    )
    def test_one_compact_line_on_stdout_and_in_out_file(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert out.count("\n") == 1
        assert out == json.dumps(json.loads(out)) + "\n"
        target = tmp_path / "out.json"
        code, stdout, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(target))
        assert (code, stdout) == (0, "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="this interpreter has no C JSON encoder")
    @pytest.mark.parametrize("workload, argv, row_fields", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_workloads_need_no_pure_python_encoder(self, capsys, monkeypatch, workload, argv, row_fields):
        # the pure-Python encoder is three to four times slower on these payloads;
        # json.dumps takes it only for options such as ``indent``
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload["command"] == argv[0]


class TestBenchmarkReferences:
    """The benchmark workloads in process, on the items the harness compares,
    each row's compared fields and each check's (name, passed), in order."""

    @pytest.mark.parametrize("workload, argv, row_fields", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    def test_workload_matches_reference(self, cli_json, workload, argv, row_fields):
        reference = json.loads((REFERENCE / f"{workload}.json").read_text())
        code, payload = cli_json(*argv)
        assert code == 0
        assert [{f: row[f] for f in row_fields} for row in payload["rows"]] == reference["rows"]
        assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
            (c["name"], c["passed"]) for c in reference["checks"]
        ]

    def test_sweep_certificates_are_pinned(self, cli_json):
        # the precision of every sweep certificate; the reference holds no
        # certificates, so the digest stands for them.  They are the interval
        # oracle's but in nine genus-24 cells, where the modular bound, looser
        # than the interval enclosure, needs one doubling more
        code, payload = cli_json("verlinde", "--genus", "2..8,24", "--level", "0..48")
        assert code == 0
        certificates = [[r["g"], r["k"], r["oracle_precision_bits"]] for r in payload["rows"]]
        assert len(certificates) == 392
        digest = hashlib.sha256(json.dumps(certificates).encode()).hexdigest()
        assert digest == "d81000effc010a9173dcd7cfc2e426ddaa3613bbee99ae2da853fe0eb17cd064"
        doubled = {6, 7, 26, 28, 29, 30, 31, 32, 33}
        interval = [[g, k, bits // 2 if g == 24 and k in doubled else bits] for g, k, bits in certificates]
        digest = hashlib.sha256(json.dumps(interval).encode()).hexdigest()
        assert digest == "f09862f83a23e4347bd4e93a65c614fd2e6d927b98454ebed6a278a2e1757d98"


class TestLevelsCommand:
    def test_so3_to_bm(self, capsys):
        code, payload, _ = run_json(capsys, "levels", "--so3", "1", "--to", "bm")
        assert code == 0
        assert payload["rows"][0]["to_value"] == 8

    def test_su2_to_bhmv(self, capsys):
        code, payload, _ = run_json(capsys, "levels", "--su2", "2", "--to", "bhmv")
        assert code == 0
        assert payload["rows"][0]["to_value"] == 8

    def test_shift(self, capsys):
        code, payload, _ = run_json(capsys, "levels", "--su2", "4", "--shift")
        assert code == 0
        assert payload["rows"][0]["to_value"] == 6

    def test_target_lattice_is_the_source_lattice(self, capsys):
        code, payload, _ = run_json(capsys, "levels", "--so3", "1", "--to", "so3")
        assert code == 0
        assert payload["rows"] == [{"from_lattice": "so3", "from_value": 1, "to_lattice": "so3", "to_value": 1}]

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--table")
        assert code == 0
        assert "spin structure" in out
        assert "Z/2-bundle" in out

    def test_table_checks(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--table", "--format", "json")
        assert code == 0
        erratum = (
            "as printed, the blank columns pair BHMV residues (2, 6) with SU2 residues (1, 3); "
            "p = 2(k + 2) actually sends SU2 residues (1, 3) to BHMV residues (6, 2), so the last "
            "two BHMV cells are transposed in the source"
        )
        # a list of pairs, so that the key order is compared too
        checks = dict(json.loads(out, object_pairs_hook=list))["checks"]
        assert checks == [
            [("name", "correspondence table internally validated"), ("passed", True), ("details", "15 checks")],
            [("name", "erratum note"), ("passed", True), ("details", erratum)],
        ]

    @pytest.mark.parametrize(
        "argv",
        [("--so3", "3"), ("--su2", "0"), ("--bhmv", "8"), ("--bm", "8"), ("--to", "su2"), ("--shift",)],
        ids=["so3", "su2", "bhmv", "bm", "to", "shift"],
    )
    def test_table_with_a_conversion_option_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "levels", "--table", *argv, "--format", "json")
        message = f"levels --table: {argv[0]} does not apply; the table takes no conversion option"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_invalid_conversion_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "levels", "--bm", "8", "--to", "bhmv")
        assert code == 2

    def test_missing_source_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "levels", "--to", "bm")
        assert code == 2

    def test_invalid_level_value(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--bm", "12", "--to", "so3")
        assert code == 2
        assert "multiples of 8" in err
