import csv
import io
import json

import pytest

from spinverlinde import cli
from spinverlinde.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


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
        assert rows[(2, 2)]["oracle_interval_width"] < 0.5
        assert all(c["passed"] for c in payload["checks"])

    def test_genus_one_row(self, capsys):
        code, payload, _ = run_json(capsys, "verlinde", "--genus", "1", "--level", "5")
        assert code == 0
        assert payload["rows"] == [
            {"g": 1, "k": 5, "dim": 6, "oracle_interval_width": 0.0, "oracle_precision_bits": 128}
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
        with pytest.raises(SystemExit) as excinfo:
            main(["levels", "--su2", "2", "--out", str(target)])
        assert excinfo.value.code == 2
        assert str(target) in capsys.readouterr().err
        assert not target.exists()

    def test_precision_ceiling_env_var(self, capsys, monkeypatch):
        # a ceiling too low for this cell turns certification failure into exit 1
        monkeypatch.setenv("SPINVERLINDE_PRECISION_CEILING", "64")
        code, out, err = run_cli(
            capsys, "verlinde", "--genus", "12", "--level", "40", "--precision-bits", "64"
        )
        assert code == 1
        monkeypatch.delenv("SPINVERLINDE_PRECISION_CEILING")
        code, payload, _ = run_json(
            capsys, "verlinde", "--genus", "12", "--level", "40", "--precision-bits", "64"
        )
        assert code == 0
        assert all(c["passed"] for c in payload["checks"])
        # the doublings show in the row: the cell certifies above its 64-bit start
        assert payload["rows"][0]["oracle_precision_bits"] > 64

    def test_malformed_precision_ceiling_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINVERLINDE_PRECISION_CEILING", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["verlinde", "--genus", "2", "--level", "1"])
        assert excinfo.value.code == 2
        assert "SPINVERLINDE_PRECISION_CEILING" in capsys.readouterr().err
        # an explicit --precision-ceiling does not read the variable
        code, _, _ = run_cli(
            capsys, "verlinde", "--genus", "2", "--level", "1", "--precision-ceiling", "256"
        )
        assert code == 0


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
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2", "--p", "12"])
        assert excinfo.value.code == 2

    def test_genus_one_requires_flag(self, capsys):
        code, _, err = run_cli(capsys, "spin-dims", "--genus", "1", "--p", "8")
        assert code == 2
        assert "allow_genus_one" in err
        code, payload, _ = run_json(
            capsys, "spin-dims", "--genus", "1", "--p", "8", "--allow-genus-one"
        )
        assert code == 0
        assert all(r.get("extrapolated") for r in payload["rows"])

    def test_so3_level_input_default_convention(self, capsys):
        code, payload, _ = run_json(capsys, "spin-dims", "--genus", "2", "--so3-level", "1")
        assert code == 0
        assert {r["p"] for r in payload["rows"]} == {8}

    def test_so3_level_parity_per_convention(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2", "--so3-level", "2"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        code, payload, _ = run_json(
            capsys,
            "spin-dims", "--genus", "2", "--so3-level", "2", "--convention", "corollary",
        )
        assert code == 0
        assert {r["p"] for r in payload["rows"]} == {16}
        assert all(r.get("extrapolated") for r in payload["rows"])

    def test_requires_exactly_one_level_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["spin-dims", "--genus", "2", "--p", "8", "--so3-level", "1"])
        assert excinfo.value.code == 2


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

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "check", "nonsense")
        assert code == 2
        assert "unknown check suite" in err

    def test_pass_fail_lines_in_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "arf", "--genus", "2")
        assert code == 0
        assert "[PASS]" in out


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

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--table")
        assert code == 0
        assert "spin structure" in out
        assert "Z/2-bundle" in out

    def test_invalid_conversion_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["levels", "--bm", "8", "--to", "bhmv"])
        assert excinfo.value.code == 2

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["levels", "--to", "bm"])
        assert excinfo.value.code == 2

    def test_invalid_level_value(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--bm", "12", "--to", "so3")
        assert code == 2
        assert "multiples of 8" in err
