"""The check suites: enumeration-cap failures before any work, counted details and the record list of `check all`."""

import inspect

import pytest

from spinverlinde import checks, cli
from spinverlinde.f2 import EnumerationCapError, SymplecticF2Space
from spinverlinde.heisenberg import HeisenbergElement
from spinverlinde.spin import QuadraticRefinement

# each enumerating suite, and a name its sweep calls once it has started work
WORK = {
    "arf": (QuadraticRefinement, "all_refinements"),
    "pairing": (SymplecticF2Space, "pair"),
    "charsum": (checks, "brute_character_sum"),
    "refinement": (QuadraticRefinement, "all_refinements"),
    "liftsign": (checks, "lift_sign"),
    "projs": (checks, "projection"),
    "tracedecomp": (checks, "trace_functional"),
    "heisenberg": (checks, "heisenberg_rep"),
}


class TestCapBeforeWork:
    @pytest.mark.parametrize("suite", sorted(WORK))
    @pytest.mark.parametrize("max_genus", [7, 8, 10_000])
    def test_cap_error_before_any_work(self, suite, max_genus, monkeypatch):
        owner, name = WORK[suite]

        def no_work(*args, **kwargs):
            raise AssertionError(f"{suite} started work before checking the cap")

        monkeypatch.setattr(owner, name, no_work)
        # the message names the first genus over the cap, as the sweep itself would
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.run_suite(suite, max_genus=max_genus)

    @pytest.mark.parametrize("suite", ["heisenberg", "projs", "pairing", "arf"])
    def test_cli_exit_code_and_message(self, suite, capsys):
        assert cli.main(["check", suite, "--genus", "8"]) == 2
        assert capsys.readouterr().err == "error: genus 7 exceeds enumeration cap 6\n"

    def test_arf_suite_runs_up_to_the_cap(self, capsys):
        # it walks the 2^{2g} refinements of each genus, 4x more per genus
        assert all(r.passed for r in checks.check_arf(max_genus=6))
        assert cli.main(["check", "arf", "--genus", "20"]) == 2
        assert capsys.readouterr().err == "error: genus 7 exceeds enumeration cap 6\n"


class TestCountedDetails:
    def test_pairing_counts(self):
        details = {r.name: r.details for r in checks.check_pairing(max_genus=2)}
        assert details["pairing bilinear g=2"] == "1024 triples (v, w, basis x)"
        assert details["pairing alternating g=2"] == "16 vectors v"
        assert details["pairing symmetric g=2"] == "256 pairs (v, w)"
        assert details["pairing non-degenerate g=2"] == "15 non-zero vectors v"

    def test_refinement_counts(self):
        details = {r.name: r.details for r in checks.check_refinements(max_genus=2)}
        assert details["refinement law g=2"] == "1024 triples (q, v, basis w)"
        assert details["shift is a free transitive torsor action g=2"] == (
            "orbit of 16 of 16 refinements; 64 double shifts (q, basis ell)"
        )
        assert details["arf closed form = zero counting g=2"] == "16 refinements q"

    def test_character_sum_counts(self):
        details = {r.name: r.details for r in checks.check_character_sums(max_genus=2)}
        assert details["character sum closed form = brute force g=2"] == "16 vectors b"
        assert details["character sum dichotomy g=2"] == "16 vectors b"

    def test_levels_counts(self):
        details = {r.name: r.details for r in checks.check_levels(max_m=5)}
        assert details["bm/so3/su2/bhmv consistency m<=5"] == "5 odd so3 levels 2m - 1"
        assert details["bhmv round trips"] == "10 su2 levels k"
        assert details["metaplectic shift commutes with pullback"] == "20 so3 levels k"

    def test_character_sum_counterexample(self, monkeypatch):
        honest = checks.brute_character_sum

        def off_at_mask_three(space, b):
            return honest(space, b) + (b.bits == 3)

        monkeypatch.setattr(checks, "brute_character_sum", off_at_mask_three)
        record = checks.check_character_sums(max_genus=1)[0]
        assert record.name == "character sum closed form = brute force g=1"
        assert not record.passed
        assert record.details == "4 vectors b; first counterexample b mask = 3"

    def test_lift_sign_counts(self):
        details = {r.name: r.details for r in checks.check_lift_signs(max_genus=2)}
        assert details["lift sign sum identity g=2 w2=1"] == (
            "16 spin structures sigma, each summed over 16 classes"
        )
        assert details["arf difference is a quadratic refinement g=2"] == (
            "1024 triples (sigma, z, basis w)"
        )

    def test_heisenberg_counts(self):
        details = {r.name: r.details for r in checks.check_heisenberg(max_genus=2)}
        assert details["heisenberg rep is a homomorphism g=2"] == "4096 pairs (x, y)"
        assert details["heisenberg commutator pairing g=2"] == "256 pairs (x, y) of central part 0"
        assert details["heisenberg traces g=2"] == "64 elements"
        assert details["heisenberg rep faithful g=2"] == "64 distinct matrices for 64 elements"

    def test_lift_sign_counterexample(self, monkeypatch):
        honest = checks.lift_sign

        def flipped_at_sigma_two(sigma, z, w2_bundle, w2_rho):
            sign = honest(sigma, z, w2_bundle, w2_rho)
            return -sign if sigma.basis_values == 2 and z.bits == 1 else sign

        monkeypatch.setattr(checks, "lift_sign", flipped_at_sigma_two)
        record = checks.check_lift_signs(max_genus=1)[0]
        assert record.name == "lift sign sum identity g=1 w2=0"
        assert not record.passed
        assert record.details == (
            "3 spin structures sigma, each summed over 4 classes; first counterexample sigma mask = 2"
        )

    def test_heisenberg_counterexample(self, monkeypatch):
        honest = HeisenbergElement.__mul__

        def broken(x, y):
            product = honest(x, y)
            if (x.central, x.vector.bits, y.central, y.vector.bits) == (1, 1, 0, 2):
                return HeisenbergElement((product.central + 1) % 4, product.vector)
            return product

        monkeypatch.setattr(HeisenbergElement, "__mul__", broken)
        results = {r.name: r for r in checks.check_heisenberg(max_genus=1)}
        record = results["heisenberg rep is a homomorphism g=1"]
        # x = (1, a1) is element 5 and y = (0, b1) element 8 of 16, in (mask, t) order
        assert not record.passed
        assert record.details == (
            "89 pairs (x, y); first counterexample (x, y) as (t, mask) = ((1, 1), (0, 2))"
        )


class TestSuiteAll:
    def test_default_record_list(self):
        # the record list `check all` prints; a dropped or extra record changes it
        results = checks.run_suite("all")
        assert len(results) == 383
        assert len({r.name for r in results}) == 383
        assert [r.name for r in results if not r.passed] == []

    def test_every_grid_is_checked_before_any_suite_runs(self, monkeypatch, capsys):
        def ran(**params):
            raise AssertionError("a suite ran before every grid was checked")

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, ran)
        # traces is the first suite whose filter keeps none of the levels
        assert cli.main(["check", "all", "--p", "12", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: check traces: none of the levels p given is a multiple of 8 and >= 8\n",
        )
        with pytest.raises(ValueError, match="^check levels: max_m must be >= 1, got 0$"):
            checks.run_suite("all", max_m=0)
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.run_suite("all", max_genus=7, levels_p=[12])


class TestParameters:
    def test_table_lists_each_suite_signature(self):
        assert list(checks._PARAMETERS) == list(checks.SUITES)
        for name, suite in checks.SUITES.items():
            assert checks._PARAMETERS[name] == tuple(inspect.signature(suite).parameters), name

    # each suite whose grid can be empty, and a grid without cells
    EMPTY_GRIDS = [
        *((suite, {"max_genus": 7}) for suite in sorted(WORK)),
        ("twisted", {"levels_p": [3]}),
        ("traces", {"levels_p": [12]}),
        ("decomp", {"genera": [2], "levels_p": [4, 12]}),
        ("integrality", {"max_p": 4}),
        ("integrality", {"max_genus": 1}),
        ("integrality", {"max_genus": 1, "max_p": 7}),
        ("levels", {"max_m": 0}),
    ]

    @pytest.mark.parametrize("suite, params", EMPTY_GRIDS)
    def test_grid_check_raises_what_the_suite_raises(self, suite, params):
        with pytest.raises(ValueError) as by_suite:
            checks.SUITES[suite](**params)
        with pytest.raises(type(by_suite.value)) as up_front:
            checks._require_cells(suite, params)
        assert str(up_front.value) == str(by_suite.value)

    @pytest.mark.parametrize("suite", list(checks.SUITES))
    def test_default_grids_have_cells(self, suite):
        checks._require_cells(suite, {})
