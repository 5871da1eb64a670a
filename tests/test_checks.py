"""The check suites: genus-range and enumeration-cap failures before any work, counted details, the options table and the record list of `check all`."""

import inspect
import itertools
import json
import re

import pytest

from spinverlinde import checks, cli, dimensions
from spinverlinde.f2 import EnumerationCapError, F2Vector, SymplecticF2Space
from spinverlinde.heisenberg import HeisenbergElement, MonomialMatrix, heisenberg_rep
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
    @staticmethod
    def forbid_work(suite, monkeypatch):
        owner, name = WORK[suite]

        def no_work(*args, **kwargs):
            raise AssertionError(f"{suite} started work before checking its genus range")

        monkeypatch.setattr(owner, name, no_work)

    @pytest.mark.parametrize("suite", sorted(WORK))
    @pytest.mark.parametrize("genus", [7, 8, 10_000])
    def test_cap_error_before_any_work(self, suite, genus, monkeypatch):
        self.forbid_work(suite, monkeypatch)
        # the message names the first genus over the cap, as the sweep itself would
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.run_suite(suite, genus=[2, genus])
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.SUITES[suite](max_genus=genus)

    @pytest.mark.parametrize("suite", sorted(WORK))
    @pytest.mark.parametrize("genus", [0, -3])
    def test_genus_below_one_is_an_error_before_any_work(self, suite, genus, monkeypatch):
        self.forbid_work(suite, monkeypatch)
        message = f"^check {suite}: no genus g with 1 <= g <= {genus}$"
        with pytest.raises(ValueError, match=message):
            checks.run_suite(suite, genus=[genus])
        with pytest.raises(ValueError, match=message):
            checks.SUITES[suite](max_genus=genus)

    @pytest.mark.parametrize("suite", ["heisenberg", "projs", "pairing", "arf"])
    def test_cli_exit_code_and_message(self, suite, capsys):
        assert cli.main(["check", suite, "--genus", "8"]) == 2
        assert capsys.readouterr().err == "error: genus 7 exceeds enumeration cap 6\n"

    def test_traces_refuses_a_genus_over_the_cap_before_any_trace(self, monkeypatch, capsys):
        # level-major, the cell (6, 8) would trace four projections before
        # the cell (7, 8) reached the cap
        def no_trace(*args):
            raise AssertionError("traces ran the trace route before checking its genera")

        monkeypatch.setattr(dimensions, "_trace", no_trace)
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.run_suite("traces", genus=[6, 7], p=[8, 16])
        with pytest.raises(EnumerationCapError, match="^genus 7 exceeds enumeration cap 6$"):
            checks.check_traces(genera=[6, 7], levels_p=[8, 16])
        assert cli.main(["check", "traces", "--genus", "6,7"]) == 2
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

    def test_genus_three_counts(self, cli_json):
        # the largest genus of the exhaustive records, as `check all` runs them
        details = {r["name"]: r["details"] for r in cli_json("check", "all")[1]["checks"]}
        assert details["pairing bilinear g=3"] == "24576 triples (v, w, basis x)"
        assert details["pairing symmetric g=3"] == "4096 pairs (v, w)"
        assert details["refinement law g=3"] == "24576 triples (q, v, basis w)"
        assert details["arf difference is a quadratic refinement g=3"] == "24576 triples (sigma, z, basis w)"
        assert details["heisenberg rep is a homomorphism g=3"] == "65536 pairs (x, y)"

    def test_character_sum_counterexample(self, monkeypatch):
        honest = checks.brute_character_sum

        def off_at_mask_three(space, b):
            return honest(space, b) + (b.bits == 3)

        monkeypatch.setattr(checks, "brute_character_sum", off_at_mask_three)
        record = checks.check_character_sums(max_genus=1)[0]
        assert record.name == "character sum closed form = brute force g=1"
        assert not record.passed
        assert record.details == "4 vectors b; first counterexample b mask = 3"

    def test_character_sum_records_read_the_enumerated_sums(self, monkeypatch):
        # a pairing broken at the one pair (a1, a1): the brute-force sum at b = a1
        # reads -2, and the dichotomy fails there as the closed form does
        honest = SymplecticF2Space.pair
        monkeypatch.setattr(SymplecticF2Space, "pair", lambda self, v, w: honest(self, v, w) ^ (v.bits == w.bits == 1))
        records = checks.check_character_sums(max_genus=2)
        assert [(r.name, r.passed, r.details) for r in records] == [
            (f"character sum {law} g={g}", False, "2 vectors b; first counterexample b mask = 1")
            for g in (1, 2)
            for law in ("closed form = brute force", "dichotomy")
        ]

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
        # the homomorphism record stopped before making half the products of
        # central part 0, so the commutator record makes those itself
        commutator = results["heisenberg commutator pairing g=1"]
        assert commutator.passed
        assert commutator.details == "16 pairs (x, y) of central part 0"

    def test_heisenberg_counterexample_of_a_broken_matrix_product(self, monkeypatch):
        honest = MonomialMatrix.__matmul__

        def rep(t, mask):
            return heisenberg_rep(HeisenbergElement(t, F2Vector(mask, 2)))

        # the first stops the homomorphism record at pair 17, before it has made
        # rep(a1 + b1) @ rep(a1), which the second negates: the commutator record
        # makes that product itself
        negated = {(rep(1, 0), rep(0, 0)), (rep(0, 3), rep(0, 1))}

        def broken(a, b):
            product = honest(a, b)
            return -product if (a, b) in negated else product

        monkeypatch.setattr(MonomialMatrix, "__matmul__", broken)
        results = {r.name: r for r in checks.check_heisenberg(max_genus=1)}
        assert results["heisenberg rep is a homomorphism g=1"].details == (
            "17 pairs (x, y); first counterexample (x, y) as (t, mask) = ((1, 0), (0, 0))"
        )
        commutator = results["heisenberg commutator pairing g=1"]
        assert not commutator.passed
        assert commutator.details == (
            "8 pairs (x, y) of central part 0; first counterexample (x, y) as (t, mask) = ((0, 1), (0, 3))"
        )

    def test_heisenberg_commutator_reuses_the_homomorphism_products(self, monkeypatch):
        honest = MonomialMatrix.__matmul__
        made = []

        def counted(a, b):
            made.append(None)
            return honest(a, b)

        monkeypatch.setattr(MonomialMatrix, "__matmul__", counted)
        results = checks.check_heisenberg(max_genus=2)
        assert all(r.passed for r in results)
        # one product per homomorphism pair, 4^{2g+2} at each genus, and none more
        assert len(made) == 256 + 4096

    def test_heisenberg_makes_every_literal_case_at_the_defaults(self, monkeypatch):
        # a later speed-up that drops a literal case changes one of these counts
        honest_mul, honest_matmul = HeisenbergElement.__mul__, MonomialMatrix.__matmul__
        calls = {"@": 0, "*": 0}

        def counted_mul(x, y):
            calls["*"] += 1
            return honest_mul(x, y)

        def counted_matmul(a, b):
            calls["@"] += 1
            return honest_matmul(a, b)

        monkeypatch.setattr(HeisenbergElement, "__mul__", counted_mul)
        monkeypatch.setattr(MonomialMatrix, "__matmul__", counted_matmul)
        results = checks.check_heisenberg()
        assert all(r.passed for r in results) and len(results) == 3 * 5
        # each of the 4^{2g+2} homomorphism pairs at g = 1, 2, 3 makes one @ and
        # one *, 69 888 in all, and each of the 4^{2g} commutator pairs makes
        # x * y and y * x, 2 * 4368 more
        assert calls == {"@": 69_888, "*": 78_624}

    @pytest.mark.parametrize("broken_at", [(1, 1, 0, 2), (0, 1, 0, 2)])
    def test_heisenberg_commutator_multiplies_after_a_failed_homomorphism(self, broken_at, monkeypatch):
        # (0, a1)(0, b1) is a pair of central part 0, so reading rep(x * y) there
        # would fail the commutator record too
        honest_mul, honest_matmul = HeisenbergElement.__mul__, MonomialMatrix.__matmul__
        made = []

        def broken(x, y):
            product = honest_mul(x, y)
            if (x.central, x.vector.bits, y.central, y.vector.bits) == broken_at:
                return HeisenbergElement((product.central + 1) % 4, product.vector)
            return product

        def counted(a, b):
            made.append(None)
            return honest_matmul(a, b)

        monkeypatch.setattr(HeisenbergElement, "__mul__", broken)
        monkeypatch.setattr(MonomialMatrix, "__matmul__", counted)
        results = {r.name: r for r in checks.check_heisenberg(max_genus=2)}
        products = len(made)
        runs = 0
        for g in (1, 2):
            homomorphism = results[f"heisenberg rep is a homomorphism g={g}"]
            commutator = results[f"heisenberg commutator pairing g={g}"]
            assert not homomorphism.passed
            runs += int(homomorphism.details.split()[0]) + 2 * int(commutator.details.split()[0])
            # the record that a literal per-case recomputation makes
            space = SymplecticF2Space(g)
            vectors = [HeisenbergElement(0, v) for v in space.vectors()]

            def literal(case, pair=space.pair):
                x, y = case
                xy = honest_matmul(heisenberg_rep(x), heisenberg_rep(y))
                yx = honest_matmul(heisenberg_rep(y), heisenberg_rep(x))
                return xy == (yx if pair(x.vector, y.vector) == 0 else -yx)

            cases = itertools.product(vectors, vectors)
            labels = ("pairs (x, y) of central part 0", "(x, y) as (t, mask)")
            assert commutator == checks._counted(commutator.name, cases, literal, *labels)
            assert commutator.details == f"{len(vectors) ** 2} pairs (x, y) of central part 0"
        # one product per homomorphism pair run, then two per commutator case
        assert products == runs


def per_case_records(g):
    """The records of the rewritten F2 sweeps at genus g, made by the per-case
    closures they replaced: each case computes every sub-result itself."""
    space = SymplecticF2Space(g)
    vectors = list(space.vectors())
    basis = space.basis()
    refinements = list(QuadraticRefinement.all_refinements(space))
    pair = space.pair
    differences = [[sigma.shift(z).arf() ^ sigma.arf() for z in vectors] for sigma in refinements]

    def bilinear(case):
        v, w, x = case
        return pair(v + w, x) == (pair(v, x) ^ pair(w, x))

    def law(case):
        q, v, w = case
        return q(v + w) == (q(v) ^ q(w) ^ pair(v, w))

    def quadratic(case):
        sigma, z, w = case
        d = differences[sigma.basis_values]
        return d[(z + w).bits] == d[z.bits] ^ d[w.bits] ^ pair(z, w)

    sweeps = [
        ("pairing bilinear", (vectors, vectors, basis), bilinear, "triples (v, w, basis x)", "(v, w, x) masks"),
        ("pairing symmetric", (vectors, vectors), lambda case: pair(case[0], case[1]) == pair(case[1], case[0]),
         "pairs (v, w)", "(v, w) masks"),
        ("refinement law", (refinements, vectors, basis), law, "triples (q, v, basis w)", "(q, v, w) masks"),
        ("arf difference is a quadratic refinement", (refinements, vectors, basis), quadratic,
         "triples (sigma, z, basis w)", "(sigma, z, w) masks"),
    ]
    return [
        checks._counted(f"{name} g={g}", itertools.product(*factors), holds, counted, labels)
        for name, factors, holds, counted, labels in sweeps
    ]


# one sub-result broken at one argument: the owner, the name, and the broken
# form of the honest function
BREAKS = {
    "pair": (
        SymplecticF2Space,
        "pair",
        lambda honest: lambda space, v, w: honest(space, v, w) ^ ((v.bits, w.bits) == (5, 2)),
    ),
    "add": (
        F2Vector,
        "__add__",
        lambda honest: lambda v, w: F2Vector(honest(v, w).bits ^ ((v.bits, w.bits) == (3, 4)), v.dim),
    ),
    "q": (
        QuadraticRefinement,
        "__call__",
        lambda honest: lambda q, v: honest(q, v) ^ ((q.basis_values, v.bits) == (6, 5)),
    ),
}


class TestSharedSubResults:
    """pairing, refinement and liftsign compute each sub-result their cases
    share once; every record keeps its count and first counterexample."""

    @pytest.mark.parametrize("broken, failing, first", [
        (
            "pair",
            ["pairing bilinear", "pairing symmetric", "refinement law", "arf difference is a quadratic refinement"],
            # v + w = 5 against x = 2 holds at (0, 5), where <w, x> is the flipped <5, 2> too
            "82 triples (v, w, basis x); first counterexample (v, w, x) masks = (1, 4, 2)",
        ),
        (
            "add",
            ["pairing bilinear", "refinement law", "arf difference is a quadratic refinement"],
            # 3 + 4 made 6, not 7: <6, x> and <7, x> first differ at x = 2
            "210 triples (v, w, basis x); first counterexample (v, w, x) masks = (3, 4, 2)",
        ),
        (
            "q",
            ["refinement law"],
            # q = 6 flipped at v + w = 5, first reached as 1 + 4
            "391 triples (q, v, basis w); first counterexample (q, v, w) masks = (6, 1, 4)",
        ),
    ])
    def test_each_record_matches_its_per_case_closure(self, broken, failing, first, monkeypatch):
        owner, name, breaking = BREAKS[broken]
        monkeypatch.setattr(owner, name, breaking(getattr(owner, name)))
        records = {
            r.name: r
            for suite in (checks.check_pairing, checks.check_refinements, checks.check_lift_signs)
            for r in suite(max_genus=2)
        }
        oracle = per_case_records(2)
        assert [records[r.name] for r in oracle] == oracle
        assert [r.name for r in oracle if not r.passed] == [f"{name} g=2" for name in failing]
        assert next(r.details for r in oracle if not r.passed) == first

    @pytest.mark.parametrize("suite, made", [
        # pair: <v, w> per ordered pair (4368), which the bilinear and symmetric
        # records read, <v, v> (84) and the non-degeneracy sweep (150)
        ("check_pairing", {"+": 4368, "pair": 4368 + 84 + 150, "q": 0}),
        # q: q(v) per (q, v) (4368), which every case of the law reads
        ("check_refinements", {"+": 456, "pair": 456, "q": 4368}),
        ("check_lift_signs", {"+": 456, "pair": 456, "q": 0}),
    ])
    def test_each_sub_result_once_per_argument(self, suite, made, monkeypatch):
        # at g <= 3 there are 456 pairs (v, basis w) and 4368 pairs (v, w) or (q, v)
        calls = dict.fromkeys(made, 0)

        def counted(owner, name, key):
            honest = getattr(owner, name)

            def call(*args):
                calls[key] += 1
                return honest(*args)

            monkeypatch.setattr(owner, name, call)

        counted(F2Vector, "__add__", "+")
        counted(SymplecticF2Space, "pair", "pair")
        counted(QuadraticRefinement, "__call__", "q")
        assert all(r.passed for r in getattr(checks, suite)(max_genus=3))
        assert calls == made

    def test_projs_builds_each_projection_once_per_genus(self, monkeypatch):
        # 4 + 16 + 64 spin structures at g <= 3, against 4284 orthogonality cases,
        # each of which still shifts sigma by ell and rebases P_(sigma+ell)
        from spinverlinde.heisenberg import TwistedAlgebraElement

        calls = {"projection": 0, "shift": 0, "rebase": 0}

        def counted(owner, name):
            honest = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return honest(*args)

            monkeypatch.setattr(owner, name, call)

        counted(checks, "projection")
        counted(QuadraticRefinement, "shift")
        counted(TwistedAlgebraElement, "rebase")
        assert all(r.passed for r in checks.check_projections(max_genus=3))
        assert calls == {"projection": 84, "shift": 4284, "rebase": 4284}

    def test_counted_reads_its_cases_lazily(self):
        # an endless stream of cases whose third fails, in either form of the verdicts
        predicate = checks._counted("endless", itertools.count(), lambda n: n != 2, "cases n", "n")
        verdicts = (n != 2 for n in itertools.count())
        given = checks._counted("endless", itertools.count(), verdicts, "cases n", "n")
        expected = checks.CheckResult("endless", False, "3 cases n; first counterexample n = 2")
        assert predicate == given == expected

    def test_verdicts_out_of_step_with_the_cases_raise(self):
        with pytest.raises(ValueError):
            checks._counted("short", range(3), iter([True, True]), "cases n", "n")


class TestSuiteAll:
    def test_default_record_list(self, cli_json):
        # the record list `check all` prints; a dropped or extra record changes it
        code, payload = cli_json("check", "all")
        results = payload["checks"]
        assert code == 0
        assert len(results) == 383
        assert len({r["name"] for r in results}) == 383
        assert [r["name"] for r in results if not r["passed"]] == []

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
            checks.run_suite("all", genus=[7], p=[12])
        with pytest.raises(ValueError, match="^check pairing: no genus g with 1 <= g <= 0$"):
            checks.run_suite("all", genus=[0])
        # traces, before integrality, takes no genus below 2
        with pytest.raises(ValueError, match="^check traces: genus must be >= 2, got 1$"):
            checks.run_suite("all", genus=[1], p=[8])
        with pytest.raises(ValueError, match="^check levels: --max-m 100001 is more than 100000$"):
            checks.run_suite("levels", max_m=100_001)
        with pytest.raises(ValueError, match="^unknown check suite 'nonsense'; known: arf, .*, verlinde, all$"):
            checks.run_suite("nonsense")

    def test_one_range_bound(self):
        # the CLI's lists, the suites' grids and the oracle's sums read one constant
        from spinverlinde import fusion

        assert checks.MAX_RANGE_VALUES is cli.MAX_RANGE_VALUES is fusion.MAX_RANGE_VALUES == 100_000

    def test_oracle_levels_are_bounded_before_any_suite_runs(self, monkeypatch):
        def ran(**params):
            raise AssertionError("a suite ran before the oracle's levels were bounded")

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, ran)
        with pytest.raises(ValueError, match=r"^check verlinde: level k=100000: the certified sum has 100001 terms"):
            checks.run_suite("all", level=[100_000])
        with pytest.raises(ValueError, match=r"^check twisted: level p=200004: the certified sum has 100001 terms"):
            checks.run_suite("twisted", p=[200_004, 8])
        # the suites raise the same before their first cell
        with pytest.raises(ValueError, match=r"^check verlinde: level k=100000: "):
            checks.check_verlinde([2], [100_000])
        with pytest.raises(ValueError, match=r"^check twisted: level p=200004: "):
            checks.check_twisted([2], [200_004])

    def test_integrality_grid_is_bounded_before_the_suite_runs(self, monkeypatch, capsys):
        # one listed level implies the grid 2..max(genus) x 8..max(p) below it
        def ran(**params):
            raise AssertionError("the integrality suite ran on an unbounded grid")

        monkeypatch.setitem(checks.SUITES, "integrality", ran)
        grid = "(g, p) with 2 <= g <= 6 and p a multiple of 8 in 8..{}, more than 100000"
        with pytest.raises(ValueError, match=rf"^check integrality: 625000000 cells {re.escape(grid.format(10**9))}$"):
            checks.run_suite("integrality", p=[10**9])
        assert cli.main(["check", "integrality", "--p", str(10**9)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: check integrality: 625000000 cells {grid.format(10**9)}\n")
        # the bound counts cells, not genera: 5 x 20 000 cells pass, 5 x 20 001 do not
        checks._grid("integrality", max_genus=6, max_p=8 * 20_000)
        with pytest.raises(ValueError, match="^check integrality: 100005 cells "):
            checks.run_suite("all", genus=[6], p=[8 * 20_001])
        with pytest.raises(ValueError, match="^check integrality: 199998 cells "):
            checks.run_suite("integrality", genus=[100_000], p=[16])


class TestParameters:
    # (option, value) pairs small enough to run every suite that takes them
    SMALL = {"genus": [2], "p": [8], "level": [3], "max_m": 2}
    PAIRS = [(suite, option) for suite, takes in checks._OPTIONS.items() for option in takes]

    def test_parser_takes_exactly_the_table_options(self):
        namespace = cli.build_parser().parse_args(["check", "all"])
        table = {option for takes in checks._OPTIONS.values() for option in takes}
        assert set(vars(namespace)) - {"command", "suite", "format", "out"} == table

    @pytest.mark.parametrize("suite, option", PAIRS, ids=[f"{s}-{o}" for s, o in PAIRS])
    def test_every_option_in_the_table_runs(self, suite, option, capsys):
        value = self.SMALL[option]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        code = cli.main(["check", suite, "--" + option.replace("_", "-"), text, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["params"] == {"suite": suite, option: value}
        assert payload["checks"] and all(c["passed"] for c in payload["checks"])

    # each suite whose grid can be empty or hold an invalid cell: the options
    # of such a grid, and the keyword arguments they give the suite
    EMPTY_GRIDS = [
        *((suite, ({"genus": [7]}, {"max_genus": 7})) for suite in sorted(WORK)),
        ("twisted", ({"p": [3]}, {"levels_p": [3]})),
        ("traces", ({"p": [12]}, {"levels_p": [12]})),
        ("decomp", ({"genus": [2], "p": [4, 12]}, {"genera": [2], "levels_p": [4, 12]})),
        ("integrality", ({"p": [4]}, {"max_p": 4})),
        ("integrality", ({"genus": [1]}, {"max_genus": 1})),
        ("integrality", ({"genus": [1], "p": [3, 7]}, {"max_genus": 1, "max_p": 7})),
        ("levels", ({"max_m": 0}, {"max_m": 0})),
        *((suite, ({"genus": [0]}, {"max_genus": 0})) for suite in sorted(WORK)),
        ("verlinde", ({"genus": [0, 2]}, {"genera": [0, 2]})),
        ("verlinde", ({"level": [-1, 3]}, {"su2_levels": [-1, 3]})),
        ("verlinde", ({"genus": [0], "level": [-1]}, {"genera": [0], "su2_levels": [-1]})),
        ("twisted", ({"genus": [-1, 2]}, {"genera": [-1, 2]})),
        ("twisted", ({"genus": [0], "p": [3]}, {"genera": [0], "levels_p": [3]})),
        ("traces", ({"genus": [1, 2]}, {"genera": [1, 2]})),
        ("traces", ({"genus": [1], "p": [12]}, {"genera": [1], "levels_p": [12]})),
        ("decomp", ({"genus": [1, 3]}, {"genera": [1, 3]})),
        ("decomp", ({"genus": [0], "p": [8]}, {"genera": [0], "levels_p": [8]})),
        # the first genus of the list over the enumeration cap, after the level check
        ("traces", ({"genus": [9, 2, 7]}, {"genera": [9, 2, 7]})),
        ("traces", ({"genus": [7], "p": [12]}, {"genera": [7], "levels_p": [12]})),
    ]

    @pytest.mark.parametrize("suite, params", EMPTY_GRIDS)
    def test_grid_check_raises_what_the_suite_raises(self, suite, params, monkeypatch):
        options, arguments = params
        with pytest.raises(ValueError) as by_suite:
            checks.SUITES[suite](**arguments)

        def ran(**arguments):
            raise AssertionError(f"{suite} ran before its grid was checked")

        monkeypatch.setitem(checks.SUITES, suite, ran)
        with pytest.raises(type(by_suite.value)) as up_front:
            checks.run_suite(suite, **options)
        assert str(up_front.value) == str(by_suite.value)

    def test_every_suite_takes_the_keywords_of_its_options(self):
        # a keyword that no `check` option sets could only ever run at its default
        for name, suite in checks.SUITES.items():
            assert list(inspect.signature(suite).parameters) == list(checks._OPTIONS[name].values()), name

    @pytest.mark.parametrize("check, error, message", [
        # a keyword that no option sets could only ever run at its default
        (lambda max_genus=3, depth=2: [], TypeError, "^check new: no check option sets the keyword 'depth'$"),
        # `check all` runs every suite with no argument
        (lambda max_genus: [], ValueError, "shorter"),
    ])
    def test_a_suite_is_refused_before_registration(self, check, error, message):
        before = dict(checks.SUITES), dict(checks._OPTIONS), dict(checks._DEFAULTS)
        with pytest.raises(error, match=message):
            checks._suite("new")(check)
        assert (checks.SUITES, checks._OPTIONS, checks._DEFAULTS) == before

    @pytest.mark.parametrize("suite, arguments, message", [
        (checks.check_verlinde, {"genera": []}, "check verlinde: no genus given"),
        (checks.check_verlinde, {"su2_levels": []}, "check verlinde: no level given"),
        (checks.check_twisted, {"genera": []}, "check twisted: no genus given"),
        (checks.check_traces, {"genera": []}, "check traces: no genus given"),
        (checks.check_decomposition, {"genera": []}, "check decomp: no genus given"),
    ])
    def test_an_empty_list_is_refused_before_any_cell(self, suite, arguments, message, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran on an empty list")

        monkeypatch.setattr(checks, "_level_major", no_cell)
        with pytest.raises(ValueError, match=f"^{message}$"):
            suite(**arguments)

    @pytest.mark.parametrize("name, options, option", [
        ("verlinde", {"genus": []}, "genus"),
        ("verlinde", {"genus": [2], "level": []}, "level"),
        ("twisted", {"p": []}, "p"),
        ("pairing", {"genus": []}, "genus"),
        ("all", {"genus": []}, "genus"),
        ("all", {"genus": [2], "p": []}, "p"),
    ])
    def test_run_suite_refuses_an_empty_option_before_any_suite(self, name, options, option, monkeypatch):
        def ran(**arguments):
            raise AssertionError("a suite ran on an empty option")

        for suite in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, suite, ran)
        with pytest.raises(ValueError, match=f"^check {name}: no value given for --{option}$"):
            checks.run_suite(name, **options)
        iterators = {key: iter(value) for key, value in options.items()}
        with pytest.raises(ValueError, match=f"^check {name}: no value given for --{option}$"):
            checks.run_suite(name, **iterators)

    def test_run_suite_reads_each_option_once(self, monkeypatch):
        # under 'all', a one-pass iterable serves every suite that takes its option
        for suite in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, suite, lambda **arguments: [arguments])
        runs = checks.run_suite("all", genus=iter([2, 3]), p=iter([8, 16]), level=iter([3]), max_m=2)
        assert dict(zip(checks.SUITES, runs)) == {
            **{suite: {"max_genus": 3} for suite in checks.SUITES},
            "verlinde": {"genera": [2, 3], "su2_levels": [3]},
            "twisted": {"genera": [2, 3], "levels_p": [8, 16]},
            "traces": {"genera": [2, 3], "levels_p": [8, 16]},
            "decomp": {"genera": [2, 3], "levels_p": [8, 16]},
            "integrality": {"max_genus": 3, "max_p": 16},
            "levels": {"max_m": 2},
        }

    @pytest.mark.parametrize("suite", list(checks.SUITES))
    def test_default_grids_have_cells(self, suite, monkeypatch):
        # with no option given, the grid check passes and the suite runs at its defaults
        monkeypatch.setitem(checks.SUITES, suite, lambda **arguments: [arguments])
        assert checks.run_suite(suite) == [{}]


class TestSuiteFrame:
    """``@_suite`` binds a call, checks its grid before the suite starts, and lists what the suite yields."""

    @pytest.fixture
    def registry(self, monkeypatch):
        # a throwaway suite registers into copies, which the test drops
        for name in ("SUITES", "_OPTIONS", "_DEFAULTS"):
            monkeypatch.setattr(checks, name, dict(getattr(checks, name)))

    def test_the_registered_suite_is_the_module_function_and_returns_a_list(self):
        for name, suite in checks.SUITES.items():
            assert getattr(checks, suite.__name__) is suite, name
            # the body only yields its records
            assert inspect.isgeneratorfunction(suite.__wrapped__), name
        records = checks.check_levels(max_m=2)
        assert type(records) is list and [r.passed for r in records] == [True] * 4

    @pytest.mark.parametrize("call, message", [
        (
            lambda: checks.check_verlinde([2], [3], [4]),
            "check_verlinde() takes from 0 to 2 positional arguments but 3 were given",
        ),
        (lambda: checks.check_pairing(genera=[2]), "check_pairing() got an unexpected keyword argument 'genera'"),
        (lambda: checks.check_twisted([2], genera=[3]), "check_twisted() got multiple values for argument 'genera'"),
    ], ids=["positional", "unknown", "twice"])
    def test_a_bad_call_is_pythons_type_error_before_the_grid(self, call, message, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a bad call reached the grid check")

        monkeypatch.setattr(checks, "_grid", no_grid)
        with pytest.raises(TypeError, match=rf"\A{re.escape(message)}\Z"):
            call()

    def test_positional_and_keyword_calls_bind_over_the_defaults(self):
        by_position = checks.check_verlinde([2], [3, 4])
        assert [r.name for r in by_position] == [f"verlinde trace = oracle (g=2, k={k})" for k in (3, 4)]
        assert checks.check_verlinde([2], su2_levels=[3, 4]) == by_position
        assert checks.check_verlinde(su2_levels=iter([3, 4]), genera=(2,)) == by_position
        # the grid check turns each list into the list of the levels the suite keeps
        assert [r.name for r in checks.check_twisted([2], range(3, 9))] == [
            f"twisted trace = oracle (g=2, p={p})" for p in (4, 6, 8)
        ]

    def test_a_refused_grid_never_enters_the_suite(self, registry):
        entered = []

        @checks._suite("colorings")
        def check_colorings(genera=(2,), su2_levels=(1,)):
            entered.append((genera, su2_levels))
            yield checks.CheckResult("colorings", True)

        with pytest.raises(ValueError, match=r"\Acheck colorings: level must be >= 0, got -1\Z"):
            check_colorings([2], [-1])
        assert entered == []
        assert checks.run_suite("colorings", level=[1, 0]) == [checks.CheckResult("colorings", True)]
        # the suite starts on the values the grid check returns
        assert entered == [([2], [1, 0])]

    def test_the_grid_check_names_the_suite_it_checks(self, registry):
        @checks._suite("colorings")
        def check_colorings(genera=(2,), su2_levels=(1,)):
            yield from ()

        @checks._suite("lens")
        def check_lens(max_m=3):
            yield from ()

        refusals = [
            (lambda: check_colorings(su2_levels=[]), "check colorings: no level given"),
            (lambda: check_colorings(su2_levels=[-2, 3]), "check colorings: level must be >= 0, got -2"),
            (
                lambda: check_colorings(su2_levels=[100_000]),
                "check colorings: level k=100000: the certified sum has 100001 terms, more than 100000",
            ),
            (
                lambda: check_colorings([50000], range(15)),
                "check colorings: cell (g=50000, k=14): "
                "the 14 power-sum tables up to n=16 fit in 2048 MB only up to genus 18377",
            ),
            (lambda: check_lens(0), "check lens: max_m must be >= 1, got 0"),
            (lambda: check_lens(100_001), "check lens: --max-m 100001 is more than 100000"),
        ]
        for call, message in refusals:
            with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
                call()
        with pytest.raises(ValueError, match=r"\Acheck lens: max_m must be >= 1, got 0\Z"):
            checks.run_suite("lens", max_m=0)
