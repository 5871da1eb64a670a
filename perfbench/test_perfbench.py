"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import spans
import speed

ROOT = Path(__file__).resolve().parents[1]

SMALL_ARGS = [
    ("verlinde", "--genus", "2..3,24", "--level", "0..6", "--format", "json"),
    ("spin-dims", "--genus", "2..3", "--p", "8..16", "--format", "json"),
    ("check", "all", "--genus", "2", "--p", "8", "--level", "0..2", "--format", "json"),
]


def _trace(names_layers, spans_rows, calls=None, attrs=None) -> dict:
    names = [name for name, _ in names_layers]
    return {
        "names": names,
        "layers": [layer for _, layer in names_layers],
        "calls": calls or [0] * len(names),
        "name_index": array("q", [row[0] for row in spans_rows]),
        "start": array("q", [row[1] for row in spans_rows]),
        "end": array("q", [row[2] for row in spans_rows]),
        "parent": array("q", [row[3] for row in spans_rows]),
        "attrs": attrs or {},
    }


def test_self_time_on_a_synthetic_span_tree():
    trace = _trace(
        [
            ("cli.main", "cli"),
            ("dimensions.sum_over_spin", "dimensions"),
            ("dimensions.bm_even_dim", "dimensions"),
            ("fusion.verlinde_dim", "fusion.trace"),
        ],
        # (name, start ns, end ns, parent)
        [
            (0, 0, 100, -1),
            (1, 10, 60, 0),
            (2, 20, 40, 1),
            (3, 25, 35, 2),
            (3, 70, 90, 0),
        ],
        calls=[1, 1, 1, 2],
    )
    assert list(spans.self_times(trace["start"], trace["end"], trace["parent"])) == [30, 30, 10, 10, 20]
    totals = spans.layer_totals(trace)
    assert totals["cli"] == {"calls": 1, "s": 100e-9, "self_s": 30e-9}
    # bm_even_dim runs inside sum_over_spin: counted once inclusively
    assert totals["dimensions"] == {"calls": 2, "s": 50e-9, "self_s": 40e-9}
    assert totals["fusion.trace"] == {"calls": 2, "s": 30e-9, "self_s": 30e-9}


def test_oracle_buckets_and_check_cases():
    trace = _trace(
        [("fusion.verlinde_trig_oracle", "fusion.oracle"), ("checks.verlinde", "checks.verlinde")],
        [(1, 0, 100, -1), (0, 10, 30, 0), (0, 40, 90, 0)],
        attrs={0: 2, 1: [128, 128], 2: [512, 128]},
    )
    metrics = spans.oracle_metrics(trace, run.ORACLE_BUCKETS)
    assert metrics["fusion.oracle_s.b128"] == 20e-9
    assert metrics["fusion.oracle_s.b512"] == 50e-9
    assert metrics["fusion.oracle_s.b256"] == 0
    assert metrics["fusion.oracle_doublings"] == 2
    assert spans.check_cases(trace) == {"checks.verlinde": 2}


def test_tracer_records_nesting_and_generator_resumptions(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: 1, "f2.inner", "f2")

    def produce():
        for _ in range(3):
            yield inner()

    generator = tracer.wrap(produce, "f2.produce", "f2")
    outer = tracer.wrap(lambda: sum(generator()), "cli.main", "cli")
    assert outer() == 3
    path = str(tmp_path / "trace.json")
    tracer.write(path)
    trace = spans.load(path)
    assert trace["calls"] == [3, 1, 1]
    names = [trace["names"][ix] for ix in trace["name_index"]]
    # main, then four resumptions of the generator (the last one ends it)
    assert names.count("f2.produce") == 4 and names.count("f2.inner") == 3
    for i, name in enumerate(names):
        parent = trace["parent"][i]
        expected = {"cli.main": None, "f2.produce": "cli.main", "f2.inner": "f2.produce"}[name]
        assert (names[parent] if parent >= 0 else None) == expected
        assert trace["start"][i] <= trace["end"][i]


def test_probe_scale_uses_the_probes_inside_the_span():
    probe = speed.Probe()
    ref = speed.REFERENCE_NS
    probe.samples = [(10, ref), (20, ref), (30, 2 * ref), (40, 2 * ref)]
    assert probe.scale(0, 20) == 1.0
    assert probe.scale(20, 40) == 0.5
    assert probe.scale(0, 40) == pytest.approx(2 / 3)
    # no probe ended inside the span: every probe counts
    assert probe.scale(40, 50) == pytest.approx(2 / 3)


def test_probe_records_samples_and_stops():
    with speed.Probe(interval_s=0.001) as probe:
        deadline = speed.now_ns() + 50_000_000
        while speed.now_ns() < deadline and len(probe.samples) < 3:
            pass
    assert len(probe.samples) >= 1
    assert not probe._thread.is_alive()
    assert all(took > 0 for _, took in probe.samples)


def _reference_payload(name: str) -> dict:
    with open(run.REFERENCE / f"{name}.json") as handle:
        return json.load(handle)


def _failed(name: str, payload: dict, returncode: int = 0) -> int:
    workload = run.WORKLOADS[name]
    return run.failed_cells(workload, run.load_reference(workload), returncode, json.dumps(payload).encode())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_reference_cells(name):
    reference = run.load_reference(run.WORKLOADS[name])
    assert len(reference) == {"sweep": 392, "spin-table": 144, "identities": 383}[name]
    assert _failed(name, _reference_payload(name)) == 0


@pytest.mark.parametrize(
    "name, doctor",
    [
        ("sweep", lambda p: p["rows"][5].update(dim=p["rows"][5]["dim"] + 1)),
        ("sweep", lambda p: p["checks"][7].update(passed=False)),
        ("spin-table", lambda p: p["rows"][40].update(odd=p["rows"][40]["odd"] + 2)),
        ("spin-table", lambda p: p["rows"].pop(3)),
        ("identities", lambda p: p["checks"][3].update(passed=False)),
        ("identities", lambda p: p["checks"].pop()),
        ("identities", lambda p: p["checks"].append({"name": "an extra check", "passed": True})),
    ],
)
def test_a_doctored_record_fails_exactly_its_cell(name, doctor):
    payload = copy.deepcopy(_reference_payload(name))
    doctor(payload)
    assert _failed(name, payload) == 1


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_a_nonzero_exit_or_unreadable_output_fails_every_cell(name):
    workload = run.WORKLOADS[name]
    reference = run.load_reference(workload)
    good = json.dumps(_reference_payload(name)).encode()
    assert run.failed_cells(workload, reference, 1, good) == len(reference)
    assert run.failed_cells(workload, reference, 0, good[:-10]) == len(reference)


def test_import_times_parse():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       120 |      55000 |   numpy",
            "import time:       300 |        900 |     mpmath.ctx_iv",
            "import time:       200 |      25000 |   mpmath",
            "import time:      1000 |       1500 |     spinverlinde.f2",
            "import time:      2000 |      90000 | spinverlinde",
        ]
    )
    assert run.import_times(stderr) == pytest.approx(
        {"import.numpy_s": 0.055, "import.mpmath_s": 0.025, "import.spinverlinde_s": 0.003}
    )


@pytest.mark.parametrize("cli_args", SMALL_ARGS, ids=lambda args: args[0])
def test_traced_output_equals_untraced(tmp_path, cli_args):
    plain = run.invoke(cli_args, str(tmp_path))
    trace_path = str(tmp_path / "trace.json")
    traced = run.invoke(cli_args, str(tmp_path), ("--trace", trace_path))
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert plain.setup_ref_s > 0 and plain.work_ref_s > 0
    result = run.Result([plain], traced=traced, trace_path=trace_path)
    imports = dict.fromkeys(("import.numpy_s", "import.mpmath_s", "import.spinverlinde_s"), 0.0)
    metrics = run.per_layer(result, imports)
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
    assert metrics["cli.out_bytes"] == len(plain.stdout)
    if cli_args[0] == "spin-dims":
        assert metrics["fusion.oracle_calls"] == 0 and metrics["fusion.cache_hit_ratio"] > 0
    if cli_args[0] == "check":
        assert all(metrics[f"checks.{suite}_cases"] > 0 for suite in run.SUITE_NAMES)


def _attribute_identities() -> dict:
    """id() of every module attribute, class attribute and SUITES entry of the package."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith(spans.PACKAGE + "."):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    seen[(name, key, attr)] = id(raw)
    for suite, fn in sys.modules[spans.PACKAGE + ".checks"].SUITES.items():
        seen[("SUITES", suite)] = id(fn)
    return seen


def test_every_wrapper_is_removed_after_a_traced_run():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spinverlinde.cli  # noqa: F401  (loads every module the CLI reaches)
    finally:
        sys.path.remove(str(ROOT / "src"))
    before = _attribute_identities()
    tracer = spans.Tracer()
    tracer.install()
    try:
        checks = sys.modules[spans.PACKAGE + ".checks"]
        assert hasattr(checks.verlinde_dim, spans.MARKER)
        assert hasattr(checks.SUITES["projs"], spans.MARKER)
        assert spans.leftover_wrappers() > 0
    finally:
        tracer.remove()
    assert spans.leftover_wrappers() == 0
    assert _attribute_identities() == before


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert b"correct" not in done.stdout
