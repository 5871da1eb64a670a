"""The spinverlinde benchmark: three fixed CLI workloads, timed end to end and traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35     # every workload, interleaved
    python3 perfbench/run.py --write-reference                         # regenerate reference/*.json
    python3 -m pytest perfbench -q                                     # the benchmark's own tests

Only the standard library is used.  Every invocation is a fresh child
process, ``launcher.py``, which imports ``spinverlinde.cli`` from ``src/``,
stamps the time and calls ``spinverlinde.cli.main``.  The loop is closed,
with one client: exactly one child runs at a time, and the next starts
when the previous one has exited.  The child runs single-threaded
(``OPENBLAS_NUM_THREADS=1`` and friends), with
``SPINVERLINDE_PRECISION_CEILING`` removed from its environment and no
``--jobs`` flag.  Resource usage comes from ``os.wait4``.

A run repeats its workload until the summed wall time of its children,
plus that of one more average invocation, would exceed ``--seconds`` (at
least three invocations), and reports medians.  The seed shuffles the order in
which the repetitions of the workloads, and in a traced run the traced
invocation, are interleaved, so that slow drift of the machine's speed does
not land on one workload; the grids stay fixed, because their cost mix is
the point.  One untimed import-only child runs first so that bytecode and
file caches are warm, as they are for a user.  After every timed
invocation three import-only children run as well, so that ``setup_s`` is
a median over four times as many set-ups; their time counts towards
``--seconds``.

The harness pins itself and its children to one CPU, and while each
child runs it probes that CPU's speed from a thread (``speed.py``).  The
end-to-end times are reported in seconds at reference speed: each part of
a child's wall time is scaled by the probe's reference time over its mean
time during that part.  On the shared machine the benchmark was written on,
raw wall time of the same invocation ranged 1.8x within minutes; at
reference speed it stayed within about 5%.  The raw wall times are printed
alongside.

Workloads
---------
``sweep``: ``verlinde --genus 2..8,24 --level 0..48 --format json``; 392 cells (rows).
    Every cell is distinct, so the dimension caches never hit.  About 3/4
    of the time is the fusion trace (``mat_mul``), 1/4 the interval oracle.
    The genus-24 row makes 49 cells certify at 128, 256 or 512 bits, so
    the oracle's precision doubling is measured.  Shows changes to the
    trace (a power series for ``tr H^{g-1}``) and, once the trace is
    cheap, to the oracle.
``spin-table``: ``spin-dims --genus 2..10 --p 8..128 --format json``; 144 (g, p) cells.
    Goes through ``dimensions`` into the same fusion trace with larger
    big-integer matrices (k <= 62) and heavy reuse: about 80% of the
    ``verlinde_dim``/``twisted_dim`` lookups hit the cache.  It never calls
    the oracle, so an oracle-only change must show no change here, and a
    caching or hoisting change shows here but not on ``sweep``.
``identities``: ``check all --format json`` at the suite defaults; 383 check records.
    About 55% twisted-algebra products and 20% Heisenberg representation;
    fusion and the oracle are about 6%.  Shows the twisted algebra and the
    Heisenberg model; ``sweep`` and ``spin-table`` must not move with them.
    It also enters ``dimensions`` (400 calls) and the dimension caches
    (about 60% hits).

Left out on purpose: the pytest run, whose work changes with every change
that adds tests, and ``import spinverlinde`` alone, whose cost is
``setup_s`` in every workload.

End-to-end metrics (``--trace 0``), per workload, medians over the invocations of a run
----------------------------------------------------------------------------------------
Times are in seconds at reference speed (see above and ``speed.py``).

``setup_s`` (s)         spawn of the child until ``spinverlinde.cli`` is
                        imported, over the timed invocations and the
                        import-only children.
``wall_s`` (s)          spawn of the child until it exits.
``cells_per_s`` (1/s)   cells / (wall_s - setup_s), per invocation.
``peak_rss_mb`` (MB)    the child's ``ru_maxrss``.
``correct_frac`` (ratio) share of cells whose compared values equal the
                        committed reference and whose certification or
                        check passed; a non-zero exit fails every cell.  A
                        missing or extra record fails its cell.  The
                        result line's ``failed``/``attempted`` give the
                        same as counts (failed_frac = failed / attempted).

Compared values: ``(g, k, dim)`` for ``sweep``; ``(g, p, arf, even, odd)``,
checksum rows included, for ``spin-table``; ``(name, passed)`` for every
check record.  Floats such as ``oracle_interval_width`` are not compared.

Per-layer metrics (``--trace 1``), from one traced invocation per workload
--------------------------------------------------------------------------
See ``spans.py`` for how spans are recorded.  ``_calls`` count calls
(cache hits included), ``_s`` is inclusive seconds and ``self_s`` seconds
minus the time of traced callees.

* ``fusion.trace_calls``/``fusion.trace_s`` (``verlinde_dim``,
  ``twisted_dim``), ``fusion.cache_hit_ratio`` over
  ``fusion.cache_lookups`` (their ``cache_info()``),
  ``fusion.mat_mul_calls``/``fusion.mat_mul_s``.
* ``fusion.oracle_calls``/``fusion.oracle_s`` (both trigonometric
  oracles), ``fusion.oracle_s.b<bits>`` split by the final
  ``precision_bits`` of each cell, and ``fusion.oracle_doublings``, the
  summed log2 of final over starting bits.
* ``dimensions.calls``/``dimensions.self_s`` (``bm_even_dim``,
  ``bm_odd_dim``, ``sum_over_spin``, ``dims_via_traces``).
* ``heisenberg.{product,projection,rep,matmul}_{calls,s}``
  (``TwistedAlgebraElement.__mul__``, ``projection``, ``heisenberg_rep``,
  ``GaussianIntegerMatrix.__matmul__``).
* ``spin.calls``/``spin.self_s`` and ``f2.calls``/``f2.self_s``: every
  public function and method of those modules.
* ``checks.<suite>_s``/``checks.<suite>_cases`` for each suite in
  ``checks.SUITES``.
* ``cli.self_s``: ``main`` minus its traced callees (argument parsing,
  output emission); ``cli.out_bytes``: bytes written to stdout.
* ``import.numpy_s``/``import.mpmath_s`` (cumulative) and
  ``import.spinverlinde_s`` (self time of the package's modules), medians
  of ``python -X importtime`` on the import-only launcher.
* ``trace.overhead_s``: traced ``wall_s`` minus the untraced median, both
  at reference speed.  The other ``_s`` layer metrics are raw seconds.

A layer a workload never enters reads 0.

Which end-to-end metric each layer metric should move
-----------------------------------------------------
* ``fusion.trace_s``, ``fusion.mat_mul_*``: ``cells_per_s`` and ``wall_s``
  on ``sweep`` and ``spin-table``, not on ``identities``.
* ``fusion.oracle_*``: ``sweep`` only.
* ``fusion.cache_hit_ratio``, ``dimensions.self_s``: ``spin-table`` and
  ``identities``, not ``sweep``.
* ``heisenberg.*``, ``spin.*``, ``f2.*``, ``checks.projs_s``,
  ``checks.heisenberg_s``: ``identities`` only.
* ``import.numpy_s``: ``setup_s`` and ``peak_rss_mb`` on every workload.
* ``cli.self_s``: ``wall_s`` on all three, most on ``sweep`` (largest
  output, about 108 KB).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"
REFERENCE = HERE / "reference"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
#: import-only children after each timed invocation, for setup_s
SETUPS_PER_SAMPLE = 3
IMPORT_PROBES = 3
ORACLE_BUCKETS = (128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    #: compared row fields; the first two name the cell.  Empty: every
    #: check record is its own cell.
    row_fields: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            ("verlinde", "--genus", "2..8,24", "--level", "0..48", "--format", "json"),
            ("g", "k", "dim"),
        ),
        Workload(
            "spin-table",
            ("spin-dims", "--genus", "2..10", "--p", "8..128", "--format", "json"),
            ("g", "p", "arf", "even", "odd"),
        ),
        Workload("identities", ("check", "all", "--format", "json"), ()),
    )
}

#: (name, unit, better, bound).  At reference speed the ten-run spread
#: (quartile distance over median) of wall_s and cells_per_s was 0.014 to
#: 0.05 on the shared 2-vCPU machine the benchmark was written on, widest
#: on spin-table, whose big-integer work slows a little more than the
#: probe kernel when the machine slows; the bounds keep four times that.
#: setup_s has the widest bound.  A cell that fails in every invocation
#: moves correct_frac by at least 1/392.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("cells_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("correct_frac", "ratio", "higher", 0.001),
)

SUITE_NAMES = (
    "pairing", "charsum", "refinement", "arf", "liftsign", "verlinde", "twisted",
    "projs", "tracedecomp", "traces", "decomp", "integrality", "heisenberg", "levels",
)

#: (name, unit, better)
PER_LAYER = (
    ("fusion.trace_calls", "count", "lower"),
    ("fusion.trace_s", "s", "lower"),
    ("fusion.cache_hit_ratio", "ratio", "higher"),
    ("fusion.cache_lookups", "count", "lower"),
    ("fusion.mat_mul_calls", "count", "lower"),
    ("fusion.mat_mul_s", "s", "lower"),
    ("fusion.oracle_calls", "count", "lower"),
    ("fusion.oracle_s", "s", "lower"),
    *((f"fusion.oracle_s.b{bits}", "s", "lower") for bits in ORACLE_BUCKETS),
    ("fusion.oracle_doublings", "count", "lower"),
    ("dimensions.calls", "count", "lower"),
    ("dimensions.self_s", "s", "lower"),
    *(
        (f"heisenberg.{part}_{kind}", unit, "lower")
        for part in ("product", "projection", "rep", "matmul")
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("spin.calls", "count", "lower"),
    ("spin.self_s", "s", "lower"),
    ("f2.calls", "count", "lower"),
    ("f2.self_s", "s", "lower"),
    *(
        metric
        for suite in SUITE_NAMES
        for metric in ((f"checks.{suite}_s", "s", "lower"), (f"checks.{suite}_cases", "count", "higher"))
    ),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.mpmath_s", "s", "lower"),
    ("import.spinverlinde_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# ---------------------------------------------------------------------------
# output correctness

CELL_IN_NAME = re.compile(r"\(g=(\d+), [kp]=(\d+)\)")


def compared_items(workload: Workload, payload: dict) -> list[tuple[object, tuple]]:
    """(cell, item) for every compared value of a CLI JSON payload."""
    fields = workload.row_fields
    items = [((row["g"], row[fields[1]]), tuple(row[f] for f in fields)) for row in payload["rows"]]
    for check in payload["checks"]:
        match = CELL_IN_NAME.search(check["name"]) if fields else None
        cell = (int(match[1]), int(match[2])) if match else check["name"]
        items.append((cell, (check["name"], check["passed"])))
    return items


def by_cell(items) -> dict[object, Counter]:
    cells: dict[object, Counter] = {}
    for cell, item in items:
        cells.setdefault(cell, Counter())[item] += 1
    return cells


def load_reference(workload: Workload) -> dict[object, Counter]:
    with open(REFERENCE / f"{workload.name}.json") as handle:
        return by_cell(compared_items(workload, json.load(handle)))


def failed_cells(workload: Workload, reference: dict, returncode: int, stdout: bytes) -> int:
    """Reference cells the output gets wrong, plus cells it adds, at most all of them."""
    if returncode != 0:
        return len(reference)
    try:
        got = by_cell(compared_items(workload, json.loads(stdout)))
    except (ValueError, KeyError, TypeError, IndexError):
        return len(reference)
    wrong = sum(1 for cell, items in reference.items() if got.get(cell) != items)
    extra = sum(1 for cell in got if cell not in reference)
    return min(wrong + extra, len(reference))


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    record: dict | None
    #: setup_s and wall_s - setup_s in seconds at reference speed (see ``speed.py``)
    setup_ref_s: float | None = None
    work_ref_s: float | None = None

    @property
    def wall_ref_s(self) -> float:
        return self.setup_ref_s + self.work_ref_s


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SPINVERLINDE_PRECISION_CEILING"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def invoke(cli_args, workdir: str, options=(), python_flags=()) -> Sample:
    """Run one launcher child to completion and measure it, probing the machine's speed meanwhile."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, *python_flags, str(LAUNCHER), str(write_fd), *options, "--", *cli_args]
    with (
        os.fdopen(read_fd) as stamp,
        tempfile.TemporaryFile(dir=workdir) as out,
        tempfile.TemporaryFile(dir=workdir) as err,
        speed.Probe() as probe,
    ):
        try:
            spawned = speed.now_ns()
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, pass_fds=(write_fd,), env=child_env(), cwd=ROOT
            )
        finally:
            os.close(write_fd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = speed.now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        line = stamp.read()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    record = json.loads(line) if line else None
    sample = Sample(
        wall_s=(exited - spawned) / 1e9,
        setup_s=None,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        record=record,
    )
    if record:
        imported = record["imported_ns"]
        sample.setup_s = (imported - spawned) / 1e9
        sample.setup_ref_s = sample.setup_s * probe.scale(spawned, imported)
        sample.work_ref_s = (exited - imported) / 1e9 * probe.scale(imported, exited)
    return sample


def import_times(stderr: str) -> dict[str, float]:
    """numpy and mpmath cumulative, spinverlinde self seconds from ``-X importtime``."""
    times = {"import.numpy_s": 0.0, "import.mpmath_s": 0.0, "import.spinverlinde_s": 0.0}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name in ("numpy", "mpmath"):
            times[f"import.{name}_s"] = cumulative_us / 1e6
        elif name == spans.PACKAGE or name.startswith(spans.PACKAGE + "."):
            times["import.spinverlinde_s"] += self_us / 1e6
    return times


# ---------------------------------------------------------------------------
# a run


def more_needed(result: Result, seconds: float) -> bool:
    """Whether one more invocation and its import-only children still fit in ``seconds``."""
    if len(result.samples) < MIN_SAMPLES:
        return True
    spent = [s.wall_s for s in result.samples + result.setups]
    return sum(spent) * (1 + 1 / len(result.samples)) <= seconds


@dataclass
class Result:
    samples: list[Sample]
    #: import-only children, one after each untimed invocation, for setup_s
    setups: list[Sample] = field(default_factory=list)
    traced: Sample | None = None
    trace_path: str | None = None


def run_workloads(names, seconds: float, trace: bool, rng: random.Random, workdir: str) -> dict[str, Result]:
    """Closed loop over the workloads, repetitions interleaved in seeded order."""
    results = {name: Result([]) for name in names}
    pending_traces = list(names) if trace else []
    while True:
        order = [(name, False) for name in names if more_needed(results[name], seconds)]
        order += [(name, True) for name in pending_traces]
        pending_traces = []
        if not order:
            return results
        rng.shuffle(order)
        for name, traced in order:
            cli_args = WORKLOADS[name].cli_args
            result = results[name]
            if traced:
                result.trace_path = os.path.join(workdir, f"{name}.trace.json")
                result.traced = invoke(cli_args, workdir, ("--trace", result.trace_path))
            else:
                result.samples.append(invoke(cli_args, workdir))
                result.setups += [invoke((), workdir, ("--import-only",)) for _ in range(SETUPS_PER_SAMPLE)]
            for sample in (result.traced,) if traced else result.samples[-1:] + result.setups[-SETUPS_PER_SAMPLE:]:
                if sample.record is None:
                    raise RuntimeError(f"{name}: the child ended before importing the CLI:\n{sample.stderr.decode()}")


def end_to_end(workload: Workload, result: Result, reference: dict) -> tuple[dict, int, int]:
    """End-to-end metrics with sample counts, and (attempted, failed) cells."""
    samples = result.samples
    cells = len(reference)
    failed = sum(failed_cells(workload, reference, s.returncode, s.stdout) for s in samples)
    attempted = cells * len(samples)
    metrics = {
        "setup_s": statistics.median(s.setup_ref_s for s in samples + result.setups),
        "wall_s": statistics.median(s.wall_ref_s for s in samples),
        "cells_per_s": statistics.median(cells / s.work_ref_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "correct_frac": 1 - failed / attempted,
    }
    return metrics, attempted, failed


def per_layer(result: Result, imports: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the traced invocation, in the order of ``PER_LAYER``."""
    trace = spans.load(result.trace_path)
    totals = spans.layer_totals(trace)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def layer(name):
        return totals.get(name, zero)

    hits, lookups = trace["cache_hits"], trace["cache_lookups"]
    cases = spans.check_cases(trace)
    return {
        "fusion.trace_calls": layer("fusion.trace")["calls"],
        "fusion.trace_s": layer("fusion.trace")["s"],
        "fusion.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "fusion.cache_lookups": lookups,
        "fusion.mat_mul_calls": layer("fusion.mat_mul")["calls"],
        "fusion.mat_mul_s": layer("fusion.mat_mul")["s"],
        "fusion.oracle_calls": layer("fusion.oracle")["calls"],
        "fusion.oracle_s": layer("fusion.oracle")["s"],
        **spans.oracle_metrics(trace, ORACLE_BUCKETS),
        "dimensions.calls": layer("dimensions")["calls"],
        "dimensions.self_s": layer("dimensions")["self_s"],
        **{
            f"heisenberg.{part}_{kind}": layer(f"heisenberg.{part}")[kind]
            for part in ("product", "projection", "rep", "matmul")
            for kind in ("calls", "s")
        },
        "spin.calls": layer("spin")["calls"],
        "spin.self_s": layer("spin")["self_s"],
        "f2.calls": layer("f2")["calls"],
        "f2.self_s": layer("f2")["self_s"],
        **{
            metric: value
            for suite in SUITE_NAMES
            for metric, value in (
                (f"checks.{suite}_s", layer(f"checks.{suite}")["s"]),
                (f"checks.{suite}_cases", cases.get(f"checks.{suite}", 0)),
            )
        },
        "cli.self_s": layer("cli")["self_s"],
        "cli.out_bytes": len(result.traced.stdout),
        **imports,
        "trace.overhead_s": result.traced.wall_ref_s - statistics.median(s.wall_ref_s for s in result.samples),
    }


def probe_imports(workdir: str) -> dict[str, float]:
    """Medians of the import metrics over a few ``-X importtime`` import-only children."""
    probes = []
    for _ in range(IMPORT_PROBES):
        sample = invoke((), workdir, ("--import-only",), ("-X", "importtime"))
        if sample.returncode != 0:
            raise RuntimeError(f"import probe failed: {sample.stderr.decode(errors='replace')}")
        probes.append(import_times(sample.stderr.decode()))
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, probe: Sample, cpu: int | None) -> dict:
    record = probe.record or {}
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": record.get("numpy"),
        "mpmath": record.get("mpmath"),
        "mpmath_backend": record.get("mpmath_backend"),
        "child_threads": record.get("threads"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_reference(workdir: str) -> None:
    """Record the compared fields of one run of every workload at this commit."""
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        sample = invoke(workload.cli_args, workdir)
        payload = json.loads(sample.stdout)
        if sample.returncode != 0 or not all(c["passed"] for c in payload["checks"]):
            raise RuntimeError(f"{workload.name}: refusing to record a failing run as reference")
        stripped = {
            "rows": [{f: row[f] for f in workload.row_fields} for row in payload["rows"]],
            "checks": [{"name": c["name"], "passed": c["passed"]} for c in payload["checks"]],
        }
        with open(REFERENCE / f"{workload.name}.json", "w") as handle:
            # one record a line, so that a changed value shows as one changed line
            handle.write("{\n")
            for i, (key, records) in enumerate(stripped.items()):
                lines = ",\n".join(json.dumps(record) for record in records)
                handle.write(f'"{key}": [\n{lines}\n]' + (",\n" if i == 0 else "\n"))
            handle.write("}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / spans.PACKAGE / "cli.py").is_file():
        print(f"error: no {spans.PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = speed.pin()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.write_reference:
            write_reference(workdir)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        references = {name: load_reference(WORKLOADS[name]) for name in names}
        probe = invoke((), workdir, ("--import-only",))  # untimed: warms bytecode and file caches
        if probe.returncode != 0:
            print(probe.stderr.decode(errors="replace"), file=sys.stderr)
            return 1
        print("run-record " + json.dumps(run_record(args, probe, cpu)))

        rng = random.Random(args.seed)
        results = run_workloads(names, args.seconds, bool(args.trace), rng, workdir)
        imports = probe_imports(workdir) if args.trace else {}

        metrics, attempted, failed, correct = {}, 0, 0, True
        units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
        for name in names:
            workload, result = WORKLOADS[name], results[name]
            values, tried, wrong = end_to_end(workload, result, references[name])
            count = len(result.samples)
            for label, key in (("wall_s", "wall_s"), ("wall_s at reference speed", "wall_ref_s")):
                times = " ".join(f"{getattr(s, key):.3f}" for s in result.samples)
                print(f"{name:<11} {label} of each untraced invocation: {times}")
            if args.trace:
                traced = result.traced
                wrong += failed_cells(workload, references[name], traced.returncode, traced.stdout)
                tried += len(references[name])
                correct &= traced.stdout == result.samples[0].stdout
                if traced.returncode != 0:
                    print(traced.stderr.decode(errors="replace"), file=sys.stderr)
                    return 1
                values, count = per_layer(result, imports), 1
            attempted, failed = attempted + tried, failed + wrong
            for metric, value in values.items():
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
                n = count + len(result.setups) if metric == "setup_s" and not args.trace else count
                print(f"{name:<11} {metric:<28} {value:>14.6g} {units[metric]:<6} n={n}")
        print(f"cells failed {failed} of {attempted} attempted")
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
