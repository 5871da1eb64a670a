"""Span tracing of spinverlinde's public functions, installed from outside the package.

``Tracer.install`` wraps each traced function at every place it can be
reached by name: the defining module, every other spinverlinde module that
imported it by name (``dimensions.verlinde_dim``, ``checks.verlinde_dim``,
...), the class dictionary for methods, and the ``checks.SUITES`` registry.
Each call records one span: its name, start, end and parent span.  Spans
are kept in memory as four parallel integer arrays and written out once,
when the traced run ends; ``remove`` restores every original object.

A generator function (``SymplecticF2Space.vectors``) is counted once per
call and records one span per resumption, so the time spent inside its
body is charged to its layer rather than to the consumer.  Properties are
plain attribute reads and are not traced.

``load``, ``layer_totals``, ``oracle_metrics`` and ``check_cases`` turn a
written trace into the per-layer metrics the benchmark reports; they run
in the harness, not in the traced process, and need no spinverlinde
import.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

PACKAGE = "spinverlinde"

#: Layer of each explicitly named target: (module, attribute path) pairs.
NAMED_LAYERS = {
    "fusion.trace": [("fusion", "verlinde_dim"), ("fusion", "twisted_dim")],
    "fusion.mat_mul": [("fusion", "mat_mul")],
    "fusion.oracle": [("fusion", "verlinde_trig_oracle"), ("fusion", "twisted_trig_oracle")],
    "dimensions": [
        ("dimensions", "bm_even_dim"),
        ("dimensions", "bm_odd_dim"),
        ("dimensions", "sum_over_spin"),
        ("dimensions", "dims_via_traces"),
    ],
    "heisenberg.product": [("heisenberg", "TwistedAlgebraElement.__mul__")],
    "heisenberg.projection": [("heisenberg", "projection")],
    "heisenberg.rep": [("heisenberg", "heisenberg_rep")],
    "heisenberg.matmul": [("heisenberg", "GaussianIntegerMatrix.__matmul__")],
}

#: Modules whose every public function and method is one layer.
WHOLE_MODULE_LAYERS = ("spin", "f2")

#: Operator methods traced along with the public methods of those modules.
OPERATORS = frozenset({"__add__", "__xor__", "__sub__", "__neg__", "__mul__", "__matmul__", "__call__"})

MARKER = "__perfbench_original__"


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.name_index = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        #: span index -> what the span returned that a metric needs
        self.attrs: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: list[object] = []

    # -- recording ---------------------------------------------------------

    def _open(self, ix: int) -> int:
        i = len(self.name_index)
        self.name_index.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _resumptions(self, generator, ix: int):
        while True:
            i = self._open(ix)
            try:
                value = next(generator)
            except StopIteration:
                return
            finally:
                self._close(i)
            yield value

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """A wrapper of ``fn`` recording one span named ``name`` per call."""
        ix = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        calls = self.calls

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[ix] += 1
                return self._resumptions(fn(*args, **kwargs), ix)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[ix] += 1
                i = self._open(ix)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if on_result is not None:
                    self.attrs[i] = on_result(args, kwargs, result)
                return result

        setattr(wrapper, MARKER, fn)
        return wrapper

    # -- installing and removing -------------------------------------------

    def _patch(self, owner, key: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def _patch_function(self, modules: dict, fn, wrapper) -> None:
        """Replace ``fn`` by ``wrapper`` wherever a module holds it by name."""
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, key, wrapper)

    def _patch_method(self, cls, key: str, wrapper_for) -> None:
        raw = cls.__dict__[key]
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(cls, key, type(raw)(wrapper_for(raw.__func__)))
        else:
            self._patch(cls, key, wrapper_for(raw))

    def install(self) -> None:
        """Wrap every traced function of the already imported spinverlinde modules."""
        modules = {
            name[len(PACKAGE) + 1 :]: module
            for name, module in sys.modules.items()
            if name.startswith(PACKAGE + ".")
        }
        for layer, targets in NAMED_LAYERS.items():
            for module_name, path in targets:
                owner_name, _, attr = path.rpartition(".")
                owner = modules.get(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                if owner is None or attr not in vars(owner):
                    continue  # absent at this commit: the layer reads 0
                fn = vars(owner)[attr]
                name = f"{module_name}.{path}"
                on_result = _oracle_attrs(fn) if layer == "fusion.oracle" else None
                if hasattr(fn, "cache_info"):
                    self._cached.append(fn)
                if owner_name:
                    self._patch_method(owner, attr, lambda f: self.wrap(f, name, layer, on_result))
                else:
                    self._patch_function(modules, fn, self.wrap(fn, name, layer, on_result))
        for module_name in WHOLE_MODULE_LAYERS:
            if module_name in modules:
                self._install_module(modules, module_name)
        checks = modules.get("checks")
        for suite, fn in dict(getattr(checks, "SUITES", {})).items():
            wrapper = self.wrap(fn, f"checks.{suite}", f"checks.{suite}", _count_cases)
            self._patch_function(modules, fn, wrapper)
            self._patch(checks.SUITES, suite, wrapper)

    def _install_module(self, modules: dict, module_name: str) -> None:
        module = modules[module_name]
        for key, value in list(vars(module).items()):
            if key.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                self._patch_function(
                    modules, value, self.wrap(value, f"{module_name}.{key}", module_name)
                )
            elif inspect.isclass(value):
                wrapped: dict[int, object] = {}
                for attr, raw in list(vars(value).items()):
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not inspect.isfunction(fn) or (attr.startswith("_") and attr not in OPERATORS):
                        continue
                    name = f"{module_name}.{value.__name__}.{fn.__name__}"

                    def wrapper_for(f, name=name):
                        # aliases such as ``__xor__ = __add__`` share one wrapper
                        if id(f) not in wrapped:
                            wrapped[id(f)] = self.wrap(f, name, module_name)
                        return wrapped[id(f)]

                    self._patch_method(value, attr, wrapper_for)

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- writing -----------------------------------------------------------

    def cache_lookups(self) -> tuple[int, int]:
        """(hits, hits + misses) summed over the traced functions that have a cache."""
        infos = [fn.cache_info() for fn in self._cached]
        return sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)

    def write(self, path: str) -> None:
        """Write the spans as ``path`` (JSON header) and ``path + '.bin'`` (arrays)."""
        hits, lookups = self.cache_lookups()
        header = {
            "names": self.names,
            "layers": self.layers,
            "calls": self.calls,
            "spans": len(self.name_index),
            "attrs": {str(i): value for i, value in self.attrs.items()},
            "cache_hits": hits,
            "cache_lookups": lookups,
        }
        with open(path + ".bin", "wb") as handle:
            for column in (self.name_index, self.start, self.end, self.parent):
                column.tofile(handle)
        with open(path, "w") as handle:
            json.dump(header, handle)


def _oracle_attrs(fn):
    signature = inspect.signature(fn)

    def record(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return [result.precision_bits, bound.arguments["precision_bits"]]

    return record


def _count_cases(args, kwargs, result):
    return len(result)


def leftover_wrappers() -> int:
    """How many traced wrappers are still reachable from spinverlinde modules."""
    left = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith(PACKAGE + "."):
            continue
        objects = list(vars(module).values())
        objects += [raw for cls in objects if inspect.isclass(cls) for raw in vars(cls).values()]
        objects += [fn for obj in objects if isinstance(obj, dict) for fn in obj.values()]
        for obj in objects:
            obj = getattr(obj, "__func__", obj)
            if callable(obj) and hasattr(obj, MARKER):
                left += 1
    return left


# ---------------------------------------------------------------------------
# analysis, in the harness


def load(path: str) -> dict:
    """Read a trace written by ``Tracer.write``."""
    with open(path) as handle:
        trace = json.load(handle)
    n = trace["spans"]
    columns = []
    with open(path + ".bin", "rb") as handle:
        for _ in range(4):
            column = array("q")
            column.fromfile(handle, n)
            columns.append(column)
    trace["name_index"], trace["start"], trace["end"], trace["parent"] = columns
    trace["attrs"] = {int(i): value for i, value in trace["attrs"].items()}
    return trace


def _zeros(n: int) -> array:
    return array("q", bytes(8 * n))


def self_times(start, end, parent) -> array:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so siblings never overlap and the time the
    children cover is the sum of their durations.
    """
    selfs = _zeros(len(start))
    for i, p in enumerate(parent):
        duration = end[i] - start[i]
        selfs[i] += duration
        if p >= 0:
            selfs[p] -= duration
    return selfs


def layer_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor in the same layer, so
    a layer that calls itself is not counted twice.
    """
    layer_names = sorted(set(trace["layers"]))
    if len(layer_names) > 62:
        raise ValueError("more layers than the 63-bit ancestor masks hold")
    layer_of_name = [layer_names.index(layer) for layer in trace["layers"]]
    totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in layer_names}
    for ix, count in enumerate(trace["calls"]):
        totals[trace["layers"][ix]]["calls"] += count
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    selfs = self_times(start, end, parent)
    inclusive = [0] * len(layer_names)
    exclusive = [0] * len(layer_names)
    ancestors = _zeros(len(start))  # bit mask of the layers above each span
    names = trace["name_index"]
    for i, ix in enumerate(names):
        layer = layer_of_name[ix]
        p = parent[i]
        if p >= 0:
            ancestors[i] = ancestors[p] | (1 << layer_of_name[names[p]])
        if not ancestors[i] >> layer & 1:
            inclusive[layer] += end[i] - start[i]
        exclusive[layer] += selfs[i]
    for k, layer in enumerate(layer_names):
        totals[layer]["s"] = inclusive[k] / 1e9
        totals[layer]["self_s"] = exclusive[k] / 1e9
    return totals


def oracle_metrics(trace: dict, buckets) -> dict[str, float]:
    """Oracle seconds split by final precision, and the summed log2 doublings."""
    by_bits = {bits: 0 for bits in buckets}
    doublings = 0.0
    oracle = {ix for ix, layer in enumerate(trace["layers"]) if layer == "fusion.oracle"}
    start, end, names = trace["start"], trace["end"], trace["name_index"]
    for i, value in trace["attrs"].items():
        if names[i] not in oracle:
            continue
        final_bits, start_bits = value
        if final_bits not in by_bits:
            raise ValueError(f"oracle finished at {final_bits} bits, outside the buckets {buckets}")
        by_bits[final_bits] += end[i] - start[i]
        doublings += math.log2(final_bits / start_bits)
    return {
        **{f"fusion.oracle_s.b{bits}": ns / 1e9 for bits, ns in by_bits.items()},
        "fusion.oracle_doublings": doublings,
    }


def check_cases(trace: dict) -> dict[str, int]:
    """Check records returned per suite layer (``checks.<suite>``)."""
    cases: dict[str, int] = {}
    names = trace["name_index"]
    for i, count in trace["attrs"].items():
        layer = trace["layers"][names[i]]
        if layer.startswith("checks."):
            cases[layer] = cases.get(layer, 0) + count
    return cases
