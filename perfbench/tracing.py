"""Spans around the functions knnmi exports, and the per-layer metrics made from them.

The tracer wraps every function named in `knnmi.__all__` at every place a
`knnmi.*` module binds it (the package namespace, the defining module and
each importing module), so a call is traced whichever binding the caller
uses. Each call becomes one span: exported name, defining module, start,
end, parent span and a few extras (argument sizes, the backend, statuses).
Spans stay in memory until the run ends. Nothing inside `src/` is touched:
wrappers are installed and removed by the benchmark.
"""

import collections
import contextlib
import functools
import json
import time
import tracemalloc
import types

MIB = 1024.0 * 1024.0

# exported functions that per-layer metrics are made from
_METRIC_FUNCTIONS = (
    "compute_knn_radii", "dataset_from_csv", "dataset_to_csv", "dataset_checksum",
    "generate_gaussian", "generate_student_t", "digamma", "estimate_from_radii",
    "normalize", "scale_radii", "run_sweep", "write_records_csv", "write_summary_csv",
    "read_records_csv", "summarize",
)
_SCAN = "compute_knn_radii"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _scan_extra(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    return {"pair_dims": data.n * data.n * (data.d_x + data.d_y)}


def _digamma_extra(args, kwargs, result):
    return {"elems": getattr(_arg(args, kwargs, 0, "x"), "size", 1)}


def _normalize_extra(args, kwargs, result):
    backend = _arg(args, kwargs, 2, "backend")
    return {"backend": str(getattr(backend, "value", backend))}


def _sweep_extra(args, kwargs, result):
    return {"statuses": dict(collections.Counter(str(r.status) for r in result))}


_EXTRAS = {
    _SCAN: _scan_extra,
    "digamma": _digamma_extra,
    "normalize": _normalize_extra,
    "run_sweep": _sweep_extra,
}


class Tracer:
    """Records one span per call: [name, module, start, end, parent, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []  # (module, attribute, original)
        self.absent = []

    def _open(self, name, module):
        index = len(self.spans)
        self.spans.append([name, module, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index, start, end, extra=None):
        self._stack.pop()
        span = self.spans[index]
        span[2], span[3], span[5] = start, end, extra

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark around its own call into a layer."""
        module = name.split(".", 1)[0]
        index = self._open(name, module)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def _wrap(self, fn, name):
        module = fn.__module__.rpartition(".")[2]
        extra_of = _EXTRAS.get(name)
        scan = name == _SCAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, module)
            extra = None
            if scan:
                tracemalloc.start()
                cpu = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if scan:
                    extra = {
                        "cpu_s": time.process_time() - cpu,
                        "peak_alloc": tracemalloc.get_traced_memory()[1],
                    }
                    tracemalloc.stop()
                self._close(index, start, end, extra)
            if extra_of is not None:
                span = self.spans[index]
                span[5] = {**(span[5] or {}), **extra_of(args, kwargs, result)}
            return result

        return traced

    def install(self, sys_modules):
        """Wrap each function of knnmi.__all__ wherever a knnmi.* module binds it."""
        package = sys_modules["knnmi"]
        modules = [m for n, m in sorted(sys_modules.items())
                   if (n == "knnmi" or n.startswith("knnmi.")) and m is not None]
        exported = {}
        for name in package.__all__:
            obj = getattr(package, name, None)
            if isinstance(obj, types.FunctionType):
                exported[id(obj)] = (obj, self._wrap(obj, name))
        self.absent = [n for n in _METRIC_FUNCTIONS
                       if not isinstance(getattr(package, n, None), types.FunctionType)
                       or n not in package.__all__]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = exported.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"columns": ["name", "module", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, first_op_span, rounds):
    """Per-layer metrics for one traced set-up plus one traced round.

    Spans before `first_op_span` belong to the traced set-up and count
    once; the rest are divided by the number of traced rounds. A layer's
    self time is its span minus the spans of its direct children.
    """
    child = [0.0] * len(spans)
    for name, module, start, end, parent, extra in spans:
        if parent >= 0:
            child[parent] += end - start

    totals = collections.defaultdict(float)

    def add(key, value, index):
        totals[key] += value if index < first_op_span else value / rounds

    for i, (name, module, start, end, parent, extra) in enumerate(spans):
        duration = end - start
        add(f"time:{name}", duration, i)
        add(f"calls:{name}", 1, i)
        add(f"self_module:{module}", duration - child[i], i)
        add(f"self:{name}", duration - child[i], i)
        extra = extra or {}
        if name == _SCAN:
            add("cpu:scan", extra.get("cpu_s", 0.0), i)
            add("pair_dims", extra.get("pair_dims", 0), i)
            totals["peak_alloc"] = max(totals["peak_alloc"], extra.get("peak_alloc", 0))
        elif name == "digamma":
            add("digamma_elems", extra.get("elems", 0), i)
            if parent >= 0 and spans[parent][1] == "estimators":
                add("digamma_calls_in_assembly", 1, i)
        elif name == "normalize":
            add(f"normalize:{extra.get('backend')}", duration, i)
        elif name == "run_sweep":
            for status, count in extra.get("statuses", {}).items():
                add(f"status:{status}", count, i)
        add("spans", 1, i)

    def ratio(num, den):
        return num / den if den else 0.0

    scan_s = totals["time:compute_knn_radii"]
    assemblies = totals["calls:estimate_from_radii"]
    m = {
        "neighbors.scan_s": (scan_s, "s"),
        "neighbors.scan_cpu_s": (totals["cpu:scan"], "s"),
        "neighbors.scans": (totals["calls:compute_knn_radii"], "count"),
        "neighbors.pair_dims": (totals["pair_dims"], "count"),
        "neighbors.pair_dims_per_s": (ratio(totals["pair_dims"], scan_s), "1/s"),
        "neighbors.peak_alloc_mib": (totals["peak_alloc"] / MIB, "MiB"),
        "dataset.from_csv_s": (totals["time:dataset_from_csv"], "s"),
        "dataset.to_csv_s": (totals["time:dataset_to_csv"], "s"),
        "dataset.checksum_s": (totals["time:dataset_checksum"], "s"),
        "datagen.generate_s": (
            totals["time:generate_gaussian"] + totals["time:generate_student_t"], "s"),
        "special.digamma_s": (totals["time:digamma"], "s"),
        "special.digamma_calls": (totals["calls:digamma"], "count"),
        "special.digamma_elems": (totals["digamma_elems"], "count"),
        "special.digamma_calls_per_assembly": (
            ratio(totals["digamma_calls_in_assembly"], assemblies), "count"),
        "estimators.assemble_self_s": (totals["self_module:estimators"], "s"),
        "estimators.assemblies": (assemblies, "count"),
        "scaling.scale_radii_s": (totals["time:scale_radii"], "s"),
        "harness.run_sweep_self_s": (totals["self:run_sweep"], "s"),
        "harness.write_records_s": (totals["time:write_records_csv"], "s"),
        "harness.write_summary_s": (totals["time:write_summary_csv"], "s"),
        "harness.read_records_s": (totals["time:read_records_csv"], "s"),
        "harness.summarize_s": (totals["time:summarize"], "s"),
        "harness.records": (sum(v for k, v in totals.items() if k.startswith("status:")), "count"),
        "cli.self_s": (totals["self:cli.main"], "s"),
        "trace.spans": (totals["spans"], "count"),
    }
    for backend in ("baseline", "proposed", "dominant"):
        m[f"scaling.normalize_s.{backend}"] = (totals[f"normalize:{backend}"], "s")
    m["scaling.normalize_proposed_over_baseline"] = (
        ratio(totals["normalize:proposed"], totals["normalize:baseline"]), "ratio")
    for status in ("ok", "overflow", "undefined_nmi", "duplicate_points"):
        m[f"harness.status.{status}"] = (totals[f"status:{status}"], "count")
    return m
