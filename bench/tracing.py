"""Span tracing of tradetopo's public functions, installed from outside.

``Tracer.install()`` replaces every public module-level function of the
traced modules with a wrapper that records one span per call: calls, self
time (span time minus child spans) and calls that raised. Spans nest per
thread. A span that opens on a thread with no open span of its own (a
ThreadPoolExecutor worker) is charged as a child of the span the tracing
thread has open at that moment, so the waiting caller is not also charged
for work done on its behalf; with more than one worker thread the parallel
spans can then add up to more than the wall time.

Nothing in tradetopo is edited: the wrappers are set as module attributes,
which is how the package's modules call each other.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import tracemalloc
from time import perf_counter

LAYERS = ("ingest", "hclust", "metrics", "shockprop", "stats", "cli", "synthetic")

# Functions whose spans also measure the tracemalloc peak of the call.
KS_FUNCTIONS = ("stats.ks_two_sample", "stats.ks_one_sided_p")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = None  # span stack of the thread that called reset()
        self._originals = []  # (module, name, function)
        self.reset()

    def reset(self):
        """Start a new round of counts; the calling thread becomes the home
        thread that off-thread root spans are charged to."""
        with self._lock:
            self.spans = {}  # "layer.func" -> [calls, self_s, raised]
            self.rows_parsed = 0
            self.ks_peak_bytes = 0
            self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        package = importlib.import_module("tradetopo")
        modules = [importlib.import_module(f"tradetopo.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in [package, *modules]:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((module, name, value))
                    setattr(module, name, wrappers[id(value)][1])

    def uninstall(self):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, key, fn):
        tracer = self
        measure_ks = key in KS_FUNCTIONS
        count_rows = key == "ingest.parse_trade_csv"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            raised = 0
            started_tm = False
            if measure_ks:
                if tracemalloc.is_tracing():
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.start()
                    started_tm = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                peak = 0
                if measure_ks:
                    peak = tracemalloc.get_traced_memory()[1]
                    if started_tm:
                        tracemalloc.stop()
                with tracer._lock:
                    if stack:
                        stack[-1] += elapsed
                    elif tracer._home and stack is not tracer._home:
                        tracer._home[-1] += elapsed
                    entry = tracer.spans.setdefault(key, [0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += elapsed - child
                    entry[2] += raised
                    tracer.ks_peak_bytes = max(tracer.ks_peak_bytes, peak)
            if count_rows:
                with tracer._lock:
                    tracer.rows_parsed += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def snapshot(self):
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "rows_parsed": self.rows_parsed,
                "ks_peak_bytes": self.ks_peak_bytes,
            }


# --- per-layer metrics from one traced round ---

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
SELF_S = (
    "ingest.parse_trade_csv", "ingest.parse_gdp_csv", "ingest.directed_flows",
    "ingest.build_network",
    "hclust.average_linkage", "hclust.cophenetic", "hclust.distances_from_network",
    "hclust.to_newick", "hclust.cut_at_count",
    "metrics.ccc", "metrics.ccc_of_network", "metrics.ordered_share_matrix",
    "metrics.trade_gdp_ratio",
    "shockprop.init_state", "shockprop.run_to_steady", "shockprop.run_recovery",
    "shockprop.fit_recovery",
    "stats.ks_two_sample", "stats.ks_one_sided_p",
    "cli.write_table",
    "synthetic.matched_block_pair",
)
CALLS = (
    "ingest.parse_trade_csv", "ingest.directed_flows", "hclust.average_linkage",
    "metrics.ccc_series", "shockprop.step", "stats.recession_ccc_shift",
    "cli.load_trade",
)
# Entry points whose raised calls count as failed shock scenarios.
SCENARIO_STEPS = (
    "shockprop.init_state", "shockprop.run_to_steady", "shockprop.run_recovery",
    "shockprop.fit_recovery",
)
COUNTS = (
    [f"{k}.calls" for k in CALLS]
    + ["ingest.rows_parsed", "metrics.years_skipped", "shockprop.scenarios_failed",
       "cli.output_bytes"]
)
TIMES = [f"{k}.self_s" for k in SELF_S] + ["cli.self_s"]


def round_metrics(snap, output_bytes=0):
    """Per-layer metric values of one traced round (without units)."""
    spans = snap["spans"]

    def get(key, field):
        return spans.get(key, [0, 0.0, 0])[field]

    out = {f"{k}.self_s": get(k, 1) for k in SELF_S}
    out.update({f"{k}.calls": get(k, 0) for k in CALLS})
    out["cli.self_s"] = sum(v[1] for k, v in spans.items() if k.startswith("cli."))
    out["ingest.rows_parsed"] = snap["rows_parsed"]
    out["metrics.years_skipped"] = get("metrics.ccc_of_network", 2)
    out["shockprop.scenarios_failed"] = sum(get(k, 2) for k in SCENARIO_STEPS)
    step_calls = get("shockprop.step", 0)
    out["shockprop.step.us_per_call"] = (
        get("shockprop.step", 1) / step_calls * 1e6 if step_calls else 0.0
    )
    out["stats.ks_peak_mb"] = snap["ks_peak_bytes"] / 2**20
    out["cli.output_bytes"] = output_bytes
    out["traced_self_s"] = sum(v[1] for v in spans.values())
    return out
