"""Traced-run recorder: wraps hybridqkd's layer functions from outside.

Each traced function is replaced at every module-level name that binds it
in the layer modules (``optimize.gllp_skr``, ``security.totals``,
``photon_stats.poisson_distribution`` ...), so calls between layers go
through the wrapper while the program itself is unchanged. ``estimate`` is
not a layer module here: only ``figures`` calls it, and no workload runs
``figures``.

Functions at optimizer level and above record one span per call (name,
start, end, parent). Per-cell functions are only aggregated (calls, self
time, a log-bucketed latency histogram), which keeps the trace bounded on
workloads with hundreds of thousands of calls. Everything stays in memory
until ``Recorder.dump`` writes it out.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import time

PACKAGE = "hybridqkd"
MODULES = ("config", "photon_stats", "channel", "security", "optimize", "montecarlo", "cli")
CLOCK = time.perf_counter

# Per-call spans: one call is a sizeable piece of work.
SPAN_FUNCTIONS = (
    "cli.main",
    "config.load_config",
    "optimize.advantage_report",
    "optimize.crossover_attenuation",
    "optimize.unconditional_advantage_brightness",
    "optimize.laser_beat_brightness",
    "optimize.optimize_mu_laser",
    "optimize.skr_scan",
    "montecarlo.simulate",
)
# Aggregated only: called once per SKR cell.
CELL_FUNCTIONS = (
    "photon_stats.qd_distribution",
    "photon_stats.hybrid_distribution",
    "photon_stats.poisson_distribution",
    "photon_stats.g2_of",
    "channel.totals",
    "security.gllp_skr",
    "montecarlo.empirical_skr",
)
# Histogram resolution for per-cell call durations: 2 % wide buckets.
_BUCKET_BASE = math.log(1.02)


class _Function:
    __slots__ = ("calls", "self_s", "total_s", "errors", "hist")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0
        self.hist = {}


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "counts")

    def __init__(self, name, span_id):
        self.name = name
        self.start = 0.0
        self.child_s = 0.0
        self.span_id = span_id
        self.counts = {} if span_id is not None else None


class Recorder:
    """In-memory call recorder for one traced run."""

    def __init__(self):
        self.functions: dict[str, _Function] = {}
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._span_stack: list[_Frame] = []
        self._span_ids = itertools.count()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, span: bool, observe=None):
        stats = self.functions.setdefault(name, _Function())
        stack, span_stack, clock = self._stack, self._span_stack, CLOCK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                frame = _Frame(name, next(self._span_ids))
                span_stack.append(frame)
            else:
                frame = _Frame(name, None)
                if span_stack:
                    counts = span_stack[-1].counts
                    counts[name] = counts.get(name, 0) + 1
            stack.append(frame)
            failed = True
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child_s += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame.child_s
                if failed:
                    stats.errors += 1
                if span:
                    span_stack.pop()
                    self._close_span(frame, end)
                elif duration > 0.0:
                    bucket = math.floor(math.log(duration) / _BUCKET_BASE)
                    stats.hist[bucket] = stats.hist.get(bucket, 0) + 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _close_span(self, frame: _Frame, end: float) -> None:
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append(
            {
                "id": frame.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": parent.span_id if parent else None,
                "counts": frame.counts,
            }
        )
        if parent is not None:
            counts = parent.counts
            counts[frame.name] = counts.get(frame.name, 0) + 1
            for key, value in frame.counts.items():
                counts[key] = counts.get(key, 0) + value

    def install(self) -> None:
        """Replace every binding of a traced function in the MODULES."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        observers = _observers(modules["optimize"])
        wrappers = {}
        for qualified in SPAN_FUNCTIONS + CELL_FUNCTIONS:
            layer, fname = qualified.split(".")
            fn = getattr(modules[layer], fname, None)
            if fn is None:  # removed by a later version: its metrics read 0
                continue
            wrappers[id(fn)] = self.wrap(
                qualified, fn, qualified in SPAN_FUNCTIONS, observers.get(qualified)
            )
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        data = {
            "functions": {
                name: {
                    "calls": f.calls,
                    "self_s": f.self_s,
                    "total_s": f.total_s,
                    "errors": f.errors,
                    "hist": {str(k): v for k, v in sorted(f.hist.items())},
                }
                for name, f in self.functions.items()
            },
            "counters": self.counters,
            "spans": self.spans,
            "wrapper_cost_s": wrapper_cost(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _observers(optimize_module) -> dict:
    mu_edge = getattr(optimize_module, "MU_MAX", 5.0) - getattr(optimize_module, "MU_TOL", 1e-4)

    def hybrid(rec, args, dist):
        rec.count("photon_stats.fock_entries", dist.probs.size)

    def gllp(rec, args, report):
        if report.clamped:
            rec.count("security.clamped")

    def optimum(rec, args, result):
        if result.skr_opt == 0.0:
            rec.count("optimize.zero_key")
        if result.mu_laser_opt >= mu_edge:
            rec.count("optimize.mu_max_hits")

    def simulate(rec, args, tally):
        rec.count("montecarlo.pulses", tally.n_pulses)

    return {
        "photon_stats.hybrid_distribution": hybrid,
        "security.gllp_skr": gllp,
        "optimize.optimize_mu_laser": optimum,
        "montecarlo.simulate": simulate,
    }


def wrapper_cost() -> float:
    """Seconds a per-cell wrapper adds to one call of a trivial function."""
    calls = 100_000

    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop, span=False)
    times = []
    for fn in (noop, wrapped, noop, wrapped):
        start = CLOCK()
        for _ in range(calls):
            fn()
        times.append(CLOCK() - start)
    return max(0.0, (times[1] + times[3] - times[0] - times[2]) / (2 * calls))


def histogram_quantile(hist: dict[str, int], q: float) -> float:
    """Quantile of a log-bucketed duration histogram (bucket midpoint, s)."""
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for key in sorted(hist, key=int):
        seen += hist[key]
        if seen > rank:
            return math.exp((int(key) + 0.5) * _BUCKET_BASE)
    return 0.0
