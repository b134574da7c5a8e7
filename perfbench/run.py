"""hybridqkd benchmark: end-to-end CLI runs plus a traced per-layer run.

Usage (from the root of a hybridqkd checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh interpreter (perfbench/child.py) that imports
hybridqkd from ./src, loads the profile and calls ``hybridqkd.cli.main``
with the workload's arguments, writing its CSV under .perfbench_work/.
Repetitions run one at a time until the next one would overrun S seconds,
with at least MIN_REPS of them; the outputs of each are checked afterwards,
outside the timed span.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 runs a traced repetition between two untraced ones and reports
the per-layer metrics. The last line of stdout is the JSON result; the line
before it is the run record (versions, commit, seed, samples).
Metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
CHILD = HERE / "child.py"
WORK_DIR = ".perfbench_work"
PROFILE = "table1"
# Repetitions per run at least, so that wall_s is a median of three even on
# threshold-table1, whose repetition takes about 13 s.
MIN_REPS = 3
# Set-up samples per run: the repetitions' own plus set-up-only interpreters.
SETUP_SAMPLES = 5
# The traced run's self times must add up to its cli.main time within this.
SELF_SUM_TOLERANCE = 0.01
# Whole run, set-up samples and checks included, must end well inside 180 s.
RUN_LIMIT_S = 170.0
MC_PULSES = 4_194_304  # 4 Philox blocks of 2^20 pulses per cell
# Threads pinned for every child: one load-generating process, no BLAS pool.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    db: np.ndarray
    mu: np.ndarray
    # Work per invocation, the numerator of throughput_per_s.
    units: float


WORKLOADS = {
    "scan-dense": Workload(
        ("scan", "-c", "table1", "--channel.db=0:40:0.05", "--laser.mu=0:0.4:0.01"),
        checks.grid(0.0, 40.0, 0.05), checks.grid(0.0, 0.4, 0.01),
        801 * 41,  # output cells
    ),
    "threshold-table1": Workload(
        ("threshold", "-c", "table1"),
        np.empty(0), np.empty(0),
        1755,  # optimize_mu_laser calls of the original engine
    ),
    "montecarlo-cells": Workload(
        ("montecarlo", "-c", "table1", "--channel.db=0,5,10,15,20",
         "--laser.mu=0,0.05,0.269", f"--run.n_pulses={MC_PULSES}"),
        np.array([0.0, 5.0, 10.0, 15.0, 20.0]), np.array([0.0, 0.05, 0.269]),
        15 * MC_PULSES,  # pulses
    ),
}


class BenchError(RuntimeError):
    pass


@dataclass
class Rep:
    measured: dict
    stdout: str
    csv: str
    trace: dict | None = None


class Runner:
    """Runs child interpreters one at a time inside a scratch directory."""

    def __init__(self, root: Path, scratch: Path, deadline: float):
        self.root = root
        self.scratch = scratch
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "HYBRIDQKD_PROFILE_DIR")}
        self.env.update({name: "1" for name in THREAD_ENV})
        self.count = 0

    def child(self, cli_argv: list[str], trace: bool = False) -> Rep:
        self.count += 1
        tag = self.scratch / f"rep{self.count}"
        result_path, out_csv = f"{tag}.json", f"{tag}.csv"
        trace_path = f"{tag}.trace.json" if trace else "-"
        argv = list(cli_argv) + (["-o", out_csv] if cli_argv else [])
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), result_path, trace_path, PROFILE, "--", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise BenchError(f"{' '.join(argv)} did not finish inside the run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        measured = json.loads(Path(result_path).read_text())
        csv = Path(out_csv).read_text() if os.path.exists(out_csv) else ""
        trace_data = json.loads(Path(trace_path).read_text()) if trace else None
        return Rep(measured, proc.stdout, csv, trace_data)


def check_rep(name: str, rep: Rep) -> checks.CheckResult:
    workload = WORKLOADS[name]
    if rep.measured["exit_code"] != 0:
        result = checks.CheckResult()
        result.add(1, 1, f"hybridqkd exited {rep.measured['exit_code']}")
        return result
    if name == "scan-dense":
        return checks.check_scan(rep.csv, workload.db, workload.mu)
    if name == "threshold-table1":
        return checks.check_threshold(rep.csv, rep.stdout)
    return checks.check_montecarlo(rep.csv, workload.db, workload.mu, MC_PULSES)


def check_reproducible(runner: Runner, argv: list[str], rep: Rep, seed: int) -> checks.CheckResult:
    """Rerun one Monte Carlo cell alone with its own seed; tallies must match."""
    workload = WORKLOADS["montecarlo-cells"]
    index = seed % (workload.db.size * workload.mu.size)
    db = workload.db[index // workload.mu.size]
    mu = workload.mu[index % workload.mu.size]
    single = [a for a in argv if not a.startswith(("--channel.db=", "--laser.mu=", "--run.seed="))]
    single += [f"--channel.db={db:g}", f"--laser.mu={mu:g}", f"--run.seed={seed + index}"]
    again = runner.child(single)
    result = checks.CheckResult()
    # q_tot_hat, stderr_q, e_tot_hat, stderr_e are functions of the tallies.
    tallies = [3, 4, 6, 7]
    first = checks.montecarlo_row(rep.csv, index)
    second = checks.montecarlo_row(again.csv, 0)
    same = bool(first) and len(second) == len(first) and all(first[i] == second[i] for i in tallies)
    result.add(1, int(not same), f"cell {index} rerun with seed {seed + index} gave other tallies")
    return result


def check_self_sum(trace: dict, wall_traced: float) -> checks.CheckResult:
    """Self times of the wrapped functions must partition the traced cli.main."""
    self_sum = sum(f["self_s"] for f in trace["functions"].values())
    result = checks.CheckResult()
    off = abs(self_sum - wall_traced) > SELF_SUM_TOLERANCE * wall_traced
    result.add(1, int(off),
               f"traced self times sum to {self_sum:.4f} s, cli.main took {wall_traced:.4f} s")
    return result


def layer_metrics(trace: dict, load_config_s: float, wall_untraced: float,
                  wall_traced: float, output_bytes: int, mc_metrics: dict) -> dict[str, float]:
    functions, counters, spans = trace["functions"], trace["counters"], trace["spans"]

    def fn(name: str, key: str) -> float:
        return functions.get(name, {}).get(key, 0)

    def spans_of(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def span_seconds(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans_of(name))

    def span_count(name: str, inner: str) -> int:
        return sum(s["counts"].get(inner, 0) for s in spans_of(name))

    def layer_self(layer: str) -> float:
        return sum(f["self_s"] for n, f in functions.items() if n.startswith(layer + "."))

    opt = "optimize.optimize_mu_laser"
    opt_ms = sorted((s["end"] - s["start"]) * 1e3 for s in spans_of(opt))
    gllp_calls = fn("security.gllp_skr", "calls")
    opt_calls = fn(opt, "calls")
    gllp_hist = functions.get("security.gllp_skr", {}).get("hist", {})
    sim_self = fn("montecarlo.simulate", "self_s")
    pulses = counters.get("montecarlo.pulses", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(values: list[float], q: float) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "config.load_config_s": load_config_s,
        "config.self_s": layer_self("config"),
        "photon_stats.self_s": layer_self("photon_stats"),
        "photon_stats.hybrid_distribution.calls": fn("photon_stats.hybrid_distribution", "calls"),
        "photon_stats.hybrid_distribution.self_s": fn("photon_stats.hybrid_distribution", "self_s"),
        "photon_stats.poisson_distribution.calls": fn("photon_stats.poisson_distribution", "calls"),
        "photon_stats.poisson_distribution.self_s": fn("photon_stats.poisson_distribution", "self_s"),
        "photon_stats.fock_entries": counters.get("photon_stats.fock_entries", 0),
        "photon_stats.g2_of.self_s": fn("photon_stats.g2_of", "self_s"),
        "channel.self_s": layer_self("channel"),
        "channel.totals.calls": fn("channel.totals", "calls"),
        "channel.totals.self_s": fn("channel.totals", "self_s"),
        "security.self_s": layer_self("security"),
        "security.gllp_skr.calls": gllp_calls,
        "security.gllp_skr.self_s": fn("security.gllp_skr", "self_s"),
        "security.gllp_skr.p50_us": tracer.histogram_quantile(gllp_hist, 0.50) * 1e6,
        "security.gllp_skr.p99_us": tracer.histogram_quantile(gllp_hist, 0.99) * 1e6,
        "security.clamped_fraction": ratio(counters.get("security.clamped", 0), gllp_calls),
        "security.domain_errors": fn("security.gllp_skr", "errors"),
        "optimize.self_s": layer_self("optimize"),
        "optimize.optimize_mu_laser.calls": opt_calls,
        "optimize.optimize_mu_laser.self_s": fn(opt, "self_s"),
        "optimize.optimize_mu_laser.p50_ms": pct(opt_ms, 50),
        "optimize.optimize_mu_laser.p99_ms": pct(opt_ms, 99),
        "optimize.evals_per_call": ratio(span_count(opt, "security.gllp_skr"), opt_calls),
        "optimize.zero_key_fraction": ratio(counters.get("optimize.zero_key", 0), opt_calls),
        "optimize.mu_max_hits": counters.get("optimize.mu_max_hits", 0),
        "optimize.crossover_attenuation.s": span_seconds("optimize.crossover_attenuation"),
        "optimize.crossover_attenuation.optimize_calls":
            span_count("optimize.crossover_attenuation", opt),
        "optimize.unconditional_advantage_brightness.s":
            span_seconds("optimize.unconditional_advantage_brightness"),
        "optimize.unconditional_advantage_brightness.optimize_calls":
            span_count("optimize.unconditional_advantage_brightness", opt),
        "optimize.laser_beat_brightness.s": span_seconds("optimize.laser_beat_brightness"),
        "optimize.laser_beat_brightness.gllp_calls":
            span_count("optimize.laser_beat_brightness", "security.gllp_skr"),
        "optimize.skr_scan.self_s": fn("optimize.skr_scan", "self_s"),
        "montecarlo.self_s": layer_self("montecarlo"),
        "montecarlo.simulate.calls": fn("montecarlo.simulate", "calls"),
        "montecarlo.simulate.self_s": sim_self,
        "montecarlo.pulses": pulses,
        "montecarlo.layer_mpulses_per_s": ratio(pulses, sim_self) / 1e6,
        "montecarlo.max_abs_z_q": mc_metrics.get("max_abs_z_q", 0.0),
        "montecarlo.max_abs_z_e": mc_metrics.get("max_abs_z_e", 0.0),
        "cli.main.self_s": fn("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.wrapper_cost_s": trace["wrapper_cost_s"] * sum(f["calls"] for f in functions.values()),
    }


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hybridqkd").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".profile"):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(root: Path, args, reps: list[Rep], setup_samples: list[float]) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "reps": len(reps),
        "wall_s": [r.measured["wall_s"] for r in reps],
        "setup_s": setup_samples,
        "peak_rss_mb": [r.measured["peak_rss_mb"] for r in reps],
    }


def emit(metrics: dict[str, float], specs: list[dict], attempted: int, failed: int) -> dict:
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value!r}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "hybridqkd" / "__init__.py").is_file():
        raise BenchError(f"no hybridqkd sources under {root / 'src'}")
    spec = json.loads(BENCHMARK_JSON.read_text())
    workload = WORKLOADS[args.workload]
    argv = list(workload.argv)
    if args.workload == "montecarlo-cells":
        argv.append(f"--run.seed={args.seed}")
    # Byte-compile once, as an installed package would be; users do not pay
    # this on every run, so no repetition should either.
    compileall.compile_dir(str(root / "src" / "hybridqkd"), quiet=1)

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        start = time.monotonic()
        runner = Runner(root, scratch, start + RUN_LIMIT_S)
        total = checks.CheckResult()
        reps: list[Rep] = []
        if args.trace:
            # Untraced repetitions either side of the traced one, so that a
            # drift in CPU speed largely cancels from trace.overhead_s.
            reps.append(runner.child(argv))
            traced = runner.child(argv, trace=True)
            reps.append(runner.child(argv))
            traced_check = check_rep(args.workload, traced)
            total.merge(traced_check)
            total.merge(check_self_sum(traced.trace, traced.measured["wall_s"]))
        else:
            while True:
                reps.append(runner.child(argv))
                mean_rep = (time.monotonic() - start) / len(reps)
                if len(reps) >= MIN_REPS and time.monotonic() - start + mean_rep > args.seconds:
                    break
        for rep in reps:
            total.merge(check_rep(args.workload, rep))
        if args.workload == "montecarlo-cells":
            total.merge(check_reproducible(runner, argv, reps[0], args.seed))

        setup_samples = [r.measured["setup_s"] for r in reps]
        if not args.trace:
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(runner.child([]).measured["setup_s"])
        for note in total.notes:
            print(f"check failed: {note}", file=sys.stderr)
        print(json.dumps({"record": run_record(root, args, reps, setup_samples)}))

        if args.trace:
            Path(work / f"trace-{args.workload}.json").write_text(json.dumps(traced.trace))
            metrics = layer_metrics(
                traced.trace, traced.measured["load_config_s"],
                statistics.mean(r.measured["wall_s"] for r in reps),
                traced.measured["wall_s"], len(traced.csv.encode()) + len(traced.stdout.encode()),
                traced_check.metrics,
            )
            return emit(metrics, spec["per_layer"], total.attempted, total.failed)
        wall = statistics.median(r.measured["wall_s"] for r in reps)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r.measured["peak_rss_mb"] for r in reps),
            "throughput_per_s": workload.units / wall,
        }
        return emit(metrics, spec["end_to_end"], total.attempted, total.failed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
