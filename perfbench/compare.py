"""Compare two hybridqkd checkouts, parent and change, with this benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workloads a,b] [--first-seed N] [--out results.jsonl]
    python3 perfbench/compare.py --load results.jsonl

Both sides run this copy of perfbench/run.py with identical settings, one
process at a time, for BENCHMARK.json's run_seconds. Pair i uses seed
first_seed + i on both sides and alternates which side runs first. Every
raw result goes to --out (JSON lines), so a comparison can be re-read with
--load.

Verdict per end-to-end metric and workload:
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and its median is better than the parent's by more
              than the parent's interquartile range
  unresolved  the parent's own spread exceeds the metric's bound, and not
              every change run beats every parent run; also any
              'improved' while the change fails more output checks
  regressed   the change's median is worse by more than the bound
  unchanged   otherwise
Failed fractions (failed checks over checks attempted) are compared too.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9


def run_side(directory: str, workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark failed in {directory} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def collect(args) -> list[dict]:
    rows = []
    sides = [("parent", args.parent), ("change", args.change)]
    with open(args.out, "w", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            for workload in args.workloads:
                order = sides if pair % 2 == 0 else sides[::-1]
                for side, directory in order:
                    result, record = run_side(directory, workload, seed)
                    row = {"pair": pair, "side": side, "workload": workload,
                           "result": result, "record": record}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    rows.append(row)
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}",
                          file=sys.stderr)
    return rows


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, int, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        label = "unresolved" if more_failures else "improved"
    elif (q3 - q1) > bound * abs(p_med) and not all_better:
        label = "unresolved"
    elif -gain > bound * abs(p_med):
        label = "regressed"
    else:
        label = "unchanged"
    return label, wins, losses


def _quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def report(rows: list[dict]) -> int:
    regressions = 0
    workloads = sorted({row["workload"] for row in rows})
    print(f"{'workload':<18} {'metric':<18} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>5} {'losses':>6}  verdict")
    for workload in workloads:
        by_side = {"parent": {}, "change": {}}
        for row in rows:
            if row["workload"] == workload:
                by_side[row["side"]][row["pair"]] = row["result"]
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if len(pairs) < 2:
            print(f"{workload:<18} fewer than two complete pairs")
            continue
        failed = {}
        for side in ("parent", "change"):
            results = [by_side[side][p] for p in pairs]
            attempted = sum(r["attempted"] for r in results)
            failed[side] = sum(r["failed"] for r in results) / attempted
        more_failures = failed["change"] > failed["parent"]
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            parent = [by_side["parent"][p]["metrics"][name]["value"] for p in pairs]
            change = [by_side["change"][p]["metrics"][name]["value"] for p in pairs]
            label, wins, losses = verdict(parent, change, spec["better"], spec["bound"],
                                          more_failures)
            regressions += label == "regressed"
            print(f"{workload:<18} {name:<18} {_quartiles(parent):<36} "
                  f"{_quartiles(change):<36} {wins:>5} {losses:>6}  {label}")
        label = ("regressed" if more_failures else
                 "improved" if failed["change"] < failed["parent"] else "unchanged")
        regressions += label == "regressed"
        print(f"{workload:<18} {'failed_fraction':<18} {failed['parent']:<36.6g} "
              f"{failed['change']:<36.6g} {'':>5} {'':>6}  {label}")
        print(f"{workload:<18} pairs: {len(pairs)}; failed_fraction base: output checks "
              f"attempted over all runs of a side")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare a parent and a change checkout")
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="compare-results.jsonl")
    parser.add_argument("--load", help="re-read the results of an earlier comparison")
    args = parser.parse_args(argv)
    if args.load:
        with open(args.load, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    else:
        if not (args.parent and args.change):
            parser.error("give PARENT_DIR and CHANGE_DIR, or --load FILE")
        if args.pairs < 10:
            parser.error("at least ten pairs are needed for a verdict")
        args.workloads = args.workloads.split(",")
        rows = collect(args)
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
