"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 1-10]
                                 [--traced-seed 0] [--out FILE]
    python3 perfbench/collect.py --compare FIRST.json SECOND.json

Runs ``run.py`` once per (workload, seed) with tracing off, sequentially, and
reports for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median next to the metric's bound from BENCHMARK.json.  ``--traced-seed``
adds one traced run per workload.  With ``--out`` the runs, the summary and the
machine facts are written as JSON (a ``BENCH_*.json`` trajectory entry).
``--compare`` reads two such files and checks, per workload and metric, that
the second median is not worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines if line.startswith("facts "))
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "elapsed_s": time.monotonic() - start,
            "facts": facts, **result}


def summarize(runs: list, end_to_end: list) -> dict:
    out = {}
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"],
                               "unit": metric["unit"], "n": len(values)}
    return out


def compare(first: Path, second: Path, end_to_end: list) -> int:
    a = json.loads(first.read_text())["workloads"]
    b = json.loads(second.read_text())["workloads"]
    worse = 0
    for workload in [w for w in a if w in b]:
        for metric in end_to_end:
            m1 = a[workload]["summary"][metric["name"]]["median"]
            m2 = b[workload]["summary"][metric["name"]]["median"]
            change = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            ok = change <= metric["bound"]
            worse += not ok
            print(f"{workload} {metric['name']}: {m1:.6g} -> {m2:.6g} {metric['unit']}, "
                  f"worse by {change:+.4f} (bound {metric['bound']}) {'ok' if ok else 'WORSE'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,5")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec["end_to_end"])

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        runs = []
        for seed in seed_list(args.seeds):
            run = one_run(workload, seed, spec["run_seconds"], 0)
            report.setdefault("facts", run["facts"])
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in run["metrics"].items())
                  + f" ({run['elapsed_s']:.1f} s)", flush=True)
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
        for name, s in entry["summary"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}) {flag}", flush=True)
        if args.traced_seed is not None:
            entry["traced"] = one_run(workload, args.traced_seed, spec["run_seconds"], 1)
        report["workloads"][workload] = entry
    all_runs = [r for e in report["workloads"].values()
                for r in e["runs"] + ([e["traced"]] if "traced" in e else [])]
    for run in all_runs:
        del run["facts"]  # kept once, at the top
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(run["correct"] for run in all_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
