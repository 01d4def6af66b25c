"""skewchain benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It generates the workload's inputs from the
seed, then runs the workload in one worker process (worker.py) with BLAS
pinned to one thread; the worker also times ``import skewchain`` in fresh
interpreters (``setup_s``).  Times are reported at the reference speed
(reference.py), which takes the shared host's changing speed out of them.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Every CLI invocation's outputs pass through the golden gate (gate.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# BLAS threads for this process's input generation and every process it starts.
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
TIME_LIMIT_S = 170.0  # the whole run, set-up included

def worker_env() -> dict:
    return dict(os.environ, **PINNED, PYTHONPATH=str(SRC))


def git_sha():
    """HEAD's commit from ``.git`` when the checkout is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the program's sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_worker(args, run_dir: Path, env, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((run_dir / "worker.json").read_text())


def normalized(seconds: list, ref: list) -> list:
    """Times in seconds at the reference speed: each time divided by the
    reference kernel's seconds per repetition around it, times its nominal one."""
    import reference

    return [s / r * reference.NOMINAL_S for s, r in zip(seconds, ref)]


def run_wall(worker: dict) -> float:
    """Wall time of one workload run at the reference speed: for each
    invocation the median over the run's rounds, summed over the invocations."""
    rounds = [normalized(s, r) for s, r in zip(worker["call_s"], worker["call_ref"])]
    return sum(statistics.median(times) for times in zip(*rounds))


def metric_values(args, worker: dict, items: int) -> dict:
    """Metrics of one run.  Times are at the reference speed (reference.py)."""
    if not args.trace:
        wall = run_wall(worker)
        setup = normalized(worker["setup_s"], worker["setup_ref"])
        return {"wall_s": wall, "items_per_s": items / wall,
                "peak_rss_mb": worker["peak_rss_mb"], "setup_s": statistics.median(setup)}
    layers = worker["layers"]
    values = {}
    for key in layers[0]:
        if key.endswith(".self_s"):
            values[key] = statistics.fmean(run[key] for run in layers)
        else:
            values[key] = layers[0][key]
    values["trace.overhead_s"] = (statistics.fmean(worker["traced_walls"])
                                  - statistics.fmean(worker["walls"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_worker's cleanup, which ends the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "skewchain" / "cli.py").is_file():
        print(f"perfbench: no skewchain sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    os.environ.update(PINNED)  # before workloads imports numpy
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = worker_env()
    try:
        workloads.make_inputs(args.workload, run_dir / "inputs", args.seed)
        worker = run_worker(args, run_dir, env, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = metric_values(args, worker, workloads.WORKLOADS[args.workload].items)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "pinned": PINNED,
             "git_sha": git_sha(), "src_sha256": source_digest(), **worker["facts"]}
    result = {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    detail = {"result": result, "facts": facts,
              **{key: worker[key] for key in ("call_s", "call_ref", "setup_s", "setup_ref")},
              "outputs_sha256": worker["digests"],
              "problems": worker["problems"],
              "failed_frac": worker["failed"] / worker["attempted"]}
    if args.trace:
        detail["traced_walls"] = worker["traced_walls"]
        detail["absent_spans"] = worker["absent_spans"]
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    if result["correct"]:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    for problem in worker["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print("facts " + json.dumps(facts))
    print("outputs_sha256 " + json.dumps(worker["digests"]))
    print(f"failed_frac {detail['failed_frac']} ({worker['failed']}/{worker['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
