"""One benchmark run in its own process: repeat a workload for a time budget.

Started by ``run.py`` with BLAS threads pinned to 1.  It repeats the workload
while another round is expected to end within ``--seconds``, gating each
run's outputs outside the timed calls.  A round is one untraced run, or with
tracing an untraced and a traced run, so the tracing overhead is measured in
the same process.  It records the time of every untraced invocation, and a
reading of the reference kernel (reference.py) before and after each of them.

It times ``import skewchain`` in a fresh interpreter ``SETUP_SAMPLES``
times, spread evenly over the run, with a reference reading after each.
Writes ``worker.json`` (and ``spans.json`` when traced) into ``--run-dir``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

SETUP_SAMPLES = 9
WARMUP_S = 1.0      # reference kernel before the first reading, untimed
REFERENCE_S = 0.2   # one reading of the reference kernel
IMPORT_PROBE = """\
import time
t = time.perf_counter()
import skewchain
t = time.perf_counter() - t
print(repr(t), skewchain.__file__)
"""


def import_seconds() -> float:
    """``import skewchain`` time in a fresh interpreter with this process's environment."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, origin = proc.stdout.split(maxsplit=1)
    if Path(origin.strip()).resolve().parent != workloads.SRC / "skewchain":
        raise RuntimeError(f"skewchain imported from {origin.strip()}, not {workloads.SRC}")
    return float(seconds)


def blas_facts() -> dict:
    """BLAS vendor from numpy's build config, and its live thread count."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = workloads.import_program()
    workload = workloads.WORKLOADS[args.workload]
    inputs = args.run_dir / "inputs"
    recorder = tracing.Recorder() if args.trace else None
    modes = (False, True) if args.trace else (False,)
    walls = {False: [], True: []}
    call_s = []    # per untraced round, the time of each invocation
    call_ref = []  # and the reference kernel's time around it
    setup_s = []   # import probes
    setup_ref = []
    layers = []
    attempted = failed = 0
    problems = []
    digests = None
    import_seconds()  # warm the file cache and bytecode; not a sample
    reference.seconds_per_repetition(WARMUP_S)
    ref = [reference.seconds_per_repetition(REFERENCE_S)]

    def measure_reference():
        ref.append(reference.seconds_per_repetition(REFERENCE_S))

    def around(first: int, count: int) -> list:
        """Mean reference reading before and after each of ``count`` steps."""
        return [(ref[i] + ref[i + 1]) / 2.0 for i in range(first, first + count)]

    run_id = 0
    start = perf_counter()
    rounds = []
    while True:
        # Keep the import probes level with the share of the budget used.
        while len(setup_s) < SETUP_SAMPLES * (perf_counter() - start) / args.seconds:
            setup_s.append(import_seconds())
            measure_reference()
            setup_ref += around(len(ref) - 2, 1)
        round_start = perf_counter()
        for traced in modes:
            out = args.run_dir / f"run{run_id}"
            first = len(ref) - 1
            with recorder.traced(run_id) if traced else contextlib.nullcontext():
                result = workloads.run_once(cli, workload, args.seed, inputs, out,
                                            after_call=None if traced else measure_reference)
            if traced:
                layers.append(recorder.layer_metrics(run_id))
            else:
                call_s.append(result.call_s)
                call_ref.append(around(first, len(result.call_s)))
            if digests is None:
                digests = result.digests
            for key, digest in result.digests.items():
                if digests.get(key) != digest:
                    result.problems[key.split("/")[0]].append(f"{key} differs between runs")
            walls[traced].append(result.wall_s)
            attempted += len(result.calls)
            failed += result.failed
            problems += [f"run{run_id} {label}: {p}"
                         for label, ps in result.problems.items() for p in ps]
            if not result.failed:
                shutil.rmtree(out)
            run_id += 1
        rounds.append(perf_counter() - round_start)
        # Start another round only if it should end within the time budget.
        if perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(import_seconds())
        measure_reference()
        setup_ref += around(len(ref) - 2, 1)

    report = {
        "walls": walls[False],
        "call_s": call_s,
        "call_ref": call_ref,
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {"python": platform.python_version(), **blas_facts()},
    }
    if recorder is not None:
        report["traced_walls"] = walls[True]
        report["absent_spans"] = recorder.absent
        report["layers"] = layers
        recorder.write(args.run_dir / "spans.json")
    (args.run_dir / "worker.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
