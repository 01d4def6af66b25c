"""Digests of a fixed list of skewchain CLI runs, for byte-identity checks.

    python3 tools/cli_digests.py [--src DIR] > digests.txt

Each run is ``python -m skewchain.cli ARGV`` in a fresh process that imports
skewchain from DIR (default: this checkout's ``src``), with BLAS pinned to one
thread.  It prints one line per run: the run's label, its exit code, and the
sha256 of its standard output, of its standard error and of each file it
wrote.  Paths in the argv are relative to one scratch directory, so error
messages do not depend on where it lies.  Two trees give the same bytes on every run exactly when their
lines are the same:

    python3 tools/cli_digests.py --src /path/to/parent/src > parent.txt
    python3 tools/cli_digests.py > change.txt
    diff parent.txt change.txt

The inputs are seeded Gaussian states and Haar Kraus families built with
numpy alone, as ``perfbench/workloads.py`` builds its own, so a change to
``skewchain.objects`` cannot change them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
BOUNDS_DIMS = (1, 2, 3, 5, 8, 16, 32)
EXAMPLE_SMALL = ("--theta", "0:1:21", "--p", "0:1:11", "--q", "0:1:11")
READINGS = ("product", "as-printed")


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2 ** 0.5


def _state(rng, d: int) -> np.ndarray:
    """Full-rank ``G G^dag / Tr(G G^dag)`` for a d-by-d complex Gaussian G."""
    g = _gaussian(rng, (d, d))
    m = g @ g.conj().T
    m /= m.trace().real
    return (m + m.conj().T) / 2.0


def _kraus(rng, d: int, n: int) -> list:
    """Blocks of a Haar (n*d)-by-d isometry: a column-sum Kraus family."""
    q, r = np.linalg.qr(_gaussian(rng, (n * d, d)))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return [q[i * d:(i + 1) * d, :] for i in range(n)]


def write_instance(inputs: Path, name: str, d: int, n1: int, n2: int) -> list:
    """Write instance ``name``: a state, a column-sum channel of n1 operators
    and a row-sum channel of n2 (the adjoints of a column-sum family); its
    ``--state``, ``--channel1`` and ``--channel2`` arguments."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([d, n1, n2])))
    docs = {
        "state": {"dim": d, "matrix": _pairs(_state(rng, d))},
        "ch1": {"dim": d, "kraus": [_pairs(k) for k in _kraus(rng, d, n1)],
                "convention": "column_sum"},
        "ch2": {"dim": d, "kraus": [_pairs(k.conj().T) for k in _kraus(rng, d, n2)],
                "convention": "row_sum"},
    }
    for role, doc in docs.items():
        (inputs / f"{name}_{role}.json").write_text(json.dumps(doc) + "\n")
    rel = f"{inputs.name}/{name}"  # relative to the runs' working directory
    return ["--state", f"{rel}_state.json", "--channel1", f"{rel}_ch1.json",
            "--channel2", f"{rel}_ch2.json"]


def runs(inputs: Path) -> list:
    """``(label, argv)`` of every run; ``OUT`` in an argv stands for the
    run's own output path."""
    found = []
    for d in BOUNDS_DIMS:
        instance = write_instance(inputs, f"d{d}", d, min(d * d, 3), min(d * d, 2))
        bounds = ["bounds", *instance, "--out", "OUT/report.txt"]
        for reading in READINGS:
            found.append((f"bounds-d{d}-{reading}", bounds + ["--s-reading", reading]))
        found.append((f"bounds-d{d}-t3", bounds + ["--t", "0:1:3"]))
        # the report's optimum from the as-printed search, the verdict's from the product one
        found.append((f"bounds-d{d}-as-printed-t3",
                      bounds + ["--s-reading", "as-printed", "--t", "0:1:3"]))
    # a column reduction longer than 32
    found.append(("bounds-d64", ["bounds", *write_instance(inputs, "d64", 64, 3, 2),
                                 "--out", "OUT/report.txt"]))

    for label, extra in (("defaults", []),
                         ("small", ["--instances", "40", "--seed", "0"]),
                         ("dims1235", ["--dims", "1,2,3,5", "--instances", "30"]),
                         ("d3-seed7", ["--dims", "3", "--seed", "7"])):
        found.append((f"verify-{label}", ["verify", *extra, "--out", "OUT/verdict.txt"]))

    for reading in READINGS:
        example = ["example", "--s-reading", reading, "--out", "OUT"]
        found.append((f"example-defaults-{reading}", example))
        found.append((f"example-small-{reading}", example + list(EXAMPLE_SMALL)))
        found.append((f"example-small-t3-{reading}", example + list(EXAMPLE_SMALL)
                      + ["--t", "0:1:3"]))

    # inv4 is one pass of trials, inv16 five passes of four, inv32 passes of one
    for name, d, n, trials in (("inv4", 4, 3, 20), ("inv16", 16, 16, 20), ("inv32", 32, 32, 4)):
        instance = write_instance(inputs, name, d, n, n)
        found.append((f"invariance-d{d}", ["invariance", *instance, "--trials", str(trials),
                                           "--out", "OUT/invariance.txt"]))
    # n = d^2 Kraus operators: mixing over more operators than the dimension
    for d in (2, 3):
        instance = write_instance(inputs, f"inv{d}n{d * d}", d, d * d, d * d)
        found.append((f"invariance-d{d}-n{d * d}", ["invariance", *instance, "--trials", "20",
                                                    "--out", "OUT/invariance.txt"]))
    # one trial pass after the unmixed stage; trial passes of 64, 64 and 2
    for label, name, d, n, trials in (("invariance-d32-trials1", "inv32", 32, 32, 1),
                                      ("invariance-d4-n16-trials130", "inv4n16", 4, 16, 130)):
        found.append((label, ["invariance", *write_instance(inputs, name, d, n, n),
                              "--trials", str(trials), "--out", "OUT/invariance.txt"]))
    # rounding noise exceeds a zero tolerance: exit 1 and passed = False
    found.append(("invariance-d4-tol0", ["invariance", *write_instance(inputs, "inv4", 4, 3, 3),
                                         "--trials", "20", "--tol", "0",
                                         "--out", "OUT/invariance.txt"]))

    d4 = write_instance(inputs, "d4", 4, 3, 2)
    found += [
        ("exit2-bounds-missing-state", ["bounds", "--state", f"{inputs.name}/missing.json",
                                        *d4[2:], "--out", "OUT/report.txt"]),
        ("exit2-bounds-csv-out", ["bounds", *d4, "--out", "OUT/report.csv"]),
        ("exit2-bounds-no-state", ["bounds", "--out", "OUT/report.txt"]),
        ("exit2-verify-dims0", ["verify", "--dims", "0", "--out", "OUT/verdict.txt"]),
        ("exit2-verify-tol-nan", ["verify", "--tol", "nan", "--out", "OUT/verdict.txt"]),
        ("exit2-example-count0", ["example", "--theta", "0:1:0", "--out", "OUT"]),
        ("exit2-invariance-trials0", ["invariance", *d4, "--trials", "0",
                                      "--out", "OUT/invariance.txt"]),
        ("exit2-unwritable-out", ["invariance", *d4, "--trials", "2",
                                  "--out", f"{inputs.name}/no_such_dir/invariance.txt"]),
    ]
    return found


def digest_line(src: Path, work: Path, label: str, argv: list) -> str:
    """Run one CLI invocation in ``work`` and describe what it left."""
    out = Path("out") / label
    (work / out).mkdir(parents=True)
    argv = [arg.replace("OUT", str(out)) for arg in argv]
    env = dict(os.environ, **PINNED, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "skewchain.cli", *argv], cwd=work, env=env,
                          capture_output=True, timeout=600)
    fields = [label, f"exit={proc.returncode}",
              f"stdout={hashlib.sha256(proc.stdout).hexdigest()}",
              f"stderr={hashlib.sha256(proc.stderr).hexdigest()}"]
    for path in sorted((work / out).rglob("*")):
        if path.is_file():
            name = path.relative_to(work / out).as_posix()
            fields.append(f"{name}={hashlib.sha256(path.read_bytes()).hexdigest()}")
    return " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the skewchain package to run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "skewchain" / "cli.py").is_file():
        parser.error(f"no skewchain package under {src}")
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as tmp:
        work = Path(tmp)
        (work / "in").mkdir()
        for label, run_argv in runs(work / "in"):
            print(digest_line(src, work, label, run_argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
