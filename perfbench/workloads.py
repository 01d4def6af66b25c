"""The four benchmark workloads, their seeded inputs, and one run of a workload.

Every workload calls the public CLI entry point ``skewchain.cli.main(argv)``.
The ``bounds-ladder`` and ``invariance-wide`` instances are generated here, not
by skewchain, so a change to ``skewchain.objects`` cannot change the inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Sizes are chosen so that one invocation takes about a second: a run repeats
# each invocation many times and keeps its fastest time (see run.py).
EXAMPLE_GRIDS = {"--theta": "0:1:21", "--p": "0:1:11", "--q": "0:1:11"}
VERIFY_INSTANCES = 40  # per dimension, for the default dimensions 2, 3, 4
BOUNDS_DIMS = (4, 8, 16, 32)
INVARIANCE_DIM = 32
INVARIANCE_TRIALS = 4


def import_program():
    """Import ``skewchain.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "skewchain" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no skewchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skewchain.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "skewchain":
        raise SystemExit(f"perfbench: skewchain imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# seeded inputs: numpy PCG64 Gaussian states and Haar isometries, written in
# skewchain's JSON interchange format


def _rng(seed: int, *parts: int):
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *parts])))


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2 ** 0.5


def gaussian_state(rng, d: int):
    """Full-rank ``G G^dag / Tr(G G^dag)`` for a d-by-d complex Gaussian G."""
    g = _complex_gaussian(rng, (d, d))
    m = g @ g.conj().T
    m /= m.trace().real
    return (m + m.conj().T) / 2.0


def haar_kraus(rng, d: int, n: int) -> list:
    """Blocks of a Haar (n*d)-by-d isometry: a column-sum Kraus family."""
    import numpy as np

    q, r = np.linalg.qr(_complex_gaussian(rng, (n * d, d)))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return [q[i * d:(i + 1) * d, :] for i in range(n)]


def _pairs(m) -> list:
    import numpy as np

    return np.stack([m.real, m.imag], axis=-1).tolist()


def write_instance(inputs: Path, prefix: str, rng, d: int, n1: int, n2: int) -> None:
    docs = {
        "state": {"dim": d, "matrix": _pairs(gaussian_state(rng, d))},
        "ch1": {"dim": d, "kraus": [_pairs(k) for k in haar_kraus(rng, d, n1)],
                "convention": "column_sum"},
        "ch2": {"dim": d, "kraus": [_pairs(k) for k in haar_kraus(rng, d, n2)],
                "convention": "column_sum"},
    }
    for role, doc in docs.items():
        (inputs / f"{prefix}_{role}.json").write_text(json.dumps(doc, indent=1) + "\n")


def _instance_argv(inputs: Path, prefix: str) -> list:
    return ["--state", str(inputs / f"{prefix}_state.json"),
            "--channel1", str(inputs / f"{prefix}_ch1.json"),
            "--channel2", str(inputs / f"{prefix}_ch2.json")]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the files it writes, and its gate check."""

    label: str
    argv: tuple
    outputs: tuple
    check: Callable  # (exit code) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    items: int                      # work items of one run, for items_per_s
    make_inputs: Callable           # (inputs dir, seed) -> None
    calls: Callable                 # (inputs dir, out dir, seed) -> [Call]


def _no_inputs(inputs: Path, seed: int) -> None:
    pass


def _example_calls(inputs, out, seed):
    target = out / "example"
    grids = [arg for pair in EXAMPLE_GRIDS.items() for arg in pair]
    return [Call("example", ("example", *grids, "--out", str(target)),
                 tuple(target / name for name in gate.EXAMPLE_FILES),
                 lambda code: gate.check_example(code, target))]


def _verify_calls(inputs, out, seed):
    verdict = out / "verdict.txt"
    argv = ("verify", "--seed", str(seed), "--instances", str(VERIFY_INSTANCES),
            "--out", str(verdict))
    return [Call("verify", argv, (verdict,),
                 lambda code: gate.check_verify(code, verdict, seed))]


def _bounds_inputs(inputs, seed):
    for d in BOUNDS_DIMS:
        n = min(d, 16)
        write_instance(inputs, f"d{d}", _rng(seed, 1, d), d, n, n)


def _bounds_calls(inputs, out, seed):
    calls = []
    for d in BOUNDS_DIMS:
        report = out / f"d{d}.txt"
        argv = ("bounds", *_instance_argv(inputs, f"d{d}"), "--out", str(report))
        calls.append(Call(f"d{d}", argv, (report, report.with_suffix(".csv")),
                          lambda code, report=report, d=d: gate.check_bounds(code, report,
                                                                             seed, d)))
    return calls


def _invariance_inputs(inputs, seed):
    d = INVARIANCE_DIM
    write_instance(inputs, "wide", _rng(seed, 2, d), d, d, d)


def _invariance_calls(inputs, out, seed):
    report = out / "invariance.txt"
    argv = ("invariance", *_instance_argv(inputs, "wide"),
            "--trials", str(INVARIANCE_TRIALS), "--out", str(report))
    return [Call("invariance", argv, (report,),
                 lambda code: gate.check_invariance(code, report, seed))]


WORKLOADS = {w.name: w for w in (
    Workload("example-small", 11 * 11 + 21, _no_inputs, _example_calls),
    Workload("verify-small", 3 * VERIFY_INSTANCES, _no_inputs, _verify_calls),
    Workload("bounds-ladder", len(BOUNDS_DIMS), _bounds_inputs, _bounds_calls),
    Workload("invariance-wide", INVARIANCE_TRIALS, _invariance_inputs, _invariance_calls),
)}


def make_inputs(name: str, inputs: Path, seed: int) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].make_inputs(inputs, seed)


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunResult:
    calls: list
    codes: list = field(default_factory=list)
    call_s: list = field(default_factory=list)    # cli.main time of each call
    problems: dict = field(default_factory=dict)  # call label -> problems
    digests: dict = field(default_factory=dict)   # "label/file" -> sha256

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def run_once(cli, workload: Workload, seed: int, inputs: Path, out: Path,
             check: bool = True, after_call: Callable = None) -> RunResult:
    """Run every call of ``workload`` through ``cli.main``, then gate the outputs.

    Only the ``cli.main`` calls are timed; ``after_call``, when given, runs
    untimed after each of them.  ``cli.main`` is looked up per call
    so that a tracer's wrapper, when installed, is the one called.
    """
    out.mkdir(parents=True, exist_ok=True)
    result = RunResult(calls=workload.calls(inputs, out, seed))
    errors = {}
    for call in result.calls:
        start = perf_counter()
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            errors[call.label] = traceback.format_exc()
        result.call_s.append(perf_counter() - start)
        result.codes.append(code)
        if after_call is not None:
            after_call()
    for call, code in zip(result.calls, result.codes):
        problems = []
        if call.label in errors:
            problems.append("traceback: " + errors[call.label].strip().splitlines()[-1])
        elif check:
            problems += call.check(code)
        result.problems[call.label] = problems
        for path in call.outputs:
            if path.is_file():
                key = f"{call.label}/{path.name}"
                result.digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result
