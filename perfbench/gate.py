"""Golden-output gate: the byte-identity check for the benchmark workloads.

At the default seed the example CSVs and the verify verdict must match the
stored goldens byte for byte, and the bounds reports must match their golden
values within 1e-10 (the permutation optimum may only rise).  At any seed
every invocation must exit 0 with all hard checks passing.

Run on its own from the repository root, it runs each workload once at the
default seed and checks it; ``--regen`` rewrites the goldens instead:

    python3 perfbench/gate.py [--workload NAME ...] [--regen]
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
VALUE_TOL = 1e-10

EXAMPLE_FILES = ("figure1.csv", "figure2.csv", "figure3.csv", "figure4.csv",
                 "discrepancy_report.csv")
# The verdict's gating checks (skewchain.chains.HARD_CHECK_NAMES), fixed here
# so that the gate does not depend on the code it judges.
HARD_CHECKS = ("product_ge_cross_term", "product_ge_i1", "i_monotone",
               "i_endpoint_eq_cross_term", "mixed_le_product", "mixed_ge_cross_term",
               "opt_ge_identity")


def report_lines(path) -> list:
    """``key = value`` lines of a skewchain report as (key, value) strings."""
    out = []
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out.append((key, value))
    return out


def _exit_problem(code) -> list:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def _first_difference(actual: bytes, expected: bytes) -> str:
    a_lines = actual.split(b"\n")
    e_lines = expected.split(b"\n")
    for n, (a, e) in enumerate(zip(a_lines, e_lines), start=1):
        if a != e:
            return f"line {n}: {a[:120]!r} != golden {e[:120]!r}"
    return f"{len(a_lines)} lines != golden {len(e_lines)} lines"


# ---------------------------------------------------------------------------
# checks, one per workload kind; each returns a list of problems


def check_example(code, out_dir, seed=DEFAULT_SEED) -> list:
    problems = _exit_problem(code)
    manifest = json.loads((GOLDEN / "example-small.json").read_text())
    for name in EXAMPLE_FILES:
        path = Path(out_dir) / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        actual = path.read_bytes()
        digest = hashlib.sha256(actual).hexdigest()
        if digest != manifest[name]:
            expected = gzip.decompress((GOLDEN / "blobs" / f"{manifest[name]}.gz").read_bytes())
            problems.append(f"{name}: differs from golden, {_first_difference(actual, expected)}")
    return problems


def check_verify(code, verdict_path, seed) -> list:
    problems = _exit_problem(code)
    path = Path(verdict_path)
    if not path.is_file():
        return problems + ["verdict missing"]
    if ("hard_passed", "True") not in report_lines(path):
        problems.append("verdict does not report hard_passed = True")
    if seed == DEFAULT_SEED:
        expected = (GOLDEN / "verify-small.txt").read_bytes()
        actual = path.read_bytes()
        if actual != expected:
            problems.append(f"verdict differs from golden, {_first_difference(actual, expected)}")
    return problems


def _golden_bounds_keys(key: str) -> bool:
    return key in ("product", "sum", "lemma1") or (key[:1] in "IS" and key[1:].isdigit())


def check_bounds(code, report_path, seed, dim) -> list:
    problems = _exit_problem(code)
    path = Path(report_path)
    if not path.is_file():
        return problems + ["report missing"]
    lines = report_lines(path)
    seen = set()
    for key, value in lines:
        name = key[len("check."):-len(".passed")] if key.startswith("check.") else None
        if key.endswith(".passed") and name in HARD_CHECKS:
            seen.add(name)
            if value != "True":
                problems.append(f"hard check {name} failed")
    problems += [f"hard check {name} missing" for name in HARD_CHECKS if name not in seen]
    if seed == DEFAULT_SEED:
        golden = json.loads((GOLDEN / "bounds-ladder.json").read_text())[str(dim)]
        values = dict(lines)
        for key, expected in golden.items():
            if key not in values:
                problems.append(f"{key} missing")
                continue
            actual = float(values[key])
            if key == "perm_opt.value":
                if actual < expected - VALUE_TOL:
                    problems.append(f"perm_opt.value {actual!r} below golden {expected!r}")
            elif abs(actual - expected) > VALUE_TOL:
                problems.append(f"{key} = {actual!r}, golden {expected!r}")
    return problems


def check_invariance(code, report_path, seed) -> list:
    problems = _exit_problem(code)
    path = Path(report_path)
    if not path.is_file():
        return problems + ["report missing"]
    if ("passed", "True") not in report_lines(path):
        problems.append("report does not say passed = True")
    return problems


# ---------------------------------------------------------------------------
# regeneration


def regenerate(workload: str, calls) -> None:
    """Store the outputs of ``calls`` (a default-seed run) as the goldens."""
    GOLDEN.mkdir(exist_ok=True)
    if workload == "example-small":
        out_dir = Path(calls[0].outputs[0]).parent
        manifest = {}
        (GOLDEN / "blobs").mkdir(exist_ok=True)
        for name in EXAMPLE_FILES:
            data = (out_dir / name).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            manifest[name] = digest
            (GOLDEN / "blobs" / f"{digest}.gz").write_bytes(gzip.compress(data, 9, mtime=0))
        (GOLDEN / "example-small.json").write_text(json.dumps(manifest, indent=1) + "\n")
    elif workload == "verify-small":
        (GOLDEN / "verify-small.txt").write_bytes(Path(calls[0].outputs[0]).read_bytes())
    elif workload == "bounds-ladder":
        golden = {}
        for call in calls:
            values = dict(report_lines(call.outputs[0]))
            golden[call.label[1:]] = {k: float(v) for k, v in values.items()
                                      if _golden_bounds_keys(k) or k == "perm_opt.value"}
        (GOLDEN / "bounds-ladder.json").write_text(json.dumps(golden, indent=1) + "\n")


def main(argv=None) -> int:
    import tempfile

    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--regen", action="store_true", help="rewrite the goldens")
    args = parser.parse_args(argv)
    cli = workloads.import_program()
    failed = 0
    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench_gate_") as tmp:
        for name in args.workload or sorted(workloads.WORKLOADS):
            work = Path(tmp) / name
            workloads.make_inputs(name, work / "inputs", DEFAULT_SEED)
            run = workloads.run_once(cli, workloads.WORKLOADS[name], DEFAULT_SEED,
                                     work / "inputs", work / "out", check=not args.regen)
            if args.regen:
                if any(code != 0 for code in run.codes):
                    print(f"{name}: exit codes {run.codes}, goldens not written")
                    failed += 1
                    continue
                regenerate(name, run.calls)
                print(f"{name}: goldens written")
                continue
            for label, problems in run.problems.items():
                for problem in problems:
                    print(f"{name} {label}: {problem}")
            failed += run.failed
            print(f"{name}: {'FAIL' if run.failed else 'ok'} "
                  f"({run.failed}/{len(run.calls)} invocations failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
