"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The random suite (criteria 3, 4, 7) shares one seeded
instance set: 200 instances per dimension d in {2, 3, 4} with column-sum
channels of 1 to 4 Kraus operators.
"""

import math
import time

import numpy as np
import pytest

from skewchain.chains import (
    Reading,
    compute_chain,
    kraus_invariance_check,
    lattice_order,
    mixed_bound,
    optimize_permutations,
    verify_chain,
)
from skewchain.cli import main
from skewchain.example import (
    closed_forms,
    discrepancy_report,
    example_channels,
    rho_theta,
    write_discrepancy_csv,
)
from skewchain.objects import Convention, derive_seed, random_channel, random_density

SUITE_SEED = 42
INSTANCES_PER_DIM = 200
DIMS = (2, 3, 4)

_cache = {}


def _criterion(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def suite_instances():
    """The shared random suite, built once."""
    if "instances" not in _cache:
        instances = []
        for d in DIMS:
            for k in range(INSTANCES_PER_DIM):
                rho = random_density(d, (k % d) + 1, derive_seed(SUITE_SEED, d, k, 0))
                n1 = (k % 4) + 1
                n2 = ((k // 4) % 4) + 1
                ch1 = random_channel(d, n1, Convention.COLUMN_SUM,
                                     derive_seed(SUITE_SEED, d, k, 1))
                ch2 = random_channel(d, n2, Convention.COLUMN_SUM,
                                     derive_seed(SUITE_SEED, d, k, 2))
                instances.append((rho, ch1, ch2))
        _cache["instances"] = instances
    return _cache["instances"]


def suite_chains():
    if "chains" not in _cache:
        _cache["chains"] = [(inst, compute_chain(*inst, Reading.PRODUCT))
                            for inst in suite_instances()]
    return _cache["chains"]


def test_criterion_1_worked_example_golden_values():
    start = time.perf_counter()
    rho = rho_theta(1.0)
    n1, n2 = example_channels(0.5, 0.5)
    chain = compute_chain(rho, n1, n2)

    # analytic block-diagonalization oracle for this family
    w2 = (1.0 - 2.0 * math.sqrt(1.0 * 0.0)) ** 2
    skew1 = (1.0 - math.sqrt(0.5)) * (1.0 - 2.0 * math.sqrt(0.0)) / 2.0
    product = (1.0 - math.sqrt(0.5)) ** 2 * w2 / 4.0
    cross = (1.0 - math.sqrt(0.5)) ** 3 * w2 / 8.0

    half1 = 0.5 * chain.sum  # both channel skew informations coincide here
    errs = [abs(chain.product - 0.02144661), abs(chain.cross_term - 0.00314078),
            abs(half1 - 0.14644661),
            abs(chain.product - product), abs(chain.cross_term - cross),
            abs(half1 - skew1)]
    elapsed = time.perf_counter() - start
    ok = max(errs) <= 1e-8 and elapsed < 1.0
    _criterion("criterion 1 worked-example golden values", ok,
               f"max |dev| = {max(errs):.2e}, elapsed = {elapsed:.3f}s")


def test_criterion_2_closed_form_surfaces():
    start = time.perf_counter()
    worst_product = 0.0
    worst_cross = 0.0
    grid = [float(v) for v in np.linspace(0.0, 1.0, 51)]
    for p in grid:
        for q in grid:
            chain = compute_chain(rho_theta(1.0), *example_channels(p, q))
            forms = closed_forms(1.0, p, q)
            worst_product = max(worst_product, abs(chain.product - forms.eq20))
            worst_cross = max(worst_cross, abs(chain.cross_term - forms.eq22))
    n1, n2 = example_channels(0.5, 0.5)
    for theta in np.linspace(0.0, 1.0, 101):
        chain = compute_chain(rho_theta(float(theta)), n1, n2)
        forms = closed_forms(float(theta), 0.5, 0.5)
        worst_product = max(worst_product, abs(chain.product - forms.eq20))
        worst_cross = max(worst_cross, abs(chain.cross_term - forms.eq22))
    elapsed = time.perf_counter() - start
    ok = worst_product <= 1e-9 and worst_cross <= 1e-9 and elapsed < 30.0
    _criterion("criterion 2 closed-form surfaces", ok,
               f"worst product dev = {worst_product:.2e}, worst cross-term dev = "
               f"{worst_cross:.2e}, elapsed = {elapsed:.1f}s")


def test_criterion_3_refinement_chain_order():
    start = time.perf_counter()
    violations = 0
    worst_gap = 0.0
    worst_endpoint = 0.0
    for (rho, ch1, ch2), chain in suite_chains():
        seq = [chain.product, *chain.i_values]
        for a, b in zip(seq, seq[1:]):
            if b > a + 1e-10:
                violations += 1
            worst_gap = max(worst_gap, b - a)
        endpoint_dev = abs(chain.i_values[-1] - chain.cross_term)
        worst_endpoint = max(worst_endpoint, endpoint_dev)
        if endpoint_dev > 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _criterion("criterion 3 refinement chain order", ok,
               f"{len(suite_chains())} instances, violations = {violations}, worst "
               f"monotonicity gap = {worst_gap:.2e}, worst endpoint dev = "
               f"{worst_endpoint:.2e}, elapsed = {elapsed:.1f}s")


def test_criterion_4_sum_form_transfer():
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    for (rho, ch1, ch2), chain in suite_chains():
        for v in chain.i_values:
            gap = 2.0 * math.sqrt(max(v, 0.0)) - chain.sum
            worst = max(worst, gap)
            if gap > 1e-10:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _criterion("criterion 4 sum-form transfer", ok,
               f"violations = {violations}, worst gap = {worst:.2e}, "
               f"elapsed = {elapsed:.1f}s")


def test_criterion_5_representation_invariance():
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        d = DIMS[k % len(DIMS)]
        rho = random_density(d, d, derive_seed(SUITE_SEED, 5, k, 0))
        ch1 = random_channel(d, (k % 4) + 1, Convention.COLUMN_SUM,
                             derive_seed(SUITE_SEED, 5, k, 1))
        ch2 = random_channel(d, ((k + 2) % 4) + 1, Convention.COLUMN_SUM,
                             derive_seed(SUITE_SEED, 5, k, 2))
        report = kraus_invariance_check(rho, ch1, ch2, trials=10,
                                        seed=derive_seed(SUITE_SEED, 5, k, 3), tol=1e-10)
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _criterion("criterion 5 representation invariance", ok,
               f"50 instances x 10 mixings, max deviation = {worst:.2e}, "
               f"elapsed = {elapsed:.1f}s")


def test_criterion_6_mixed_bound_sandwich():
    start = time.perf_counter()
    rho = rho_theta(1.0)
    n1, n2 = example_channels(0.5, 0.5)
    chain = compute_chain(rho, n1, n2)
    ok = True
    details = []
    best = optimize_permutations(rho, n1, n2)  # exact: d^2 = 16 label pairs at (2, 1)
    # the product-reading lattice is non-increasing, so the optimum is at
    # least every identity value, not only S21's
    for (p, q) in lattice_order(4):
        if best.value < chain.s_values[(p, q)] - 1e-12:
            ok = False
            details.append(f"optimum below identity at ({p},{q})")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        prod_bound, _ = mixed_bound(chain, best, t)
        if not (chain.cross_term - 1e-10 <= prod_bound <= chain.product + 1e-10):
            ok = False
            details.append(f"sandwich broken at t={t}")
    elapsed = time.perf_counter() - start
    _criterion("criterion 6 mixed-bound sandwich", ok,
               f"(2, 1) optimum against 6 lattice positions x 5 weights, "
               f"{'; '.join(details) if details else 'all inside'}, "
               f"elapsed = {elapsed:.2f}s")


def test_criterion_7_reading_adjudication_report():
    start = time.perf_counter()
    worst = {"product": {}, "as_printed": {}}
    counted = 0
    for (rho, ch1, ch2), _ in suite_chains():
        verdict = verify_chain(rho, ch1, ch2, tol=1e-10)
        counted += 1
        for check in verdict.checks:
            for label in worst:
                if check.name.endswith(f"[{label}]") and check.name.startswith("anchor"):
                    key = check.name.split("[")[0]
                    worst[label][key] = max(worst[label].get(key, 0.0), check.deviation)
    have_both = all(worst[label] for label in worst)
    endpoint = {label: worst[label].get("anchor_endpoint_eq_cross_term", float("inf"))
                for label in worst}
    anchored = min(endpoint.values()) <= 1e-10
    matching = [label for label in worst
                if all(v <= 1e-10 for v in worst[label].values())]
    elapsed = time.perf_counter() - start
    ok = have_both and anchored
    _criterion("criterion 7 reading adjudication report", ok,
               f"{counted} instances; endpoint anchor worst dev per reading = "
               + ", ".join(f"{k}: {v:.2e}" for k, v in sorted(endpoint.items()))
               + f"; readings matching every anchor at 1e-10: {matching or 'none'}"
               + f"; elapsed = {elapsed:.1f}s")


def test_criterion_8_discrepancy_report_completeness(tmp_path):
    start = time.perf_counter()
    grid = [(t, p, q) for t in np.linspace(0, 1, 5) for p in np.linspace(0, 1, 5)
            for q in np.linspace(0, 1, 5)]
    report = discrepancy_report(grid)
    ratio_documented = report.fitted_ratios.get("eq21") is not None
    ratio_value = report.fitted_ratios.get("eq21", float("nan"))
    ratio_is_two = abs(ratio_value - 2.0) <= 1e-9
    path = tmp_path / "discrepancy_report.csv"
    write_discrepancy_csv(report, path)
    header, *lines = path.read_text().splitlines()
    header = header.split(",")
    has_ratio_column = "ratio" in header and "fitted_ratio" in header
    # one line per point and formula, from one (points, 6) column per field
    formulas = {line.split(",")[0] for line in lines}
    complete = (formulas == {"eq20", "eq21", "eq22", "eq23", "eq24", "eq25"}
                and len(lines) == 6 * len(grid) and report.numeric.shape == (len(grid), 6))
    elapsed = time.perf_counter() - start
    ok = complete and ratio_documented and ratio_is_two and has_ratio_column
    _criterion("criterion 8 discrepancy report completeness", ok,
               f"formulas = {sorted(formulas)}, eq21 measured ratio = {ratio_value!r}, "
               f"ratio columns present = {has_ratio_column}, elapsed = {elapsed:.1f}s")


def test_criterion_9_verify_determinism(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    argv = ["verify", "--dims", "2,3,4", "--instances", "10", "--seed", "42"]
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    ok = identical and code1 == 0 and code2 == 0
    _criterion("criterion 9 verify determinism", ok,
               f"exit codes = ({code1}, {code2}), byte-identical = {identical}, "
               f"elapsed = {elapsed:.1f}s")
