"""Command-line entry point.

Subcommands
-----------
bounds      chain values, permutation optimum and mixed bounds for supplied
            state/channel files; writes a key-value report plus a CSV row.
verify      randomized property suite over seeded instances; writes a
            deterministic verdict file (byte-identical for identical config).
example     regenerates the worked example's figure data CSVs plus the
            closed-form discrepancy report.
invariance  re-runs all bounds under random Kraus mixings of both channels
            and reports the worst deviation.

Exit codes: 0 success; 1 verdict failure (verify/example/invariance only);
2 configuration or input validation failure; 3 internal numerical failure
(bounds only).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .chains import (
    CHUNK_ENTRIES,
    HARD_CHECK_NAMES,
    Reading,
    Strategy,
    chain_at,
    chain_stage,
    invariance_columns,
    join_stages,
    kraus_invariance_check,
    lattice_order,
    mixed_bound,
    optimize_batch,
    search_strategy,
    trial_entropies,
    verdict_columns,
)
from .errors import BudgetError, SkewchainError
from .example import discrepancy_report, sweep, write_discrepancy_csv, write_sweep_csv
from .linalg import first_max
from .objects import (
    channels_from_words,
    densities_from_words,
    derive_seeds,
    generators,
    generators_from_words,
    mix_kraus_families,
    seeding_words,
    unitaries_from_words,
)
from .serialize import load_channel, load_state, write_text_atomic


class ConfigError(Exception):
    pass


def parse_grid(spec: str) -> list:
    """Parse ``start:stop:count`` (or a bare value) into a [0, 1] grid."""
    try:
        if ":" in spec:
            start_s, stop_s, count_s = spec.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        else:
            start = stop = float(spec)
            count = 1
    except Exception as exc:
        raise ConfigError(f"bad grid spec {spec!r}: expected start:stop:count") from exc
    if count < 1:
        raise ConfigError(f"grid {spec!r}: count must be >= 1")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ConfigError(f"grid {spec!r}: bounds must lie within [0, 1]")
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_report(path, pairs) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in pairs]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _strategy(args):
    return None if args.perm == "auto" else Strategy(args.perm)


def _load_instance(args, tol: float) -> tuple:
    """The state and the two channels of ``--state``, ``--channel1`` and
    ``--channel2``, loaded at ``tol``; an unreadable, malformed or mismatched
    input is a ConfigError."""
    try:
        rho, ch1, ch2 = (load_state(args.state, tol=tol), load_channel(args.channel1, tol=tol),
                         load_channel(args.channel2, tol=tol))
    except (SkewchainError, OSError, ValueError) as exc:
        raise ConfigError(f"input rejected: {exc}") from exc
    if ch1.dim != rho.dim or ch2.dim != rho.dim:
        raise ConfigError(f"input rejected: state dim {rho.dim} vs channel dims "
                          f"{ch1.dim}, {ch2.dim}")
    return rho, ch1, ch2


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    try:
        if Path(args.out).suffix == ".csv":  # the CSV row would overwrite the report
            raise ConfigError(f"--out {args.out!r} ends in .csv, the suffix of the CSV "
                              "written next to the report; give the report another suffix")
        rho, ch1, ch2 = _load_instance(args, args.tol)
        t_grid = parse_grid(args.t)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        reading = Reading(args.s_reading)
        stage = chain_stage(rho.sqrt_rho[None], ch1.operators[None], ch2.operators[None])
        chain = chain_at(stage, 0, reading)
        d = chain.dim
        best = None
        if d >= 2:
            best = optimize_batch(stage, 2, 1, _strategy(args), args.budget, args.seed,
                                  reading)[0]
        verdict = verdict_columns(stage, args.tol, args.budget,
                                  functools.partial(generators, [args.seed]))
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewchainError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3

    i_names = [f"I{m}" for m in range(1, d + 1)]
    s_names = [f"S{pp}{qq}" for (pp, qq) in lattice_order(d)]
    s_values = list(chain.s_values.values())  # in lattice_order
    mixed = [mixed_bound(chain, best, t) if best is not None else (chain.product, chain.sum)
             for t in t_grid]
    pairs = [("command", "bounds"), ("dim", d), ("s_reading", reading.value),
             ("product", chain.product), ("sum", chain.sum),
             ("lemma1", chain.cross_term)]
    pairs += zip(i_names, chain.i_values)
    pairs += zip(s_names, s_values)
    if best is not None:
        pairs.append(("perm_opt.p", best.p))
        pairs.append(("perm_opt.q", best.q))
        pairs.append(("perm_opt.value", best.value))
        pairs.append(("perm_opt.sigma", ",".join(str(i) for i in best.sigma)))
        pairs.append(("perm_opt.tau", ",".join(str(i) for i in best.tau)))
        for t, (mp, ms) in zip(t_grid, mixed):
            pairs.append((f"mixed_product[t={_fmt(t)}]", mp))
            pairs.append((f"mixed_sum[t={_fmt(t)}]", ms))
    # row 0 as Python bools and floats, whose reprs the report prints
    for name, passed, deviation in zip(verdict.names, verdict.passed[0].tolist(),
                                       verdict.deviation[0].tolist()):
        pairs.append((f"check.{name}.passed", passed))
        pairs.append((f"check.{name}.deviation", deviation))
    _write_report(args.out, pairs)

    header = ["t", "product", "sum", *i_names, *s_names,
              "lemma1", "perm_opt", "mixed_product", "mixed_sum"]
    lines = [",".join(header)]
    for t, (mp, ms) in zip(t_grid, mixed):
        fields = [t, chain.product, chain.sum, *chain.i_values, *s_values, chain.cross_term,
                  best.value if best is not None else float("nan"), mp, ms]
        lines.append(",".join(format(float(v) + 0.0, ".12g") for v in fields))
    write_text_atomic(Path(args.out).with_suffix(".csv"), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


# Instances per stacked chain pass.  ``verify`` takes each dimension's
# instances in chunks of ``_BLOCK // 2``, so that one pass holds at most a
# chunk's instances and their invariance trials.  Above d = 16 a chunk is cut
# to ``CHUNK_ENTRIES`` matrix entries per stack of states.
_BLOCK = 128


def _verify_chunk(d: int, ks, args) -> tuple:
    """The ``VerdictColumns`` of the instances k of ``ks`` at dimension d, and
    each one's invariance deviation, in the order of ``ks`` (which ascend).

    Each instance draws from its own derived seeds and generators, as it
    would alone.  The chunk hashes them in three passes, one per derivation
    level: the derived seeds; then the trials' unitary seeds together with
    the seeding words of every state and channel, and of every search seed
    when the (2, 1) search samples; then the words of the trials' mixing
    unitaries.  The states are generated and validated as one
    stack, the channels and the trials' mixing unitaries as one stack per
    Kraus count.  The states' square roots are stacked once, and so are each
    Kraus count's channels and mixed families; each (n1, n2) group's
    instances and their mixed trials are indexed from those stacks into one
    ``chain_stage`` pass, which the verdict and the invariance deviations
    read.
    """
    ks = list(ks)
    count = len(ks)
    derived = derive_seeds([(args.seed, d, k, part) for k in ks for part in range(5)])
    # the verdict searches at (2, 1) from d = 2 on
    sampled = d >= 2 and search_strategy(d, 2, 1, None, args.budget) == Strategy.SAMPLED
    # rows 2i and 2i + 1 derive instance i's trial seeds u and v; then come
    # the words of the states, of the channels 1, of the channels 2 and, when
    # the search samples, of the search seeds
    words = seeding_words(trial_entropies(derived[4::5], 1)
                          + [(seed,) for part in range(4 if sampled else 3)
                             for seed in derived[part::5]])
    trial_words = seeding_words([(seed,) for seed in words[:2 * count, 0].tolist()])
    _, roots = densities_from_words(d, [(k % d) + 1 for k in ks], words[2 * count:3 * count])
    counts = [(min((k % 4) + 1, d * d), min(((k // 4) % 4) + 1, d * d)) for k in ks]
    by_count = {}  # Kraus count -> the (i, side) of each family with that count
    for i, pair in enumerate(counts):
        for side in (0, 1):
            by_count.setdefault(pair[side], []).append((i, side))
    # Kraus count -> its channels, then their mixed families, as one stack;
    # (i, side) -> the rows of that family's channel and mixed family there
    kraus, rows = {}, {}
    for n, families in by_count.items():
        chs = channels_from_words(d, n, words[[(3 + side) * count + i for i, side in families]])
        us = unitaries_from_words(n, trial_words[[2 * i + side for i, side in families]])
        kraus[n] = np.concatenate([chs, mix_kraus_families(chs, us)])
        rows.update((family, (r, r + len(families))) for r, family in enumerate(families))
    groups = {}
    for i, pair in enumerate(counts):
        groups.setdefault(pair, []).append(i)
    stages, base, trial = [], [], []  # stacked rows of each instance, and of its trial
    for pair, group in groups.items():
        offset = 2 * len(base)
        base += [offset + j for j in range(len(group))]
        trial += [offset + len(group) + j for j in range(len(group))]
        # the group's instances, then their trials
        ops = [kraus[n][[rows[i, side][mixed] for mixed in (0, 1) for i in group]]
               for side, n in enumerate(pair)]
        stages.append(chain_stage(roots[group * 2], *ops))
    order = np.argsort([i for group in groups.values() for i in group])
    base, trial = np.array(base)[order], np.array(trial)[order]
    deviations = invariance_columns(join_stages(stages, np.concatenate([base, trial])), count)
    search = functools.partial(generators_from_words, words[5 * count:])
    return (verdict_columns(join_stages(stages, base), args.tol, args.budget, search),
            first_max(deviations))


def cmd_verify(args) -> int:
    try:
        try:
            dims = [int(v) for v in args.dims.split(",") if v.strip()]
        except ValueError:
            dims = []
        if not dims or any(d < 1 for d in dims):
            raise ConfigError(f"bad dims list {args.dims!r}")
        if args.instances < 1:
            raise ConfigError("instances must be >= 1")
        if args.perm != "auto" or args.s_reading is not None:
            raise ConfigError("verify always searches with --perm auto and reports both "
                              "S-lattice readings; drop --perm and --s-reading")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def worst(start: float, deviations: np.ndarray) -> float:
        """Python's ``max`` of ``start`` and the deviations, in order."""
        return float(first_max(np.concatenate([[start], deviations])))

    stats: dict = {}  # check name -> [count, failures, worst deviation]
    invariance_worst = 0.0
    total = 0
    for d in dims:
        chunk = max(1, min(_BLOCK // 2, CHUNK_ENTRIES // (d * d)))
        for start in range(0, args.instances, chunk):
            ks = range(start, min(start + chunk, args.instances))
            columns, deviations = _verify_chunk(d, ks, args)
            for name, (passed, deviation) in columns.by_name().items():
                entry = stats.setdefault(name, [0, 0, 0.0])
                entry[0] += passed.size
                entry[1] += passed.size - int(np.count_nonzero(passed))
                entry[2] = worst(entry[2], deviation)
            invariance_worst = worst(invariance_worst, deviations)
            total += len(ks)

    hard_failures = sum(stats[name][1] for name in stats if name in HARD_CHECK_NAMES)
    if invariance_worst > args.tol:
        hard_failures += 1

    pairs = [("command", "verify"), ("dims", args.dims), ("instances_per_dim", args.instances),
             ("seed", args.seed), ("tol", args.tol), ("budget", args.budget),
             ("instances_total", total)]
    for name in sorted(stats):
        count, failures, worst = stats[name]
        kind = "hard" if name in HARD_CHECK_NAMES else "soft"
        pairs.append((f"check.{name}.kind", kind))
        pairs.append((f"check.{name}.count", count))
        pairs.append((f"check.{name}.failures", failures))
        pairs.append((f"check.{name}.worst_deviation", worst))
    pairs.append(("invariance.kind", "hard"))
    pairs.append(("invariance.max_deviation", invariance_worst))
    pairs.append(("hard_failures", hard_failures))
    pairs.append(("hard_passed", hard_failures == 0))
    _write_report(args.out, pairs)
    return 0 if hard_failures == 0 else 1


# ---------------------------------------------------------------------------
# example


def _subsample(grid, limit: int = 9) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if len(grid) <= limit:
        return grid
    return grid[np.linspace(0, len(grid) - 1, limit).round().astype(int)]


def cmd_example(args) -> int:
    try:
        theta_grid = parse_grid(args.theta)
        p_grid = parse_grid(args.p)
        q_grid = parse_grid(args.q)
        t_grid = parse_grid(args.t)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reading = Reading(args.s_reading)
    strategy = _strategy(args)

    try:
        # Surfaces at theta = 1 over (p, q): product view, sum view, optimized view.
        surface = sweep([1.0], p_grid, q_grid, t_grid, reading=reading,
                        strategy=strategy, budget=args.budget, seed=args.seed)
        # Curve over theta at p = q = 1/2.
        curve = sweep(theta_grid, [0.5], [0.5], t_grid, reading=reading,
                      strategy=strategy, budget=args.budget, seed=args.seed)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(surface, out_dir / "figure1.csv", out_dir / "figure2.csv",
                    out_dir / "figure4.csv")
    write_sweep_csv(curve, out_dir / "figure3.csv")

    # the subsampled grid's (theta, p, q) rows, theta-major
    axes = np.meshgrid(*map(_subsample, (theta_grid, p_grid, q_grid)), indexing="ij")
    report = discrepancy_report(np.stack(axes, axis=-1).reshape(-1, 3))
    write_discrepancy_csv(report, out_dir / "discrepancy_report.csv")

    failures = surface.hard_failures(args.tol) + curve.hard_failures(args.tol)
    if failures:
        print(f"error: {failures} hard invariant violations across sweep rows",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# invariance


def cmd_invariance(args) -> int:
    try:
        if args.trials < 1:
            raise ConfigError("trials must be >= 1")
        rho, ch1, ch2 = _load_instance(args, 1e-9)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = kraus_invariance_check(rho, ch1, ch2, args.trials, args.seed, args.tol)
    pairs = [("command", "invariance"), ("trials", args.trials), ("seed", args.seed),
             ("tol", args.tol)]
    for name in sorted(report.deviations):
        pairs.append((f"deviation.{name}", report.deviations[name]))
    pairs.append(("max_deviation", report.max_deviation))
    pairs.append(("passed", report.passed))
    _write_report(args.out, pairs)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewchain",
                                     description="Skew-information bound chains "
                                                 "for quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", required=True, help="output path")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(parser=sp)  # reports an unrecognized flag with its own usage

    def add_search(sp):
        add_common(sp)
        sp.add_argument("--s-reading", choices=[r.value for r in Reading],
                        default=Reading.PRODUCT.value)
        sp.add_argument("--perm", choices=["auto", "exhaustive", "sampled"], default="auto")
        sp.add_argument("--budget", type=int, default=14400)

    sp = sub.add_parser("bounds", help="bound chain for supplied state/channels")
    add_search(sp)
    sp.add_argument("--state", required=True)
    sp.add_argument("--channel1", required=True)
    sp.add_argument("--channel2", required=True)
    sp.add_argument("--t", default="1:1:1", help="mixing-weight grid start:stop:count")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="randomized certification suite")
    add_search(sp)
    sp.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    sp.add_argument("--instances", type=int, default=200, help="instances per dimension")
    sp.set_defaults(func=cmd_verify, s_reading=None)  # verify reports both readings

    sp = sub.add_parser("example", help="regenerate worked-example figure data")
    add_search(sp)
    sp.add_argument("--theta", default="0:1:101")
    sp.add_argument("--p", default="0:1:51")
    sp.add_argument("--q", default="0:1:51")
    sp.add_argument("--t", default="1:1:1")
    sp.set_defaults(func=cmd_example, tol=1e-9)  # sweep hard invariants hold at 1e-9

    sp = sub.add_parser("invariance", help="Kraus-mixing invariance check")
    add_common(sp)
    sp.add_argument("--state", required=True)
    sp.add_argument("--channel1", required=True)
    sp.add_argument("--channel2", required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(func=cmd_invariance)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if not math.isfinite(args.tol):
        print("error: tol must be finite", file=sys.stderr)
        return 2
    # tol = 0 stays legal for invariance (it then reports floating noise and
    # exits 1); every other command treats a non-positive tol as bad config.
    if args.command == "invariance":
        if args.tol < 0:
            print("error: tol must be >= 0", file=sys.stderr)
            return 2
    elif args.tol <= 0:
        print("error: tol must be > 0", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: seed must be >= 0", file=sys.stderr)
        return 2
    if args.command != "invariance" and args.budget < 0:
        print("error: budget must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:  # each command reads and checks its inputs itself
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
