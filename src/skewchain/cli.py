"""Command-line entry point.

Subcommands
-----------
bounds      chain values, permutation optimum and mixed bounds for supplied
            state/channel files; writes a key-value report plus a CSV row.
verify      randomized property suite over seeded instances; writes a
            deterministic verdict file (byte-identical for identical config).
example     regenerates the worked example's figure data CSVs plus the
            closed-form discrepancy report; its perm_opt is S21, unsearched.
invariance  re-runs all bounds under random Kraus mixings of both channels
            and reports the worst deviation.

Exit codes: 0 success; 1 verdict failure (verify/example/invariance only);
2 configuration or input validation failure.  The subcommands raise
``ConfigError`` or ``OSError`` for bad input; ``main`` is the one place that
reports them as one ``error:`` line and exit 2.
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
    chain_stage,
    compute_chain,
    invariance_columns,
    kraus_invariance_check,
    lattice_order,
    mixed_columns,
    optimize_batch,
    verdict_columns,
)
from .errors import SkewchainError
from .example import discrepancy_report, sweep, write_discrepancy_csv, write_sweep_csv
from .linalg import DEFAULT_TOL, first_max
from .objects import verify_instances
from .serialize import load_channel, load_state, write_text_atomic


class ConfigError(Exception):
    """Bad configuration or input; ``main`` reports it and exits 2."""


# The most rows a table may have: the |t| rows of ``bounds``, and the
# |p| |q| |t| rows of the surface and the |theta| |t| rows of the curve of
# ``example``.  Each table is held whole, with its CSV text: at the limit a
# 512 x 512 surface peaks at about 0.4 GB, and a curve of 2^18 thetas, each of
# which builds its own state, at about 0.8 GB.
_MAX_ROWS = 2 ** 18


def _grid_spec(spec: str) -> tuple:
    """``(start, stop, count)`` of ``start:stop:count`` (or a bare value),
    checked before any grid is built."""
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
    if count > _MAX_ROWS:
        raise ConfigError(f"grid {spec!r}: count must be <= {_MAX_ROWS}")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ConfigError(f"grid {spec!r}: bounds must lie within [0, 1]")
    return start, stop, count


def _grid(start: float, stop: float, count: int) -> list:
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def parse_grid(spec: str) -> list:
    """Parse ``start:stop:count`` (or a bare value) into a [0, 1] grid."""
    return _grid(*_grid_spec(spec))


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_report(path, pairs) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in pairs]
    write_text_atomic(path, "\n".join(lines) + "\n")


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
    if Path(args.out).suffix == ".csv":  # the CSV row would overwrite the report
        raise ConfigError(f"--out {args.out!r} ends in .csv, the suffix of the CSV "
                          "written next to the report; give the report another suffix")
    rho, ch1, ch2 = _load_instance(args, args.tol)
    t_grid = parse_grid(args.t)
    reading = Reading(args.s_reading)
    d = rho.dim
    stage = compute_chain(rho, ch1, ch2)
    # row 0 of the stage as Python floats, whose reprs the report prints
    product, total, cross = (x[0].item() for x in (stage.products, stage.sums, stage.cross_terms))
    i_values, s_values = stage.i_values[0].tolist(), stage.lattices[reading][0].tolist()
    if d >= 2:
        optima, ((sigma, tau),) = optimize_batch(stage, reading)
        best = optima[0].item()
        mixed_products, mixed_sums = mixed_columns(product, total, best, np.array(t_grid))
        mixed = list(zip(mixed_products.tolist(), mixed_sums.tolist()))
    else:  # no lattice, so no search and no mix
        optima, best, mixed = None, float("nan"), [(product, total)] * len(t_grid)
    # the verdict checks the product reading's optimum, which is best under that reading
    verdict = verdict_columns(stage, args.tol, optima if reading == Reading.PRODUCT else None)

    i_names = [f"I{m}" for m in range(1, d + 1)]
    s_names = [f"S{pp}{qq}" for (pp, qq) in lattice_order(d)]
    pairs = [("command", "bounds"), ("dim", d), ("s_reading", reading.value),
             ("product", product), ("sum", total), ("lemma1", cross)]
    pairs += zip(i_names, i_values)
    pairs += zip(s_names, s_values)
    if d >= 2:
        pairs.append(("perm_opt.p", 2))
        pairs.append(("perm_opt.q", 1))
        pairs.append(("perm_opt.value", best))
        pairs.append(("perm_opt.sigma", ",".join(str(i) for i in sigma)))
        pairs.append(("perm_opt.tau", ",".join(str(i) for i in tau)))
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
        fields = [t, product, total, *i_values, *s_values, cross, best, mp, ms]
        lines.append(",".join(format(float(v) + 0.0, ".12g") for v in fields))
    write_text_atomic(Path(args.out).with_suffix(".csv"), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


# Instances and invariance trials per chunk.  ``verify`` takes each
# dimension's instances in chunks of ``_BLOCK // 2``, so that a chunk's two
# stacked chain passes, its instances and then their trials, hold at most
# ``_BLOCK`` together, each family zero-padded to the chunk's largest Kraus
# count on its side.  Above d = 16 a
# chunk is cut to ``CHUNK_ENTRIES`` matrix entries per stack of states, and
# one instance's d x d state must fit in one chunk, so d is at most 128.
_BLOCK = 128
_MAX_DIM = math.isqrt(CHUNK_ENTRIES)

# Line 6 of every verdict, a fixed line that pinned verdicts hold; it configures nothing.
_BUDGET_LINE = ("budget", 14400)


def _verify_chunk(d: int, ks, args) -> tuple:
    """The ``VerdictColumns`` of the instances k of ``ks`` at dimension d, and
    each one's invariance deviation, in the order of ``ks`` (which ascend).

    The chunk is ``verify_instances`` and two ``chain_stage`` passes, the
    instances and their mixed trials; the verdict reads the first, the
    invariance deviations both.
    """
    roots, families, mixed_families, counts = verify_instances(args.seed, d, ks)
    base, mixed = (chain_stage(roots, *ops, counts) for ops in (families, mixed_families))
    return verdict_columns(base, args.tol), first_max(invariance_columns(base, [mixed]))


def cmd_verify(args) -> int:
    try:
        dims = [int(v) for v in args.dims.split(",") if v.strip()]
    except ValueError:
        dims = []
    if not dims or any(not 1 <= d <= _MAX_DIM for d in dims):  # before any allocation
        raise ConfigError(f"bad dims list {args.dims!r}: need integers in 1..{_MAX_DIM}")
    repeated = [d for k, d in enumerate(dims) if d in dims[:k]]
    if repeated:  # its instances would be certified once and counted twice
        raise ConfigError(f"bad dims list {args.dims!r}: dimension {repeated[0]} is repeated")
    if args.instances < 1:
        raise ConfigError("instances must be >= 1")

    def worst(start: float, deviations: np.ndarray) -> float:
        """Python's ``max`` of ``start`` and the deviations, in order."""
        return float(first_max(np.concatenate([[start], deviations])))

    stats: dict = {}  # check name -> [count, failures, worst deviation]
    invariance_worst = 0.0
    total = 0
    for d in dims:
        chunk = min(_BLOCK // 2, CHUNK_ENTRIES // (d * d))
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

    pairs = [("command", "verify"), ("dims", ",".join(map(str, dims))),
             ("instances_per_dim", args.instances),
             ("seed", args.seed), ("tol", args.tol), _BUDGET_LINE,
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


_SUBSAMPLE = 9  # grid points per axis of the discrepancy report


def _subsample(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if len(grid) <= _SUBSAMPLE:
        return grid
    return grid[np.linspace(0, len(grid) - 1, _SUBSAMPLE).round().astype(int)]


def cmd_example(args) -> int:
    specs = [_grid_spec(spec) for spec in (args.theta, args.p, args.q, args.t)]
    n_theta, n_p, n_q, n_t = (count for _, _, count in specs)
    for table, flags, rows in (("surface", "--p x --q x --t", n_p * n_q * n_t),
                               ("curve", "--theta x --t", n_theta * n_t)):
        if rows > _MAX_ROWS:
            raise ConfigError(f"the {table} would have {rows} rows ({flags}) > {_MAX_ROWS}")
    theta_grid, p_grid, q_grid, t_grid = (_grid(*spec) for spec in specs)
    reading = Reading(args.s_reading)

    # Surfaces at theta = 1 over (p, q): product view, sum view, optimized view.
    surface = sweep([1.0], p_grid, q_grid, t_grid, reading=reading)
    # Curve over theta at p = q = 1/2.
    curve = sweep(theta_grid, [0.5], [0.5], t_grid, reading=reading)
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


# The most trials ``invariance`` runs.  Each pass of trials is folded as it
# finishes, so memory does not grow with them; the bound caps the run's time.
_MAX_TRIALS = 2 ** 18


def cmd_invariance(args) -> int:
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    if args.trials > _MAX_TRIALS:  # before any allocation
        raise ConfigError(f"trials must be <= {_MAX_TRIALS}")
    rho, ch1, ch2 = _load_instance(args, DEFAULT_TOL)
    deviations = kraus_invariance_check(rho, ch1, ch2, args.trials, args.seed)
    # all() fails on a NaN wherever it sits; max() may skip one that is not first
    passed = all(v <= args.tol for v in deviations.values())
    pairs = [("command", "invariance"), ("trials", args.trials), ("seed", args.seed),
             ("tol", args.tol)]
    for name in sorted(deviations):
        pairs.append((f"deviation.{name}", deviations[name]))
    pairs.append(("max_deviation", max(deviations.values())))
    pairs.append(("passed", passed))
    _write_report(args.out, pairs)
    return 0 if passed else 1


# ---------------------------------------------------------------------------


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewchain",
                                     description="Skew-information bound chains "
                                                 "for quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", required=True, help="output path")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.set_defaults(parser=sp)  # reports an unrecognized flag with its own usage

    def add_reading(sp):
        add_common(sp)
        sp.add_argument("--s-reading", choices=[r.value for r in Reading],
                        default=Reading.PRODUCT.value)

    sp = sub.add_parser("bounds", help="bound chain for supplied state/channels")
    add_reading(sp)
    sp.add_argument("--state", required=True)
    sp.add_argument("--channel1", required=True)
    sp.add_argument("--channel2", required=True)
    sp.add_argument("--t", default="1:1:1", help="mixing-weight grid start:stop:count")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="randomized certification suite")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    sp.add_argument("--instances", type=int, default=200, help="instances per dimension")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example", help="regenerate worked-example figure data")
    add_reading(sp)
    sp.add_argument("--theta", default="0:1:101")
    sp.add_argument("--p", default="0:1:51")
    sp.add_argument("--q", default="0:1:51")
    sp.add_argument("--t", default="1:1:1")
    sp.set_defaults(func=cmd_example, tol=1e-9)  # sweep hard invariants hold at 1e-9

    sp = sub.add_parser("invariance", help="Kraus-mixing invariance check")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
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
    try:
        if not math.isfinite(args.tol):
            raise ConfigError("tol must be finite")
        # tol = 0 stays legal for invariance (it then reports floating noise and
        # exits 1); every other command treats a non-positive tol as bad config.
        if args.command == "invariance":
            if args.tol < 0:
                raise ConfigError("tol must be >= 0")
        elif args.tol <= 0:
            raise ConfigError("tol must be > 0")
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("seed must be >= 0")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed read arrives as ConfigError, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
