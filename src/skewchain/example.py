"""The built-in worked example: a 4-dimensional two-block state family and two
one-parameter Kraus families, with reference closed forms and grid sweeps.

The state ``rho(theta)`` is block diagonal with 2x2 blocks
``[[1, 2 theta - 1], [2 theta - 1, 1]] / 4``; at ``theta = 1/2`` it is
maximally mixed and every bound vanishes.  The two channels are diagonal
amplitude-damping-like families in parameters p and q, valid under the
row-sum completeness convention (the q-family violates column-sum).

``closed_forms`` evaluates the reference closed-form expressions for this
family exactly as tabulated (report columns eq20..eq25).  They are
comparison targets, not oracles: the numeric pipeline is ground truth, and
``discrepancy_report`` documents where print and pipeline disagree (the sum
expression eq21 runs at twice the pipeline sum, and eq24/eq25 follow neither
S-lattice reading).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    BoundChain,
    Reading,
    Strategy,
    chain_batch,
    chain_from_data,
    mixed_bound,
    optimize_batch,
)
from .objects import Convention, DensityMatrix, validate_channels, validate_densities
from .serialize import write_text_atomic

__all__ = [
    "CSV_HEADER",
    "ClosedForms",
    "DiscrepancyReport",
    "EXAMPLE_DIM",
    "ExampleParams",
    "SweepRow",
    "SweepTable",
    "closed_forms",
    "discrepancy_report",
    "example_channel_pairs",
    "example_channels",
    "rho_theta",
    "rho_thetas",
    "row_hard_failures",
    "sweep",
    "write_discrepancy_csv",
    "write_sweep_csv",
]

EXAMPLE_DIM = 4


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def rho_theta(theta: float) -> DensityMatrix:
    """The two-block state family; off-diagonal entries are ``2 theta - 1``."""
    return rho_thetas([theta])[0]


def rho_thetas(thetas) -> list:
    """``rho_theta`` of each theta, validated as one stack."""
    a = 2.0 * np.array([_check_unit("theta", theta) for theta in thetas]) - 1.0
    rho = np.zeros((len(a), 4, 4), dtype=complex)
    diag = np.arange(4)
    rho[:, diag, diag] = 1.0 / 4.0
    rho[:, 0, 1] = rho[:, 1, 0] = rho[:, 2, 3] = rho[:, 3, 2] = a / 4.0
    return validate_densities(rho, tol=1e-12)


def example_channels(p: float, q: float) -> tuple:
    """The two diagonal-family channels, validated under row-sum completeness."""
    return example_channel_pairs([(p, q)])[0]


def example_channel_pairs(points) -> list:
    """``example_channels`` of each (p, q); each family is validated as one stack."""
    units = [(_check_unit("p", p), _check_unit("q", q)) for p, q in points]
    p, q = np.array(units, dtype=float).reshape(-1, 2).T
    sp, sq = np.sqrt(1.0 - p), np.sqrt(1.0 - q)
    e = np.zeros((len(p), 2, 4, 4), dtype=complex)
    f = np.zeros_like(e)
    diag = np.arange(4)
    e[:, 0, diag, diag] = f[:, 0, diag, diag] = 1.0
    e[:, 0, 1, 1] = e[:, 0, 3, 3] = sp
    e[:, 1, 1, 1] = e[:, 1, 3, 3] = np.sqrt(p)
    f[:, 0, 0, 0] = f[:, 0, 2, 2] = sq
    f[:, 1, 0, 1] = f[:, 1, 2, 3] = np.sqrt(q)
    return list(zip(validate_channels(e, convention=Convention.ROW_SUM, tol=1e-12),
                    validate_channels(f, convention=Convention.ROW_SUM, tol=1e-12)))


@dataclass(frozen=True)
class ExampleParams:
    """One grid point: state parameter, channel parameters, mixing weight."""

    theta: float
    p: float
    q: float
    t: float = 1.0

    def __post_init__(self):
        for name in ("theta", "p", "q", "t"):
            _check_unit(name, getattr(self, name))


@dataclass(frozen=True)
class ClosedForms:
    """Reference closed-form values (report columns eq20..eq25)."""

    eq20: float  # product of channel skew informations
    eq21: float  # tabulated sum form (documented factor-2 discrepancy)
    eq22: float  # cross-term bound (the lemma1 column)
    eq23: float  # S21 = I2
    eq24: float  # S31
    eq25: float  # S32 = I3


def closed_forms(params: ExampleParams) -> ClosedForms:
    theta, p, q = params.theta, params.p, params.q
    root_tt = math.sqrt(theta * (1.0 - theta))
    w4 = (math.sqrt(1.0 - theta) - math.sqrt(theta)) ** 4
    w2 = (1.0 - 2.0 * root_tt) ** 2
    sp, sq = math.sqrt(1.0 - p), math.sqrt(1.0 - q)
    eq20 = 0.25 * w4 * (1.0 - sp) * (1.0 - sq)
    eq21 = (2.0 * root_tt - 1.0) * (sp + sq - 2.0)
    eq22 = 0.125 * w4 * (1.0 - sp) * (1.0 - sq) ** 2
    eq23 = (1.0 / 32.0) * w2 * (sp - 1.0) * (q + 8.0 * sq - 8.0)
    eq24 = (1.0 / 256.0) * (4.0 * theta ** 2 - 4.0 * theta + 4.0 * root_tt - 1.0) * (
        p * (q + 2.0 * sq - 2.0) - 8.0 * (sp - 1.0) * (2.0 * q + 9.0 * sq - 9.0))
    eq25 = ((3.0 * q / 256.0) * w4 * (sp - 1.0) ** 2
            + (1.0 / 16.0) * w2 * (sp - 1.0) ** 2 * (sq - 1.0) ** 2
            + (p / 16.0) * w2 * (sq - 1.0) ** 2
            + (q / 16.0) * w2 * (sp - 1.0) ** 2
            + (q * math.sqrt(p) / 256.0) * w2 * (4.0 * sp + 3.0 * math.sqrt(p) - 4.0))
    return ClosedForms(eq20=eq20, eq21=eq21, eq22=eq22, eq23=eq23, eq24=eq24, eq25=eq25)


CSV_HEADER = ("theta,p,q,t,product,sum,I1,I2,I3,I4,S21,S31,S32,lemma1,"
              "perm_opt,mixed_product,mixed_sum,eq20,eq21,eq22,eq23,eq24,eq25")


@dataclass(frozen=True)
class SweepRow:
    params: ExampleParams
    chain: BoundChain
    perm_opt: float
    mixed_product: float
    mixed_sum: float
    forms: ClosedForms

    def csv_fields(self) -> list:
        c = self.chain
        f = self.forms
        values = [self.params.theta, self.params.p, self.params.q, self.params.t,
                  c.product, c.sum, *c.i_values,
                  c.s_values[(2, 1)], c.s_values[(3, 1)], c.s_values[(3, 2)],
                  c.cross_term, self.perm_opt, self.mixed_product, self.mixed_sum,
                  f.eq20, f.eq21, f.eq22, f.eq23, f.eq24, f.eq25]
        return values


@dataclass(frozen=True)
class SweepTable:
    rows: tuple
    reading: Reading

    def __len__(self) -> int:
        return len(self.rows)


def row_hard_failures(row: SweepRow, tol: float = 1e-9) -> list:
    """Names of violated hard invariants for one sweep row.

    Hard: pipeline product agrees with eq20, pipeline cross term agrees with
    eq22, and the chain order product >= S21 >= S31 >= S32 >= cross term.
    """
    failures = []
    c = row.chain
    if abs(c.product - row.forms.eq20) > tol:
        failures.append("product_vs_eq20")
    if abs(c.cross_term - row.forms.eq22) > tol:
        failures.append("cross_term_vs_eq22")
    seq = [c.product, c.s_values[(2, 1)], c.s_values[(3, 1)], c.s_values[(3, 2)], c.cross_term]
    if any(seq[i + 1] > seq[i] + tol for i in range(len(seq) - 1)):
        failures.append("chain_order")
    if any(c.i_values[m + 1] > c.i_values[m] + tol for m in range(len(c.i_values) - 1)):
        failures.append("i_chain_order")
    return failures


# Points per stacked chain pass.  A pass holds every array, ChainData and
# BoundChain of its points at once, so the block bounds that memory.
_BLOCK = 128


def _chain_blocks(states: dict, channels: dict, points: list):
    """Yield ``(block, datas)`` for the (theta, p, q) points, in order.

    ``states`` maps each theta to its state and ``channels`` each (p, q) to
    its channel pair; ``block`` holds at most ``_BLOCK`` consecutive points,
    and ``datas`` their data, with both readings' chains, from one
    ``chain_batch`` pass.
    """
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK]
        pairs = [channels[p, q] for _, p, q in block]
        yield block, chain_batch([states[theta] for theta, _, _ in block],
                                 [n1 for n1, _ in pairs], [n2 for _, n2 in pairs])


def _build_distinct(build, keys) -> dict:
    """``build`` of each distinct key, all in one call: a map from key to result."""
    distinct = list(dict.fromkeys(keys))
    return dict(zip(distinct, build(distinct)))


def sweep(theta_grid, p_grid, q_grid, t_grid=(1.0,), reading: Reading = Reading.PRODUCT,
          perm_target: tuple = (2, 1), strategy: Strategy | None = None,
          budget: int = 14400, seed: int = 0) -> SweepTable:
    """One SweepRow per grid point, ordered lexicographically in (theta, p, q, t).

    The permutation-optimized column maximizes the S value at ``perm_target``
    over permutation pairs (``strategy`` and ``budget`` as in
    ``optimize_permutations``); the mixed columns convex-combine it with the
    trivial bounds at each t.  Each state and channel pair is built once,
    chains are computed in stacked passes that run across theta and are
    shared across the t axis; the optimizer searches each block of chains at
    once.
    """
    thetas = [_check_unit("theta", v) for v in theta_grid]
    ps = [_check_unit("p", v) for v in p_grid]
    qs = [_check_unit("q", v) for v in q_grid]
    ts = [_check_unit("t", v) for v in t_grid]
    if not (thetas and ps and qs and ts):
        raise ValueError("all sweep grids must be nonempty")
    pqs = [(p, q) for p in sorted(ps) for q in sorted(qs)]
    channels = _build_distinct(example_channel_pairs, pqs)
    states = _build_distinct(rho_thetas, thetas)
    points = [(theta, p, q) for theta in sorted(thetas) for p, q in pqs]
    rows = []
    for block, datas in _chain_blocks(states, channels, points):
        bests = optimize_batch(datas, perm_target[0], perm_target[1],
                               strategy, budget, seed, reading)
        for (theta, p, q), data, best in zip(block, datas, bests):
            chain = chain_from_data(data, reading)
            forms = closed_forms(ExampleParams(theta=theta, p=p, q=q))
            for t in sorted(ts):
                mp, ms = mixed_bound(chain, best, t)
                rows.append(SweepRow(params=ExampleParams(theta=theta, p=p, q=q, t=t),
                                     chain=chain, perm_opt=best.value,
                                     mixed_product=mp, mixed_sum=ms, forms=forms))
    return SweepTable(rows=tuple(rows), reading=Reading(reading))


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".12g")  # + 0.0 folds -0.0 into 0.0


def write_sweep_csv(table: SweepTable, *paths) -> None:
    """Write the table as CSV to each path; the text is formatted once."""
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row.csv_fields()))
    text = "\n".join(lines) + "\n"
    for path in paths:
        write_text_atomic(path, text)


# ---------------------------------------------------------------------------
# Discrepancy report: numeric pipeline vs reference closed forms


_FORM_NAMES = ("eq20", "eq21", "eq22", "eq23", "eq24", "eq25")


@dataclass(frozen=True)
class DiscrepancyRow:
    """One formula at one point; the deviations are computed once, on construction."""

    formula: str
    params: ExampleParams
    numeric: float
    printed: float
    abs_dev: float = field(init=False, compare=False)
    rel_dev: float = field(init=False, compare=False)
    ratio: float = field(init=False, compare=False)

    def __post_init__(self):
        abs_dev = abs(self.numeric - self.printed)
        scale = max(abs(self.numeric), abs(self.printed))
        object.__setattr__(self, "abs_dev", abs_dev)
        object.__setattr__(self, "rel_dev", abs_dev / scale if scale > 0.0 else 0.0)
        object.__setattr__(self, "ratio", self.printed / self.numeric
                           if abs(self.numeric) > 1e-15 else float("nan"))


@dataclass(frozen=True)
class DiscrepancyReport:
    rows: tuple
    fitted_ratios: dict  # formula -> constant ratio, when multiplicative

    def rows_for(self, formula: str) -> list:
        return [r for r in self.rows if r.formula == formula]


def _numeric_targets(chain: BoundChain) -> dict:
    return {
        "eq20": chain.product,
        "eq21": chain.sum,
        "eq22": chain.cross_term,
        "eq23": chain.s_values[(2, 1)],
        "eq24": chain.s_values[(3, 1)],
        "eq25": chain.s_values[(3, 2)],
    }


def discrepancy_report(param_grid) -> DiscrepancyReport:
    """Numeric-vs-reference table over a grid of ExampleParams.

    Purely descriptive: rows carry signed values, absolute and relative
    deviations, and a per-row printed/numeric ratio.  When one formula's
    ratios agree to 1e-6 relative across the grid, that constant is recorded
    as its fitted ratio.  The report never fails a run.  Rows follow the
    grid's order, and so do the stacked chain passes.
    """
    params = list(param_grid)
    if not params:
        raise ValueError("the parameter grid must be nonempty")
    channels = _build_distinct(example_channel_pairs, [(pt.p, pt.q) for pt in params])
    states = _build_distinct(rho_thetas, [pt.theta for pt in params])
    blocks = _chain_blocks(states, channels, [(pt.theta, pt.p, pt.q) for pt in params])
    numeric = [_numeric_targets(chain_from_data(data, Reading.PRODUCT))
               for _, datas in blocks for data in datas]
    rows = []
    ratios = {name: [] for name in _FORM_NAMES}
    for pt, values in zip(params, numeric):
        forms = closed_forms(pt)
        for name in _FORM_NAMES:
            row = DiscrepancyRow(formula=name, params=pt, numeric=values[name],
                                 printed=getattr(forms, name))
            rows.append(row)
            if not math.isnan(row.ratio):
                ratios[name].append(row.ratio)
    fitted = {}
    for name, values in ratios.items():
        if values:
            lo, hi = min(values), max(values)
            mid = (lo + hi) / 2.0
            if abs(hi - lo) <= 1e-6 * max(abs(mid), 1e-12):
                fitted[name] = mid
    return DiscrepancyReport(rows=tuple(rows), fitted_ratios=fitted)


def write_discrepancy_csv(report: DiscrepancyReport, path) -> None:
    lines = ["formula,theta,p,q,numeric,printed,abs_dev,rel_dev,ratio,fitted_ratio"]
    fitted = {name: _fmt(v) for name, v in report.fitted_ratios.items()}
    point = point_text = None
    for r in report.rows:
        if r.params is not point:  # a point's rows are adjacent
            point = r.params
            point_text = ",".join(_fmt(v) for v in (point.theta, point.p, point.q))
        lines.append(",".join([
            r.formula, point_text, _fmt(r.numeric), _fmt(r.printed), _fmt(r.abs_dev),
            _fmt(r.rel_dev), "" if math.isnan(r.ratio) else _fmt(r.ratio),
            fitted.get(r.formula, ""),
        ]))
    write_text_atomic(path, "\n".join(lines) + "\n")
