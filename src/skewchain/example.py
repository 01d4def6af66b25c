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
from dataclasses import dataclass

import numpy as np

from .chains import Reading, mixed_columns, stage_from_frames
from .objects import (
    Convention,
    DensityMatrix,
    channel_stack,
    density_stack,
    validate_channel,
    validate_density,
)
from .serialize import write_text_atomic
from .skew import frame_stack

__all__ = [
    "CSV_HEADER",
    "ClosedForms",
    "DiscrepancyReport",
    "EXAMPLE_DIM",
    "SweepTable",
    "closed_forms",
    "discrepancy_report",
    "example_channels",
    "rho_theta",
    "sweep",
    "write_discrepancy_csv",
    "write_sweep_csv",
]

EXAMPLE_DIM = 4
_TOL = 1e-12  # the validation tolerance of the example's states and channels


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def rho_theta(theta: float) -> DensityMatrix:
    """The two-block state family; off-diagonal entries are ``2 theta - 1``."""
    return validate_density(_rho_stack([theta])[0], tol=_TOL)


def _rho_stack(thetas) -> np.ndarray:
    """The (B, 4, 4) matrices of ``rho_theta``, one per theta, unvalidated."""
    a = 2.0 * np.array([_check_unit("theta", theta) for theta in thetas]) - 1.0
    rho = np.zeros((len(a), 4, 4), dtype=complex)
    diag = np.arange(4)
    rho[:, diag, diag] = 1.0 / 4.0
    rho[:, 0, 1] = rho[:, 1, 0] = rho[:, 2, 3] = rho[:, 3, 2] = a / 4.0
    return rho


def example_channels(p: float, q: float) -> tuple:
    """The two diagonal-family channels, validated under row-sum completeness."""
    return tuple(validate_channel(build([value])[0], convention=Convention.ROW_SUM, tol=_TOL)
                 for build, value in ((_p_family_stack, p), (_q_family_stack, q)))


def _p_family_stack(ps) -> np.ndarray:
    """``example_channels``' first family per p, one unvalidated (B, 2, 4, 4) stack."""
    p = np.array([_check_unit("p", v) for v in ps], dtype=float)
    e = np.zeros((len(p), 2, 4, 4), dtype=complex)
    e[:, 0, 0, 0] = e[:, 0, 2, 2] = 1.0
    e[:, 0, 1, 1] = e[:, 0, 3, 3] = np.sqrt(1.0 - p)
    e[:, 1, 1, 1] = e[:, 1, 3, 3] = np.sqrt(p)
    return e


def _q_family_stack(qs) -> np.ndarray:
    """``example_channels``' second family per q, one unvalidated (B, 2, 4, 4) stack."""
    q = np.array([_check_unit("q", v) for v in qs], dtype=float)
    f = np.zeros((len(q), 2, 4, 4), dtype=complex)
    f[:, 0, 1, 1] = f[:, 0, 3, 3] = 1.0
    f[:, 0, 0, 0] = f[:, 0, 2, 2] = np.sqrt(1.0 - q)
    f[:, 1, 0, 1] = f[:, 1, 2, 3] = np.sqrt(q)
    return f


@dataclass(frozen=True)
class ClosedForms:
    """Reference closed-form values (report columns eq20..eq25)."""

    eq20: float  # product of channel skew informations
    eq21: float  # tabulated sum form (documented factor-2 discrepancy)
    eq22: float  # cross-term bound (the lemma1 column)
    eq23: float  # S21 = I2
    eq24: float  # S31
    eq25: float  # S32 = I3


def _per_distinct(terms, values) -> np.ndarray:
    """``terms(v)``, a tuple of floats, for each of ``values``, as one array
    row per tuple entry aligned with ``values``; ``terms`` runs once per
    distinct value."""
    distinct, index = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    return np.array([terms(v) for v in distinct.tolist()])[index].T


def _theta_terms(theta: float) -> tuple:
    root_tt = math.sqrt(theta * (1.0 - theta))
    return (root_tt, (math.sqrt(1.0 - theta) - math.sqrt(theta)) ** 4, (1.0 - 2.0 * root_tt) ** 2,
            4.0 * theta ** 2 - 4.0 * theta + 4.0 * root_tt - 1.0)


def _p_terms(p: float) -> tuple:
    sp = math.sqrt(1.0 - p)
    return p, sp, math.sqrt(p), (sp - 1.0) ** 2


def _q_terms(q: float) -> tuple:
    sq = math.sqrt(1.0 - q)
    return q, sq, (1.0 - sq) ** 2, (sq - 1.0) ** 2


def _form_columns(thetas, ps, qs) -> np.ndarray:
    """The closed forms at each point (thetas[i], ps[i], qs[i]), as an (N, 6)
    array of eq20..eq25.

    Every ``sqrt`` and power is a Python scalar taken once per distinct
    parameter: numpy's array ``**`` squares as ``x * x``, which differs from
    libm ``pow`` in the last bit.  The columns combine those scalars with
    numpy's ``+ - * /`` only, each formula in the order written, so every
    entry has the bits of the formula evaluated on Python floats.
    """
    root_tt, w4, w2, theta_poly = _per_distinct(_theta_terms, thetas)
    p, sp, root_p, sp1_sq = _per_distinct(_p_terms, ps)
    q, sq, one_sq_sq, sq1_sq = _per_distinct(_q_terms, qs)
    eq20 = 0.25 * w4 * (1.0 - sp) * (1.0 - sq)
    eq21 = (2.0 * root_tt - 1.0) * (sp + sq - 2.0)
    eq22 = 0.125 * w4 * (1.0 - sp) * one_sq_sq
    eq23 = (1.0 / 32.0) * w2 * (sp - 1.0) * (q + 8.0 * sq - 8.0)
    eq24 = (1.0 / 256.0) * theta_poly * (
        p * (q + 2.0 * sq - 2.0) - 8.0 * (sp - 1.0) * (2.0 * q + 9.0 * sq - 9.0))
    eq25 = ((3.0 * q / 256.0) * w4 * sp1_sq
            + (1.0 / 16.0) * w2 * sp1_sq * sq1_sq
            + (p / 16.0) * w2 * sq1_sq
            + (q / 16.0) * w2 * sp1_sq
            + (q * root_p / 256.0) * w2 * (4.0 * sp + 3.0 * root_p - 4.0))
    return np.stack([eq20, eq21, eq22, eq23, eq24, eq25], axis=1)


def closed_forms(theta: float, p: float, q: float) -> ClosedForms:
    """The reference closed forms at the point (theta, p, q)."""
    point = [[_check_unit(name, value)] for name, value in (("theta", theta), ("p", p), ("q", q))]
    return ClosedForms(*_form_columns(*point)[0].tolist())


CSV_HEADER = ("theta,p,q,t,product,sum,I1,I2,I3,I4,S21,S31,S32,lemma1,"
              "perm_opt,mixed_product,mixed_sum,eq20,eq21,eq22,eq23,eq24,eq25")
_FIELDS = CSV_HEADER.split(",")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """The sweep as one (rows, 23) float array, its columns in ``CSV_HEADER``
    order and its rows in (theta, p, q, t) order."""

    columns: np.ndarray

    def __len__(self) -> int:
        return len(self.columns)

    def hard_failures(self, tol: float = 1e-9) -> int:
        """How many hard invariants the rows violate, counted per row and invariant.

        Hard: pipeline product agrees with eq20, pipeline cross term agrees
        with eq22, the chain order product >= S21 >= S31 >= S32 >= cross term,
        and the I-chain order.  A NaN comparison violates nothing.
        """
        col = dict(zip(_FIELDS, self.columns.T))
        chain = np.stack([col[name] for name in ("product", "S21", "S31", "S32", "lemma1")], 1)
        i_chain = np.stack([col[f"I{m}"] for m in range(1, EXAMPLE_DIM + 1)], 1)
        masks = (np.abs(col["product"] - col["eq20"]) > tol,
                 np.abs(col["lemma1"] - col["eq22"]) > tol,
                 (chain[:, 1:] > chain[:, :-1] + tol).any(axis=1),
                 (i_chain[:, 1:] > i_chain[:, :-1] + tol).any(axis=1))
        return sum(int(np.count_nonzero(mask)) for mask in masks)


# Points per stacked chain pass, and rows per CSV-formatting step.  A pass
# holds every stacked array of its points at once, and a step the Python
# floats of its rows, so the block bounds that memory.
_BLOCK = 128


def _blocks(count: int):
    """Slices of at most ``_BLOCK`` consecutive items out of ``count``."""
    return [slice(start, start + _BLOCK) for start in range(0, count, _BLOCK)]


def _distinct(values) -> tuple:
    """The index of each distinct value's first occurrence, and the index of
    each value among the distinct ones."""
    _, first, rows = np.unique(values, return_index=True, return_inverse=True)
    return first, rows


def _chain_blocks(points: np.ndarray):
    """Yield ``(span, stage)`` over the (N, 3) rows (theta, p, q) of ``points``.

    The state depends on theta alone and the two channels on p and on q, so
    the state of each distinct theta, the first family of each distinct p and
    the second of each distinct q are validated once, as stacks built from
    their first rows.  The first family's frames are built once per distinct
    (theta, p) and the second's once per distinct (theta, q), each as one
    ``frame_stack``.  One ``stage_from_frames`` call takes those frames, so
    each family's column norms and skew information are computed once per
    call, per distinct (theta, p) or (theta, q).  ``span`` is a slice of at
    most ``_BLOCK`` consecutive rows, and ``stage`` is their ``chain_stage``,
    one stacked pass whose overlaps are built from the frames indexed per
    point.
    """
    theta_first, theta_rows = _distinct(points[:, 0])
    _, roots = density_stack(_rho_stack(points[theta_first, 0]), tol=_TOL)
    frames = []  # per family: its frames, and the row of each point's frame there
    for build, column in ((_p_family_stack, points[:, 1]), (_q_family_stack, points[:, 2])):
        first, rows = _distinct(column)
        ops = channel_stack(build(column[first]), convention=Convention.ROW_SUM, tol=_TOL)
        first, index = _distinct(theta_rows * len(points) + rows)
        frames.append((frame_stack(roots[theta_rows[first]], ops[rows[first]]), index))
    (e, e_index), (f, f_index) = frames
    spans = _blocks(len(points))
    yield from zip(spans, stage_from_frames(e, f, [(e_index[span], f_index[span])
                                                   for span in spans]))


def sweep(theta_grid, p_grid, q_grid, t_grid=(1.0,),
          reading: Reading = Reading.PRODUCT) -> SweepTable:
    """One table row per grid point, ordered lexicographically in (theta, p, q, t).

    The permutation-optimized column is S21: on this family every (sigma, tau)
    pair gives (2, 1) the identity walk's value under either reading, as
    ``tests/test_example_symbolic.py`` proves, so no search runs
    (``optimize_permutations`` searches any other instance).  The mixed
    columns convex-combine it with the trivial bounds at each t, by
    ``mixed_columns``.  Each state and Kraus family is validated once, as
    arrays; the chains come from stacked passes that run across theta and
    are shared across the t axis.
    """
    thetas = sorted(_check_unit("theta", v) for v in theta_grid)
    ps = sorted(_check_unit("p", v) for v in p_grid)
    qs = sorted(_check_unit("q", v) for v in q_grid)
    ts = np.array(sorted(_check_unit("t", v) for v in t_grid))
    if not (thetas and ps and qs and len(ts)):
        raise ValueError("all sweep grids must be nonempty")
    points = np.stack(np.meshgrid(thetas, ps, qs, indexing="ij"), axis=-1).reshape(-1, 3)
    forms = _form_columns(*points.T)
    reading = Reading(reading)
    columns = []
    for span, stage in _chain_blocks(points):
        chain = np.column_stack([  # "product" through "perm_opt", one row per point
            stage.products, stage.sums, stage.i_values, stage.lattices[reading][:, :3],
            stage.cross_terms, stage.lattices[reading][:, 0]])
        chain = np.repeat(chain, len(ts), axis=0)  # each point's rows over the t grid
        t = np.tile(ts, len(stage.products))
        columns.append(np.column_stack([
            np.repeat(points[span], len(ts), axis=0), t, chain,
            *mixed_columns(chain[:, 0], chain[:, 1], chain[:, -1], t),
            np.repeat(forms[span], len(ts), axis=0)]))
    return SweepTable(columns=np.concatenate(columns))


def write_sweep_csv(table: SweepTable, *paths) -> None:
    """Write the table as CSV to each path; the text is formatted once."""
    line = ",".join(["%.12g"] * len(_FIELDS))
    lines = [CSV_HEADER]
    for block in _blocks(len(table)):  # bounds the Python floats alive at once
        # + 0.0 folds -0.0 into 0.0
        lines += [line % tuple(v) for v in (table.columns[block] + 0.0).tolist()]
    text = "\n".join(lines) + "\n"
    for path in paths:
        write_text_atomic(path, text)


# ---------------------------------------------------------------------------
# Discrepancy report: numeric pipeline vs reference closed forms


_FORM_NAMES = ("eq20", "eq21", "eq22", "eq23", "eq24", "eq25")


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """The report as columns: ``params`` is the read-only (points, 3) array of
    the grid's (theta, p, q) rows, and row i of each (points, 6) array holds
    point i's values of eq20..eq25, in columns 0..5."""

    params: np.ndarray
    numeric: np.ndarray
    printed: np.ndarray
    abs_dev: np.ndarray
    rel_dev: np.ndarray
    ratio: np.ndarray      # NaN where |numeric| <= 1e-15
    fitted_ratios: dict    # formula -> constant ratio, when multiplicative


def _numeric_targets(stage) -> np.ndarray:
    """Each instance's product-reading product, sum, cross term, S21, S31 and
    S32 (the eq20..eq25 targets) from a ``chain_stage``, as (B, 6) rows."""
    lattice = stage.lattices[Reading.PRODUCT]  # its first positions are (2, 1), (3, 1), (3, 2)
    return np.column_stack([stage.products, stage.sums, stage.cross_terms, lattice[:, :3]])


def discrepancy_report(points) -> DiscrepancyReport:
    """Numeric-vs-reference table over grid points, an (N, 3) array-like of
    (theta, p, q) rows.

    Purely descriptive: for each point and formula it holds the signed
    values, the absolute and relative deviations and the printed/numeric
    ratio.  When one formula's ratios agree to 1e-6 relative across the grid,
    that constant is recorded as its fitted ratio.  The report never fails a
    run.  Its rows follow the grid's order, and so do the stacked passes,
    which build no per-point object.  A value outside [0, 1] is rejected when
    the states and channels are built.
    """
    points = np.array(points, dtype=float)
    if not points.size:
        raise ValueError("the parameter grid must be nonempty")
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (theta, p, q) rows, got an array of shape {points.shape}")
    points.setflags(write=False)
    numeric = np.concatenate([_numeric_targets(stage) for _, stage in _chain_blocks(points)])
    printed = _form_columns(*points.T)
    abs_dev = np.abs(numeric - printed)
    scale = np.maximum(np.abs(numeric), np.abs(printed))
    rel_dev = np.divide(abs_dev, scale, out=np.zeros_like(scale), where=scale > 0.0)
    ratio = np.divide(printed, numeric, out=np.full_like(numeric, np.nan),
                      where=np.abs(numeric) > 1e-15)
    fitted = {}
    for name, column in zip(_FORM_NAMES, ratio.T):
        values = column[~np.isnan(column)]
        if values.size:
            lo, hi = float(values.min()), float(values.max())
            mid = (lo + hi) / 2.0
            if abs(hi - lo) <= 1e-6 * max(abs(mid), 1e-12):
                fitted[name] = mid
    return DiscrepancyReport(params=points, numeric=numeric, printed=printed, abs_dev=abs_dev,
                             rel_dev=rel_dev, ratio=ratio, fitted_ratios=fitted)


def write_discrepancy_csv(report: DiscrepancyReport, path) -> None:
    """Write the report as CSV, each block of lines with one ``%`` template
    joined from the formulas' line templates; a point's (theta, p, q) text
    is formatted once, and a NaN ratio leaves its field empty."""
    templates = np.empty((len(_FORM_NAMES), 2), dtype=object)  # formula -> (ratio, NaN ratio)
    for name, row in zip(_FORM_NAMES, templates):
        fitted = "%.12g" % (report.fitted_ratios[name] + 0.0) \
            if name in report.fitted_ratios else ""
        row[:] = (f"{name},%s,{'%.12g,' * 5}{fitted}", f"{name},%s,{'%.12g,' * 4}%.0s,{fitted}")
    grid = np.asarray(report.params, dtype=float) + 0.0
    points = np.array(["%.12g,%.12g,%.12g" % tuple(v) for v in grid.tolist()], dtype=object)
    values = np.stack([report.numeric, report.printed, report.abs_dev, report.rel_dev,
                       report.ratio], axis=-1) + 0.0  # + 0.0 folds -0.0 into 0.0
    picks = np.isnan(report.ratio).astype(np.intp)
    lines = ["formula,theta,p,q,numeric,printed,abs_dev,rel_dev,ratio,fitted_ratio"]
    for block in _blocks(len(points)):  # bounds the Python floats alive at once
        # each line's point text, then its five values, in line order
        fields = np.empty(values[block].shape[:2] + (6,), dtype=object)
        fields[..., 0] = points[block, None]
        fields[..., 1:] = values[block]
        template = "\n".join(templates[range(len(_FORM_NAMES)), picks[block]].ravel().tolist())
        lines.append(template % tuple(fields.ravel().tolist()))
    write_text_atomic(path, "\n".join(lines) + "\n")
