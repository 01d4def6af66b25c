"""Lower-bound chains for the product and sum of two channel skew informations.

Everything is driven by the per-pair column data of the commutator frames.
For Kraus operators E_i, F_j write ``a_k = <col_k(E), col_k(E)>``,
``b_k = <col_k(F), col_k(F)>`` and ``c_k = <col_k(E), col_k(F)>``.  With
A = sum_k a_k and B = sum_k b_k the product of skew informations is
``(1/4) sum_ij A_i B_j``, and the chains below subtract certified
non-negative deficits from it:

* I-chain: ``I_m`` applies the Cauchy-Schwarz step to the first m columns
  only, so ``product >= I_1 >= ... >= I_d`` and the endpoint equals the
  summed squared cross overlaps (the cross-term bound).
* S-lattice: values ``S_{p,q}`` for ``1 <= q < p <= d`` traversed in the
  order (2,1), (3,1), (3,2), (4,1), ..., (d,d-1).  Two readings of the
  recursion are provided:

  - ``Reading.AS_PRINTED`` applies the printed form of the update verbatim
    (subtract ``a_p + b_q``, add ``|c_p + c_q|^2``), with every squared
    bracket taken as a squared modulus.  This mixes quadratic and quartic
    terms and does not satisfy the chain's own anchor identities; it is kept
    so reports can document that behavior.
  - ``Reading.PRODUCT`` subtracts the product-form pairwise deficit
    ``(1/4)(a_p b_q + a_q b_p - 2 Re(conj(c_q) c_p))`` and, the first time a
    resolve index p enters, the diagonal deficit ``(1/4)(a_p b_p - |c_p|^2)``.
    Both deficits are non-negative by Cauchy-Schwarz and AM-GM, and the
    partial sums telescope so that ``S_{p,p-1} = I_p`` exactly, down to the
    same cross-term endpoint.

A symmetric-group pair (sigma, tau) relabels the columns seen by the p-slot
and q-slot of each update; the identity pair reproduces the unpermuted walk
bit for bit.  Under the product reading every permuted value is at most the
product, but it may fall below the cross term and below zero.  Only the
optimum is certified from below: it is at least the identity pair's value,
which under the product reading is at least the cross term.

The optimum is taken at (2, 1), by enumerating its d^2 label pairs exactly.
Under the product reading both deficits are non-negative for any labels, so
every permuted walk is non-increasing and no deeper position can beat (2, 1).
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .linalg import first_max, first_min
from .objects import (
    DensityMatrix,
    KrausChannel,
    derive_seeds,
    mix_kraus_families,
    seeding_words,
    trial_entropies,
    unitaries_from_words,
)
from .skew import channel_skews, column_norms_sq, column_overlaps, frame_stack

__all__ = [
    "CHUNK_ENTRIES",
    "ChainStage",
    "HARD_CHECK_NAMES",
    "Reading",
    "VerdictColumns",
    "chain_stage",
    "compute_chain",
    "invariance_columns",
    "kraus_invariance_check",
    "lattice_order",
    "mixed_columns",
    "optimize_batch",
    "optimize_permutations",
    "permute_s",
    "stage_from_frames",
    "sum_transfer",
    "verdict_columns",
    "verify_chain",
]


class Reading(str, Enum):
    """How the S-lattice recursion's update terms are interpreted."""

    AS_PRINTED = "as-printed"
    PRODUCT = "product"


def lattice_order(d: int) -> list:
    """S-lattice positions (p, q), 1 <= q < p <= d, in traversal order."""
    return [(p, q) for p in range(2, d + 1) for q in range(1, p)]


# ---------------------------------------------------------------------------
# Column data
#
# Every kernel below runs over a leading instance axis of B instances, whose
# Kraus families may be zero-padded to the stack's counts.  Each slice sees
# the same BLAS calls, elementwise operations and reductions as a lone
# instance, a zero operator adds exact zeros, and every exact sum
# (``math.fsum``) stays per instance, so a stack returns each instance's bits
# unchanged.  The one sum whose rounding padding would move, the Gram matrix
# of ``_s_tables``, runs once per distinct count pair, over its own pairs.
# ``stage_from_frames`` is the one builder, over arrays; ``chain_stage`` feeds
# it the frames of its inputs.  The readers of a pass (``verdict_columns``,
# ``optimize_batch``, ``mixed_columns``, and ``bounds`` reading row 0) read
# its stage's columns, and the one-instance functions are stacks of one over
# them (``compute_chain``); ``invariance_columns`` reads a stage of instances
# and the stages of their mixed trials.  The
# frames, their column norms and the channel skew informations come from
# ``skew``'s kernel.

# Matrix entries per stack of a pass's inputs: ``verify`` cuts its chunks of
# states, and ``kraus_invariance_check`` its passes of Kraus families, to at
# most this many.  Above it stacking saves no time, and a pass's inputs and
# frames, times the passes that run at once, bound the memory of a run.
CHUNK_ENTRIES = 2 ** 14


class _Once:
    """The value of ``make()``, computed on the first call and kept; ``make``,
    and the arrays it holds, are dropped then."""

    def __init__(self, make):
        self._make = make

    def __call__(self):
        if self._make is not None:
            self._value, self._make = self._make(), None
        return self._value


_STAGE_FIELDS = "sums products tables lattices cross_terms i_source"


class ChainStage(collections.namedtuple("ChainStage", _STAGE_FIELDS)):
    """The stacked arrays of a pass, before any per-instance object is built:
    the sum and the product of each instance's two channel skew informations,
    each reading's S-table rows (``_s_tables``) and identity-walk S values (a
    row per instance, positions in ``lattice_order``), keyed by ``Reading``,
    and the cross terms.  The sums, products and cross terms are (B,) float64
    arrays.

    ``i_values`` is the (B, d) float64 array of each instance's I-chain.  The
    ``_Once`` in ``i_source`` computes it on first read and keeps it, so a
    reader that never reads it (the discrepancy report) never computes it.
    The frames' columns live only in that source, until it is read.
    """

    __slots__ = ()

    @property
    def i_values(self) -> np.ndarray:
        return self.i_source()


def chain_stage(sqrt_rhos, ops1, ops2, counts=None) -> ChainStage:
    """Every chain quantity of each instance of a stack, as stacked arrays.

    Instance b is the state whose square root is ``sqrt_rhos[b]`` with the
    Kraus families ``ops1[b]`` and ``ops2[b]``: a (B, d, d) stack and
    (B, n1, d, d) and (B, n2, d, d) stacks of validated inputs, as
    ``density_stack`` and ``channel_stack`` return them.  Each instance gets
    bit for bit what it gets in a stack of one.  The stack's arrays scale
    with its length, so callers with many instances pass them in blocks.

    ``counts`` is the pair of (B,) integer arrays of each instance's own
    Kraus counts, so instances with different counts share one pass: family
    ``ops1[b]`` is its first ``counts[0][b]`` operators, zero-padded to n1,
    and likewise ``ops2[b]``.  The counts are given, not read off the
    operators, because a channel may hold a genuine zero operator, which
    counts; the padding must be exactly zero.  ``None`` gives every instance
    the stack's (n1, n2).

    It is one pass of ``stage_from_frames`` over the instances' own frames,
    so the column norms and skew informations are computed once per
    instance and family, without a gather.
    """
    s, e_ops, f_ops = (np.ascontiguousarray(a, dtype=np.complex128)
                       for a in (sqrt_rhos, ops1, ops2))
    if not (s.ndim == 3 and e_ops.ndim == f_ops.ndim == 4 and len(s) == len(e_ops) == len(f_ops)
            > 0 and s.shape[1] == s.shape[2] and s.shape[1:] == e_ops.shape[2:] == f_ops.shape[2:]):
        raise DimensionMismatchError(
            f"need one or more instances as (B, d, d), (B, n1, d, d) and (B, n2, d, d) "
            f"stacks, got shapes {s.shape}, {e_ops.shape} and {f_ops.shape}")
    if counts is not None:
        counts = tuple(np.asarray(n) for n in counts)
        for ops, n in zip((e_ops, f_ops), counts):
            if not (n.shape == (len(ops),) and n.dtype.kind in "iu"
                    and np.all((1 <= n) & (n <= ops.shape[1]))
                    and not np.any(ops[np.arange(ops.shape[1]) >= n[:, None]])):
                raise DimensionMismatchError(
                    f"need one Kraus count in 1..{ops.shape[1]} per instance, with zero "
                    f"operators past it, got {n!r}")
    (stage,) = stage_from_frames(frame_stack(s, e_ops), frame_stack(s, f_ops), counts=counts)
    return stage


def stage_from_frames(e_frames: np.ndarray, f_frames: np.ndarray, passes=None, counts=None):
    """Yield the ``chain_stage`` of each pass of instances whose commutator
    frames (``frame_stack``) are rows of the (F1, n1, d, d) stack ``e_frames``
    and the (F2, n2, d, d) stack ``f_frames``.

    ``passes`` is an iterable of ``(e_rows, f_rows)`` index arrays, one pair
    per pass: instance b of a pass has the frames ``e_frames[e_rows[b]]`` and
    ``f_frames[f_rows[b]]``.  ``None`` is one pass whose instance b has row b
    of each stack, taken without a gather.  ``counts`` is the pair of integer
    arrays of each row's own Kraus count, one (F1,) and one (F2,); a row's
    frames past its count are those of zero operators, which add exact zeros
    to every norm, overlap and sum.  ``None`` gives every row its stack's
    count.  A family's column norms and channel skew information depend on
    its frames alone, so they are computed once per row of each stack,
    before the first pass, and indexed per instance; the overlaps and
    everything built on them are computed per instance, one pass at a time.
    Each stack is first copied once to column-major form, so that every
    norm and overlap sums over a contiguous axis (the copy replaces the
    argument, so a caller's temporary frames are freed).  Every instance
    keeps the bits of a stack of one.
    """
    e_frames, f_frames = (np.ascontiguousarray(frames.swapaxes(-1, -2)).swapaxes(-1, -2)
                          for frames in (e_frames, f_frames))
    e_norms, f_norms = column_norms_sq(e_frames), column_norms_sq(f_frames)
    e_skews, f_skews = channel_skews(e_norms), channel_skews(f_norms)
    e_counts, f_counts = counts or [np.full(len(frames), frames.shape[1])
                                    for frames in (e_frames, f_frames)]
    d = e_norms.shape[-1]
    for e_rows, f_rows in ((slice(None), slice(None)),) if passes is None else passes:
        e_pass, f_pass = e_norms[e_rows], f_norms[f_rows]
        e_skew, f_skew = e_skews[e_rows], f_skews[f_rows]
        overlaps = column_overlaps(e_frames[e_rows], f_frames[f_rows])
        products = e_skew * f_skew
        tables = dict(zip((Reading.PRODUCT, Reading.AS_PRINTED),
                          _s_tables(e_pass, f_pass, overlaps, products,
                                    (e_counts[e_rows], f_counts[f_rows]))))
        lattices = {reading: _lattice_values(rows, reading, d)
                    for reading, rows in tables.items()}
        yield ChainStage(e_skew + f_skew, products, tables, lattices, _cross_terms(overlaps),
                         _Once(functools.partial(_i_values, e_pass, f_pass, overlaps)))


def compute_chain(rho: DensityMatrix, ch1: KrausChannel, ch2: KrausChannel) -> ChainStage:
    """The ``chain_stage`` of one (state, channel, channel) instance, a stack
    of one: its product, sum, I-chain, both readings' S-lattices and
    cross-term bound, each in row 0."""
    return chain_stage(rho.sqrt_rho[None], ch1.operators[None], ch2.operators[None])


def _mod_sq(c: np.ndarray) -> np.ndarray:
    """``|c|^2`` entrywise, bit for bit as numpy's scalar ``abs(c) ** 2``.

    The scalar form is libm ``hypot`` followed by ``pow``.  ``np.abs`` on a
    complex array takes a SIMD path and ``x ** 2`` on an array squares as
    ``x * x``; both differ from it in the last bit for some inputs.
    """
    return np.float_power(np.hypot(c.real, c.imag), 2.0)


def _cross_terms(overlaps: np.ndarray) -> np.ndarray:
    totals = overlaps.sum(axis=-1)  # full-frame inner products, per instance and (i, j)
    rows = _mod_sq(totals).reshape(len(totals), -1).tolist()
    return 0.25 * np.fromiter(map(math.fsum, rows), np.float64, len(rows))


# ---------------------------------------------------------------------------
# I-chain


def _i_values(e_norms, f_norms, overlaps) -> np.ndarray:
    """``I_m`` for m = 1..d of each instance, as a (B, d) array: per Kraus pair
    (i, j) and split m, the term ``(1/4)(|u|^2 + head_a tail_b + tail_a
    (head_b + tail_b))``, summed exactly."""
    a_head = np.cumsum(e_norms, axis=-1)    # (B, n1, d)
    b_head = np.cumsum(f_norms, axis=-1)    # (B, n2, d)
    u = np.cumsum(overlaps, axis=-1)        # (B, n1, n2, d)
    a_tail = a_head[..., -1:] - a_head
    b_tail = b_head[..., -1:] - b_head
    terms = 0.25 * (_mod_sq(u) + a_head[:, :, None, :] * b_tail[:, None, :, :]
                    + a_tail[:, :, None, :] * (b_head + b_tail)[:, None, :, :])
    count, d = len(terms), terms.shape[-1]
    by_split = terms.reshape(count, -1, d).transpose(0, 2, 1).reshape(count * d, -1)
    return np.fromiter(map(math.fsum, by_split.tolist()), np.float64, count * d).reshape(count, d)


# ---------------------------------------------------------------------------
# S-lattice walks (shared by the chain, permute_s and the optimizer)


def _s_tables(e_norms, f_norms, overlaps, products: np.ndarray, counts) -> tuple:
    """The S-table rows of each instance of a stack, one row per reading, as
    two stacked arrays ``(product, printed)``: the S-lattice update terms
    pre-summed over all Kraus pairs.  ``products`` are the instances' start
    values, and ``counts`` the pair of (B,) arrays of their Kraus counts
    (n1, n2), which the as-printed step reads; norms and overlaps past them
    are zero padding.

    Column 0 is the start S_{1,0}, the product of the channel skew
    informations.  Labels (r, s) sit at column ``1 + r d + s``: the
    product-reading pairwise deficit in ``product``, the as-printed net
    update in ``printed``.  ``product`` goes on with the diagonal deficit of
    label r at column ``1 + d^2 + r``, so its rows have ``1 + d^2 + d``
    columns and ``printed``'s ``1 + d^2``.
    """
    count, d = len(overlaps), overlaps.shape[-1]
    n1, n2 = counts
    a_sum = e_norms.sum(axis=-2)  # (B, d)
    b_sum = f_norms.sum(axis=-2)
    # gram[b, r, s] = sum_ij conj(c_s) c_r, so its diagonal is sum_ij |c_r|^2.
    # BLAS's rounding depends on how many pairs it sums, so each distinct
    # (n1, n2) takes its instances' own n1 n2 pairs, without the padding.
    gram = np.empty((count, d, d), np.complex128)
    groups = {}  # (n1, n2) -> its rows, ascending
    for b, pair in enumerate(zip(n1.tolist(), n2.tolist())):
        groups.setdefault(pair, []).append(b)
    for (m1, m2), rows in groups.items():
        rows = slice(None) if len(rows) == count else rows  # a group of every row needs no gather
        flat = overlaps[rows, :m1, :m2]
        flat = flat.reshape(len(flat), -1, d)
        gram[rows] = np.swapaxes(flat, -1, -2) @ flat.conj()
    gram_re = gram.real
    gram_diag = np.diagonal(gram_re, axis1=-2, axis2=-1)
    ab = a_sum[:, :, None] * b_sum[:, None, :]
    pair_product = 0.25 * (ab + np.swapaxes(ab, -1, -2) - 2.0 * gram_re)
    diag_product = 0.25 * (np.diagonal(ab, axis1=-2, axis2=-1) - gram_diag)
    mod_sq = gram_diag[:, :, None] + gram_diag[:, None, :] + 2.0 * gram_re  # sum_ij |c_r + c_s|^2
    step_printed = mod_sq - (n2[:, None, None] * a_sum[:, :, None]
                             + n1[:, None, None] * b_sum[:, None, :])
    start = products[:, None]
    return (np.concatenate([start, pair_product.reshape(count, -1), diag_product], axis=1),
            np.concatenate([start, step_printed.reshape(count, -1)], axis=1))


def _updates(reading: Reading, sigma, tau, d: int):
    """Yield ((p, q), columns) along the traversal with labels sigma/tau applied.

    ``columns`` are the S-table columns the step applies, in order: the
    product reading subtracts them from the running value and the as-printed
    reading adds them.  ``sigma[k]`` and ``tau[k]`` are the labels of slot k:
    ints for one permutation pair, or broadcastable index arrays for a batch
    of pairs.
    """
    diag = 1 + d * d
    for p, q in lattice_order(d):
        pair = 1 + sigma[p - 1] * d + tau[q - 1]
        if reading != Reading.PRODUCT or q > 1:
            yield (p, q), (pair,)
        elif p > 2:
            yield (p, q), (pair, diag + sigma[p - 1])
        else:
            yield (p, q), (pair, diag + sigma[1], diag + tau[0])


def _value_at(table: np.ndarray, reading: Reading, sigma, tau, p: int, q: int, d: int):
    """The S value at (p, q) with labels sigma/tau applied, read from ``table``.

    ``table`` is one instance's S-table row of ``reading``, or a stack of
    rows with the instance axis last.  With index-array labels the value is an
    array, the instance axis last, with the same operation order per entry;
    values are numpy float64, so every entry carries the same bits as the
    one-pair walk of its instance.
    """
    apply = operator.sub if reading == Reading.PRODUCT else operator.add
    value = table[0]
    for pos, columns in _updates(reading, sigma, tau, d):
        for column in columns:
            value = apply(value, table[column])
        if pos == (p, q):
            return value
    raise AssertionError("unreachable: (p, q) was validated against the lattice")


@functools.lru_cache(maxsize=32)
def _identity_plan(d: int, reading: Reading) -> tuple:
    """The identity-label walk, built once per (d, reading): its S-table
    columns in order (the start first), and how many columns lead up to each
    ``lattice_order`` position's value."""
    order, ends = [0], []
    for _, columns in _updates(reading, range(d), range(d), d):
        order += columns
        ends.append(len(order) - 1)
    order, ends = np.array(order, dtype=np.intp), np.array(ends, dtype=np.intp)
    order.setflags(write=False)
    ends.setflags(write=False)
    return order, ends


def _lattice_values(rows: np.ndarray, reading: Reading, d: int) -> np.ndarray:
    """Identity-walk S values of each instance of a stack, one row per instance
    with the positions in ``lattice_order``.

    ``rows`` are the instances' S-table rows of ``reading``.  The walk is
    one running subtraction (product reading) or sum (as printed) over all
    instances; ``accumulate`` applies the updates in order, so each value is
    the one ``_value_at`` gives with identity labels.
    """
    order, ends = _identity_plan(d, reading)
    accumulate = np.subtract.accumulate if reading == Reading.PRODUCT else np.add.accumulate
    return accumulate(rows[:, order], axis=1)[:, ends]


def _check_position(p: int, q: int, d: int) -> None:
    if not (1 <= q < p <= d):
        raise ValueError(f"need 1 <= q < p <= d, got (p, q) = ({p}, {q}) at d = {d}")


def _check_permutation(perm, d: int) -> tuple:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(d)):
        raise ValueError(f"not a permutation of 0..{d - 1}: {perm}")
    return p


# ---------------------------------------------------------------------------
# Public chain API


def sum_transfer(values) -> np.ndarray:
    """The AM-GM transfer ``2 sqrt(x)`` of each product-form bound x, a lower
    bound on the sum of the two skew informations, as a float64 array.

    Non-positive entries (possible under the as-printed reading) and NaN
    transfer to 0.
    """
    x = np.asarray(values, dtype=np.float64)
    return 2.0 * np.sqrt(np.where(x > 0.0, x, 0.0))


def permute_s(rho: DensityMatrix, ch1: KrausChannel, ch2: KrausChannel,
              sigma, tau, p: int, q: int,
              reading: Reading = Reading.PRODUCT) -> float:
    """S-lattice value at (p, q) with column labels permuted by (sigma, tau).

    ``sigma`` relabels the index resolved in the p-slot of each update and
    ``tau`` the q-slot index; both are 0-based permutations of ``range(d)``.
    The identity pair reproduces the unpermuted chain entry bit for bit.
    """
    stage = compute_chain(rho, ch1, ch2)
    return _permuted_value(stage.tables, _stage_dim(stage), sigma, tau, p, q, reading)


def _permuted_value(tables: dict, d: int, sigma, tau, p: int, q: int,
                    reading: Reading) -> float:
    """The permuted S value of the one instance whose stage holds ``tables``."""
    _check_position(p, q, d)
    sigma = _check_permutation(sigma, d)
    tau = _check_permutation(tau, d)
    reading = Reading(reading)
    return float(_value_at(tables[reading][0], reading, sigma, tau, p, q, d))


def optimize_permutations(rho: DensityMatrix, ch1: KrausChannel, ch2: KrausChannel,
                          reading: Reading = Reading.PRODUCT) -> tuple:
    """Maximize the permuted S value at (2, 1) over permutation pairs, exactly,
    as the ``optimize_batch`` of a stack of one: ``(values, pairs)``, a (1,)
    float64 array and a list of one ``(sigma, tau)``.

    The value at (2, 1) reads only the labels ``sigma[1]`` and ``tau[0]``, so
    the search enumerates those d^2 pairs and returns exactly what a walk
    over all ``(d!)^2`` pairs in lexicographic order would, keeping the first
    maximum.  The completions are sigma = (smallest unused label, sigma[1],
    the rest ascending) and tau = (tau[0], the rest ascending).

    Under the product reading no deeper lattice position can beat it: every
    update subtracts a deficit that is non-negative for any labels, so every
    permuted walk is non-increasing from (2, 1) on.
    """
    return optimize_batch(compute_chain(rho, ch1, ch2), reading)


def optimize_batch(stage: ChainStage, reading: Reading = Reading.PRODUCT) -> tuple:
    """``optimize_permutations`` of each instance of a stage, in one search,
    as ``_optimize``'s ``(values, pairs)``; each instance gets bit for bit
    what it gets alone."""
    reading = Reading(reading)
    return _optimize(stage.tables[reading], _stage_dim(stage), reading)


def _stage_dim(stage: ChainStage) -> int:
    """The dimension of a stage's instances, from its as-printed S-table rows
    of ``1 + d^2`` columns."""
    return math.isqrt(stage.tables[Reading.AS_PRINTED].shape[1] - 1)


def _optimize(rows: np.ndarray, d: int, reading: Reading) -> tuple:
    """The (2, 1) optimum of each instance of a stack, as ``(values, pairs)``:
    a float64 array and each instance's winning ``(sigma, tau)``.  ``rows[b]``
    is instance b's S-table row of ``reading``.

    One closed form on a d x d grid for every instance at once:
    ``((start - pair[r, s]) - diag[r]) - diag[s]`` (product reading) or
    ``start + step[r, s]`` (as printed), scanning r = sigma[1] as 1, 2, ...,
    d-1, 0 and s = tau[0] as 0, ..., d-1, the order in which the full walk
    meets them.  Each instance keeps its first maximum in that scan, completed
    as ``optimize_permutations`` says, once per distinct winning cell.
    """
    _check_position(2, 1, d)
    r_scan = [*range(1, d), 0]
    sigma = [None, np.array(r_scan, dtype=np.intp)[:, None]]
    tau = [np.arange(d)[None, :]]
    values = _value_at(rows.T, reading, sigma, tau, 2, 1, d)  # (r, s, instances)
    values = values.reshape(-1, len(rows))
    cells = values.argmax(axis=0).tolist()  # each instance's first maximum, r-major
    pairs = {}
    for cell in set(cells):
        r, s = r_scan[cell // d], cell % d
        first, *rest = (k for k in range(d) if k != r)
        pairs[cell] = ((first, r, *rest), (s, *(k for k in range(d) if k != s)))
    return values[cells, np.arange(len(rows))], [pairs[cell] for cell in cells]


def mixed_columns(products, sums, optima, t) -> tuple:
    """Convex mixing of the trivial bound with the optimized permuted bound,
    entry by entry over arguments that broadcast as numpy arrays do.

    Returns ``(product_bounds, sum_bounds)``: the product form mixes S_{1,0}
    with the optimum, the sum form the plain sum with the optimum's
    ``sum_transfer``.  Every weight t must lie in [0, 1]; NaN does not.
    """
    weights = np.asarray(t)
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return (1.0 - t) * products + t * optima, (1.0 - t) * sums + t * sum_transfer(optima)


# ---------------------------------------------------------------------------
# Verification


HARD_CHECK_NAMES = (
    "product_ge_cross_term",
    "product_ge_i1",
    "i_monotone",
    "i_endpoint_eq_cross_term",
    "mixed_le_product",
    "mixed_ge_cross_term",
    "opt_ge_identity",
)


def verify_chain(rho: DensityMatrix, ch1: KrausChannel, ch2: KrausChannel,
                 tol: float = 1e-10) -> VerdictColumns:
    """Run every chain check on one instance, as the one-row ``verdict_columns``
    of its stage; failures are reported, not raised."""
    return verdict_columns(compute_chain(rho, ch1, ch2), tol)


@dataclass(frozen=True)
class VerdictColumns:
    """Every check of each instance of a pass: a row per instance and a column
    per check, in the order ``verdict_columns`` runs them.  A name may head
    more than one column (the mixed bounds, once per t)."""

    names: tuple
    passed: np.ndarray     # (instances, checks) bool
    deviation: np.ndarray  # (instances, checks) float64

    def by_name(self) -> dict:
        """Each check name's passed flags and deviations, as flat arrays taken
        instance by instance and, within an instance, column by column."""
        columns = {}
        for c, name in enumerate(self.names):
            columns.setdefault(name, []).append(c)
        return {name: (self.passed[:, cs].ravel(), self.deviation[:, cs].ravel())
                for name, cs in columns.items()}


def verdict_columns(stage: ChainStage, tol: float, optima=None) -> VerdictColumns:
    """Run every chain check on each instance of a stage.

    Each check is one column over the instances, bit for bit the value the
    scalar check gives: every fold over an instance's I values or lattice
    positions is Python's ``max`` or ``min`` (``first_max``, ``first_min``),
    so NaN and signed zeros land where that fold puts them.  ``optima`` are
    the instances' product-reading (2, 1) optimum values, as
    ``optimize_batch`` finds them, for a caller that has searched already;
    ``None`` runs that search here, once over the instances.  Both S-lattice
    readings are always evaluated; the anchor-identity rows record, per
    reading, how far the lattice is from the I-chain it claims to refine.
    An inequality row ``lhs >= rhs`` passes when ``lhs >= rhs - tol``, its
    deviation ``max(rhs - lhs, 0)``; an equality row passes when its deviation
    ``|lhs - rhs|`` is at most ``tol``.
    """
    product, total, cross = stage.products, stage.sums, stage.cross_terms
    count = len(product)
    i_vals = stage.i_values
    d = i_vals.shape[1]
    zero = np.zeros(count)
    names, kinds, lhss, rhss = [], [], [], []

    def check(name, kind, lhs, rhs):
        names.append(name)
        kinds.append(kind)
        lhss.append(lhs)
        rhss.append(rhs)

    check("product_ge_cross_term", "ge", product, cross)
    check("product_ge_i1", "ge", product, i_vals[:, 0])
    worst_step = first_max(np.concatenate([zero[:, None], i_vals[:, 1:] - i_vals[:, :-1]], axis=1))
    check("i_monotone", "ge", -worst_step, zero)
    check("i_endpoint_eq_cross_term", "eq", i_vals[:, -1], cross)

    if d >= 2:
        readings = (Reading.PRODUCT, Reading.AS_PRINTED)
        lattices = np.stack([stage.lattices[reading] for reading in readings], axis=1)
        seq = np.concatenate([np.broadcast_to(product[:, None, None], (count, 2, 1)), lattices],
                             axis=2)
        s_worst = first_max(seq[..., 1:] - seq[..., :-1])
        anchors = [(p - 1) * (p - 2) // 2 + p - 2 for p in range(2, d + 1)]  # (p, p-1)
        anchor_worst = first_max(np.abs(lattices[:, :, anchors] - i_vals[:, None, 1:]))
        for r, reading in enumerate(readings):
            s_vals = lattices[:, r]
            label = reading.value.replace("-", "_")
            check(f"s_monotone[{label}]", "ge", -s_worst[:, r], zero)
            check(f"anchor_s21_eq_i2[{label}]", "eq", s_vals[:, 0], i_vals[:, 1])
            if d >= 3:
                check(f"anchor_s32_eq_i3[{label}]", "eq", s_vals[:, 2], i_vals[:, 2])
            check(f"anchor_spp1_eq_ip[{label}]", "eq", anchor_worst[:, r], zero)
            check(f"anchor_endpoint_eq_cross_term[{label}]", "eq", s_vals[:, -1], cross)

    # max(v, 0.0) keeps v unless 0.0 is larger, so NaN stays NaN
    roots = 2.0 * np.sqrt(np.where(0.0 > i_vals, 0.0, i_vals))
    check("sum_ge_2sqrt_im", "ge", first_min(total[:, None] - roots), zero)

    if d >= 2:
        best = (_optimize(stage.tables[Reading.PRODUCT], d, Reading.PRODUCT)[0]
                if optima is None else np.asarray(optima, dtype=np.float64))
        check("opt_ge_identity", "ge", best, stage.lattices[Reading.PRODUCT][:, 0])
        for t in (0.0, 0.5, 1.0):
            prod_bound, _ = mixed_columns(product, total, best, t)
            check("mixed_le_product", "ge", product, prod_bound)
            check("mixed_ge_cross_term", "ge", prod_bound, cross)

    lhs, rhs = np.array(lhss).T, np.array(rhss).T
    ge = np.array([kind == "ge" for kind in kinds])
    gap = rhs - lhs
    deviation = np.where(ge, np.where(0.0 > gap, 0.0, gap), np.abs(lhs - rhs))
    passed = np.where(ge, lhs >= rhs - tol, deviation <= tol)
    return VerdictColumns(tuple(names), passed, deviation)


def kraus_invariance_check(rho: DensityMatrix, ch1: KrausChannel, ch2: KrausChannel,
                           trials: int, seed: int) -> dict:
    """Mix both Kraus families by random unitaries and recompute every bound;
    return each bound quantity's worst deviation, keyed by name in report order.

    The chain quantities are functions of the channels, not of the chosen
    Kraus families, so all deviations should sit at rounding level.

    The trials' unitaries come from two hash passes: the seeds u and v of
    every trial, then the seeding words of each.  The unmixed stage is built
    first; then the trials run in ``chain_stage`` passes of at most
    ``CHUNK_ENTRIES // (n d^2)`` instances (one at least), n the larger Kraus
    count.  Each pass mixes its trials' families in one stacked ``einsum``
    (``mix_kraus_families``) and returns its ``invariance_columns`` row, and
    the rows are folded.  ``_run_passes`` runs the passes on the calling
    thread and one helper thread per further CPU the process may use, at
    most one thread per pass; each pass is bit for bit as in a serial loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = seeding_words([(s,) for s in derive_seeds(trial_entropies([seed], trials))])
    block = max(1, CHUNK_ENTRIES // (max(ch1.n, ch2.n) * rho.dim ** 2))
    base = compute_chain(rho, ch1, ch2)
    base.i_values  # a ``_Once``: read first here, never by two threads at once

    def run(k):  # the trials' block k
        rows = words[2 * k * block:2 * (k + 1) * block]  # trial by trial, u before v
        ops = [mix_kraus_families(np.repeat(ch.operators[None], len(rows) // 2, axis=0),
                                  unitaries_from_words(ch.n, rows[side::2]))
               for side, ch in enumerate((ch1, ch2))]
        stage = chain_stage(np.repeat(rho.sqrt_rho[None], len(rows) // 2, axis=0), *ops)
        return invariance_columns(base, [stage])[0]

    pass_rows = _run_passes(run, -(-trials // block))
    worst = first_max(np.column_stack([np.zeros(len(_INVARIANT_NAMES)), *pass_rows]))
    return dict(zip(_INVARIANT_NAMES, worst.tolist()))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_passes(run, count: int) -> list:
    """``[run(0), ..., run(count - 1)]``, run on the calling thread and
    ``min(_cpus(), count) - 1`` helper threads; with one CPU or one pass no
    thread is started.  Each thread takes the next pass number from one
    shared counter, until none is left or some pass has failed.

    A failure raises what the lowest failing pass raised, as the serial loop
    would, once every helper has been joined.  Pass numbers are taken in
    order, so every pass below a failing one was taken before it and runs
    to its end; a pass taken after it only wastes work.
    """
    import threading  # numpy has imported it already

    results, failures = [None] * count, {}
    passes = iter(range(count))  # one ``next`` is atomic under the interpreter lock

    def work():
        # checked before a pass is taken, so no taken pass is left unrun
        while not failures and (k := next(passes, None)) is not None:
            try:
                results[k] = run(k)
            except BaseException as exc:  # re-raised below, after the join
                failures[k] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(_cpus(), count) - 1)]
    for helper in helpers:
        helper.start()
    work()  # raises nothing: each thread keeps its failure
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[min(failures)]
    return results


# The bound quantities that Kraus mixing must leave unchanged, in report order.
_INVARIANT_NAMES = ("product", "sum", "i_values", "s_values", "s_values_as_printed",
                    "cross_term")


def invariance_columns(base: ChainStage, trials) -> np.ndarray:
    """The invariance deviations of the instances of ``base``, one row per
    instance and one column per quantity, in the order of
    ``kraus_invariance_check``'s keys.

    ``trials`` is an iterable of stages whose rows run trial after trial of
    those instances, each stage holding whole trials: with B instances, row
    ``B t + b`` of a stage holds its trial t of instance b.  A quantity's
    deviation is its worst ``|mixed - base|`` over the trials, as Python's
    ``max`` from 0.0 over the trials in order.  It is folded one stage at a
    time, as a running ``first_max``: every gap is +0.0 or more, or NaN, so
    that gives the bits of one fold over every trial.
    """
    count, bases = len(base.products), _invariants(base)
    worst = np.zeros((count, len(bases)))
    for stage in trials:
        for column, (unmixed, mixed) in enumerate(zip(bases, _invariants(stage))):
            # a leading length, not -1: the S lattice has no columns at d = 1
            mixed = mixed.reshape(len(mixed) // count, count, mixed.shape[1])
            gaps = np.abs(mixed - unmixed).transpose(1, 0, 2).reshape(count, -1)
            worst[:, column] = first_max(np.column_stack([worst[:, column], gaps]))
    return worst


def _invariants(stage: ChainStage) -> list:
    """A stage's quantities as (rows, values) arrays, as ``_INVARIANT_NAMES``."""
    return [stage.products[:, None], stage.sums[:, None], stage.i_values,
            stage.lattices[Reading.PRODUCT], stage.lattices[Reading.AS_PRINTED],
            stage.cross_terms[:, None]]
