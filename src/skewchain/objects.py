"""Validated quantum states and channels, plus seeded random instances.

Two completeness conventions coexist because physically interesting Kraus
families are sometimes normalized as ``sum_i K_i K_i^dag = I`` (row sum)
rather than the standard trace-preservation condition
``sum_i K_i^dag K_i = I`` (column sum).  The worked-example channels satisfy
only the row-sum form; randomly generated channels default to column sum.

All randomness flows through ``numpy``'s PCG64 bit generator seeded from a
non-negative integer, so identical seeds produce bit-identical objects and
ports can reproduce the streams from the published PCG64 reference.  The
seeding hash is numpy's ``SeedSequence``, computed here over whole stacks of
seeds at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CompletenessError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    TraceNotOneError,
)
from .linalg import (
    DEFAULT_TOL,
    FirstFailure,
    as_matrix,
    hermiticity_defects,
    max_abs_each,
    psd_sqrt_stack,
    require_square,
)

__all__ = [
    "Convention",
    "DensityMatrix",
    "KrausChannel",
    "apply_channel",
    "channel_stack",
    "channels_from_words",
    "densities_from_words",
    "density_stack",
    "derive_seed",
    "derive_seeds",
    "generators_from_words",
    "mix_kraus",
    "mix_kraus_families",
    "random_channel",
    "random_density",
    "random_unitary",
    "seeding_words",
    "trial_entropies",
    "unitaries_from_words",
    "validate_channel",
    "validate_density",
    "verify_instances",
]


class Convention(str, Enum):
    """Which completeness sum a Kraus family is validated against."""

    ROW_SUM = "row_sum"        # sum_i K_i K_i^dag = I
    COLUMN_SUM = "column_sum"  # sum_i K_i^dag K_i = I


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated d-dimensional state with its PSD square root cached."""

    dim: int
    rho: np.ndarray
    sqrt_rho: np.ndarray


def validate_density(m, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, positivity and unit trace, and cache ``sqrt(rho)``:
    ``density_stack`` of a stack of one.

    Raises
    ------
    NotSquareError, NotHermitianError, NotPSDError, TraceNotOneError
    """
    rhos, sqrts = density_stack(as_matrix(m)[None], tol)
    return DensityMatrix(dim=rhos.shape[-1], rho=rhos[0], sqrt_rho=sqrts[0])


def density_stack(stack, tol: float = DEFAULT_TOL) -> tuple:
    """The states of a (B, d, d) stack and their square roots, as two
    read-only (B, d, d) complex arrays, in one pass.

    Each state keeps its bits, and a bad stack raises what its first failing
    state raises alone.
    """
    arr = _as_stack(stack, 3, validate_density, tol)
    if not len(arr):
        return _frozen(arr), _frozen(arr)
    check = FirstFailure(len(arr))
    check.record(~_finite_each(arr), lambda b: NonFiniteError())
    if arr.shape[1] != arr.shape[2]:  # a shared shape: the first finite state fails it
        check.record([True], lambda b: NotSquareError(arr.shape[1:]))
        check.raise_first()
    defects = hermiticity_defects(arr[:check.count])
    check.record(defects > tol, lambda b: NotHermitianError(float(defects[b]), tol))
    trace = np.trace(arr[:check.count], axis1=1, axis2=2) - 1.0
    trace_devs = np.hypot(trace.real, trace.imag)  # as Python's complex abs
    check.record(trace_devs > tol, lambda b: TraceNotOneError(float(trace_devs[b]), tol))
    sqrts = psd_sqrt_stack(arr, tol, check)
    check.raise_first()
    return _frozen(arr), _frozen(sqrts)


def _finite_each(arr: np.ndarray) -> np.ndarray:
    return np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))


def _as_stack(stack, ndim: int, validate_one, *args) -> np.ndarray:
    """``stack`` as one complex array of ``ndim`` axes.  A stack that is not one
    such array is validated instance by instance, which raises the first
    failing instance's error, or else a shape mismatch."""
    if not len(stack):
        return np.zeros((0,) * ndim, dtype=np.complex128)
    try:
        arr = np.asarray(stack, dtype=np.complex128)
    except ValueError:  # instances of different shapes
        arr = None
    if arr is None or arr.ndim != ndim:
        for instance in stack:
            validate_one(instance, *args)
        raise DimensionMismatchError("the instances of a stack must share one shape")
    return arr


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered Kraus family with a declared completeness convention; the
    operators are one read-only (n, d, d) complex array."""

    dim: int
    operators: np.ndarray
    convention: Convention

    @property
    def n(self) -> int:
        return len(self.operators)


def completeness_residual(ops, convention: Convention) -> float:
    """Max-norm deviation of the convention's completeness sum from identity."""
    return float(_completeness_residuals(np.array(ops)[None], convention)[0])


def _completeness_residuals(arr: np.ndarray, convention: Convention) -> np.ndarray:
    """``completeness_residual`` of each Kraus family of a (B, n, d, d) stack;
    the sum runs over the operators in order, as for one family."""
    adjoint = arr.conj().swapaxes(-1, -2)
    terms = arr @ adjoint if convention == Convention.ROW_SUM else adjoint @ arr
    acc = np.zeros(arr.shape[:1] + arr.shape[2:], dtype=np.complex128)
    for k in range(arr.shape[1]):
        acc += terms[:, k]
    return max_abs_each(acc - np.eye(arr.shape[-1]))


def validate_channel(ops, convention: Convention = Convention.COLUMN_SUM,
                     tol: float = DEFAULT_TOL) -> KrausChannel:
    """Validate a Kraus family against the chosen completeness convention.

    ``ops`` is a sequence of matrices, or an (n, d, d) array, which is
    checked as one family without splitting it into its matrices.

    Raises
    ------
    DimensionMismatchError, CompletenessError, ValueError
    """
    if not (isinstance(ops, np.ndarray) and ops.ndim == 3):  # each matrix checked alone
        mats = [as_matrix(k) for k in ops]
        d = _family_dim(len(mats), mats[0].shape if mats else None)
        for k in mats[1:]:
            if k.shape != (d, d):
                raise DimensionMismatchError(
                    f"Kraus operators have mixed shapes: {(d, d)} vs {k.shape}")
        ops = np.array(mats)
    return _channel(channel_stack(ops[None], convention, tol)[0], convention)


def _channel(ops: np.ndarray, convention: Convention) -> KrausChannel:
    """The ``KrausChannel`` of a validated read-only (n, d, d) family."""
    return KrausChannel(dim=ops.shape[-1], operators=ops, convention=Convention(convention))


def channel_stack(stack, convention: Convention = Convention.COLUMN_SUM,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """The Kraus families of a (B, n, d, d) stack as one read-only complex
    array, in one pass.

    The checks, tolerance and residual are those of ``validate_channel``, and
    each family keeps its bits.  A bad stack raises what its first failing
    family raises alone.
    """
    arr = _as_stack(stack, 4, validate_channel, convention, tol)
    if not len(arr):
        return _frozen(arr)
    finite = _finite_each(arr)
    if not finite[0]:
        raise NonFiniteError()
    # The shape and convention are shared, so the first family fails them first.
    n, d = arr.shape[1], _family_dim(arr.shape[1], arr.shape[2:])
    if n > d * d:
        raise ValueError(f"{n} Kraus operators exceed the d^2 = {d * d} maximum")
    convention = Convention(convention)
    check = FirstFailure(len(arr))
    check.record(~finite, lambda b: NonFiniteError())
    residuals = _completeness_residuals(arr[:check.count], convention)
    check.record(residuals > tol,
                 lambda b: CompletenessError(float(residuals[b]), convention.value, tol))
    check.raise_first()
    return _frozen(arr)


def _family_dim(n: int, shape) -> int:
    """The dimension of a family of ``n`` Kraus operators, the first of ``shape``."""
    if not n:
        raise ValueError("a channel needs at least one Kraus operator")
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NotSquareError(shape)
    return shape[0]


def apply_channel(channel: KrausChannel, state) -> np.ndarray:
    """``sum_i K_i rho K_i^dag`` for a DensityMatrix or raw matrix."""
    rho = state.rho if isinstance(state, DensityMatrix) else as_matrix(state)
    if rho.shape != (channel.dim, channel.dim):
        raise DimensionMismatchError(
            f"state of shape {rho.shape} fed to a dim-{channel.dim} channel")
    out = np.zeros_like(rho)
    for k in channel.operators:
        out += k @ rho @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# Seeded random instances


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, and the constants of its hashmix, mix and generate_state.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropies) -> tuple:
    """The 32-bit words that SeedSequence splits each entropy, a sequence of
    non-negative ints, into: int after int, each least significant word
    first; 0 is one word.

    Returns a (B, W) uint32 array, each row padded with zero words to
    ``W = max(4, longest row)``, and each row's word count.
    """
    entropies = list(entropies)
    lengths = [len(entropy) for entropy in entropies]
    ints = [int(n) for entropy in entropies for n in entropy]
    if min(ints, default=0) < 0:
        raise ValueError("expected non-negative integer")
    # every int at the width of the widest, then each cut to its own words
    width = (max(ints, default=0).bit_length() + 31) // 32 or 1
    words = np.frombuffer(b"".join([n.to_bytes(4 * width, "little") for n in ints]),
                          dtype="<u4").reshape(len(ints), width)
    nonzero = words != 0
    sizes = np.where(nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 1)
    word_rows = np.repeat(np.repeat(np.arange(len(lengths)), lengths), sizes)
    widths = np.bincount(word_rows, minlength=len(lengths))
    rows = np.zeros((len(lengths), max(_POOL_SIZE, widths.max(initial=0))), dtype=np.uint32)
    rows[word_rows, np.arange(len(word_rows)) - (np.cumsum(widths) - widths)[word_rows]] = \
        words[np.arange(width) < sizes[:, None]]
    return rows, widths


@functools.lru_cache(maxsize=16)
def _hash_constants(const: int, mult: int, steps: int) -> tuple:
    """The xor and multiply constants of SeedSequence's first ``steps`` hash
    steps from the multiplier ``const``: ``hashmix`` from (INIT_A, MULT_A),
    ``generate_state`` from (INIT_B, MULT_B).  They do not depend on the data."""
    xors, mults = [], []
    for _ in range(steps):
        xors.append(const)
        const = const * mult & _MASK32
        mults.append(const)
    xors, mults = np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)
    xors.setflags(write=False)
    mults.setflags(write=False)
    return xors, mults


def _hash(value: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step of each entry, column j with constants j."""
    value = (value ^ xors) * mults
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> 16


def _seed_pools(words: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """SeedSequence's entropy pool of each row of a (B, W >= 4) uint32 array,
    as (B, 4) uint32; row b holds ``widths[b]`` words.  The first four words
    fill the pool, each pool word mixes into the three others, then each
    further word of a row into all four.  Each mixing word's hashes take
    successive constants, one per pool word it mixes into, in pool order.
    A row of fewer than four words mixes as if padded with zero words, as in
    SeedSequence, so rows of every width share the pass."""
    xors, mults = _hash_constants(_INIT_A, _MULT_A, 4 * words.shape[1])
    pool = _hash(words[:, :_POOL_SIZE], xors[:4], mults[:4])
    step = 4
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashes = _hash(pool[:, src, None], xors[step:step + 3], mults[step:step + 3])
        pool[:, dst] = _mix(pool[:, dst], hashes)
        step += 3
    for src in range(_POOL_SIZE, words.shape[1]):
        mixed = _mix(pool, _hash(words[:, src, None], xors[step:step + 4], mults[step:step + 4]))
        pool = np.where((widths > src)[:, None], mixed, pool)
        step += 4
    return pool


def seeding_words(entropies) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` of each entropy
    ``(seed, *parts)``, a sequence of non-negative ints, as one (B, 4) uint64
    array from one hash pass: the words that seed PCG64.  generate_state
    hashes the pool's words one after another, so column 0 is
    ``derive_seed(*entropy)``, and the row of ``(seed,)`` seeds PCG64 as
    ``PCG64(seed)`` does (``generators_from_words``): a caller may derive
    seeds and seed generators in the same pass."""
    pools = _seed_pools(*_entropy_words(entropies))
    # generate_state reads the pool cyclically, and SeedSequence reads pairs
    # of its words as little-endian 64-bit words
    state = _hash(pools[:, np.arange(8) % _POOL_SIZE], *_hash_constants(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seeding_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` the words a SeedSequence
    would give it, hashed ahead.  Made on first use, so that importing
    skewchain does not import ``numpy.random``."""
    class SeedingWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the four uint64 words that seed PCG64")
            return self._words

    return SeedingWords


def generators_from_words(words) -> list:
    """The PCG64 generator that each row of ``seeding_words`` seeds."""
    seeding = _seeding_words_type()
    return [np.random.Generator(np.random.PCG64(seeding(row))) for row in words]


def derive_seed(seed: int, *parts: int) -> int:
    """Stable 64-bit sub-seed for (seed, parts): the first uint64 word of
    numpy's ``SeedSequence([seed, *parts])``."""
    return derive_seeds([(seed, *parts)])[0]


def derive_seeds(entropies) -> list:
    """``derive_seed(*entropy)`` of each entropy ``(seed, *parts)``, in one hash pass."""
    return seeding_words(entropies)[:, 0].tolist()


def trial_entropies(seeds, trials: int) -> list:
    """The entropies ``(seed, trial, side)`` that ``derive_seed`` turns into
    the mixing-unitary seeds of each seed's trials: seed by seed, trial by
    trial, u (side 1) before v (side 2)."""
    return [(seed, trial, side) for seed in seeds for trial in range(trials) for side in (1, 2)]


def _complex_gaussians(words, size: int) -> np.ndarray:
    """``(x + 1j y) / sqrt(2)`` for ``size`` standard Gaussian pairs from the
    generator that each row of ``words`` seeds, as a (B, size) complex array.

    Each generator draws all of its real parts x, then all of its imaginary
    parts y, in one ``standard_normal`` call, which is the stream of one call
    per part.  The complex values of the whole stack are assembled at once.
    """
    draws = np.empty((len(words), 2, size))
    for gen, out in zip(generators_from_words(words), draws):
        gen.standard_normal(out=out)
    return (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """``G G^dag / Tr(G G^dag)`` for a seeded d-by-rank complex Gaussian G."""
    rhos, sqrts = densities_from_words(d, [rank], seeding_words([(seed,)]))
    return DensityMatrix(dim=d, rho=rhos[0], sqrt_rho=sqrts[0])


def densities_from_words(d: int, ranks, words) -> tuple:
    """``random_density`` of each rank, with the ``seeding_words`` row of its
    seed in place of the seed, as ``density_stack`` returns the states: each
    draws from its own generator.  The states of one rank draw their
    Gaussians as one stack, and each ``G G^dag`` is formed alone."""
    ranks = list(ranks)
    by_rank = {}  # rank -> the indices of its states
    for b, rank in enumerate(ranks):
        if not 1 <= rank <= d:
            raise ValueError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
        by_rank.setdefault(rank, []).append(b)
    if len(ranks) != len(words):
        raise ValueError(f"{len(ranks)} ranks but {len(words)} seeds")
    ms = np.empty((len(ranks), d, d), dtype=np.complex128)
    for rank, members in by_rank.items():
        for b, g in zip(members, _complex_gaussians(words[members], d * rank).reshape(-1, d, rank)):
            m = g @ g.conj().T
            m /= np.trace(m).real
            ms[b] = (m + m.conj().T) / 2.0
    return density_stack(ms)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n-by-n unitary with deterministic phase fixing."""
    return unitaries_from_words(n, seeding_words([(seed,)]))[0]


def unitaries_from_words(n: int, words) -> np.ndarray:
    """``random_unitary`` of each ``seeding_words`` row, in place of a seed,
    as one (B, n, n) stack from one stacked QR."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar_isometries(words, n, n)


def _haar_isometries(words, rows: int, cols: int) -> np.ndarray:
    """One Haar isometry per row of seeding words, each from its own
    generator, as a (B, rows, cols) stack.  A stacked QR runs LAPACK on each
    slice, as for a lone matrix."""
    if not len(words):
        return np.zeros((0, rows, cols), dtype=np.complex128)
    q, r = np.linalg.qr(_complex_gaussians(words, rows * cols).reshape(len(words), rows, cols))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    # make the triangular factor's diagonal real positive
    return q * (diag / np.abs(diag))[:, None, :]


def random_channel(d: int, n_kraus: int, convention: Convention = Convention.COLUMN_SUM,
                   seed: int = 0) -> KrausChannel:
    """Slice a Haar-distributed (n_kraus*d)-by-d isometry into Kraus blocks.

    Stacked blocks of an isometry W satisfy ``sum_i K_i^dag K_i = W^dag W = I``
    exactly, so column-sum completeness is constructive; the row-sum form takes
    the adjoint of each block.
    """
    ops = channels_from_words(d, n_kraus, seeding_words([(seed,)]), convention)
    return _channel(ops[0], convention)


def channels_from_words(d: int, n_kraus: int, words,
                        convention: Convention = Convention.COLUMN_SUM) -> np.ndarray:
    """``random_channel`` of each ``seeding_words`` row, in place of a seed,
    as ``channel_stack`` returns the families: one stacked QR, then one
    validation pass."""
    if not 1 <= n_kraus <= d * d:
        raise ValueError(f"n_kraus must satisfy 1 <= n <= d^2, got n={n_kraus}, d={d}")
    convention = Convention(convention)
    w = _haar_isometries(words, n_kraus * d, d)
    blocks = w.reshape(len(w), n_kraus, d, d)  # block i is rows i*d .. (i+1)*d of W
    if convention == Convention.ROW_SUM:
        blocks = blocks.conj().swapaxes(-1, -2)
    # an isometry's blocks are complete up to rounding
    return channel_stack(blocks, convention=convention, tol=1e-12)


def mix_kraus(channel: KrausChannel, u) -> KrausChannel:
    """Replace the Kraus family by ``K'_t = sum_s U_ts K_s`` for unitary U.

    The mixed family represents the same channel, so ``apply_channel`` output
    and the declared completeness convention are unchanged.
    """
    mixed = _mix_family(channel.operators, u)
    return _channel(mixed, channel.convention)


def _mix_family(ops: np.ndarray, u) -> np.ndarray:
    """The (n, d, d) Kraus family ``ops`` mixed by ``u``, checked as ``mix_kraus`` checks it."""
    um = as_matrix(u)
    n = require_square(um)
    if n != len(ops):
        raise DimensionMismatchError(
            f"mixing unitary is {n}x{n} but the channel has {len(ops)} Kraus operators")
    return mix_kraus_families(ops[None], um[None])[0]


def mix_kraus_families(families, us) -> np.ndarray:
    """``mix_kraus`` of each Kraus family of a (B, n, d, d) stack by its
    unitary of a (B, n, n) stack, as one read-only (B, n, d, d) array.

    The pass runs one stacked unitarity check and one ``einsum``, which sums
    each entry over a contiguous Kraus axis of the families stored as one
    (B, d^2, n) array; each entry is summed in Kraus order.  A bad
    stack raises what its first failing unitary raises alone, and unitaries
    that do not form one array what their first failing pair raises in
    ``mix_kraus``.  Completeness is not checked again: mixing by a unitary
    keeps the completeness sum of the families, which their validation
    checked.
    """
    ops = np.asarray(families, dtype=np.complex128)
    try:
        arr = np.asarray(us, dtype=np.complex128)
    except ValueError:  # unitaries of different shapes
        arr = None
    if arr is None and ops.ndim == 4:
        for family, u in zip(ops, us):
            _mix_family(family, u)
    if arr is None or ops.ndim != 4 or arr.shape != (len(ops), ops.shape[1], ops.shape[1]):
        shape = "unitaries of different shapes" if arr is None else arr.shape
        raise DimensionMismatchError(
            f"need a (B, n, d, d) stack of Kraus families and a (B, n, n) stack of "
            f"mixing unitaries, got shapes {ops.shape} and {shape}")
    check = FirstFailure(len(arr))
    check.record(~_finite_each(arr), lambda b: NonFiniteError())
    arr = arr[:check.count]
    residuals = max_abs_each(arr.conj().swapaxes(-1, -2) @ arr - np.eye(ops.shape[1]))
    check.record(residuals > 1e-10, lambda b: NotUnitaryError(float(residuals[b]), 1e-10))
    check.raise_first()
    b, n, d, _ = ops.shape
    flat = np.ascontiguousarray(ops.reshape(b, n, d * d).swapaxes(-1, -2))
    return _frozen(np.einsum("...ts,...ks->...tk", arr, flat).reshape(b, n, d, d))


def verify_instances(seed: int, d: int, ks) -> tuple:
    """The instances k of ``ks`` at dimension d that ``verify`` certifies,
    as stacks in the order of ``ks``: ``(roots, families, mixed_families,
    counts)``.  They are the states' square roots; each side's Kraus
    families, zero-padded to that side's largest count; the same families
    mixed by each instance's one trial; and the pair of (B,) arrays of each
    instance's own counts (n1, n2).

    Each instance draws from its own derived seeds and generators, as it
    would alone: parts 0, 1 and 2 of ``(seed, d, k, part)`` seed its state
    and its two channels, and part 4 its trial.  The instances are hashed
    in three passes, one per derivation level: the derived seeds; then the
    trials' unitary seeds (rows 2i and 2i + 1 for instance i's u and v)
    with the seeding words of every state and channel; then the words of
    the trials' mixing unitaries.  The states are generated as one stack,
    the channels and the trials' unitaries as one stack per Kraus count.
    """
    ks = list(ks)
    count = len(ks)
    derived = derive_seeds([(seed, d, k, part) for k in ks for part in (0, 1, 2, 4)])
    # the trials' seeds, then the words of the states, the channels 1 and 2
    words = seeding_words(trial_entropies(derived[3::4], 1)
                          + [(s,) for part in range(3) for s in derived[part::4]])
    trial_words = seeding_words([(s,) for s in words[:2 * count, 0].tolist()])
    _, roots = densities_from_words(d, [(k % d) + 1 for k in ks], words[2 * count:3 * count])
    counts = np.array([(min((k % 4) + 1, d * d), min(((k // 4) % 4) + 1, d * d)) for k in ks])
    ops = [np.zeros((2, count, n, d, d), np.complex128) for n in counts.max(axis=0).tolist()]
    flat = counts.ravel()  # family 2i + side is instance i's channel on that side
    for n in dict.fromkeys(flat.tolist()):
        family = np.flatnonzero(flat == n)
        i, side = np.divmod(family, 2)
        chs = channels_from_words(d, n, words[(3 + side) * count + i])
        mixed = mix_kraus_families(chs, unitaries_from_words(n, trial_words[family]))
        for s in set(side.tolist()):
            ops[s][:, i[side == s], :n] = chs[side == s], mixed[side == s]
    families, mixed_families = zip(*ops)
    return roots, families, mixed_families, tuple(counts.T)
