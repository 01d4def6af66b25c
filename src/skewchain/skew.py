"""Skew information of observables, Kraus operators and channels.

The central object is the commutator frame ``[sqrt(rho), K]`` together with
its columns in the computational basis.  Column vectors are always taken in
that fixed basis: the k-th frame vector is literally the k-th matrix column.
Downstream bound chains are basis dependent, so this choice is part of the
contract rather than an implementation detail.

This module owns the frame kernel that every other module reads:
``frame_stack`` builds the frames of a stack of instances, ``column_norms_sq``
their squared column norms and ``channel_skews`` the channel skew information
from those norms.  The one-operator and one-channel functions below are
stacks of one over the same kernel, so ``skew_info_channel`` carries the bits
of the skew informations inside a bound chain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError
from .linalg import as_matrix, commutator, hermiticity_defect, hs_inner
from .objects import DensityMatrix, KrausChannel

__all__ = [
    "channel_skews",
    "column_norms_sq",
    "commutator_frame",
    "frame_stack",
    "observable_commutator_bound",
    "skew_info_channel",
    "skew_info_observable",
    "skew_info_operator",
]


def frame_stack(sqrt_rhos: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Commutator frames ``[sqrt(rho_b), K_bn]`` of B instances, stacked (B, n, d, d).

    ``sqrt_rhos`` is (B, d, d) and ``operators`` (B, n, d, d).  Each slice is
    the same BLAS call as for a lone instance, so a stack keeps every
    instance's bits.
    """
    s = sqrt_rhos[:, None]
    return s @ operators - operators @ s


def column_norms_sq(frames: np.ndarray) -> np.ndarray:
    """Squared 2-norm of every frame column: (..., n, d, d) frames give (..., n, d)."""
    return np.einsum("...nij,...nij->...nj", frames.conj(), frames).real


def channel_skews(norms: np.ndarray) -> np.ndarray:
    """Channel skew information of each instance, as a float64 array: half its
    summed squared column norms."""
    rows = norms.reshape(len(norms), -1).tolist()
    return 0.5 * np.fromiter(map(math.fsum, rows), np.float64, len(rows))


def commutator_frame(rho: DensityMatrix, op) -> np.ndarray:
    """The read-only frame matrix ``[sqrt(rho), K]`` of one operator."""
    mat = as_matrix(op)
    if mat.shape != (rho.dim, rho.dim):
        raise DimensionMismatchError(
            f"operator of shape {mat.shape} against a dim-{rho.dim} state")
    frame = frame_stack(rho.sqrt_rho[None], mat[None, None])[0, 0]
    frame.setflags(write=False)
    return frame


def skew_info_operator(rho: DensityMatrix, op) -> float:
    """``(1/2) Tr([sqrt(rho), K]^dag [sqrt(rho), K])``.

    This dagger form is the definition used for arbitrary (not necessarily
    Hermitian) Kraus operators; it coincides with the squared-commutator form
    on the Hermitian cone only.
    """
    return channel_skews(column_norms_sq(commutator_frame(rho, op)[None, None]))[0].item()


def skew_info_channel(rho: DensityMatrix, channel: KrausChannel) -> float:
    """Half the summed squared column norms of all the channel's frames, summed exactly."""
    if channel.dim != rho.dim:
        raise DimensionMismatchError(
            f"dim-{channel.dim} channel against a dim-{rho.dim} state")
    frames = frame_stack(rho.sqrt_rho[None], channel.operators[None])
    return channel_skews(column_norms_sq(frames))[0].item()


def skew_info_observable(rho: DensityMatrix, a, hermiticity_tol: float = 1e-10) -> float:
    """``-(1/2) Tr([sqrt(rho), A]^2)`` for Hermitian A."""
    mat = as_matrix(a)
    defect = hermiticity_defect(mat)
    if defect > hermiticity_tol:
        raise NotHermitianError(defect, hermiticity_tol)
    c = commutator(rho.sqrt_rho, mat)
    return max(-0.5 * float(np.trace(c @ c).real), 0.0)


def observable_commutator_bound(rho: DensityMatrix, a, b,
                                hermiticity_tol: float = 1e-10) -> float:
    """``(1/4) |Tr(rho [A, B])|^2`` for Hermitian A, B.

    Returned as a check value for callers comparing it against the product of
    skew informations; the comparison can fail for mixed states, so nothing is
    asserted here.
    """
    am, bm = as_matrix(a), as_matrix(b)
    for mat in (am, bm):
        defect = hermiticity_defect(mat)
        if defect > hermiticity_tol:
            raise NotHermitianError(defect, hermiticity_tol)
    expectation = hs_inner(rho.rho, commutator(am, bm))  # Tr(rho [A,B]), rho Hermitian
    return 0.25 * abs(expectation) ** 2
