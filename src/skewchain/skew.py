"""Skew information of Kraus operators and channels.

The central object is the commutator frame ``[sqrt(rho), K]`` together with
its columns in the computational basis.  Column vectors are always taken in
that fixed basis: the k-th frame vector is literally the k-th matrix column.
Downstream bound chains are basis dependent, so this choice is part of the
contract rather than an implementation detail.

This module owns the frame kernel that every other module reads:
``frame_stack`` builds the frames of a stack of instances, ``column_norms_sq``
their squared column norms, ``column_overlaps`` the inner products of their
columns and ``channel_skews`` the channel skew information from the norms.
The one-operator and one-channel functions below are stacks of one over the
same kernel, so ``skew_info_channel`` carries the bits of the skew
informations inside a bound chain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_matrix
from .objects import DensityMatrix, KrausChannel

__all__ = [
    "channel_skews",
    "column_norms_sq",
    "column_overlaps",
    "commutator_frame",
    "frame_stack",
    "skew_info_channel",
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
    """Squared 2-norm of every frame column: (..., n, d, d) frames give (..., n, d).

    This and ``column_overlaps`` sum over a contiguous axis when the frames
    are stored column-major, as ``stage_from_frames`` stores them.  Any
    layout gives the same bits, but for the sign of a NaN: each sum runs in
    row order.
    """
    columns = frames.swapaxes(-1, -2)
    return np.einsum("...nji,...nji->...nj", columns.conj(), columns).real


def column_overlaps(e_frames: np.ndarray, f_frames: np.ndarray) -> np.ndarray:
    """``<col_k(E_a), col_k(F_b)>`` of every column k of every pair of frames:
    (..., n1, d, d) and (..., n2, d, d) frames give a C-contiguous
    (..., n1, n2, d) array."""
    e_columns, f_columns = e_frames.swapaxes(-1, -2), f_frames.swapaxes(-1, -2)
    return np.einsum("...aji,...bji->...abj", e_columns.conj(), f_columns)


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
