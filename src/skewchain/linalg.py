"""Dense complex matrix kernels shared by every other module, and the
row folds ``first_max`` and ``first_min`` that give Python's ``max`` and
``min`` bit for bit.

All matrices are square ``numpy`` arrays of complex128 (pairs of 64-bit
floats).  Everything here is a pure function of its inputs; returned arrays
are fresh and safe to mutate by the caller.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
)

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "FirstFailure",
    "as_matrix",
    "first_max",
    "first_min",
    "hermitian_eigendecompose",
    "hermiticity_defects",
    "max_abs_each",
    "psd_sqrt",
    "psd_sqrt_stack",
]


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():  # both parts of every entry
        raise NonFiniteError()
    return arr


def require_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(m.shape)
    return m.shape[0]


def first_max(x: np.ndarray) -> np.ndarray:
    """Python's ``max`` of each row of ``x`` (its last axis, non-empty), bit for bit.

    That fold keeps its first entry unless a later one is larger, so a row
    that starts with NaN gives NaN, and any other row gives its first entry
    equal to the largest non-NaN one: later NaNs are skipped, and of equal
    zeros the first keeps its sign.  ``np.max`` propagates every NaN and may
    pick either zero.
    """
    rows = x.reshape(-1, x.shape[-1])
    top = np.fmax.reduce(rows, axis=1)
    first = rows[np.arange(len(rows)), (rows == top[:, None]).argmax(axis=1)]
    return np.where(np.isnan(rows[:, 0]), rows[:, 0], first).reshape(x.shape[:-1])


def first_min(x: np.ndarray) -> np.ndarray:
    """Python's ``min`` of each row of ``x``, bit for bit, as ``first_max``."""
    return -first_max(-x)


# ---------------------------------------------------------------------------
# Stacked kernels
#
# The kernels below check and decompose a (B, d, d) stack in one pass.  Each
# slice sees the same LAPACK and BLAS calls and elementwise operations as a
# lone matrix, so every instance keeps its bits; the one-matrix functions are
# stacks of one.


class FirstFailure:
    """The first failing instance of a stack and its error, found check by check.

    Each check looks only at the instances before the first failure found so
    far (``count``), so the error kept is the one that instance raises alone:
    that of its own first failing check.
    """

    def __init__(self, count: int):
        self.count = count
        self.error = None

    def record(self, failed, error) -> None:
        """``failed[b]`` flags instance b (only b < ``count`` are read);
        ``error(b)`` builds that instance's exception."""
        failed = np.asarray(failed)[:self.count]
        if failed.any():
            self.count = int(failed.argmax())
            self.error = error(self.count)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def max_abs_each(m: np.ndarray) -> np.ndarray:
    """Entrywise max-norm ``max |m_ij|`` of each instance of a stack along its
    leading axis (0 for an empty instance)."""
    return np.abs(m).max(axis=tuple(range(1, m.ndim)), initial=0.0)


def hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """``max |M - M^dag|`` of each matrix M of a (B, d, d) stack."""
    return max_abs_each(m - _adjoint(m))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Scale each column of each (d, d) slice so that its first largest-modulus
    entry is real positive.  The modulus of that entry is ``hypot``, as
    numpy's scalar ``abs``; an all-zero column stays zero."""
    count, d = v.shape[0], v.shape[-1]
    a = v[np.arange(count)[:, None], np.abs(v).argmax(axis=-2), np.arange(d)][:, None, :]
    mag = np.hypot(a.real, a.imag)
    return v * (a.conj() / np.where(mag > 0.0, mag, 1.0))


def _eigh(herm: np.ndarray, check: FirstFailure) -> tuple:
    """``np.linalg.eigh`` of a stack.  Should the solver fail, the first
    instance it fails on alone is recorded in ``check`` and the instances
    before it are solved."""
    try:
        return np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        error = exc
    for b, m in enumerate(herm):
        try:
            np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            check.record(np.arange(b + 1) == b,
                         lambda _, exc=exc: ConvergenceError(f"eigensolver failed: {exc}"))
            return np.linalg.eigh(herm[:b])
    raise ConvergenceError(f"eigensolver failed: {error}")


def _eigendecompose_stack(arr: np.ndarray, hermiticity_tol: float, check: FirstFailure) -> tuple:
    """``hermitian_eigendecompose`` of each finite (d, d) slice of ``arr`` before
    ``check.count``, as ``(eigenvalues, eigenvectors)`` stacks.

    Failures are recorded in ``check``, which the caller raises; the returned
    stacks cover at least the instances before the first failure.
    """
    arr = arr[:check.count]
    defects = hermiticity_defects(arr)
    check.record(defects > hermiticity_tol,
                 lambda b: NotHermitianError(float(defects[b]), hermiticity_tol))
    arr = arr[:check.count]
    herm = (arr + _adjoint(arr)) / 2.0
    w, v = _eigh(herm, check)
    v = _fix_phases(v)
    eye = np.eye(arr.shape[-1])
    check.record(max_abs_each(_adjoint(v) @ v - eye) > 1e-10,
                 lambda b: ConvergenceError("eigenvector matrix is not unitary to 1e-10"))
    check.record(max_abs_each((v * w[:, None, :]) @ _adjoint(v) - herm[:len(v)]) > 1e-10,
                 lambda b: ConvergenceError(
                     "eigendecomposition does not reconstruct the input to 1e-10"))
    return w, v


def psd_sqrt_stack(arr: np.ndarray, tol: float, check: FirstFailure) -> np.ndarray:
    """``psd_sqrt`` of each finite (d, d) slice of ``arr`` before ``check.count``.

    Failures are recorded in ``check``, which the caller raises.
    """
    w, v = _eigendecompose_stack(arr, tol, check)
    check.record(w[:, 0] < -tol, lambda b: NotPSDError(float(w[b, 0]), tol))
    w, v = w[:check.count], v[:check.count]
    s = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ _adjoint(v)
    return (s + _adjoint(s)) / 2.0


def _stack_of_one(kernel, m, tol: float):
    arr = as_matrix(m)
    require_square(arr)
    check = FirstFailure(1)
    out = kernel(arr[None], tol, check)
    check.raise_first()
    return out


def hermitian_eigendecompose(m, hermiticity_tol: float = DEFAULT_TOL) -> tuple:
    """Eigendecompose a Hermitian matrix with validated output, as
    ``(eigenvalues, eigenvectors)`` like ``np.linalg.eigh``.

    The eigenvalues ascend; the eigenvectors are the matching orthonormal
    columns, each column's phase fixed so that its largest-modulus component
    is real positive (deterministic tie-breaking).

    Raises
    ------
    NotSquareError, NotHermitianError, ConvergenceError
    """
    w, v = _stack_of_one(_eigendecompose_stack, m, hermiticity_tol)
    return w[0], v[0]


def psd_sqrt(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root S with ``S @ S == rho`` to 1e-10.

    Eigenvalues in ``[-tol, 0)`` are clamped to 0 before the square root, so
    rounding noise in externally supplied states does not abort a run.
    """
    return _stack_of_one(psd_sqrt_stack, rho, tol)[0]
