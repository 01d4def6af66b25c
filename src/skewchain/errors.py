"""Exception types for validation and numerical failures.

Every error carries the offending magnitude so callers can report which
invariant failed and by how much.
"""

from __future__ import annotations


class SkewchainError(ValueError):
    """Base class for all validation and numerical errors in this package."""


class NotSquareError(SkewchainError):
    def __init__(self, shape):
        super().__init__(f"matrix is not square: shape {shape}")
        self.shape = shape


class NonFiniteError(SkewchainError):
    def __init__(self):
        super().__init__("matrix contains non-finite entries")


class DimensionMismatchError(SkewchainError):
    def __init__(self, message: str):
        super().__init__(message)


class NotHermitianError(SkewchainError):
    def __init__(self, asymmetry: float, tol: float):
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dag| = {asymmetry:.3e} > tol {tol:.3e}"
        )
        self.asymmetry = asymmetry


class NotPSDError(SkewchainError):
    def __init__(self, min_eigenvalue: float, tol: float):
        super().__init__(
            f"matrix is not positive semidefinite: most negative eigenvalue "
            f"{min_eigenvalue:.3e} < -tol {tol:.3e}"
        )
        self.min_eigenvalue = min_eigenvalue


class TraceNotOneError(SkewchainError):
    def __init__(self, deviation: float, tol: float):
        super().__init__(f"|trace - 1| = {deviation:.3e} > tol {tol:.3e}")
        self.deviation = deviation


class CompletenessError(SkewchainError):
    def __init__(self, residual: float, convention: str, tol: float):
        super().__init__(
            f"Kraus completeness violated under {convention}: "
            f"max residual {residual:.3e} > tol {tol:.3e}"
        )
        self.residual = residual
        self.convention = convention


class NotUnitaryError(SkewchainError):
    def __init__(self, residual: float, tol: float):
        super().__init__(f"matrix is not unitary: max |U^dag U - I| = {residual:.3e} > tol {tol:.3e}")
        self.residual = residual


class BudgetError(SkewchainError):
    """A requested exhaustive search is larger than its evaluation budget."""

    def __init__(self, message: str, needed: int, budget: int):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class ConvergenceError(SkewchainError):
    """Eigensolver failed to converge or produced an invalid decomposition."""
