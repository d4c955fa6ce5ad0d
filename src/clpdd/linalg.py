"""Dense double-precision linear algebra shared by every other module.

All matrices are 2-D float64 numpy arrays treated as immutable after
construction. Linear systems with symmetric positive definite matrices are
solved through a Cholesky factorization that can be cached and reused;
explicit matrix inverses are never formed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

# Relative asymmetry tolerated on inputs declared symmetric.
SYMMETRY_RTOL = 1e-10


class LinalgError(ValueError):
    """Base class for numeric input errors."""


class DimensionError(LinalgError):
    """Operand shapes are incompatible."""


class NonFiniteError(LinalgError):
    """A matrix built from user input contains NaN or Inf entries."""


class NotSymmetricError(LinalgError):
    """A matrix declared symmetric exceeds the asymmetry tolerance."""


class NotPositiveDefiniteError(LinalgError):
    """Cholesky hit a non-positive pivot; `pivot` is 1-based."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


def row_argmax(scores: np.ndarray) -> np.ndarray:
    """Index of the largest entry in each row; ties go to the lowest index."""
    return np.argmax(scores, axis=1)


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """Verify symmetry to SYMMETRY_RTOL and return (a + a.T)/2."""
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got {a.shape}")
    scale_ = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.T)
    if scale_ > 0 and asym > SYMMETRY_RTOL * scale_:
        raise NotSymmetricError(
            f"{name} asymmetry {asym / scale_:.3e} exceeds {SYMMETRY_RTOL:.0e} relative"
        )
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular Cholesky factor of an SPD matrix, reusable for solves."""

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape[0] != self.n:
            raise DimensionError(f"solve: rhs has {b.shape[0]} rows, factor is {self.n}x{self.n}")
        x, info = dpotrs(self.lower, b, lower=1)
        if info != 0:  # pragma: no cover - dpotrs only fails on bad arguments
            raise LinalgError(f"dpotrs failed with info={info}")
        return x


def cholesky_factor(a_spd: np.ndarray) -> CholeskyFactor:
    """Factor an SPD matrix, symmetrizing first to absorb roundoff."""
    a_sym = _check_symmetric(a_spd, "a_spd")
    c, info = dpotrf(a_sym, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:  # pragma: no cover - only triggered by malformed calls
        raise LinalgError(f"dpotrf failed with info={info}")
    return CholeskyFactor(lower=c)
