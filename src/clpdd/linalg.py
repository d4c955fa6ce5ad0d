"""Dense double-precision linear algebra shared by every other module.

All matrices are 2-D float64 numpy arrays treated as immutable after
construction. Linear systems with symmetric positive definite matrices are
solved through a Cholesky factorization that can be cached and reused;
explicit matrix inverses are never formed.
"""

from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np


def _load_flapack(linalg_dir):
    """scipy's compiled LAPACK module, loaded from `linalg_dir` without
    running the `scipy.linalg` package `__init__`.

    `from scipy.linalg.lapack import ...` runs that `__init__`, which pulls in
    scipy._lib's array-API layer, numpy.f2py and numpy.testing. For two
    routines that cost `import clpdd.cli` about 0.3 s (0.43-0.54 s against
    0.16-0.21 s here) and 19 MB of peak RSS (57 MB against 38 MB), on a
    2-vCPU x86-64 host with scipy 1.17. The extension loaded here is the one
    scipy.linalg.lapack re-exports; it is single-phase-init, so a later
    `import scipy.linalg` hands out the very same routine objects.
    """
    finder = FileFinder(str(linalg_dir), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no scipy LAPACK extension _flapack in {linalg_dir}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_scipy = find_spec("scipy")  # locates scipy without importing it
if _scipy is None:
    raise ImportError("clpdd needs scipy for LAPACK, and scipy is not installed")
_flapack = _load_flapack(Path(_scipy.submodule_search_locations[0]) / "linalg")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


class LinalgError(ValueError):
    """Base class for numeric input errors."""


class DimensionError(LinalgError):
    """Operand shapes are incompatible."""


class NonFiniteError(LinalgError):
    """A matrix built from user input contains NaN or Inf entries."""


class NotPositiveDefiniteError(LinalgError):
    """Cholesky hit a non-positive pivot; `pivot` is 1-based."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


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
    """Factor an SPD matrix. Only its lower triangle is read: the upper one
    is assumed to mirror it and is never checked."""
    if a_spd.ndim != 2 or a_spd.shape[0] != a_spd.shape[1]:
        raise DimensionError(f"a_spd must be square, got {a_spd.shape}")
    c, info = dpotrf(a_spd, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:  # pragma: no cover - only triggered by malformed calls
        raise LinalgError(f"dpotrf failed with info={info}")
    return CholeskyFactor(lower=c)
