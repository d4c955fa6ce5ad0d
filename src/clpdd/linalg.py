"""Dense double-precision linear algebra shared by every other module.

All matrices are 2-D float64 numpy arrays treated as immutable after
construction. Linear systems with symmetric positive definite matrices are
solved through a Cholesky factorization that can be cached and reused;
explicit matrix inverses are never formed. A row-wise block is a function
`part(*arrays)` of the arrays whose rows it computes; `run_row_halves` hands
it the first rows of each array on a second CPU and the rest in the caller
when that pays and changes no bits, and `run_beside` runs it whole on the
second CPU while the caller does other work. Only these two cut rows.
"""

import functools
import math
import numbers
import os
import threading
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
    2-vCPU x86-64 host with scipy 1.17; compare-tiny's `setup_s` fell from
    0.446 to 0.179 s (BENCH_pr10.json). The extension loaded here is the one
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


def check_positive(name: str, value: float, or_zero: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a real number (not a
    bool) that is finite and > 0 (>= 0 with `or_zero`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and (value >= 0 if or_zero else value > 0)):
        raise ValueError(f"{name} must be finite and {'>=' if or_zero else '>'} 0, got {value}")


def check_at_least(name: str, value: int, low: int) -> None:
    """Raise ValueError naming `name` unless `value` is an integer (not a
    bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


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


# A block splits only when each half's smallest matrix product holds at least
# this many multiply-adds. The linear probe's step sits just above it: its
# 96-row half of a 256 x 512 by 512 x 100 product holds 4.9 million. On a
# 2-vCPU x86-64 host with BLAS at one thread that product took 336 us whole,
# the caller's 160-row half 214 us, and both halves with the hand-off 225 us.
# The floor also keeps every product of a half above the size up to which
# OpenBLAS takes its small-matrix kernel (M*N*K <= 100^3). Split at this floor,
# 600 random products x @ w split by rows and 600 products x.T @ p split by
# the rows of x.T each matched the whole product bit for bit. Splitting the
# step's blocks took distill-primal-clpf from 107 to 83 ms per iteration
# (BENCH_pr18.json).
SPLIT_MIN_MADDS = 1 << 22
# The first half's row count is a multiple of this. OpenBLAS's dgemm walks the
# rows in chunks, and the kernel that takes a chunk's ragged end can sum in
# another order: rows 504-511 of a 972 x 187 by 187 x 323 product differ in
# their last bits when it is split at row 512. With BLAS at one thread, splits
# at multiples of 12, 24, 48, 96 and 192 each matched bit for bit in 160-245
# random shapes; 48 leaves room for kernels with wider chunks.
SPLIT_ROW_STEP = 48

_helper = None  # the executor of the one helper thread, made at the first split
_helper_lock = threading.Lock()
_lane = threading.local()  # `_lane.helper` is True on the helper thread only


def _forget_helper():
    # a forked child has no helper thread; its copy of the executor would
    # take work and never run it
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def run_row_halves(part, row_madds: int, *arrays) -> None:
    """Run the row-wise block `part(*arrays)`, on two CPUs when that pays.

    `arrays` share their row count n. `part` computes the rows of the arrays
    it receives and writes only into them, so it may be handed row slices of
    `arrays` in place of the whole ones. It allocates nothing larger than
    numpy's 64 KB ufunc buffer, so the malloc arena that glibc gives the
    helper thread stays small and does not grow mid-run. `row_madds` is the
    multiply-adds per row of the block's smallest matrix product. The block
    splits when each half clears SPLIT_MIN_MADDS and `_two_lanes()` holds.
    Then, with h the largest multiple of SPLIT_ROW_STEP up to n / 2, `part`
    runs on rows [0, h) of every array in one helper thread under the
    caller's numpy error state, and on rows [h, n) in the caller. Each half
    computes its rows exactly as the whole call would, so the output holds
    the same bytes either way. An exception from either half is raised only
    once both halves have finished. Called on the helper thread itself, the
    block runs whole: the helper's one-thread executor would queue a half
    behind the caller and never run it.
    """
    half = split_row(arrays[0].shape[0], row_madds)
    if not half or _no_second_lane():
        part(*arrays)
        return
    _with_helper(part, [a[:half] for a in arrays], lambda: part(*[a[half:] for a in arrays]))


def run_beside(part, row_madds: int, work, *arrays):
    """Return `work()`, running the row-wise block `part(*arrays)` beside it.

    `part` and `arrays` follow `run_row_halves`'s rules and `row_madds` means
    what it does there. When the block's smallest matrix product, n *
    row_madds multiply-adds, clears SPLIT_MIN_MADDS and `_two_lanes()` holds,
    the block runs whole in the helper thread, under the caller's numpy error
    state, while `work()` runs in the caller; an exception from either is
    raised only once both have finished. Otherwise, or on the helper thread
    itself, `work()` runs and then the block, both in the caller. The block
    computes its rows in one call either way, so it writes the same bytes.
    `work` may split its own blocks: their helper halves queue behind `part`.
    """
    if arrays[0].shape[0] * row_madds < SPLIT_MIN_MADDS or _no_second_lane():
        result = work()
        part(*arrays)
        return result
    return _with_helper(part, arrays, work)


def _no_second_lane() -> bool:
    """Whether a block must run in the calling thread: that thread is the
    helper itself, or `_two_lanes()` does not hold."""
    return getattr(_lane, "helper", False) or not _two_lanes()


def _with_helper(part, args, work):
    """`work()`'s result, with `part(*args)` run in the helper thread under
    the caller's numpy error state meanwhile. Either one's exception is
    raised once both have finished, the caller's first."""
    errstate = dict(np.geterr(), call=np.geterrcall())
    future = _helper_executor().submit(_run_under, errstate, part, args)
    try:
        result = work()
    finally:
        future.exception()  # waits for the helper's part, raising nothing
    future.result()
    return result


def split_row(rows: int, row_madds: int) -> int:
    """The row at which `run_row_halves` splits a block of `rows` rows whose
    smallest matrix product does `row_madds` multiply-adds per row, given two
    lanes; 0 where the halves are too small to pay."""
    half = rows // 2 // SPLIT_ROW_STEP * SPLIT_ROW_STEP
    return half if half * row_madds >= SPLIT_MIN_MADDS else 0


def _run_under(errstate: dict, part, args) -> None:
    # numpy keeps its error state per thread: the helper takes the caller's
    with np.errstate(**errstate):
        part(*args)


def _helper_executor():
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # imported at the first split

            _helper = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="clpdd-rows", initializer=_mark_helper
            )
    return _helper


def _mark_helper():
    _lane.helper = True


def _two_lanes() -> bool:
    """Whether a row block may take a second CPU and keep its bits: this
    process may run on two CPUs, and every OpenBLAS loaded runs a call in one
    thread. With more BLAS threads a half's product is partitioned among them
    otherwise than the whole one's, which changes last bits; with no OpenBLAS
    found, the halves' bits are unknown. Either way the block runs whole."""
    return _affinity_cpus() >= 2 and _blas_threads() == 1


def _affinity_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def _blas_threads() -> int:
    """The most threads any loaded OpenBLAS runs a call in; 0 with none."""
    return max((getattr(lib, getter)() for lib, getter in _openblas_libs()), default=0)


def one_blas_thread() -> None:
    """Run every loaded OpenBLAS at one thread per call, through the setter
    beside each getter that `_openblas_libs` found. With more threads a
    product's bits depend on the thread count, and the row halves stay whole.
    BLAS threads cost more than they give here: on two cores the thread count
    moved step time by up to 5x, and the primal step ran at 160-188 ms with
    two BLAS threads against 80-89 ms with one and two lanes (BENCH_pr18.json)."""
    import ctypes

    for lib, getter in _openblas_libs():
        setter = getattr(lib, getter.replace("_get_", "_set_"), None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


# the thread-count getters of OpenBLAS builds: plain, with 64-bit integers, and
# the scipy-openblas builds that numpy's and scipy's wheels carry
_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


@functools.cache
def _openblas_libs() -> tuple:
    """(library, name of its thread-count getter) for each OpenBLAS mapped
    into this process, as /proc/self/maps lists them. Empty where that file
    cannot be read, or a library found cannot be loaded or has no getter."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
        libs = []
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            getter = next((name for name in _OPENBLAS_GETTERS if hasattr(lib, name)), None)
            if getter is None:
                return ()
            query = getattr(lib, getter)
            query.argtypes, query.restype = (), ctypes.c_int
            libs.append((lib, getter))
    except OSError:
        return ()
    return tuple(libs)
