import ctypes

import pytest

import clpdd.linalg


@pytest.fixture
def two_lanes(monkeypatch):
    """Row-wise blocks split wherever their work clears SPLIT_MIN_MADDS.

    For the test, every loaded OpenBLAS runs a call in one thread and the
    affinity probe reports two CPUs, so the split is taken on any host. Yields
    a list that gains (lo, hi) for each half the helper thread runs.
    """
    libs = clpdd.linalg._openblas_libs()
    if not libs:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be read")
    setters = []
    for lib, getter in libs:
        setter = getattr(lib, getter.replace("_get_", "_set_"))
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setters.append((setter, getattr(lib, getter)()))
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 2)
    halves = []
    run_under = clpdd.linalg._run_under

    def counted(errstate, part, lo, hi):
        halves.append((lo, hi))
        run_under(errstate, part, lo, hi)

    monkeypatch.setattr(clpdd.linalg, "_run_under", counted)
    for setter, _ in setters:
        setter(1)
    try:
        yield halves
    finally:
        for setter, threads in setters:
            setter(threads)
