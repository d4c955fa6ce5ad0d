import ctypes

import pytest

import clpdd.linalg


@pytest.fixture
def two_lanes(monkeypatch):
    """Row-wise blocks split wherever their work clears SPLIT_MIN_MADDS.

    For the test, every loaded OpenBLAS runs a call in one thread and the
    affinity probe reports two CPUs, so the split is taken on any host. Yields
    a list that gains (0, rows) for each part the helper thread runs, rows
    being the row count of the arrays it is handed: the helper always takes
    a block's first rows.
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

    def counted(errstate, part, args):
        halves.append((0, args[0].shape[0]))
        run_under(errstate, part, args)

    monkeypatch.setattr(clpdd.linalg, "_run_under", counted)
    for setter, _ in setters:
        setter(1)
    try:
        yield halves
    finally:
        for setter, threads in setters:
            setter(threads)
