"""The thread policy of wemp._blas: every bundled OpenBLAS pool at one
thread, except at its count on import around solvers.ms_modes's eigh, and
at the caller's count again after it."""

import numpy as np
import pytest
import scipy.linalg

from wemp import _blas, solvers
from wemp.soe import build_soe

needs_pools = pytest.mark.skipif(
    not _blas.POOLS, reason="no bundled OpenBLAS pool found")


def modal_march(kappa, space):
    # 128 steps over the 81 columns of space44: the modal path
    spec = solvers.ProblemSpec(
        alpha=0.5, T=1.0, tau_f=1.0 / 128.0, tau_c=0.125,
        u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        f=None, kappa=kappa, level=1, epsilon=1e-2)
    soe = build_soe(spec.alpha, spec.tau_f, spec.epsilon)
    assert solvers.march_context(spec, space, soe, ()).modal
    return solvers.multiscale_soe_solve(spec, space, soe).states


def counts():
    return [pool.get() for pool in _blas.POOLS]


@needs_pools
def test_import_pins_every_pool_to_one_thread():
    assert counts() == [1] * len(_blas.POOLS)
    assert all(pool.count >= 1 for pool in _blas.POOLS)


@needs_pools
@pytest.mark.parametrize("entry", [1, 2])
def test_eigh_runs_on_the_full_pools(monkeypatch, space44, entry):
    # entry 2: a caller who sets other counts after importing wemp keeps them
    seen = []

    def spy(*args, **kwargs):
        seen.append(counts())
        return eigh(*args, **kwargs)
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(solvers.scipy.linalg, "eigh", spy)
    try:
        for pool in _blas.POOLS:
            pool.set(entry)
        mu, V = solvers.ms_modes(space44)
        assert counts() == [entry] * len(_blas.POOLS)
    finally:
        for pool in _blas.POOLS:
            pool.set(1)
    assert seen == [[pool.count for pool in _blas.POOLS]]
    assert mu.size == space44.ms_mass.shape[0]


@needs_pools
def test_pools_return_to_one_thread_when_eigh_raises(monkeypatch, space44):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(solvers.scipy.linalg, "eigh", failing)
    with pytest.raises(np.linalg.LinAlgError):
        solvers.ms_modes(space44)
    assert counts() == [1] * len(_blas.POOLS)


@pytest.mark.parametrize("layout", ["no file", "unloadable", "no symbols"])
def test_no_pool_found_leaves_the_march_as_it_was(monkeypatch, tmp_path,
                                                  kappa44, space44, layout):
    # conda, MKL or Accelerate: no bundled file, or one that is not the
    # OpenBLAS the finder looks for
    found = _blas.POOLS
    expected = modal_march(kappa44, space44)
    paths = [] if layout == "no file" else [str(tmp_path / "missing.so")]
    with monkeypatch.context() as patch:
        patch.setattr(_blas.glob, "glob", lambda pattern: paths)
        if layout == "no symbols":
            patch.setattr(_blas.ctypes, "CDLL", lambda path: object())
        pools = _blas._find_pools()
    assert pools == ()
    monkeypatch.setattr(_blas, "POOLS", pools)
    with _blas.full_pools():
        assert [pool.get() for pool in found] == [1] * len(found)
    states = modal_march(kappa44, space44)
    assert [pool.get() for pool in found] == [1] * len(found)
    assert np.abs(states - expected).max() <= 1e-12 * np.abs(expected).max()
