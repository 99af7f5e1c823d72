import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import traceinv.estimators
from traceinv import SpdMatrix


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def spd_from_eigenvalues(rng, eigenvalues):
    """SPD matrix with a known spectrum via a random orthogonal conjugation."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    Q = random_orthogonal(rng, eigenvalues.size)
    return SpdMatrix.from_dense((Q * eigenvalues) @ Q.T), Q


def packed_order(U):
    """Order n of a packed triangle of n(n+1)/2 entries."""
    return (math.isqrt(8 * U.size + 1) - 1) // 2


def lower_factor(U):
    """C-ordered lower factor L = U^T of a packed factor from ``cholesky``, which holds its two
    diagonal blocks inverted: one dtfttr call, whose output f2py allocates zero-filled, so the
    strict lower triangle of U is 0, then dtrtri on the blocks of orders n // 2 and n - n // 2."""
    n = packed_order(U)
    upper, info = scipy.linalg.lapack.dtfttr(n, U, transr="N", uplo="U")
    assert info == 0
    for block in (slice(0, n // 2), slice(n // 2, n)):
        if block.stop > block.start:
            upper[block, block], info = scipy.linalg.lapack.dtrtri(upper[block, block])
            assert info == 0
    return upper.T


def traced_extra_bytes(fn, *args):
    """Traced peak of fn(*args) beyond what is still allocated when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841, held so that ``end`` counts it
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - end


def traced_peak_bytes(fn, *args):
    """Traced peak of fn(*args), counting what its result still holds."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the first argument of every scipy.linalg.eigh call."""
    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Orders of the operands factored by the estimators: every ``cholesky`` call
    (Hutchinson) and every ``inverse_factor`` call (exact traces)."""
    calls = []
    for name in ("cholesky", "inverse_factor"):
        def counting(M, factor=getattr(traceinv.estimators, name)):
            calls.append(M.n)
            return factor(M)

        monkeypatch.setattr(traceinv.estimators, name, counting)
    return calls
