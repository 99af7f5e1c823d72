import tracemalloc

import numpy as np
import pytest
import scipy.linalg

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


def traced_extra_bytes(fn, *args):
    """Traced peak of fn(*args) beyond what is still allocated when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841, held so that ``end`` counts it
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - end


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
    """Orders of the operands factored by the estimators' Cholesky calls."""
    calls = []
    cholesky = traceinv.estimators.cholesky

    def counting(A, B=None, t=0.0):
        calls.append(A.n)
        return cholesky(A, B, t)

    monkeypatch.setattr(traceinv.estimators, "cholesky", counting)
    return calls
