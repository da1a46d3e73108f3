import tracemalloc

import numpy as np
import pytest

from bzinfo import DomainError, Family, hermitian


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240811))


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def degenerate_family(kind, d):
    """The t = 0 family of this kind, which the builders refuse: every effect is
    I/d (mum) or I/d^2 (gsm), and the parameter sits at its floor, 1/d or 1/d^3."""
    n, weight, floor = (d * (d + 1), 1 / d, 1 / d) if kind == "mum" else (d * d, 1 / d**2, 1 / d**3)
    effects = np.repeat(weight * np.eye(d, dtype=np.complex128)[None], n, axis=0)
    return Family(kind, d, t=0.0, parameter=floor, effects=effects)


def herm_eig(h):
    """Oracle: eigenvalues ascending and eigenvectors in columns of a Hermitian matrix."""
    return np.linalg.eigh(hermitian(np.asarray(h, dtype=np.complex128)))


def expectation(x, rho):
    """Oracle: <X>_rho = Tr(rho X), one complex ``einsum``, checked to be real to 1e-10."""
    a = np.asarray(x, dtype=np.complex128)
    r = np.asarray(getattr(rho, "matrix", rho), dtype=np.complex128)
    if a.shape != r.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {r.shape}")
    tr = np.einsum("ij,ji->", r, a)
    assert abs(tr.imag) < 1e-10, tr
    return float(tr.real)


def traced_peak(thunk):
    """The peak of traced memory while ``thunk`` runs, and its result."""
    tracemalloc.start()
    try:
        result = thunk()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
