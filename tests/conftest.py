import dataclasses
import tracemalloc

import numpy as np
import pytest

from bzinfo import DomainError, Family, hermitian
from bzinfo.linalg import COMPLEX_BYTES, pack, unpack
from bzinfo.measurements import _generator_blocks


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
    return Family(kind, d, t=0.0, parameter=floor, rows=pack(effects))


def effects_of(family):
    """The family's effects, its packed rows unpacked: a (N, d, d) complex stack."""
    return unpack(family.rows, family.dim)


def with_effects(family, effects):
    """The family with these (N, d, d) effects in place of its own, packed."""
    return dataclasses.replace(family, rows=pack(effects))


def stack_bytes(family):
    """Bytes of the family's complex stack, 16 N d^2: the unit of the memory bounds."""
    return COMPLEX_BYTES * len(family.rows) * family.dim**2


def generator_stack(kind, d):
    """The traceless generators of a built "mum" or "gsm" family, its blocks joined."""
    return np.concatenate(list(_generator_blocks(kind, d)))


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
