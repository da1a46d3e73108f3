"""Density matrices: fixtures, random ensembles, validation.

Random states come from the Ginibre construction, rho = G G^dag / Tr(G G^dag)
with G a d x rank matrix of i.i.d. standard complex Gaussians.  Randomness
uses the counter-based Philox generator so a 64-bit seed fully determines
the output; concurrent workloads should derive per-task seeds as
seed + task index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import COMPLEX_BYTES, TOL_HERM, as_complex_matrix, check_dense_bytes, hermitian

RNG_ALGORITHM = "philox"
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10


def check_seed(seed: int, streams: int = 1) -> None:
    """Check that the stream seeds seed + 0, ..., seed + streams - 1 are all 64-bit.

    Tasks that draw several random streams seed them as seed + task index;
    the error names the seed the caller passed and the largest one allowed.
    """
    largest = 2**64 - max(streams, 1)
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) <= largest:
        raise DomainError(f"seed must be an integer in [0, {largest}], got {seed!r}")


def rng_from_seed(seed: int) -> np.random.Generator:
    check_seed(seed)
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, positive semidefinite, unit trace."""

    dim: int
    matrix: np.ndarray  # (d, d) complex


def _make_state(matrix: np.ndarray) -> DensityMatrix:
    matrix = np.ascontiguousarray(matrix)
    matrix.setflags(write=False)
    return DensityMatrix(dim=matrix.shape[0], matrix=matrix)


def maximally_mixed(d: int) -> DensityMatrix:
    """The state I/d, the unique state of purity 1/d."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return _make_state(np.eye(d, dtype=np.complex128) / d)


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded Ginibre-induced random state of the given rank.

    rank = 1 yields a pure state; rank = d a generic full-support state.
    Identical seeds give identical output.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    check_dense_bytes(COMPLEX_BYTES * d * d, f"a state of dimension {d}")
    rng = rng_from_seed(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return _make_state((rho + rho.conj().T) / 2.0)


def validate_state(m) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the validated state.

    Each violation is reported distinctly.  States failing positivity by
    less than 1e-10 are accepted unmodified.
    """
    a = as_complex_matrix(m)
    rho = hermitian(a, tol=TOL_HERM)  # raises DomainError if non-Hermitian
    tr = rho.trace()
    if abs(tr - 1.0) >= TRACE_TOL:
        raise DomainError(f"state trace is {tr.real!r}, not 1 within {TRACE_TOL:.0e}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < EIG_FLOOR:
        raise DomainError(f"state has negative eigenvalue {smallest:.3e}")
    return _make_state(rho)
