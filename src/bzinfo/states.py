"""Density matrices: fixtures, random ensembles, validation.

Random states come from the Ginibre construction, rho = G G^dag / Tr(G G^dag)
with G a d x rank matrix of i.i.d. standard complex Gaussians.  Randomness
uses the counter-based Philox generator, one stream per seed: a 64-bit seed
fully determines the output, and distinct seeds key distinct streams
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).

``density_stream(d, rank, seed, n)`` reads the normals of n states, in
order, from one ``Generator(Philox(seed))``: state i is made from normals
2 d rank i, ..., 2 d rank (i + 1) - 1 of that stream.  State 0 is
``random_density(d, rank, seed)``, the state of ``state gen --seed <seed>
--rank <rank>``.  A batch of states is one ``standard_normal`` draw, and a
generator's draws do not depend on how they are split into calls, so the
batch size never shows in the states.  Per batch, the complex G, one 3-D
matmul G G^dag, the trace normalisation and the symmetrisation run once,
each the same arithmetic, bit for bit, as for one state.
``density_batches`` yields each batch as one read-only (k, d, d) array,
which ``DirectEvaluator.report_many`` takes whole; ``density_stream``
yields its states as read-only views of those arrays.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import COMPLEX_BYTES, TOL_HERM, as_complex_matrix, check_dense_bytes, hermitian

RNG_ALGORITHM = "philox"
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
# the states of a stream are made in batches of at most this many bytes of
# matrices (and as many of normals); a 256 KiB batch raised a sweep's peak
# RSS by about 0.6 MiB, a 16 KiB one did not
BATCH_BYTES = 16 * 1024


def check_seed(seed: int) -> None:
    """Check that the seed is a 64-bit unsigned integer, the key of one Philox stream."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be an integer in [0, {2**64 - 1}], got {seed!r}")


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


def _ginibre_batch(normals: np.ndarray) -> np.ndarray:
    """rho = G G^dag / Tr(G G^dag) per state, G = normals[i, 0] + 1j normals[i, 1].

    One 3-D matmul and one pass of each elementwise step serve the whole
    batch; the result is one read-only (k, d, d) array.
    """
    g = normals[:, 0] + 1j * normals[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho.setflags(write=False)
    return rho


def density_batches(d: int, rank: int, seed: int, n: int) -> Iterator[np.ndarray]:
    """The states of ``density_stream(d, rank, seed, n)`` as read-only (k, d, d) arrays, in order.

    The arguments are checked here, once; each batch holds at most
    ``BATCH_BYTES`` of matrices and is drawn as the iterator is consumed.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    if n < 0:
        raise DomainError(f"number of states must be >= 0, got {n}")
    check_dense_bytes(COMPLEX_BYTES * d * d, f"a state of dimension {d}")
    return _batches(d, rank, rng_from_seed(seed), n)


def _batches(d: int, rank: int, rng: np.random.Generator, n: int) -> Iterator[np.ndarray]:
    batch = max(1, BATCH_BYTES // (COMPLEX_BYTES * d * d))
    for start in range(0, n, batch):
        yield _ginibre_batch(rng.standard_normal((min(batch, n - start), 2, d, rank)))


def density_stream(d: int, rank: int, seed: int, n: int) -> Iterator[DensityMatrix]:
    """The first n Ginibre-induced random states of the stream ``Philox(seed)``, in order.

    rank = 1 yields pure states; rank = d generic full-support states.
    The arguments are checked here, once; the states are read-only views
    of the arrays of ``density_batches``.
    """
    batches = density_batches(d, rank, seed, n)
    return (DensityMatrix(dim=d, matrix=matrix) for batch in batches for matrix in batch)


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded Ginibre-induced random state of the given rank.

    rank = 1 yields a pure state; rank = d a generic full-support state.
    Identical seeds give identical output: the state is the first of
    ``density_stream(d, rank, seed, n)``.
    """
    return next(density_stream(d, rank, seed, 1))


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
