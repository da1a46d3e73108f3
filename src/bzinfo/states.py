"""Density matrices: fixtures, random ensembles, validation.

A state is its matrix, a read-only, C-contiguous (d, d) complex128 array:
``maximally_mixed``, ``random_density`` and ``validate_state`` each return
one, and a batch of states is a (k, d, d) stack of them.

Random states come from the Ginibre construction, rho = G G^dag / Tr(G G^dag)
with G a d x rank matrix of i.i.d. standard complex Gaussians.  Randomness
uses the counter-based Philox generator, one stream per seed: a 64-bit seed
fully determines the output, and distinct seeds key distinct streams
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).

``density_batches(d, rank, seed, n)`` is the stream of seeded states: it
reads the normals of n states, in order, from one
``Generator(Philox(seed))``, state i made from normals 2 d rank i, ...,
2 d rank (i + 1) - 1 of that stream, and yields them as read-only
(k, d, d) arrays, which ``DirectEvaluator.report_many`` takes whole.
State 0 is ``random_density(d, rank, seed)``, the state of ``state gen
--seed <seed> --rank <rank>``.  A batch of states is one
``standard_normal`` draw, and a generator's draws do not depend on how
they are split into calls, so the batch size never shows in the states.
Per batch, the complex G, one 3-D matmul G G^dag, the trace
normalisation and the symmetrisation run once, each the same arithmetic,
bit for bit, as for one state.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError
from .linalg import COMPLEX_BYTES, _frozen, check_dense_bytes, hermitian

RNG_ALGORITHM = "philox"
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
# the states of a stream are made in batches of at most this many bytes of
# matrices (and as many of normals); against 16 KiB, a 64 KiB batch raised the
# peak RSS of a sweep of 20000 d=2 states by about 1 MiB, a 256 KiB one by 6.3
BATCH_BYTES = 16 * 1024
# but of at least this many states per dimension: report_many forms the
# effects' squares once per call, about the flops of d states' traces
MIN_BATCH_PER_DIM = 4


def check_seed(seed: int) -> None:
    """Check that the seed is a 64-bit unsigned integer, the key of one Philox stream."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be an integer in [0, {2**64 - 1}], got {seed!r}")


def rng_from_seed(seed: int) -> np.random.Generator:
    check_seed(seed)
    return np.random.Generator(np.random.Philox(int(seed)))


def maximally_mixed(d: int) -> np.ndarray:
    """The state I/d, the unique state of purity 1/d."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return _frozen(np.eye(d, dtype=np.complex128) / d)


def _ginibre_batch(rng: np.random.Generator, k: int, d: int, rank: int) -> np.ndarray:
    """rho = G G^dag / Tr(G G^dag) for the next k states of ``rng``.

    G = normals[i, 0] + 1j normals[i, 1] for the state's normals, drawn here.

    One 3-D matmul and one pass of each elementwise step serve the whole
    batch; the result is one read-only (k, d, d) array.  The normals are
    dropped once G is formed and G once rho is, and rho is symmetrized in
    place, so at rank d drawing holds at most three (d, d) matrices per state.
    """
    normals = rng.standard_normal((k, 2, d, rank))
    g = normals[:, 0] + 1j * normals[:, 1]
    del normals
    rho = g @ g.conj().transpose(0, 2, 1)
    del g
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho += rho.conj().transpose(0, 2, 1)
    rho /= 2.0
    return _frozen(rho)


def density_batches(d: int, rank: int, seed: int, n: int) -> Iterator[np.ndarray]:
    """The first n Ginibre-induced states of ``Philox(seed)``, as read-only (k, d, d) arrays.

    The arguments are checked here, once, and so are the bytes that drawing
    a batch holds at its peak, about three of its matrices at rank d; each
    batch holds at most ``BATCH_BYTES`` of matrices or ``MIN_BATCH_PER_DIM * d``
    states, whichever is more, and is drawn as the iterator is consumed.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    if n < 0:
        raise DomainError(f"number of states must be >= 0, got {n}")
    batch = max(1, MIN_BATCH_PER_DIM * d, BATCH_BYTES // (COMPLEX_BYTES * d * d))
    k = min(batch, n)
    # per state, rho and either G and conj(G), each d x rank, or conj(rho);
    # forming G holds less, three d x rank arrays with the normals
    check_dense_bytes(COMPLEX_BYTES * k * (d * d + max(2 * d * rank, d * d)),
                      f"a state of dimension {d}" if k == 1 else f"a batch of {k} states of dimension {d}")
    rng = rng_from_seed(seed)
    return (_ginibre_batch(rng, min(batch, n - start), d, rank) for start in range(0, n, batch))


def random_density(d: int, rank: int, seed: int) -> np.ndarray:
    """Seeded Ginibre-induced random state of the given rank.

    rank = 1 yields a pure state; rank = d a generic full-support state.
    Identical seeds give identical output: the state is the first of
    ``density_batches(d, rank, seed, n)``.
    """
    return next(density_batches(d, rank, seed, 1))[0]


def validate_state(m) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the validated state.

    Each violation is reported distinctly.  States failing positivity by
    less than 1e-10 are accepted unmodified.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:  # hermitian takes stacks too
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    rho = hermitian(a)  # raises DomainError if not square, not finite or not Hermitian
    with np.errstate(over="ignore"):  # a sum past the float64 limit is a trace of inf
        tr = rho.trace()
    if abs(tr - 1.0) >= TRACE_TOL:
        raise DomainError(f"state trace is {tr.real.item()!r}, not 1 within {TRACE_TOL:.0e}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < EIG_FLOOR:
        raise DomainError(f"state has negative eigenvalue {smallest:.3e}")
    return _frozen(rho)
