"""Density matrices: fixtures, random ensembles, validation.

Random states come from the Ginibre construction, rho = G G^dag / Tr(G G^dag)
with G a d x rank matrix of i.i.d. standard complex Gaussians.  Randomness
uses the counter-based Philox generator so a 64-bit seed fully determines
the output; concurrent workloads should derive per-task seeds as
seed + task index.

``density_stream(d, rank, seed, n)`` draws the states of seeds seed, ...,
seed + n - 1 from one Philox generator whose key is reset for each state to
the key ``Philox(seed + i)`` starts from, with the counter at 0 and an empty
buffer.  State i of a stream, and so state i of ``bzinfo sweep``, is
therefore exactly the state of ``state gen --seed <seed + i> --rank
<rank>``; ``random_density`` is the one-state stream.  The keys are
numpy's ``SeedSequence(seed).generate_state(2, np.uint64)``, hashed for a
chunk of seeds at once (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11, on keyed counter-based generators); the first state's
key is the one ``Philox(seed)`` starts from, so a one-state stream hashes
nothing.

Per state, the stream only re-keys the generator and draws the 2 d rank
normals into one row of a batch array.  The rest runs once per batch of
states: the complex G, one 3-D matmul G G^dag, the trace normalisation and
the symmetrisation, each the same arithmetic, bit for bit, as for one state.
The states are read-only views of the batch's array.
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
# most seeds whose Philox keys are hashed at once: 4096 keys of 16 bytes each
KEY_CHUNK = 4096
# the states of a stream are made in batches of at most this many bytes of
# matrices (and as many of normals); a 256 KiB batch raised a sweep's peak
# RSS by about 0.6 MiB, a 16 KiB one did not
BATCH_BYTES = 16 * 1024

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


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


def philox_keys(seeds: np.ndarray) -> np.ndarray:
    """The Philox keys of a 1-D array of 64-bit seeds, shape (n, 2) uint64.

    Row i equals ``np.random.SeedSequence(seeds[i]).generate_state(2,
    np.uint64)``, the key ``np.random.Philox(seeds[i])`` starts from.  The
    hash is numpy's SeedSequence mixing on uint32 arrays, one seed per
    element: a seed below 2^64 enters as the pool [lo, hi, 0, 0] of its
    32-bit words, which is how SeedSequence pads one or two words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    shift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)  # a new array; the argument is kept
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> shift
        return value

    def mix(x, y):  # in place on both
        x *= np.uint32(_MIX_MULT_L)
        y *= np.uint32(_MIX_MULT_R)
        x -= y
        x ^= x >> shift
        return x

    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    hash_const = _INIT_B
    words = np.empty((seeds.size, 4), dtype="<u4")
    for i, value in enumerate(pool):
        value ^= np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> shift
        words[:, i] = value
    # two 32-bit words to one 64-bit word, the way generate_state assembles them
    return words.view("<u8").astype(np.uint64, copy=False)


def _ginibre_batch(normals: np.ndarray) -> Iterator[DensityMatrix]:
    """rho = G G^dag / Tr(G G^dag) per state, G = normals[i, 0] + 1j normals[i, 1].

    One 3-D matmul and one pass of each elementwise step serve the whole
    batch; the yielded matrices are read-only views of one array.
    """
    g = normals[:, 0] + 1j * normals[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho.setflags(write=False)
    d = rho.shape[1]
    for matrix in rho:
        yield DensityMatrix(dim=d, matrix=matrix)


def density_stream(d: int, rank: int, seed: int, n: int) -> Iterator[DensityMatrix]:
    """The Ginibre-induced random states of seeds seed, ..., seed + n - 1, in order.

    rank = 1 yields pure states; rank = d generic full-support states.
    State i is the state ``random_density(d, rank, seed + i)``, drawn from
    one generator re-keyed per state.  The arguments are checked here, once;
    the states are drawn in batches as the iterator is consumed, holding the
    keys of at most ``KEY_CHUNK`` seeds and one batch of at most
    ``BATCH_BYTES`` of matrices.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    check_dense_bytes(COMPLEX_BYTES * d * d, f"a state of dimension {d}")
    check_seed(seed, n)
    return _keyed_states(d, rank, int(seed), n)


def _stream_keys(seed: int, n: int) -> Iterator[np.ndarray | None]:
    """The Philox key of each of the seeds seed, ..., seed + n - 1, in order.

    The first is None: ``Philox(seed)`` already starts from it.  The others
    are hashed ``KEY_CHUNK`` seeds at a time.
    """
    yield None
    for start in range(1, n, KEY_CHUNK):
        count = min(KEY_CHUNK, n - start)
        # rows, not .tolist(): 4096 Python int pairs would hold about 600 KB
        yield from philox_keys(np.uint64(seed + start) + np.arange(count, dtype=np.uint64))


def _keyed_states(d: int, rank: int, seed: int, n: int) -> Iterator[DensityMatrix]:
    bit_generator = np.random.Philox(seed)
    rng = np.random.Generator(bit_generator)
    # a fresh generator's state: counter 0, empty buffer; only the key changes
    fresh = bit_generator.state
    keys = _stream_keys(seed, n)
    batch = max(1, BATCH_BYTES // (COMPLEX_BYTES * d * d))
    for start in range(0, n, batch):
        normals = np.empty((min(batch, n - start), 2, d, rank))
        for out, key in zip(normals, keys):  # normals first: no key is drawn past the batch
            if key is not None:
                fresh["state"]["key"] = key
                bit_generator.state = fresh
            rng.standard_normal(out=out)
        yield from _ginibre_batch(normals)


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded Ginibre-induced random state of the given rank.

    rank = 1 yields a pure state; rank = d a generic full-support state.
    Identical seeds give identical output: the state comes from
    ``Philox(seed)``, as the one-state ``density_stream``.
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
