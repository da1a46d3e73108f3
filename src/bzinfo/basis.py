"""The generalized Gell-Mann basis of orthonormal traceless Hermitian operators.

The construction gives, for dimension d, the d^2 - 1 operators used by both
measurement constructions: for each index pair j < k the symmetric element
(|j><k| + |k><j|)/sqrt(2) and the antisymmetric element
(-i|j><k| + i|k><j|)/sqrt(2), plus d - 1 diagonal elements
diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).  They satisfy

    Tr(F_a F_b) = delta_ab,   sum_a F_a^2 = (d - 1/d) I.

In the packed rows of ``linalg.pack``, which order the pairs as the basis
does, the operators are nearly trivial: symmetric pair s is 1/sqrt(2) at
coordinate d + s, antisymmetric pair s is -1/sqrt(2) at coordinate
d + P + s, with P = d(d - 1)/2 pairs, and diagonal operator l fills the
first d coordinates.  ``write_basis_rows`` writes a run of them into a
caller's rows, so the measurement builders form their generators where the
family lives.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .linalg import unpack


@functools.lru_cache(maxsize=16)
def _diagonals(d: int) -> np.ndarray:
    """The diagonals of the d - 1 diagonal operators of dimension d; row l - 1 is operator l's."""
    # l entries norm, then -l*norm
    l = np.arange(1, d)
    norm = 1 / np.sqrt(l * (l + 1))
    diagonals = np.tri(d - 1, d) * norm[:, None]
    diagonals[l - 1, l] = -l * norm
    diagonals.setflags(write=False)
    return diagonals


def write_basis_rows(out: np.ndarray, first: int = 0) -> None:
    """Write the packed rows of operators first, first + 1, ... into the zeroed rows ``out``.

    ``out`` is an (n, d^2) float64 array.  Operator first + s goes to
    out[s], for each s below n with an operator to write; rows past
    operator d^2 - 2 are left as they are.  The order
    is fixed for reproducibility: symmetric pairs row-major over j < k, then
    antisymmetric pairs in the same order, then diagonals.  A pair's
    operator o (o < 2P) has one nonzero coordinate, d + o.
    """
    d = math.isqrt(out.shape[-1])
    pairs = (d * d - d) // 2
    ops = np.arange(first, min(first + len(out), d * d - 1))
    slot, pair = ops - first, ops < 2 * pairs
    out[slot[pair], d + ops[pair]] = np.where(ops[pair] < pairs, 1.0, -1.0) / np.sqrt(2)
    out[slot[~pair], :d] = _diagonals(d)[ops[~pair] - 2 * pairs]


def gell_mann_basis(d: int) -> np.ndarray:
    """The generalized Gell-Mann basis for dimension d >= 2, shape (d^2 - 1, d, d)."""
    if d < 2:
        raise DomainError(f"operator basis needs dimension >= 2, got {d}")
    rows = np.zeros((d * d - 1, d * d))
    write_basis_rows(rows)
    return unpack(rows, d)
