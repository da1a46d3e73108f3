"""The generalized Gell-Mann basis of orthonormal traceless Hermitian operators.

The construction gives, for dimension d, the d^2 - 1 operators used by both
measurement constructions: for each index pair j < k the symmetric element
(|j><k| + |k><j|)/sqrt(2) and the antisymmetric element
(-i|j><k| + i|k><j|)/sqrt(2), plus d - 1 diagonal elements
diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).  They satisfy

    Tr(F_a F_b) = delta_ab,   sum_a F_a^2 = (d - 1/d) I.

``write_gell_mann`` writes a run of the operators into a caller's stack, so
the measurement builders form their generators where the operators land, a
POVM or a block of slots at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError


@functools.lru_cache(maxsize=16)
def _pattern(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs j < k, row-major, and the d - 1 diagonals of the dimension-d operators."""
    j, k = np.triu_indices(d, 1)
    # row l - 1 is the diagonal of operator l: l entries norm, then -l*norm
    l = np.arange(1, d)
    norm = 1 / np.sqrt(l * (l + 1))
    diagonals = np.tri(d - 1, d) * norm[:, None]
    diagonals[l - 1, l] = -l * norm
    for a in (j, k, diagonals):
        a.setflags(write=False)
    return j, k, diagonals


def write_gell_mann(out: np.ndarray, first: int = 0) -> None:
    """Write operators first, first + 1, ... into the zeroed stack ``out`` of shape (n, d, d).

    Operator first + s goes to out[s], for each s below n with an operator
    to write; slots past operator d^2 - 2 are left as they are.  The order
    is fixed for reproducibility: symmetric pairs row-major over j < k, then
    antisymmetric pairs in the same order, then diagonals.
    """
    d = out.shape[-1]
    j, k, diagonals = _pattern(d)
    ops = np.arange(first, min(first + len(out), d * d - 1))
    pairs = len(j)
    sym, anti, diag = ops < pairs, (pairs <= ops) & (ops < 2 * pairs), ops >= 2 * pairs
    slot, pair = ops - first, ops % pairs
    out[slot[sym], j[pair[sym]], k[pair[sym]]] = 1 / np.sqrt(2)
    out[slot[sym], k[pair[sym]], j[pair[sym]]] = 1 / np.sqrt(2)
    out[slot[anti], j[pair[anti]], k[pair[anti]]] = -1j / np.sqrt(2)
    out[slot[anti], k[pair[anti]], j[pair[anti]]] = 1j / np.sqrt(2)
    i = np.arange(d)
    out[slot[diag, None], i, i] = diagonals[ops[diag] - 2 * pairs]


def gell_mann_basis(d: int) -> np.ndarray:
    """The generalized Gell-Mann basis for dimension d >= 2, shape (d^2 - 1, d, d)."""
    if d < 2:
        raise DomainError(f"operator basis needs dimension >= 2, got {d}")
    ops = np.zeros((d * d - 1, d, d), dtype=np.complex128)
    write_gell_mann(ops)
    return ops
