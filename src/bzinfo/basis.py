"""The generalized Gell-Mann basis of orthonormal traceless Hermitian operators.

The construction gives, for dimension d, the d^2 - 1 operators used by both
measurement constructions: for each index pair j < k the symmetric element
(|j><k| + |k><j|)/sqrt(2) and the antisymmetric element
(-i|j><k| + i|k><j|)/sqrt(2), plus d - 1 diagonal elements
diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).  They satisfy

    Tr(F_a F_b) = delta_ab,   sum_a F_a^2 = (d - 1/d) I.

``write_gell_mann`` writes the operators into slots of a caller's stack, so
the measurement builders form their generators where the operators land.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def write_gell_mann(out: np.ndarray) -> None:
    """Write the d^2 - 1 operators into the zeroed stack ``out`` of shape (groups, slots, d, d).

    Operator k goes to out[k // slots, k % slots].  The order is fixed for
    reproducibility: symmetric pairs row-major over j < k, then
    antisymmetric pairs in the same order, then diagonals.
    """
    slots, d = out.shape[1], out.shape[-1]
    group, slot = np.divmod(np.arange(d * d - 1), slots)
    j, k = np.triu_indices(d, 1)
    sym, anti, diag = slice(0, len(j)), slice(len(j), 2 * len(j)), slice(2 * len(j), None)
    out[group[sym], slot[sym], j, k] = 1 / np.sqrt(2)
    out[group[sym], slot[sym], k, j] = 1 / np.sqrt(2)
    out[group[anti], slot[anti], j, k] = -1j / np.sqrt(2)
    out[group[anti], slot[anti], k, j] = 1j / np.sqrt(2)
    # row l - 1 is the diagonal of operator l: l entries norm, then -l*norm
    l = np.arange(1, d)
    norm = 1 / np.sqrt(l * (l + 1))
    diagonals = np.tri(d - 1, d) * norm[:, None]
    diagonals[l - 1, l] = -l * norm
    i = np.arange(d)
    out[group[diag, None], slot[diag, None], i, i] = diagonals


def gell_mann_basis(d: int) -> np.ndarray:
    """The generalized Gell-Mann basis for dimension d >= 2, shape (d^2 - 1, d, d)."""
    if d < 2:
        raise DomainError(f"operator basis needs dimension >= 2, got {d}")
    ops = np.zeros((1, d * d - 1, d, d), dtype=np.complex128)
    write_gell_mann(ops)
    return ops[0]
