"""Orthonormal traceless Hermitian operator bases and their grid layout.

The generalized Gell-Mann construction gives, for dimension d, the d^2 - 1
operators used by both measurement constructions: for each index pair
j < k the symmetric element (|j><k| + |k><j|)/sqrt(2) and the antisymmetric
element (-i|j><k| + i|k><j|)/sqrt(2), plus d - 1 diagonal elements
diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).  They satisfy

    Tr(F_a F_b) = delta_ab,   sum_a F_a^2 = (d - 1/d) I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """The d^2 - 1 orthonormal traceless Hermitian operators, stacked."""

    dim: int
    ops: np.ndarray  # (d*d - 1, d, d) complex


@dataclass(frozen=True, eq=False)
class MumGrid:
    """Basis operators rearranged as a (d+1) x (d-1) grid, one column per POVM."""

    dim: int
    grid: np.ndarray  # (d + 1, d - 1, d, d) complex


def gell_mann_basis(d: int) -> OperatorBasis:
    """Canonical generalized Gell-Mann basis for dimension d >= 2.

    Ordering is fixed for reproducibility: symmetric pairs row-major over
    j < k, then antisymmetric pairs in the same order, then diagonals.
    """
    if d < 2:
        raise DomainError(f"operator basis needs dimension >= 2, got {d}")
    ops = np.zeros((d * d - 1, d, d), dtype=np.complex128)
    idx = 0
    for j in range(d):
        for k in range(j + 1, d):
            ops[idx, j, k] = 1 / np.sqrt(2)
            ops[idx, k, j] = 1 / np.sqrt(2)
            idx += 1
    for j in range(d):
        for k in range(j + 1, d):
            ops[idx, j, k] = -1j / np.sqrt(2)
            ops[idx, k, j] = 1j / np.sqrt(2)
            idx += 1
    for l in range(1, d):
        norm = 1 / np.sqrt(l * (l + 1))
        for i in range(l):
            ops[idx, i, i] = norm
        ops[idx, l, l] = -l * norm
        idx += 1
    return OperatorBasis(dim=d, ops=_frozen(ops))


def grid_partition(basis: OperatorBasis, order=None) -> MumGrid:
    """Partition the basis into d + 1 columns of d - 1 operators each.

    The canonical partition takes contiguous blocks in basis order, which
    keeps serialized constructions reproducible.  ``order`` may supply an
    alternative permutation of range(d^2 - 1); any permutation yields a
    valid measurement family downstream.
    """
    d = basis.dim
    n = d * d - 1
    if basis.ops.shape != (n, d, d):
        raise DomainError(f"malformed basis: expected {n} operators of shape ({d}, {d})")
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order, dtype=np.intp)
        if sorted(order.tolist()) != list(range(n)):
            raise DomainError("order must be a permutation of range(d^2 - 1)")
    grid = basis.ops[order].reshape(d + 1, d - 1, d, d)
    return MumGrid(dim=d, grid=_frozen(grid))
