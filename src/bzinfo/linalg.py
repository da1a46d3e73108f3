"""Dense complex matrix helpers: validation, Born-trace rows and purities.

Everything here targets small dimensions (d up to a few dozen), so plain
dense double-precision algorithms are used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

TOL_HERM = 1e-12
IMAG_TOL = 1e-10
# a variance below this is a failure, not rounding
VAR_FLOOR = -1e-10
# largest dense complex data a builder or state generator may allocate
MAX_DENSE_BYTES = 2**30
COMPLEX_BYTES = 16
# complex entries per block of matrices that ``hermitian`` checks and symmetrizes at once
DEFECT_BLOCK_ENTRIES = 2**14


def check_dense_bytes(nbytes: int, what: str) -> None:
    """Raise DomainError, before anything is allocated, if nbytes exceeds MAX_DENSE_BYTES."""
    if nbytes > MAX_DENSE_BYTES:
        raise DomainError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB of dense complex entries, "
            f"above the limit of {MAX_DENSE_BYTES / 2**30:g} GiB"
        )


def _as_matrix(obj) -> np.ndarray:
    """Accept a bare array or anything carrying a ``.matrix`` attribute."""
    return np.asarray(getattr(obj, "matrix", obj), dtype=np.complex128)


def _as_square_stack(m) -> np.ndarray:
    """Validate a square complex matrix, or a (..., d, d) stack, with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise DomainError("matrix has non-finite entries")
    return a


def hermitian(m, overwrite: bool = False) -> np.ndarray:
    """Validate and symmetrize a Hermitian matrix or a (..., d, d) stack of them.

    Defects below ``TOL_HERM`` are absorbed by H <- (H + H^dag)/2; larger
    defects raise, so genuine errors are not masked, as does a sum that
    overflows (entries near the float64 limit).  Each matrix of a
    stack is checked on its own; the first defective one is named by its
    row-major index in the stack.  The stack is taken a block of matrices
    at a time, so the temporaries stay small; with ``overwrite`` a
    C-contiguous complex input is symmetrized in place, and on a raise its
    matrices before the defective one are already overwritten.
    """
    a = _as_square_stack(m)
    d = a.shape[-1]
    result = a if overwrite and a.flags.c_contiguous else np.empty(a.shape, dtype=np.complex128)
    stack, out = a.reshape(-1, d, d), result.reshape(-1, d, d)
    step = max(1, DEFECT_BLOCK_ENTRIES // (d * d))
    for start in range(0, len(stack), step):
        block = slice(start, start + step)
        adjoint = np.conjugate(stack[block].swapaxes(-1, -2), order="C")
        # entries near the float64 limit overflow: a defect of inf raises, a sum of inf below
        with np.errstate(over="ignore", invalid="ignore"):
            per_matrix = np.abs(stack[block] - adjoint).reshape(len(adjoint), -1).max(axis=1)
            bad = np.flatnonzero(per_matrix >= TOL_HERM)
            if bad.size:
                i = start + int(bad[0])
                where = "matrix" if a.ndim == 2 else f"matrix {i} of the stack"
                raise DomainError(
                    f"{where} is not Hermitian (defect {per_matrix[bad[0]]:.3e} >= {TOL_HERM:.0e})"
                )
            np.add(adjoint, stack[block], out=out[block])
            out[block] /= 2.0
        if not np.isfinite(out[block]).all():
            raise DomainError("matrix entries too large to symmetrize")
    return result


def trace_rows(m: np.ndarray) -> np.ndarray:
    """The float64 rows that make Born traces real dot products, shape (2, n, 2 d^2).

    Tr(A rho) = sum_ij A_ij rho_ji for any complex A and rho.  Row [0, i]
    is the float64 view of conj(rho_i^T) and row [1, i] that of
    i conj(rho_i^T), so the dot product of A's float64 view with them is
    Re and Im Tr(A rho_i), each term formed as complex arithmetic forms it.
    m is a (n, d, d) complex stack.
    """
    n, d = m.shape[:2]
    rows = np.empty((2, n, d, d), dtype=np.complex128)
    np.conjugate(m.transpose(0, 2, 1), out=rows[0])
    np.negative(rows[0].imag, out=rows[1].real)
    rows[1].imag = rows[0].real
    return rows.view(np.float64).reshape(2, n, 2 * d * d)


def purities(m: np.ndarray, re_rows: np.ndarray) -> np.ndarray:
    """Re Tr(rho_i^2) of a contiguous (n, d, d) stack, from its ``trace_rows(m)[0]``.

    One real ``einsum`` without ``optimize``: no BLAS call, so the bits do
    not depend on the BLAS kernel, nor on n.
    """
    return np.einsum("nx,nx->n", m.view(np.float64).reshape(re_rows.shape), re_rows)


def purity(rho) -> float:
    """Tr(rho^2), in [1/d, 1] for a valid state; the bits of ``purities``."""
    r = np.ascontiguousarray(_as_matrix(rho))[None]
    return float(purities(r, trace_rows(r)[0])[0])
