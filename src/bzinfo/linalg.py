"""Dense complex matrix helpers: validation, real rows and purities.

Everything here targets small dimensions (d up to a few dozen), so plain
dense double-precision algorithms are used throughout.

Every Born trace, every trace of a product of two effects and every purity
is a real dot product of two Hermitian operators' ``real_rows``.
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
# bytes of one block of matrices: ``hermitian`` checks and symmetrizes a stack,
# and ``DirectEvaluator`` forms the effects' squares, a block at a time
BLOCK_BYTES = 2**18


def check_dense_bytes(nbytes: int, what: str) -> None:
    """Raise DomainError, before anything is allocated, if nbytes exceeds MAX_DENSE_BYTES."""
    if nbytes > MAX_DENSE_BYTES:
        raise DomainError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB of dense complex entries, "
            f"above the limit of {MAX_DENSE_BYTES / 2**30:g} GiB"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def _as_square_stack(m) -> np.ndarray:
    """Validate a square complex matrix, or a (..., d, d) stack, with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # both parts of each entry; any memory layout
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
    step = max(1, BLOCK_BYTES // (COMPLEX_BYTES * d * d))
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


def real_rows(stack) -> np.ndarray:
    """A (k, d, d) complex stack as k rows of 2 d^2 float64 numbers, a view or a contiguous copy.

    The dot product of the rows of A and B is sum_ij Re(A_ij conj(B_ij)) =
    Re Tr(A B^dag): for Hermitian A and B, it is Tr(AB).
    """
    m = np.ascontiguousarray(stack, dtype=np.complex128)
    return m.view(np.float64).reshape(len(m), 2 * m.shape[1] * m.shape[2])


def purities(rows: np.ndarray) -> np.ndarray:
    """Tr(rho_i^2) of each state of a stack, from its ``real_rows``.

    One real ``einsum`` without ``optimize``: no BLAS call, so the bits do
    not depend on the BLAS kernel, nor on the number of rows.
    """
    return np.einsum("nx,nx->n", rows, rows)


def purity(rho) -> float:
    """Tr(rho^2), in [1/d, 1] for a valid state; the bits of ``purities``.

    Defined for Hermitian rho; for any other array it is Tr(rho rho^dag).
    """
    return float(purities(real_rows(np.asarray(rho)[None]))[0])
