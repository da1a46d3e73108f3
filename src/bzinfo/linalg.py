"""Dense complex matrix helpers and Hermitian spectral analysis.

Everything here targets small dimensions (d up to a few dozen), so plain
dense double-precision algorithms are used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError

TOL_HERM = 1e-12
IMAG_TOL = 1e-10
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


def as_complex_matrix(m) -> np.ndarray:
    """Validate a square complex matrix with finite entries."""
    a = _as_square_stack(m)
    if a.ndim != 2:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian(m, tol: float = TOL_HERM, overwrite: bool = False) -> np.ndarray:
    """Validate and symmetrize a Hermitian matrix or a (..., d, d) stack of them.

    Defects below ``tol`` are absorbed by H <- (H + H^dag)/2; larger
    defects raise, so genuine errors are not masked.  Each matrix of a
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
        per_matrix = np.abs(stack[block] - adjoint).reshape(len(adjoint), -1).max(axis=1)
        bad = np.flatnonzero(per_matrix >= tol)
        if bad.size:
            i = start + int(bad[0])
            where = "matrix" if a.ndim == 2 else f"matrix {i} of the stack"
            raise DomainError(
                f"{where} is not Hermitian (defect {per_matrix[bad[0]]:.3e} >= {tol:.0e})"
            )
        np.add(adjoint, stack[block], out=out[block])
        out[block] /= 2.0
    return result


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with eigenvectors
    in columns).  Satisfies H v_k = w_k v_k to 1e-10 * max(1, |H|_max).
    """
    a = hermitian(_as_matrix(h))
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    return w, v


def expectation(x, rho) -> float:
    """<X>_rho = Tr(rho X), checked to be real to 1e-10."""
    a = _as_matrix(x)
    r = _as_matrix(rho)
    if a.shape != r.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {r.shape}")
    tr = np.einsum("ij,ji->", r, a)
    if abs(tr.imag) >= IMAG_TOL:
        raise NumericalError(f"expectation value has imaginary part {tr.imag:.3e}")
    return float(tr.real)


def purity(rho) -> float:
    """Tr(rho^2), in [1/d, 1] for a valid state."""
    r = _as_matrix(rho)
    return float(np.einsum("ij,ji->", r, r).real)
