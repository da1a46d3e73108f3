"""Dense complex matrix helpers: validation, packed rows, eigenvalues and purities.

Everything here targets small dimensions (d up to a few dozen), so plain
dense double-precision algorithms are used throughout.

A Hermitian d x d operator is its d^2 real coordinates, its packed row
(``pack``): the d diagonal entries, then the real parts of the upper
triangle, then their imaginary parts (i < j, row-major).  For Hermitian A
and B, Tr(AB) is the dot product of their rows with weight 1 on the
diagonal coordinates and 2 on the others, so every Born trace, every trace
of a product of two effects and every purity is a real dot product of
packed rows, one of them ``weighted``: its off-diagonal coordinates
doubled, which is exact.  ``unpack`` gives the complex matrices back, the
lower triangle as the conjugate of the upper.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

TOL_HERM = 1e-12
IMAG_TOL = 1e-10
# a variance below this is a failure, not rounding
VAR_FLOOR = -1e-10
# largest dense complex data a builder or state generator may allocate
MAX_DENSE_BYTES = 2**30
COMPLEX_BYTES = 16
# bytes of one block of complex matrices, the most any layer unpacks at once:
# ``hermitian`` checks and symmetrizes a stack, the parse packs what it reads,
# ``smallest_eigenvalues`` eigensolves a build's generators or ``verify``'s
# effects and ``DirectEvaluator`` forms their squares, a block at a time.  A
# block and the temporaries of ``hermitian`` on it are what a d=24 load holds
# beside the rows and the text; 2**18 took that load to 0.77 of the complex
# stack, 2**17 to 0.72-0.73
BLOCK_BYTES = 2**17


def matrix_bytes(count: int, d: int) -> int:
    """Bytes of ``count`` complex d x d matrices."""
    return COMPLEX_BYTES * count * d * d


def block_rows(d: int) -> int:
    """Matrices in one block of ``BLOCK_BYTES``, one at least: the step of every blocked walk."""
    return max(1, BLOCK_BYTES // matrix_bytes(1, d))


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


def _hermitian_part(stack: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix H of a (k, d, d) complex stack: (H^dag + H)/2, in ``out`` or its adjoint, and max|H - H^dag|.

    The part of a Hermitian H is H.  Past the float64 limit a defect or a part is inf, with no warning.
    """
    adjoint = np.conjugate(stack.swapaxes(-1, -2), order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(stack - adjoint).max(axis=(1, 2))
        part = np.add(adjoint, stack, out=adjoint if out is None else out)
        part /= 2.0
    return part, defect


def hermitian(m, overwrite: bool = False, first: int = 0) -> np.ndarray:
    """Validate and symmetrize a Hermitian matrix or a (..., d, d) stack of them.

    Defects below ``TOL_HERM`` are absorbed by H <- (H + H^dag)/2; larger
    defects raise, so genuine errors are not masked, as does a sum that
    overflows (entries near the float64 limit).  Each matrix of a
    stack is checked on its own; the first defective one is named by its
    row-major index in the stack, plus ``first`` when the stack is a block of
    a larger one.  The stack is taken a block of matrices
    at a time, so the temporaries stay small; with ``overwrite`` a
    C-contiguous complex input is symmetrized in place, and on a raise its
    matrices up to the end of the defective one's block are already overwritten.
    """
    a = _as_square_stack(m)
    d = a.shape[-1]
    result = a if overwrite and a.flags.c_contiguous else np.empty(a.shape, dtype=np.complex128)
    stack, out = a.reshape(-1, d, d), result.reshape(-1, d, d)
    step = block_rows(d)
    for start in range(0, len(stack), step):
        block = slice(start, start + step)
        part, defect = _hermitian_part(stack[block], out[block])
        bad = np.flatnonzero(defect >= TOL_HERM)
        if bad.size:
            where = "matrix" if a.ndim == 2 else f"matrix {first + start + int(bad[0])} of the stack"
            raise DomainError(f"{where} is not Hermitian (defect {defect[bad[0]]:.3e} >= {TOL_HERM:.0e})")
        if not np.isfinite(part).all():
            raise DomainError("matrix entries too large to symmetrize")
    return result


@functools.lru_cache(maxsize=16)
def _indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``pack`` and ``unpack`` take each number from, for dimension d.

    The first array indexes a matrix's float64 view, [re, im] per entry, for
    each coordinate of its packed row.  The second indexes, for each number
    of that view, the packed row extended by the negated imaginary parts of
    the upper triangle and a zero.  The upper triangle is i < j, row-major,
    and the lower triangle's entry k is the transpose of the upper one's.
    """
    i, j = np.triu_indices(d, 1)
    diagonal, upper, lower = np.arange(d) * (d + 1), i * d + j, j * d + i
    pairs = np.arange(len(upper))
    packed = np.concatenate([2 * diagonal, 2 * upper, 2 * upper + 1])
    view = np.empty((d * d, 2), dtype=np.intp)
    view[diagonal, 0], view[diagonal, 1] = np.arange(d), d * d + len(pairs)
    view[upper, 0] = view[lower, 0] = d + pairs
    view[upper, 1], view[lower, 1] = d + len(pairs) + pairs, d * d + pairs
    return _frozen(packed), _frozen(view.ravel())


def pack(stack, out: np.ndarray | None = None) -> np.ndarray:
    """The packed rows of a (k, d, d) stack of Hermitian matrices, shape (k, d^2) float64.

    Only the diagonal's real parts and the upper triangle are read.  ``out``,
    if given, a C-contiguous (k, d^2) float64 array, is written and returned.
    """
    m = np.ascontiguousarray(stack, dtype=np.complex128)
    k, d = len(m), m.shape[-1]
    rows = np.empty((k, d * d)) if out is None else out
    # mode="clip" writes out directly, where the default would buffer it; every index is in range
    np.take(m.reshape(k, d * d).view(np.float64), _indices(d)[0], axis=1, out=rows, mode="clip")
    return rows


def unpack(rows, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (k, d, d) complex128 matrices of k packed rows.

    The lower triangle is written as the conjugate of the upper, each
    imaginary part as 0.0 - im, and the diagonal's imaginary parts as 0.0,
    so ``unpack(pack(E), d)`` is E bit for bit for the families built here.
    ``out``, if given, a C-contiguous (k, d, d) complex128 array, is written
    and returned.
    """
    rows = np.asarray(rows, dtype=np.float64)
    k, pairs = len(rows), (d * d - d) // 2
    extended = np.empty((k, d * d + pairs + 1))
    extended[:, :d * d] = rows
    np.subtract(0.0, rows[:, d + pairs:], out=extended[:, d * d:-1])
    extended[:, -1] = 0.0
    m = np.empty((k, d, d), dtype=np.complex128) if out is None else out
    np.take(extended, _indices(d)[1], axis=1, out=m.reshape(k, d * d).view(np.float64), mode="clip")
    return m


def smallest_eigenvalues(rows: np.ndarray, d: int) -> np.ndarray:
    """Each packed row's smallest eigenvalue: ``eigvalsh`` of its matrix.

    The rows are unpacked a block of ``BLOCK_BYTES`` at a time into one
    reused buffer; an eigenvalue has the same bits in any block.
    """
    step = block_rows(d)
    buffer = np.empty((min(step, len(rows)), d, d), dtype=np.complex128)
    smallest = np.empty(len(rows))
    for a in range(0, len(rows), step):
        part = rows[a:a + step]
        smallest[a:a + len(part)] = np.linalg.eigvalsh(unpack(part, d, out=buffer[:len(part)]))[:, 0]
    return smallest


def weighted(rows: np.ndarray) -> np.ndarray:
    """A copy of packed rows with the off-diagonal coordinates doubled, an exact scaling.

    The dot product of a row with a weighted row is Tr(AB) of their matrices.
    """
    d = math.isqrt(rows.shape[-1])
    out = np.array(rows, dtype=np.float64)
    out[..., d:] *= 2.0
    return out


def purities(rows: np.ndarray) -> np.ndarray:
    """Tr(rho_i^2) of each state of a stack, from its packed rows.

    One real ``einsum`` without ``optimize``: no BLAS call, so the bits do
    not depend on the BLAS kernel, nor on the number of rows.
    """
    return np.einsum("nx,nx->n", weighted(rows), rows)


def _one_state(rho) -> np.ndarray:
    """A (d, d) state as a batch of one; a DomainError naming its shape unless it is square."""
    m = np.asarray(rho)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a (d, d) state, got shape {m.shape}")
    return m[None]


def purity(rho) -> float:
    """Tr(rho^2), in [1/d, 1] for a valid state; the bits of ``purities``.

    Defined for a Hermitian (d, d) rho: it reads the diagonal and the upper
    triangle.  Any other shape is a DomainError naming it.
    """
    return float(purities(pack(_one_state(rho)))[0])
