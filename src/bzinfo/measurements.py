"""Construction and verification of complete complementary measurement families.

Two explicit constructions are provided, both driven by the generalized
Gell-Mann basis of orthonormal traceless Hermitian operators and a
sharpness parameter t bounded by positivity of the effects:

* mutually unbiased measurements (MUMs): d + 1 POVMs of d effects
  P_n^(b) = I/d + t F_n^(b), with POVM b taking basis operators
  F_{n,b} = F_{b(d-1)+n}, n < d - 1, via
  F_n^(b) = F^(b) - (d + sqrt(d)) F_{n,b} for n < d and
  F_d^(b) = (1 + sqrt(d)) F^(b), where F^(b) sums POVM b's.  The sharpness
  index is kappa = 1/d + t^2 (1 + sqrt(d))^2 (d - 1), with kappa = 1
  exactly for rank-one projectors (mutually unbiased bases).

* general SIC measurements: d^2 effects P_a = I/d^2 + t [F - d(d+1) F_a]
  plus P_{d^2} = I/d^2 + t (d+1) F with F the sum of all basis operators.
  The purity parameter is a = 1/d^3 + t^2 (d - 1)(d + 1)^3, with
  a = 1/d^2 exactly in the rank-one (SIC-POVM) case.

A family is held as its packed rows (``linalg.pack``): one row of d^2
reals per effect, half the bytes of its complex (N, d, d) stack.  Every
builder writes packed rows; only the ``json.loads`` route of ``load`` and
``decode`` forms a family's stack whole.  ``build_mum`` and ``build_gsm``
write the Gell-Mann basis's rows into the family's (``write_basis_rows``)
and form their generators there, a POVM at a time (mum) or once (gsm);
``linalg.smallest_eigenvalues`` eigensolves them, unpacked a block at a
time, for the bound on t and the positivity check, and the rows are then
scaled by t and given the identity weight on the diagonal coordinates.
``verify`` reads the rows in place: the overlaps are weighted dot products
of them, and only the positivity check unpacks the effects, a block at a
time.

Rank-one families are available directly: quadratic-phase mutually
unbiased bases for prime dimensions, and the qubit tetrahedron SIC-POVM.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import write_basis_rows
from .errors import DomainError, NumericalError, PositivityError
from .linalg import _frozen, check_dense_bytes, matrix_bytes, pack, smallest_eigenvalues

PSD_FLOOR = -1e-10
DEGENERACY_EPS = 1e-12
DEFAULT_TOL = 1e-10
# rows and columns of one square tile of the Gram matrix that verification
# forms; a family of at most this many effects (mum d <= 10, gsm d <= 11) is
# one tile.  BLAS packs both operands afresh for each tile, so smaller tiles
# run slower (64 took 1.4 times as long as 128 at d=48) and larger ones hold
# more (256 held about 1 MiB more at d=24)
GRAM_TILE_ROWS = 128


MUM_KINDS = ("mum", "mub")
GSM_KINDS = ("gsm", "sic")
# key of the sharpness parameter of each kind in measurement files
PARAMETER_NAMES = {"mum": "kappa", "mub": "kappa", "gsm": "a", "sic": "a"}


def layout(kind: str, d: int) -> tuple[int, int]:
    """(POVMs, outcomes) of a dimension-d family: (d + 1, d) if MUM-like, (1, d^2) if general SIC.

    Effects, probabilities and counts all group so: entry i is outcome
    i % outcomes of POVM i // outcomes.
    """
    return (d + 1, d) if kind in MUM_KINDS else (1, d * d)


@dataclass(frozen=True, eq=False)
class Family:
    """A complete measurement family: its effects, grouped into POVMs.

    ``kind`` is "mum" or "mub" (``parameter`` is kappa) or "gsm" or "sic"
    (``parameter`` is a).  ``rows`` holds every effect's packed row
    (``linalg.pack``), POVM after POVM, as ``layout`` groups them, in one
    read-only, C-contiguous (N, d^2) float64 array (a read-only view, or a
    contiguous copy, of an array given otherwise), so every reader sums in
    one order.  Row k is effect k's d diagonal entries, then the real parts
    of its upper triangle, then their imaginary parts; ``linalg.unpack``
    gives the matrices, each exactly Hermitian.  ``verify`` and
    ``DirectEvaluator`` read the rows in place and unpack at most a block
    of ``linalg.BLOCK_BYTES`` of matrices at a time.

    ``verify`` keeps nothing on the family; a verb verifies it once, by
    building the ``DirectEvaluator`` through which it reads its numbers.
    """

    kind: str
    dim: int
    t: float
    parameter: float
    rows: np.ndarray  # (povms * outcomes, d^2) float64, read-only

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if rows.flags.writeable:
            rows = _frozen(rows.view())
        object.__setattr__(self, "rows", rows)
        if self.kind not in PARAMETER_NAMES:
            raise DomainError(f"unknown measurement kind {self.kind!r}")
        n = math.prod(self.layout)
        if rows.shape != (n, self.dim * self.dim):
            raise DomainError(
                f"a {self.kind} family of dimension {self.dim} needs {n} effects, as rows "
                f"of {self.dim * self.dim} numbers, got an array of shape {rows.shape}"
            )

    @property
    def layout(self) -> tuple[int, int]:
        """(POVMs, outcomes) of the family: ``layout(kind, dim)``."""
        return layout(self.kind, self.dim)


@dataclass
class VerificationReport:
    """Per-condition maximum absolute deviations for a measurement family.

    ``passed`` requires every deviation below ``tol`` and a non-degenerate
    sharpness parameter (kappa > 1/d, a > 1/d^3, strictly).
    """

    kind: str
    tol: float
    deviations: dict[str, float]
    degenerate: bool
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = not self.degenerate and all(
            v < self.tol for v in self.deviations.values()
        )

    def failures(self) -> list[str]:
        out = [name for name, v in self.deviations.items() if not v < self.tol]
        if self.degenerate:
            out.append("degenerate")
        return out

    def summary(self) -> str:
        lines = [f"{self.kind} verification: {'pass' if self.passed else 'FAIL'} (tol {self.tol:g})"]
        for name, v in sorted(self.deviations.items()):
            mark = "ok" if v < self.tol else "FAIL"
            lines.append(f"  {name:<24} {v:.3e}  {mark}")
        if self.degenerate:
            lines.append("  degenerate sharpness parameter  FAIL")
        return "\n".join(lines)


def family_bytes(kind: str, d: int) -> int:
    """Estimated bytes of a dimension-d family of this kind: its complex stack plus an allowance.

    The stack is povms * outcomes complex d x d matrices (``layout``), twice
    the bytes of the family's packed rows; the allowance is one operator
    basis, (d^2 - 1) d^2 entries.  A build holds neither, but counting them
    keeps the limits on d where they are.
    """
    return matrix_bytes(math.prod(layout(kind, d)) + d * d - 1, d)


def _check_family_size(kind: str, d: int) -> None:
    check_dense_bytes(family_bytes(kind, d), f"a {kind} family of dimension {d}")


def mum_kappa(d: int, t: float) -> float:
    """Sharpness index of the MUM construction at parameter t."""
    return 1.0 / d + t * t * (1.0 + np.sqrt(d)) ** 2 * (d - 1)


def gsm_a(d: int, t: float) -> float:
    """Purity parameter of the general SIC construction at parameter t."""
    return 1.0 / d**3 + t * t * (d - 1) * (d + 1) ** 3


def _degenerate(kind: str, d: int, parameter: float) -> bool:
    """Whether the parameter is within DEGENERACY_EPS of its floor, kappa = 1/d or a = 1/d^3."""
    return parameter <= (1.0 / d if kind in MUM_KINDS else 1.0 / d**3) + DEGENERACY_EPS


def max_t_mum(d: int) -> float:
    """Largest t with every dimension-d MUM effect positive semidefinite: ``build_mum(d).t``."""
    return build_mum(d).t


def max_t_gsm(d: int) -> float:
    """Largest t with every dimension-d general SIC effect PSD: ``build_gsm(d).t``."""
    return build_gsm(d).t


def _build(kind: str, d: int, t, label_of) -> Family:
    """The family of effects I*identity_weight + t*F, one per generator F, POVM after POVM.

    The identity weight is 1/d (mum) or 1/d^2 (gsm).  The basis's packed
    rows are written into each POVM's first slots, operator b(d - 1) + n
    into slot n of POVM b (mum) or the first d^2 - 1 slots (gsm); the sum
    F^(b) or F of a POVM's operators is read off, and each generator is
    formed in its row: F^(b) - (d + sqrt(d)) F_{n,b} and (1 + sqrt(d)) F^(b),
    or F - d(d + 1) F_a and (d + 1) F.  For t >= 0 an effect's smallest
    eigenvalue is identity_weight + t*lam, lam its generator's, so the bound
    and the check, naming the first bad effect by ``label_of``, read one
    eigensolve of the generators.  The rows are then scaled by t and given
    the identity weight on the diagonal and 0.0 elsewhere, the arithmetic of
    the complex t*F + I*identity_weight, so -0.0 turns to 0.0 as it did
    there.  A t that leaves the parameter degenerate (t = 0 gives kappa =
    1/d, a = 1/d^3), which every verb would refuse, is a DomainError.
    """
    if d < 2:
        name = "MUMs" if kind == "mum" else "general SIC measurements"
        raise DomainError(f"{name} need dimension >= 2, got {d}")
    _check_family_size(kind, d)
    identity_weight = 1.0 / d if kind == "mum" else 1.0 / d**2
    scale, last = (d + np.sqrt(d), 1.0 + np.sqrt(d)) if kind == "mum" else (d * (d + 1), d + 1)
    povms, outcomes = layout(kind, d)
    rows = np.zeros((povms * outcomes, d * d))
    for b, povm in enumerate(rows.reshape(povms, outcomes, d * d)):
        head = povm[:-1]
        write_basis_rows(head, b * (outcomes - 1))
        total = head.sum(axis=0)
        head *= scale
        np.subtract(total, head, out=head)
        np.multiply(last, total, out=povm[-1])
    # I*identity_weight + t*F is PSD iff identity_weight + t*lam >= 0 for each eigenvalue lam of F
    smallest = smallest_eigenvalues(rows, d)
    lam = smallest.min()
    if not lam < 0.0:
        raise NumericalError("no generator bounds t; traceless nonzero operators must")
    t_max = float(-identity_weight / lam)
    if isinstance(t, str) and t != "auto":
        raise DomainError(f"t must be a number or 'auto', got {t!r}")
    t = t_max if isinstance(t, str) else float(t)
    if not 0.0 <= t < np.inf:
        raise DomainError(f"t must be a finite nonnegative number, got {t}")
    # identity_weight + t*lam < PSD_FLOOR with t divided across, so no huge finite t overflows
    bad = np.flatnonzero(smallest < ((PSD_FLOOR - identity_weight) / t if t else -np.inf))
    if bad.size:
        i = int(bad[0])
        lowest = identity_weight + t * float(smallest[i])  # a Python float: -inf past the range
        raise PositivityError(
            f"effect {label_of(i)} has eigenvalue {lowest:.3e}; t exceeds the positivity bound"
        )
    parameter = mum_kappa(d, t) if kind == "mum" else gsm_a(d, t)
    if _degenerate(kind, d, parameter):
        name = PARAMETER_NAMES[kind]
        raise DomainError(f"t={t} gives a degenerate {kind} family ({name}={parameter})")
    rows *= t
    rows += np.repeat([identity_weight, 0.0], [d, d * d - d])
    return Family(kind=kind, dim=d, t=t, parameter=parameter, rows=_frozen(rows))


def build_mum(d: int, t="auto") -> Family:
    """Build the complete set of d + 1 MUMs at sharpness t.

    t = "auto" resolves to the positivity bound max_t_mum.  Effects are
    checked positive semidefinite, a violating (b, n) named on failure; the
    bound and the check read one eigensolve of the generators.
    """
    return _build("mum", d, t, lambda i: f"(b={i // d + 1}, n={i % d + 1})")


def build_gsm(d: int, t="auto") -> Family:
    """Build the complete general SIC measurement of d^2 effects at sharpness t.

    As build_mum, with a violating alpha named.
    """
    return _build("gsm", d, t, lambda i: f"alpha={i + 1}")


def _pairwise_overlaps(rows: np.ndarray, d: int):
    """The Gram matrix Tr(P_i P_j) of a family's packed rows, one square tile at a time.

    Yields (a, b, tile) with tile[i, j] = Tr(P_{a+i} P_{b+j}) for every tile
    of ``GRAM_TILE_ROWS`` rows and columns with b >= a, so that each pair
    i <= j lies in one tile.  Each Tr(P_i P_j) is the dot product of two
    rows, weight 1 on the d diagonal coordinates and 2 on the others, so a
    tile is two real products of column ranges of two row ranges, the
    second doubled, and no tile's rows are copied.  The tiles take about the
    flops of one symmetric product.
    """
    n = len(rows)
    size = GRAM_TILE_ROWS
    for a in range(0, n, size):
        left = rows[a:a + size]
        for b in range(a, n, size):
            right = rows[b:b + size]
            # diagonal part + 2 * off-diagonal part, summed in place
            tile = left[:, d:] @ right[:, d:].T
            tile *= 2.0
            tile += left[:, :d] @ right[:, :d].T
            yield a, b, tile


def _condition_deviations(family: Family) -> tuple[dict[str, float], bool]:
    """Each condition ``verify`` checks, as its maximum absolute deviation, and the degeneracy flag.

    The overlaps' largest and smallest values on the diagonal, within one
    POVM off it and across two POVMs are folded tile by tile, each tile
    with a mask of its own size, so no whole Gram matrix and no whole mask
    is held.  Only a tile with a == b holds part of the Gram's diagonal.
    """
    d, param, rows = family.dim, family.parameter, family.rows
    group = np.arange(len(rows)) // family.layout[1]  # each effect's POVM
    # running extrema of the classes: the diagonal, same POVM off it, two POVMs
    highs, lows = np.full(3, -np.inf), np.full(3, np.inf)

    def fold(c, values, where=True) -> None:
        highs[c] = np.maximum(highs[c], values.max(where=where, initial=-np.inf))
        lows[c] = np.minimum(lows[c], values.min(where=where, initial=np.inf))

    for a, b, tile in _pairwise_overlaps(rows, d):
        # one mask of the tile's size, reused
        pairs = np.equal.outer(group[a:a + len(tile)], group[b:b + tile.shape[1]])
        if a == b:
            fold(0, tile.diagonal())
            np.fill_diagonal(pairs, False)
        fold(1, tile, pairs)
        np.logical_not(pairs, out=pairs)
        if a == b:
            np.fill_diagonal(pairs, False)
        fold(2, tile, pairs)

    def worst(values, target) -> float:
        return float(np.abs(values - target).max())

    def worst_overlap(classes, target) -> float:
        # rounding is monotone, so the largest |x - target| is at the largest or the smallest x
        largest, smallest = highs[classes].max(), lows[classes].min()
        return float(max(largest - target, target - smallest))

    if family.kind in MUM_KINDS:
        deviations = {
            "effect_trace": worst(rows[:, :d].sum(axis=1), 1.0),
            "cross_overlap": worst_overlap([2], 1.0 / d),
            "within_overlap_diag": worst_overlap([0], param),
            "within_overlap_offdiag": worst_overlap([1], (1.0 - param) / (d - 1)),
        }
        expected = mum_kappa(d, family.t)
    else:
        deviations = {
            "self_overlap": worst_overlap([0], param),
            "pair_overlap": worst_overlap([1, 2], (1.0 - param * d) / (d * (d * d - 1))),
        }
        expected = gsm_a(d, family.t)
    # eigvalsh may call a matrix with a nan entry positive ([0, -0] for
    # [[nan, 0], [0, 1]]); the Gram diagonal, the effects' squared norms, is nan exactly then
    lowest = np.nan if np.isnan(highs[0]) else float(smallest_eigenvalues(rows, d).min())
    deviations["positivity"] = 0.0 if lowest >= 0.0 else -lowest  # nan stays nan, and fails
    # each POVM's sum less I: |z| of an off-diagonal entry is the hypot of its parts
    sums = rows.reshape(*family.layout, d * d).sum(axis=1)
    upper = (d * d - d) // 2
    deviations["completeness"] = float(np.maximum(
        worst(sums[:, :d], 1.0), np.hypot(sums[:, d:d + upper], sums[:, d + upper:]).max()))
    deviations["parameter"] = abs(param - expected)
    return deviations, _degenerate(family.kind, d, param)


def verify(family: Family, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check a family's defining conditions and construction consistency.

    MUM/MUB: unit effect traces, cross-measurement overlaps 1/d,
    within-measurement overlaps kappa (diagonal) and (1-kappa)/(d-1)
    (off-diagonal); kappa <= 1/d + 1e-12 is rejected as degenerate.
    General SIC: Tr(P_a^2) = a and pairwise overlaps
    (1 - a d)/(d (d^2 - 1)); a <= 1/d^3 + 1e-12 is rejected as degenerate.
    Both: positivity, per-measurement completeness (equivalently the
    generators of each measurement summing to zero) and the parameter(t)
    formula.  The overlaps are a real Gram matrix of the family's packed
    rows, read in place.  It is formed one square tile of
    ``GRAM_TILE_ROWS`` rows and columns at a time (``_pairwise_overlaps``)
    and folded into running extrema; the traces and the POVM sums are read
    off the rows, and positivity eigensolves the effects unpacked a block
    of ``linalg.BLOCK_BYTES`` at a time (``linalg.smallest_eigenvalues``).
    So the working set beside the rows is one tile and its mask, or one
    block, whatever the family's size.  A family of more than one tile
    (more than ``GRAM_TILE_ROWS`` effects) may differ from the whole product
    in the last digits of its overlap deviations.

    Each call computes the deviations anew and judges them at its ``tol``.
    Entries so large that the products overflow give deviations of inf or
    nan, which fail, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        deviations, degenerate = _condition_deviations(family)
    return VerificationReport(kind=family.kind, tol=tol, deviations=deviations, degenerate=degenerate)


def smallest_factor(n: int) -> int:
    if n < 2:
        return n
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def build_mub(d: int) -> Family:
    """Complete set of d + 1 mutually unbiased bases for prime d, as a MUM family.

    For odd primes the bases are the computational basis together with the
    quadratic-phase bases whose vectors have components
    omega^(b k^2 + j k)/sqrt(d), omega = exp(2 pi i/d).  d = 2 uses the
    three Pauli eigenbases.  The result has kappa = 1 and rank-one effects.
    Each basis is formed in turn and its d projectors packed straight into
    their rows, so a build holds the rows and one basis's (d, d, d) stack.
    """
    if d < 2:
        raise DomainError(f"MUBs need dimension >= 2, got {d}")
    _check_family_size("mub", d)
    factor = smallest_factor(d)
    if factor != d:
        raise DomainError(f"dimension {d} is not prime (smallest factor {factor})")

    # column j of a basis is its vector j
    if d == 2:  # the Z, X and Y eigenbases
        s = 1 / np.sqrt(2)
        bases = np.array([[[1, 0], [0, 1]], [[s, s], [s, -s]], [[s, s], [1j * s, -1j * s]]],
                         dtype=np.complex128)
    else:
        k, j = np.ogrid[:d, :d]
        phases = (np.exp(2j * np.pi * ((b * k * k + j * k) % d) / d) / np.sqrt(d)
                  for b in range(d))
        bases = itertools.chain([np.eye(d, dtype=np.complex128)], phases)
    rows = np.empty((d + 1, d, d * d))
    for basis, out in zip(bases, rows):  # C order, which pack reads without a copy
        pack(np.einsum("ik,jk->kij", basis, basis.conj(), order="C"), out=out)
    t = 1.0 / (d + np.sqrt(d))
    return Family(kind="mub", dim=d, t=t, parameter=1.0, rows=_frozen(rows.reshape(-1, d * d)))


def sic2_fixture() -> Family:
    """The qubit tetrahedron SIC-POVM as a general SIC measurement (a = 1/4).

    Effects are (I + r.sigma)/4 for the four Bloch vectors
    (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1), each scaled by 1/sqrt(3);
    pairwise vector overlaps are 1/(d+1) = 1/3.
    """
    x, y, z = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]).T / np.sqrt(3)
    # the packed row of [[1 + z, x - iy], [x + iy, 1 - z]] / 4
    rows = np.stack([1 + z, 1 - z, x, -y], axis=1) / 4.0
    t = 1.0 / (6.0 * np.sqrt(6.0))
    return Family(kind="sic", dim=2, t=t, parameter=0.25, rows=_frozen(rows))
