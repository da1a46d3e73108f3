"""Construction and verification of complete complementary measurement families.

Two explicit constructions are provided, both driven by an orthonormal
traceless Hermitian operator basis and a sharpness parameter t bounded by
positivity of the effects:

* mutually unbiased measurements (MUMs): d + 1 POVMs of d effects
  P_n^(b) = I/d + t F_n^(b), built from the grid columns via
  F_n^(b) = F^(b) - (d + sqrt(d)) F_{n,b} for n < d and
  F_d^(b) = (1 + sqrt(d)) F^(b), where F^(b) sums column b.  The sharpness
  index is kappa = 1/d + t^2 (1 + sqrt(d))^2 (d - 1), with kappa = 1
  exactly for rank-one projectors (mutually unbiased bases).

* general SIC measurements: d^2 effects P_a = I/d^2 + t [F - d(d+1) F_a]
  plus P_{d^2} = I/d^2 + t (d+1) F with F the sum of all basis operators.
  The purity parameter is a = 1/d^3 + t^2 (d - 1)(d + 1)^3, with
  a = 1/d^2 exactly in the rank-one (SIC-POVM) case.

Each builder forms its generators once; the bound on t and the positivity
check read one eigensolve of them.

Rank-one families are available directly: quadratic-phase mutually
unbiased bases for prime dimensions, and the qubit tetrahedron SIC-POVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import MumGrid, OperatorBasis, gell_mann_basis, grid_partition
from .errors import DomainError, NumericalError, PositivityError
from .linalg import COMPLEX_BYTES, check_dense_bytes

PSD_FLOOR = -1e-10
DEGENERACY_EPS = 1e-12
DEFAULT_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


MUM_KINDS = ("mum", "mub")
GSM_KINDS = ("gsm", "sic")
# key of the sharpness parameter of each kind in measurement files
PARAMETER_NAMES = {"mum": "kappa", "mub": "kappa", "gsm": "a", "sic": "a"}


@dataclass(frozen=True, eq=False)
class Family:
    """A complete measurement family: its effects, grouped into POVMs.

    ``kind`` is "mum" or "mub" (``parameter`` is kappa; d + 1 POVMs of d
    effects) or "gsm" or "sic" (``parameter`` is a; one POVM of d^2
    effects).  ``effects`` stacks every effect, POVM after POVM.

    Every effect is exactly Hermitian, equal to its conjugate transpose bit
    for bit: the builders form them so, and ``decode`` symmetrizes what it
    reads.  ``verify`` and ``DirectEvaluator`` rely on it and read the stack
    in place.

    ``verify`` computes a family's deviations once per object and keeps
    them, so ``effects`` must not change after construction;
    ``dataclasses.replace`` makes a new object, which computes its own.
    """

    kind: str
    dim: int
    t: float
    parameter: float
    effects: np.ndarray  # (sum(group_sizes), d, d) complex

    def __post_init__(self) -> None:
        if self.kind not in PARAMETER_NAMES:
            raise DomainError(f"unknown measurement kind {self.kind!r}")
        n = sum(self.group_sizes)
        if self.effects.shape != (n, self.dim, self.dim):
            raise DomainError(
                f"a {self.kind} family of dimension {self.dim} needs {n} effects "
                f"of shape ({self.dim}, {self.dim}), got an array of shape {self.effects.shape}"
            )

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Effects per POVM, in the order they are stacked."""
        d = self.dim
        return (d,) * (d + 1) if self.kind in MUM_KINDS else (d * d,)

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Split a per-effect array (effects, probabilities) into one part per POVM."""
        return np.split(values, np.cumsum(self.group_sizes)[:-1])

    @cached_property
    def _verification(self) -> tuple[dict[str, float], bool]:
        """The deviations ``verify`` judges and the degeneracy flag, computed on first use.

        No tolerance enters either.  ``verify`` hands out copies, so the
        cached dict is never changed.
        """
        return _condition_deviations(self)


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
    """Estimated bytes of a dimension-d family of this kind: its effects plus the basis.

    MUM-like kinds stack (d + 1) d^3 complex entries, general SIC kinds d^4;
    the Gell-Mann basis adds (d^2 - 1) d^2.
    """
    effects = (d + 1) * d**3 if kind in MUM_KINDS else d**4
    return COMPLEX_BYTES * (effects + (d * d - 1) * d * d)


def _check_family_size(kind: str, d: int) -> None:
    check_dense_bytes(family_bytes(kind, d), f"a {kind} family of dimension {d}")


def mum_kappa(d: int, t: float) -> float:
    """Sharpness index of the MUM construction at parameter t."""
    return 1.0 / d + t * t * (1.0 + np.sqrt(d)) ** 2 * (d - 1)


def gsm_a(d: int, t: float) -> float:
    """Purity parameter of the general SIC construction at parameter t."""
    return 1.0 / d**3 + t * t * (d - 1) * (d + 1) ** 3


def mum_operators(grid: MumGrid) -> np.ndarray:
    """The d(d+1) traceless generators F_n^(b), shape (d+1, d, d, d)."""
    d = grid.dim
    col_sums = grid.grid.sum(axis=1)  # F^(b), shape (d+1, d, d)
    ops = np.empty((d + 1, d, d, d), dtype=np.complex128)
    # F^(b) - (d + sqrt(d)) F_{n,b}, formed in place
    head = ops[:, : d - 1]
    np.multiply(d + np.sqrt(d), grid.grid, out=head)
    np.subtract(col_sums[:, None, :, :], head, out=head)
    np.multiply(1.0 + np.sqrt(d), col_sums, out=ops[:, d - 1])
    return ops


def gsm_operators(basis: OperatorBasis) -> np.ndarray:
    """The d^2 traceless generators of the general SIC construction."""
    d = basis.dim
    total = basis.ops.sum(axis=0)  # F
    ops = np.empty((d * d, d, d), dtype=np.complex128)
    # F - d(d + 1) F_a, formed in place
    head = ops[:-1]
    np.multiply(d * (d + 1), basis.ops, out=head)
    np.subtract(total[None, :, :], head, out=head)
    np.multiply(d + 1, total, out=ops[-1])
    return ops


def _generator_spectrum(generators: np.ndarray, identity_weight: float) -> tuple[np.ndarray, float]:
    """Each generator's smallest eigenvalue, from one eigensolve, and the bound on t they set.

    I*identity_weight + t*F is PSD iff identity_weight + t*lam >= 0 for each eigenvalue lam of F.
    """
    smallest = np.linalg.eigvalsh(generators)[..., 0].ravel()
    lam = smallest.min()
    if not lam < 0.0:
        raise NumericalError("no generator bounds t; traceless nonzero operators must")
    return smallest, float(-identity_weight / lam)


def max_t_mum(grid: MumGrid) -> float:
    """Largest sharpness parameter with all MUM effects positive semidefinite."""
    return _generator_spectrum(mum_operators(grid), 1.0 / grid.dim)[1]


def max_t_gsm(basis: OperatorBasis) -> float:
    """Largest sharpness parameter with all general SIC effects positive semidefinite."""
    return _generator_spectrum(gsm_operators(basis), 1.0 / basis.dim**2)[1]


def _build(kind: str, t, generators: np.ndarray, identity_weight: float, label_of) -> Family:
    """The family of effects I*identity_weight + t*F, one per generator F, POVM after POVM.

    The generators belong to the build: they are scaled into the effects in place.

    For t >= 0 an effect's smallest eigenvalue is identity_weight + t*lam, lam its
    generator's, so the bound and the check, naming the first bad effect by
    ``label_of``, read one eigensolve of the generators.
    """
    d = generators.shape[-1]
    smallest, t_max = _generator_spectrum(generators, identity_weight)
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
    effects = generators.reshape(-1, d, d)
    effects *= t
    effects += identity_weight * np.eye(d, dtype=np.complex128)
    parameter = mum_kappa(d, t) if kind == "mum" else gsm_a(d, t)
    return Family(kind=kind, dim=d, t=t, parameter=parameter, effects=_frozen(effects))


def build_mum(d: int, t="auto", grid: MumGrid | None = None) -> Family:
    """Build the complete set of d + 1 MUMs at sharpness t.

    t = "auto" resolves to the positivity bound max_t_mum.  Effects are
    checked positive semidefinite, a violating (b, n) named on failure; the
    bound and the check read one eigensolve of the generators.
    """
    if d < 2:
        raise DomainError(f"MUMs need dimension >= 2, got {d}")
    _check_family_size("mum", d)
    if grid is None:
        grid = grid_partition(gell_mann_basis(d))
    elif grid.dim != d:
        raise DomainError(f"grid dimension {grid.dim} does not match d={d}")
    return _build("mum", t, mum_operators(grid), 1.0 / d, lambda i: f"(b={i // d + 1}, n={i % d + 1})")


def build_gsm(d: int, t="auto", basis: OperatorBasis | None = None) -> Family:
    """Build the complete general SIC measurement of d^2 effects at sharpness t.

    As build_mum, with a violating alpha named; one eigensolve of the generators.
    """
    if d < 2:
        raise DomainError(f"general SIC measurements need dimension >= 2, got {d}")
    _check_family_size("gsm", d)
    if basis is None:
        basis = gell_mann_basis(d)
    elif basis.dim != d:
        raise DomainError(f"basis dimension {basis.dim} does not match d={d}")
    return _build("gsm", t, gsm_operators(basis), 1.0 / d**2, lambda i: f"alpha={i + 1}")


def _pairwise_overlaps(effects: np.ndarray) -> np.ndarray:
    """The Gram matrix Tr(P_i P_j) of a stack of Hermitian effects.

    For Hermitian P_j, Tr(P_i P_j) = Re Tr(P_i P_j^dag), the dot product of
    the two effects' entries as float64 pairs; so the whole matrix is one
    real symmetric product of the stack's float64 view with itself.
    """
    r = effects.reshape(len(effects), -1).view(np.float64)
    return r @ r.T


def _condition_deviations(family: Family) -> tuple[dict[str, float], bool]:
    """Each condition ``verify`` checks, as its maximum absolute deviation, and the degeneracy flag."""
    d, param, effects = family.dim, family.parameter, family.effects
    overlaps = _pairwise_overlaps(effects)
    group = np.repeat(np.arange(len(family.group_sizes)), family.group_sizes)
    same = group[:, None] == group[None, :]
    diag = np.eye(effects.shape[0], dtype=bool)

    def worst(values, target) -> float:
        return float(np.abs(values - target).max())

    def worst_overlap(where, target) -> float:
        # worst(overlaps[where], target) without copying the selection: rounding is
        # monotone, so the largest |x - target| is at the largest or the smallest x
        largest = overlaps.max(where=where, initial=-np.inf)
        smallest = overlaps.min(where=where, initial=np.inf)
        return float(max(largest - target, target - smallest))

    if family.kind in MUM_KINDS:
        deviations = {
            "effect_trace": worst(np.trace(effects, axis1=1, axis2=2), 1.0),
            "cross_overlap": worst_overlap(~same, 1.0 / d),
            "within_overlap_diag": worst_overlap(diag, param),
            "within_overlap_offdiag": worst_overlap(same & ~diag, (1.0 - param) / (d - 1)),
        }
        expected, floor = mum_kappa(d, family.t), 1.0 / d
    else:
        deviations = {
            "self_overlap": worst_overlap(diag, param),
            "pair_overlap": worst_overlap(~diag, (1.0 - param * d) / (d * (d * d - 1))),
        }
        expected, floor = gsm_a(d, family.t), 1.0 / d**3
    eye = np.eye(d, dtype=np.complex128)
    deviations["positivity"] = max(0.0, -float(np.linalg.eigvalsh(effects)[:, 0].min()))
    deviations["completeness"] = max(worst(g.sum(axis=0), eye) for g in family.split(effects))
    deviations["parameter"] = abs(param - expected)
    return deviations, param <= floor + DEGENERACY_EPS


def verify(family: Family, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check a family's defining conditions and construction consistency.

    MUM/MUB: unit effect traces, cross-measurement overlaps 1/d,
    within-measurement overlaps kappa (diagonal) and (1-kappa)/(d-1)
    (off-diagonal); kappa <= 1/d + 1e-12 is rejected as degenerate.
    General SIC: Tr(P_a^2) = a and pairwise overlaps
    (1 - a d)/(d (d^2 - 1)); a <= 1/d^3 + 1e-12 is rejected as degenerate.
    Both: positivity, per-measurement completeness (equivalently the
    generators of each measurement summing to zero) and the parameter(t)
    formula.  The overlaps are one real Gram matrix of the family's effect
    stack, read in place, which holds because the effects are Hermitian.

    No tolerance enters the deviations, so they are computed once per family
    object and kept on it.  Each call judges a fresh copy of them at its own
    ``tol``, which the caller may change freely.
    """
    deviations, degenerate = family._verification
    return VerificationReport(
        kind=family.kind, tol=tol, deviations=dict(deviations), degenerate=degenerate
    )


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
    """
    if d < 2:
        raise DomainError(f"MUBs need dimension >= 2, got {d}")
    _check_family_size("mub", d)
    factor = smallest_factor(d)
    if factor != d:
        raise DomainError(f"dimension {d} is not prime (smallest factor {factor})")

    if d == 2:
        # columns of each array are the basis vectors (Z, X, Y eigenbases)
        s = 1 / np.sqrt(2)
        bases = [
            np.eye(2, dtype=np.complex128),
            np.array([[s, s], [s, -s]], dtype=np.complex128),
            np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128),
        ]
    else:
        k = np.arange(d)
        bases = [np.eye(d, dtype=np.complex128)]
        for b in range(d):
            cols = np.empty((d, d), dtype=np.complex128)
            for j in range(d):
                phase = (b * k * k + j * k) % d
                cols[:, j] = np.exp(2j * np.pi * phase / d) / np.sqrt(d)
            bases.append(cols)

    effects = np.ascontiguousarray(
        np.concatenate([np.einsum("ik,jk->kij", cols, cols.conj()) for cols in bases])
    )
    t = 1.0 / (d + np.sqrt(d))
    return Family(kind="mub", dim=d, t=t, parameter=1.0, effects=_frozen(effects))


def sic2_fixture() -> Family:
    """The qubit tetrahedron SIC-POVM as a general SIC measurement (a = 1/4).

    Effects are (I + r.sigma)/4 for the four Bloch vectors
    (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1), each scaled by 1/sqrt(3);
    pairwise vector overlaps are 1/(d+1) = 1/3.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    bloch = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
    ) / np.sqrt(3)
    effects = np.stack(
        [(eye + r[0] * sx + r[1] * sy + r[2] * sz) / 4.0 for r in bloch]
    )
    t = 1.0 / (6.0 * np.sqrt(6.0))
    return Family(kind="sic", dim=2, t=t, parameter=0.25, effects=_frozen(effects))
