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

Each builder writes the basis straight into its stack and forms the
generators there, once; the bound on t and the positivity check read one
eigensolve of them, and the generators are scaled into the effects in place.

Rank-one families are available directly: quadratic-phase mutually
unbiased bases for prime dimensions, and the qubit tetrahedron SIC-POVM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import write_gell_mann
from .errors import DomainError, NumericalError, PositivityError
from .linalg import COMPLEX_BYTES, _frozen, check_dense_bytes, real_rows

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
    (``parameter`` is a).  ``effects`` stacks every effect, POVM after
    POVM, as ``layout`` groups them, in one C-contiguous complex array (a
    copy of a stack given otherwise), so every reader sums in one order.

    Every effect is exactly Hermitian, equal to its conjugate transpose bit
    for bit: the builders form them so, and ``decode`` symmetrizes what it
    reads.  ``verify`` and ``DirectEvaluator`` rely on it and read the stack
    in place.

    ``verify`` keeps nothing on the family; a verb verifies it once, by
    building the ``DirectEvaluator`` through which it reads its numbers.
    """

    kind: str
    dim: int
    t: float
    parameter: float
    effects: np.ndarray  # (povms * outcomes, d, d) complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "effects", np.ascontiguousarray(self.effects, dtype=np.complex128))
        if self.kind not in PARAMETER_NAMES:
            raise DomainError(f"unknown measurement kind {self.kind!r}")
        n = math.prod(self.layout)
        if self.effects.shape != (n, self.dim, self.dim):
            raise DomainError(
                f"a {self.kind} family of dimension {self.dim} needs {n} effects "
                f"of shape ({self.dim}, {self.dim}), got an array of shape {self.effects.shape}"
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
    """Estimated bytes of a dimension-d family of this kind: its effects plus an allowance.

    The effects are povms * outcomes d x d matrices (``layout``).  The
    allowance is one operator basis, (d^2 - 1) d^2 entries: a build holds
    no basis beside its stack, but the allowance keeps the limits on d where
    they are.
    """
    return COMPLEX_BYTES * (math.prod(layout(kind, d)) + d * d - 1) * d * d


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


def _generators(kind: str, d: int) -> np.ndarray:
    """The traceless generators of the dimension-d "mum" or "gsm" family, stacked, shape (n, d, d).

    The Gell-Mann operators are written straight into the stack: for mum,
    operator b(d-1) + n into slot n of POVM b, leaving each POVM's last slot;
    for gsm, the first d^2 - 1 slots.  Their sums F^(b) (or F) are read off,
    and each generator is formed in its slot: F^(b) - (d + sqrt(d)) F_{n,b}
    and (1 + sqrt(d)) F^(b), or F - d(d + 1) F_a and (d + 1) F.  So the stack
    and its sums are all a build holds.
    """
    if d < 2:
        name = "MUMs" if kind == "mum" else "general SIC measurements"
        raise DomainError(f"{name} need dimension >= 2, got {d}")
    _check_family_size(kind, d)
    stack = np.zeros((*layout(kind, d), d, d), dtype=np.complex128)
    scale, last = (d + np.sqrt(d), 1.0 + np.sqrt(d)) if kind == "mum" else (d * (d + 1), d + 1)
    write_gell_mann(stack[:, :-1])
    # one POVM at a time: a ufunc buffers a broadcast operand, up to the size of its output
    for povm, total in zip(stack, stack[:, :-1].sum(axis=1)):
        head = povm[:-1]
        head *= scale
        np.subtract(total, head, out=head)
        np.multiply(last, total, out=povm[-1])
    return stack.reshape(-1, d, d)


def max_t_mum(d: int) -> float:
    """Largest t with every dimension-d MUM effect positive semidefinite: ``build_mum(d).t``."""
    return build_mum(d).t


def max_t_gsm(d: int) -> float:
    """Largest t with every dimension-d general SIC effect PSD: ``build_gsm(d).t``."""
    return build_gsm(d).t


def _build(kind: str, t, generators: np.ndarray, identity_weight: float, label_of) -> Family:
    """The family of effects I*identity_weight + t*F, one per generator F, POVM after POVM.

    The generators belong to the build: they are scaled into the effects in place.

    For t >= 0 an effect's smallest eigenvalue is identity_weight + t*lam, lam its
    generator's, so the bound and the check, naming the first bad effect by
    ``label_of``, read one eigensolve of the generators.  A t that leaves
    the parameter degenerate (t = 0 gives kappa = 1/d, a = 1/d^3), which
    every verb would refuse, is a DomainError.
    """
    d = generators.shape[-1]
    # I*identity_weight + t*F is PSD iff identity_weight + t*lam >= 0 for each eigenvalue lam of F
    smallest = np.linalg.eigvalsh(generators)[:, 0].copy()  # the other eigenvalues are freed
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
    generators *= t
    generators += identity_weight * np.eye(d, dtype=np.complex128)
    return Family(kind=kind, dim=d, t=t, parameter=parameter, effects=_frozen(generators))


def build_mum(d: int, t="auto") -> Family:
    """Build the complete set of d + 1 MUMs at sharpness t.

    t = "auto" resolves to the positivity bound max_t_mum.  Effects are
    checked positive semidefinite, a violating (b, n) named on failure; the
    bound and the check read one eigensolve of the generators.
    """
    return _build("mum", t, _generators("mum", d), 1.0 / d, lambda i: f"(b={i // d + 1}, n={i % d + 1})")


def build_gsm(d: int, t="auto") -> Family:
    """Build the complete general SIC measurement of d^2 effects at sharpness t.

    As build_mum, with a violating alpha named; one eigensolve of the generators.
    """
    return _build("gsm", t, _generators("gsm", d), 1.0 / d**2, lambda i: f"alpha={i + 1}")


def _pairwise_overlaps(effects: np.ndarray):
    """The Gram matrix Tr(P_i P_j) of a stack of Hermitian effects, one square tile at a time.

    Yields (a, b, tile) with tile[i, j] = Tr(P_{a+i} P_{b+j}) for every tile
    of ``GRAM_TILE_ROWS`` rows and columns with b >= a, so that each pair
    i <= j lies in one tile.  Each Tr(P_i P_j) is the dot product of two
    ``real_rows``, so a tile is one real product of two row ranges of them,
    and the tiles take about the flops of one symmetric product.  A stack of
    at most ``GRAM_TILE_ROWS`` effects is one tile, the symmetric product ``r @ r.T``.
    """
    n = len(effects)
    r = real_rows(effects)
    rows = GRAM_TILE_ROWS
    for a in range(0, n, rows):
        for b in range(a, n, rows):
            yield a, b, r[a:a + rows] @ r[b:b + rows].T


def _condition_deviations(family: Family) -> tuple[dict[str, float], bool]:
    """Each condition ``verify`` checks, as its maximum absolute deviation, and the degeneracy flag.

    The overlaps' largest and smallest values on the diagonal, within one
    POVM off it and across two POVMs are folded tile by tile, each tile
    with a mask of its own size, so no whole Gram matrix and no whole mask
    is held.  Only a tile with a == b holds part of the Gram's diagonal.
    """
    d, param, effects = family.dim, family.parameter, family.effects
    group = np.arange(len(effects)) // family.layout[1]  # each effect's POVM
    # running extrema of the classes: the diagonal, same POVM off it, two POVMs
    highs, lows = np.full(3, -np.inf), np.full(3, np.inf)

    def fold(c, values, where=True) -> None:
        highs[c] = np.maximum(highs[c], values.max(where=where, initial=-np.inf))
        lows[c] = np.minimum(lows[c], values.min(where=where, initial=np.inf))

    for a, b, tile in _pairwise_overlaps(effects):
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
            "effect_trace": worst(np.trace(effects, axis1=1, axis2=2), 1.0),
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
    eye = np.eye(d, dtype=np.complex128)
    # eigvalsh may call a matrix with a nan entry positive ([0, -0] for
    # [[nan, 0], [0, 1]]); the Gram diagonal, the effects' squared norms, is nan exactly then
    lowest = np.nan if np.isnan(highs[0]) else float(np.linalg.eigvalsh(effects)[:, 0].min())
    deviations["positivity"] = 0.0 if lowest >= 0.0 else -lowest  # nan stays nan, and fails
    deviations["completeness"] = worst(effects.reshape(*family.layout, d, d).sum(axis=1), eye)
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
    formula.  The overlaps are a real Gram matrix of the family's effect
    stack, read in place, which holds because the effects are Hermitian.
    It is formed one square tile of ``GRAM_TILE_ROWS`` rows and columns at
    a time (``_pairwise_overlaps``) and folded into running extrema, so the
    working set beside the stack is one tile and its mask, whatever the
    family's size.  A family of more than one tile (more than
    ``GRAM_TILE_ROWS`` effects) may differ from the whole product in the
    last digits of its overlap deviations.

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
    """
    if d < 2:
        raise DomainError(f"MUBs need dimension >= 2, got {d}")
    _check_family_size("mub", d)
    factor = smallest_factor(d)
    if factor != d:
        raise DomainError(f"dimension {d} is not prime (smallest factor {factor})")

    # bases[b][:, j] is vector j of basis b
    if d == 2:  # the Z, X and Y eigenbases
        s = 1 / np.sqrt(2)
        bases = np.array([[[1, 0], [0, 1]], [[s, s], [s, -s]], [[s, s], [1j * s, -1j * s]]],
                         dtype=np.complex128)
    else:
        b, k, j = np.ogrid[:d, :d, :d]
        phases = np.exp(2j * np.pi * ((b * k * k + j * k) % d) / d) / np.sqrt(d)
        bases = np.concatenate([np.eye(d, dtype=np.complex128)[None], phases])
    effects = np.einsum("bik,bjk->bkij", bases, bases.conj()).reshape(-1, d, d)
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
