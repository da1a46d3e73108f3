"""Probabilities, variances, coincidence and the invariant-information balance.

Every quantity comes in two independent flavours: a direct evaluation that
sums over the effects of a measurement family with no algebraic shortcuts,
and the closed forms in terms of dimension, sharpness parameter and state
purity.  Reconciling the two is the point of this package, so the only
intermediate the paths share is the outcome probabilities themselves.

Closed forms (p = Tr rho^2):

* state only:      V = d - p,                         V_min = d - 1,      V_max = d - 1/d
* MUM, kappa:      V = (kappa d - 1)/(d - 1) (d - p), V_min = kappa d - 1, V_max = (kappa d - 1)(d + 1)/d,
                   C = ((kappa d - 1)(d p - 1) + d^2 - 1)/(d (d - 1))
* general SIC, a:  with w = (a d^3 - 1)/(d (d^2 - 1)):
                   V = w (d - p), V_min = w (d - 1), V_max = w (d - 1/d),
                   C = ((a d^3 - 1) p + d (1 - a d))/(d (d^2 - 1))

and always I = V_max - V, U = V - V_min.

``reconcile`` makes every BzReport from the direct C and V, for the
evaluator and for the report decoder in ``serialize`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gell_mann_basis
from .errors import DomainError, NumericalError, VerificationError
from .linalg import IMAG_TOL
from .measurements import GSM_KINDS, MUM_KINDS, Family, verify
from .states import DensityMatrix

PROB_TOL = 1e-10
VAR_FLOOR = -1e-10
REPORT_VERIFY_TOL = 1e-8


def variance(x, rho: DensityMatrix) -> float:
    """V(X|rho) = <X^2> - <X>^2 for an observable X."""
    a = np.asarray(getattr(x, "matrix", x), dtype=np.complex128)
    if a.shape != rho.matrix.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {rho.matrix.shape}")
    mean = np.einsum("ij,ji->", rho.matrix, a)
    second = np.einsum("ij,jk,ki->", rho.matrix, a, a)
    if max(abs(mean.imag), abs(second.imag)) >= IMAG_TOL:
        raise NumericalError("variance has a non-negligible imaginary part")
    v = float(second.real - mean.real**2)
    if v < VAR_FLOOR:
        raise NumericalError(f"variance {v!r} below the rounding floor {VAR_FLOOR}")
    return v


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form quantities at a given purity; C is None for state-only."""

    C: float | None
    V: float
    V_min: float
    V_max: float
    I: float
    U: float


_STATE_KINDS = {None, "state", "state-only"}
# the kinds a report carries: a SIC-POVM reports as the rank-one general SIC case
REPORT_KINDS = ("state-only", "mum", "mub", "gsm")


def closed_forms(kind, d: int, parameter, purity_value: float) -> ClosedForms:
    """Closed forms for a family kind at the given purity.

    kind is one of "state"/None, "mum"/"mub" (parameter kappa) or
    "gsm"/"sic" (parameter a).  I and U are formed as the variance
    differences V_max - V and V - V_min.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not (1.0 / d - 1e-12 <= purity_value <= 1.0 + 1e-12):
        raise DomainError(f"purity {purity_value!r} outside [1/{d}, 1]")
    p = purity_value

    if kind in _STATE_KINDS:
        c = None
        v = d - p
        v_min = d - 1.0
        v_max = d - 1.0 / d
    elif kind in MUM_KINDS:
        kappa = float(parameter)
        if not (1.0 / d < kappa <= 1.0 + 1e-12):
            raise DomainError(f"kappa {kappa!r} outside (1/{d}, 1]")
        c = ((kappa * d - 1.0) * (d * p - 1.0) + d * d - 1.0) / (d * (d - 1.0))
        w = (kappa * d - 1.0) / (d - 1.0)
        v = w * (d - p)
        v_min = kappa * d - 1.0
        v_max = (kappa * d - 1.0) * (d + 1.0) / d
    elif kind in GSM_KINDS:
        a = float(parameter)
        if not (1.0 / d**3 < a <= 1.0 / d**2 + 1e-12):
            raise DomainError(f"a {a!r} outside (1/d^3, 1/d^2] for d={d}")
        c = ((a * d**3 - 1.0) * p + d * (1.0 - a * d)) / (d * (d * d - 1.0))
        w = (a * d**3 - 1.0) / (d * (d * d - 1.0))
        v = w * (d - p)
        v_min = w * (d - 1.0)
        v_max = w * (d - 1.0 / d)
    else:
        raise DomainError(f"unknown family kind {kind!r}")

    return ClosedForms(C=c, V=v, V_min=v_min, V_max=v_max, I=v_max - v, U=v - v_min)


@dataclass(frozen=True)
class BzReport:
    """Direct and closed-form invariant-information quantities, reconciled."""

    dim: int
    kind: str
    parameter: float | None
    purity: float
    C_direct: float | None
    C_closed: float | None
    V_direct: float
    V_closed: float
    V_min: float
    V_max: float
    I_direct: float
    I_closed: float
    U_direct: float
    U_closed: float
    max_abs_discrepancy: float
    negatives_clamped: int = 0


def reconcile(kind: str, d: int, parameter, purity: float, c_direct: float | None,
              v_direct: float, negatives_clamped: int) -> BzReport:
    """The report of a state's direct C and V against the closed forms at its purity.

    I_direct = V_max - V_direct and U_direct = V_direct - V_min.
    """
    cf = closed_forms(kind, d, parameter, purity)
    i_direct = cf.V_max - v_direct
    u_direct = v_direct - cf.V_min

    pairs = [(v_direct, cf.V), (i_direct, cf.I), (u_direct, cf.U)]
    if c_direct is not None:
        pairs.append((c_direct, cf.C))
    discrepancy = max(abs(x - y) for x, y in pairs)

    return BzReport(
        dim=d,
        kind=kind,
        parameter=parameter,
        purity=purity,
        C_direct=c_direct,
        C_closed=cf.C,
        V_direct=v_direct,
        V_closed=cf.V,
        V_min=cf.V_min,
        V_max=cf.V_max,
        I_direct=i_direct,
        I_closed=cf.I,
        U_direct=u_direct,
        U_closed=cf.U,
        max_abs_discrepancy=discrepancy,
        negatives_clamped=negatives_clamped,
    )


class DirectEvaluator:
    """Direct evaluation of one verified family on many states.

    Verifies the family at REPORT_VERIFY_TOL.  ``observables`` is the
    family's effect stack itself, read in place, and ``observables_sq`` the
    one stack the evaluator derives, the effects' squares.  ``probs`` gives
    the checked outcome probabilities and ``report`` the reconciled
    quantities; both take the Born traces from ``_traces``.  Pass
    family=None for the state-only quantities, where the direct total
    variance sums observable variances over a complete orthonormal
    Hermitian operator basis, a stack the evaluator builds and owns.
    """

    def __init__(self, family: Family | None, dim: int | None = None):
        if family is None:
            if dim is None:
                raise DomainError("state-only evaluation needs an explicit dim")
            self.kind = "state-only"
            self.parameter = None
            self.dim = dim
            basis = gell_mann_basis(dim)
            eye = np.eye(dim, dtype=np.complex128) / np.sqrt(dim)
            ops = np.concatenate([basis.ops, eye[None]])
            self.group_starts = None
        else:
            report = verify(family, REPORT_VERIFY_TOL)
            if not report.passed:
                raise VerificationError(
                    f"family failed verification at {REPORT_VERIFY_TOL:g}: "
                    + ", ".join(report.failures())
                )
            self.kind = "gsm" if family.kind == "sic" else family.kind
            self.parameter = family.parameter
            self.dim = family.dim
            ops = family.effects
            self.group_starts = np.cumsum((0,) + family.group_sizes[:-1])
        self.observables = ops
        self.observables_sq = ops @ ops

    def _traces(self, rho: DensityMatrix) -> np.ndarray:
        """The Born traces Tr(A rho) of every observable A, for a state of the evaluator's d."""
        if rho.dim != self.dim:
            raise DomainError(f"dimension mismatch: family d={self.dim}, state d={rho.dim}")
        return np.einsum("kij,ji->k", self.observables, rho.matrix)

    def probs(self, rho: DensityMatrix) -> np.ndarray:
        """Born probabilities Tr(P rho) of every effect, POVM after POVM.

        Each is checked real and within [0, 1], and each POVM's sum within
        1e-10 of one.
        """
        if self.group_starts is None:
            raise DomainError("state-only evaluation has no outcome probabilities")
        return self._checked_probs(self._traces(rho))

    def _checked_probs(self, traces: np.ndarray) -> np.ndarray:
        """The real parts of the effects' traces, checked as ``probs`` describes."""
        if np.maximum.reduce(np.abs(traces.imag)) >= IMAG_TOL:
            raise NumericalError("outcome probability has a non-negligible imaginary part")
        p = traces.real
        low, high = np.minimum.reduce(p), np.maximum.reduce(p)
        if low < -PROB_TOL or high > 1.0 + PROB_TOL:
            raise NumericalError(f"probability out of [0, 1]: {low!r}..{high!r}")
        # a Python loop over the d + 1 or fewer sums beats one vectorised comparison
        for total in np.add.reduceat(p, self.group_starts).tolist():
            if abs(total - 1.0) >= PROB_TOL:
                raise NumericalError(f"POVM probabilities sum to {total!r}, not 1")
        return p

    def report(self, rho: DensityMatrix) -> BzReport:
        traces = self._traces(rho)
        p = traces.real if self.group_starts is None else self._checked_probs(traces)
        squares = p * p  # the bits of p**2
        c_direct = None if self.group_starts is None else float(np.add.reduce(squares))
        terms = np.einsum("kij,ji->k", self.observables_sq, rho.matrix).real - squares
        smallest = np.minimum.reduce(terms)
        if smallest < VAR_FLOOR:
            raise NumericalError(f"effect variance {smallest!r} below {VAR_FLOOR}")
        # with no negative term, np.maximum(terms, 0.0) is terms itself; a nan
        # minimum fails ">= 0.0" and is counted and clamped as before
        clamped = 0
        if not smallest >= 0.0:
            clamped = int(np.add.reduce(terms < 0.0))
            terms = np.maximum(terms, 0.0)
        v_direct = float(np.add.reduce(terms))

        r = rho.matrix
        pur = float(np.einsum("ij,ji->", r, r).real)  # purity, Tr(rho^2)
        return reconcile(self.kind, self.dim, self.parameter, pur, c_direct, v_direct, clamped)


def bz_report(family, rho: DensityMatrix) -> BzReport:
    """One-shot report for a family (or None for state-only) and a state."""
    dim = rho.dim if family is None else None
    return DirectEvaluator(family, dim=dim).report(rho)
