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
evaluator and for the report decoder in ``serialize`` alike; on arrays it
makes the columns of a batch, a ``BzReports``.

``DirectEvaluator.report_many`` is the one direct-evaluation path: it takes
a (k, d, d) stack of states and makes every check and every quantity as
arrays, and ``report`` is its one-state case.  Its Born traces rest on
Tr(A rho) = sum_ij A_ij rho_ji: the dot product of A's float64 view with
that of conj(rho^T) is Re Tr(A rho), and with that of i conj(rho^T) it is
Im Tr(A rho), exactly, for any complex A and rho (``linalg.trace_rows``).
So one real ``np.einsum("kx,nx->nk")`` without ``optimize`` gives every
trace of a batch; the squares' traces need only the real rows, and the
purities are the same dot products of the states with themselves.  That
contraction calls no BLAS and gives the same bits at every batch size, one
state included, so ``bz`` and row i of ``sweep`` agree bit for bit and
neither depends on the BLAS kernel.  The complex batched ``einsum``
(``"kij,nji->nk"``) was not used: its bits for a batch of one differ from
those for larger batches (measured at d = 2, 3 and 8).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import gell_mann_basis
from .errors import DomainError, NumericalError, VerificationError
from .linalg import IMAG_TOL, VAR_FLOOR, purities, trace_rows
from .measurements import GSM_KINDS, MUM_KINDS, Family, verify
from .states import DensityMatrix

PROB_TOL = 1e-10
REPORT_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form quantities at a given purity; C is None for state-only.

    At an array of purities, C, V, I and U are arrays of the same shape.
    """

    C: float | np.ndarray | None
    V: float | np.ndarray
    V_min: float
    V_max: float
    I: float | np.ndarray
    U: float | np.ndarray


_STATE_KINDS = {None, "state", "state-only"}
# the kinds a report carries: a SIC-POVM reports as the rank-one general SIC case
REPORT_KINDS = ("state-only", "mum", "mub", "gsm")


def _purity_outside(d: int, p):
    """Where the purity p, a float or an array, lies outside [1/d, 1] by more than 1e-12."""
    return np.logical_not((1.0 / d - 1e-12 <= p) & (p <= 1.0 + 1e-12))


def _purity_error(d: int, p) -> DomainError:
    return DomainError(f"purity {p.item()!r} outside [1/{d}, 1]")


def closed_forms(kind, d: int, parameter, purity_value) -> ClosedForms:
    """Closed forms for a family kind at the given purity, a float or an array of them.

    kind is one of "state"/None, "mum"/"mub" (parameter kappa) or
    "gsm"/"sic" (parameter a).  I and U are formed as the variance
    differences V_max - V and V - V_min.  On an array the arithmetic is
    elementwise, the same bits as on each float; V_min and V_max do not
    depend on the purity and stay floats.  The first purity out of range
    is named in the error.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    outside = _purity_outside(d, purity_value)
    if np.any(outside):
        raise _purity_error(d, np.asarray(purity_value)[outside][0])
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


@dataclass(frozen=True, eq=False)
class BzReports:
    """The reports of a batch of states as columns, one entry per state, in order.

    The fields are those of ``BzReport``; V_min and V_max depend on the
    family alone and are floats, the C columns are None for state-only.
    """

    dim: int
    kind: str
    parameter: float | None
    purity: np.ndarray
    C_direct: np.ndarray | None
    C_closed: np.ndarray | None
    V_direct: np.ndarray
    V_closed: np.ndarray
    V_min: float
    V_max: float
    I_direct: np.ndarray
    I_closed: np.ndarray
    U_direct: np.ndarray
    U_closed: np.ndarray
    max_abs_discrepancy: np.ndarray
    negatives_clamped: Sequence[int]

    def __len__(self) -> int:
        return len(self.purity)

    def report(self, i: int) -> BzReport:
        """The report of state i, its numbers Python floats and ints."""

        def at(column):
            return None if column is None else float(column[i])

        return BzReport(
            dim=self.dim,
            kind=self.kind,
            parameter=self.parameter,
            purity=at(self.purity),
            C_direct=at(self.C_direct),
            C_closed=at(self.C_closed),
            V_direct=at(self.V_direct),
            V_closed=at(self.V_closed),
            V_min=self.V_min,
            V_max=self.V_max,
            I_direct=at(self.I_direct),
            I_closed=at(self.I_closed),
            U_direct=at(self.U_direct),
            U_closed=at(self.U_closed),
            max_abs_discrepancy=at(self.max_abs_discrepancy),
            negatives_clamped=int(self.negatives_clamped[i]),
        )


def reconcile(kind: str, d: int, parameter, purity, c_direct, v_direct, negatives_clamped):
    """The reports of states' direct C and V against the closed forms at their purities.

    Given one state's numbers, returns its BzReport; given arrays, with one
    entry per state, the BzReports of them all.  c_direct is None for
    state-only.  The arithmetic is elementwise, the same bits as float
    arithmetic on each state, overflow to inf included.
    I_direct = V_max - V_direct and U_direct = V_direct - V_min.
    """
    if np.ndim(purity) == 0:
        c_direct = None if c_direct is None else [c_direct]
        return reconcile(kind, d, parameter, [purity], c_direct, [v_direct],
                         [negatives_clamped]).report(0)
    purity = np.asarray(purity, dtype=np.float64)
    v_direct = np.asarray(v_direct, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cf = closed_forms(kind, d, parameter, purity)
        i_direct = cf.V_max - v_direct
        u_direct = v_direct - cf.V_min
        discrepancy = np.maximum(np.abs(v_direct - cf.V), np.abs(i_direct - cf.I))
        np.maximum(discrepancy, np.abs(u_direct - cf.U), out=discrepancy)
        if c_direct is not None:
            c_direct = np.asarray(c_direct, dtype=np.float64)
            np.maximum(discrepancy, np.abs(c_direct - cf.C), out=discrepancy)

    return BzReports(
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


def _real_view(ops: np.ndarray) -> np.ndarray:
    """The float64 view of a (k, d, d) complex stack as k rows of 2 d^2 numbers."""
    ops = np.ascontiguousarray(ops)
    return ops.view(np.float64).reshape(len(ops), -1)


def _first(mask: np.ndarray) -> int:
    """The index of the first True entry of a 1-D mask, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


class DirectEvaluator:
    """Direct evaluation of one verified family on many states.

    Verifies the family at REPORT_VERIFY_TOL.  ``observables`` is the
    family's effect stack itself, read in place, and ``observables_sq`` the
    one stack the evaluator derives, the effects' squares, formed on their
    first use by ``report_many``.  ``probs`` gives the checked outcome
    probabilities of one state and ``report_many`` the reconciled
    quantities of a batch; both take the Born traces from ``_traces``.
    Pass family=None for the state-only quantities, where the direct total
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

    @functools.cached_property
    def observables_sq(self) -> np.ndarray:
        return self.observables @ self.observables

    def _traces(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A (n, d, d) stack of states, its ``trace_rows`` and the Born traces.

        The traces are one (2n, k) array: row i holds Re Tr(A rho_i) of every
        observable A, and row n + i the imaginary parts.
        """
        m = np.ascontiguousarray(states, dtype=np.complex128)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DomainError(f"expected a (k, d, d) stack of states, got shape {m.shape}")
        if m.shape[1] != self.dim:
            raise DomainError(f"dimension mismatch: family d={self.dim}, state d={m.shape[1]}")
        rows = trace_rows(m)
        traces = np.einsum("kx,nx->nk", _real_view(self.observables), rows.reshape(-1, rows.shape[2]))
        return m, rows, traces

    def probs(self, rho: DensityMatrix) -> np.ndarray:
        """Born probabilities Tr(P rho) of every effect, POVM after POVM.

        Each is checked real and within [0, 1], and each POVM's sum within
        1e-10 of one.
        """
        if self.group_starts is None:
            raise DomainError("state-only evaluation has no outcome probabilities")
        p, failure = self._checked_probs(self._traces(rho.matrix[None])[2])
        if failure is not None:
            raise failure[1]
        return p[0]

    def _checked_probs(self, traces: np.ndarray):
        """The probabilities, the real rows of the traces, checked as ``probs`` describes.

        Returns them with the first state whose probabilities fail a check,
        as (index, error), or with None.
        """
        n = len(traces) // 2
        p = traces[:n]
        imaginary = np.maximum.reduce(np.abs(traces[n:]), axis=1) >= IMAG_TOL
        low, high = np.minimum.reduce(p, axis=1), np.maximum.reduce(p, axis=1)
        out_of_range = (low < -PROB_TOL) | (high > 1.0 + PROB_TOL)
        totals = np.add.reduceat(p, self.group_starts, axis=1)
        off = np.abs(totals - 1.0) >= PROB_TOL
        j = _first(imaginary | out_of_range | np.logical_or.reduce(off, axis=1))
        if j == n:
            return p, None
        if imaginary[j]:
            error = NumericalError("outcome probability has a non-negligible imaginary part")
        elif out_of_range[j]:
            error = NumericalError(f"probability out of [0, 1]: {low[j]!r}..{high[j]!r}")
        else:
            error = NumericalError(f"POVM probabilities sum to {totals[j][off[j]][0].item()!r}, not 1")
        return p, (j, error)

    def report_many(self, states) -> BzReports:
        """The reports of a (n, d, d) stack of states, computed as arrays.

        Each state is checked in the order of ``probs`` (imaginary part,
        [0, 1] range, POVM sums), then for the variance floor and the purity
        domain.  At the first state j that fails, the error of its first
        failing check is raised, with the reports of states 0..j-1 as its
        ``reports`` attribute (None when j is 0).
        """
        m, rows, traces = self._traces(states)
        n = len(m)
        if self.group_starts is None:
            p, failure = traces[:n], None
        else:
            p, failure = self._checked_probs(traces)
        squares = p * p  # the bits of p**2
        c_direct = None if self.group_starts is None else np.add.reduce(squares, axis=1)
        terms = np.einsum("kx,nx->nk", _real_view(self.observables_sq), rows[0])
        terms -= squares
        smallest = np.minimum.reduce(terms, axis=1)
        # a row whose smallest term is negative or nan is clamped at 0 term by
        # term; its negative terms are counted
        clamped = np.add.reduce(terms < 0.0, axis=1)
        np.maximum(terms, 0.0, out=terms, where=np.logical_not(smallest >= 0.0)[:, None])
        v_direct = np.add.reduce(terms, axis=1)
        pur = purities(m, rows[0])  # Tr(rho^2)

        # the first failing state j, and the error of its first failing check
        low_variance = smallest < VAR_FLOOR
        j = _first(low_variance | _purity_outside(self.dim, pur))
        if failure is not None and failure[0] <= j:
            j, error = failure
        elif j == n:
            error = None
        elif low_variance[j]:
            error = NumericalError(f"effect variance {smallest[j]!r} below {VAR_FLOOR}")
        else:
            error = _purity_error(self.dim, pur[j])
        if error is not None and j == 0:
            # raised before reconcile: state 0's checks come before the
            # parameter check of the closed forms
            error.reports = None
            raise error
        reports = reconcile(self.kind, self.dim, self.parameter, pur[:j],
                            None if c_direct is None else c_direct[:j], v_direct[:j], clamped[:j])
        if error is not None:
            error.reports = reports
            raise error
        return reports

    def report(self, rho: DensityMatrix) -> BzReport:
        """The report of one state: ``report_many`` of it, bit for bit."""
        return self.report_many(rho.matrix[None]).report(0)


def bz_report(family, rho: DensityMatrix) -> BzReport:
    """One-shot report for a family (or None for state-only) and a state."""
    dim = rho.dim if family is None else None
    return DirectEvaluator(family, dim=dim).report(rho)
