"""Probabilities, variances, coincidence and the invariant-information balance.

Every quantity comes in two independent flavours: a direct evaluation that
sums over the effects of a measurement family with no algebraic shortcuts,
and the closed forms in terms of dimension, sharpness parameter and state
purity.  Reconciling the two is the point of this package, so the only
intermediate the paths share is the outcome probabilities themselves.

Closed forms (p = Tr rho^2):

* MUM, kappa:      V = (kappa d - 1)/(d - 1) (d - p), V_min = kappa d - 1, V_max = (kappa d - 1)(d + 1)/d,
                   C = ((kappa d - 1)(d p - 1) + d^2 - 1)/(d (d - 1))
* general SIC, a:  with w = (a d^3 - 1)/(d (d^2 - 1)):
                   V = w (d - p), V_min = w (d - 1), V_max = w (d - 1/d),
                   C = ((a d^3 - 1) p + d (1 - a d))/(d (d^2 - 1))

and always I = V_max - V, U = V - V_min.

``reconcile`` makes every BzReport from the direct C and V, for the
evaluator and for the report decoder in ``serialize`` alike; on arrays it
makes a BzReport of a batch's columns, and ``BzReport.row(i)`` is state
i's report, as ``ClosedForms`` holds a float or a column in each field.

``DirectEvaluator.report_many`` is the one direct-evaluation path: it takes
a (k, d, d) stack of states and makes every check and every quantity as
arrays, and ``report`` is its one-state case.  The effects, their squares
and the states are all Hermitian, so every trace it needs, Tr(P rho),
Tr(P^2 rho) and Tr(rho^2), is the dot product of two packed rows
(``linalg.pack``), one of them ``linalg.weighted``.  The family is held as
its rows; ``DirectEvaluator._contract`` packs each batch of states with
the weights and walks the effects' rows in blocks, where a real
``np.einsum("kx,nx->nk")`` without ``optimize`` gives a block's slice of a
batch's Born traces.  For the squares' slice it unpacks the block, squares
it by ``matmul`` and packs the squares.  The purities are the states' rows
dotted with their weighted rows.  Those contractions call no BLAS and give
the same bits at every batch and block size, one state included, so
``bz`` and row i of ``sweep`` agree bit for bit, and the Born traces and
purities do not depend on the BLAS kernel.  The complex batched ``einsum``
(``"kij,nji->nk"``) was not used: its bits for a batch of one differ from
those for larger batches (measured at d = 2, 3 and 8).

A state built by hand need not be Hermitian, and the rows do not show the
imaginary parts of its traces.  Every family here is informationally
complete, so Im Tr(P rho) = 0 for every effect exactly when rho is
Hermitian: the check is the state's Hermitian defect, against ``IMAG_TOL``.

Each check of a state is one mask over a batch, and raises at the first
state it marks (``_raise_first``).  ``report_many`` checks, in this order,
the states' entries finite, the states Hermitian (both before any trace is
taken), the probabilities' [0, 1] range and the POVM sums, the variance
floor, and then, in ``closed_forms``, the purity domain.  So a state
alone raises its own first failure, while a batch whose states fail
different checks raises the earliest of those checks, at the first state
that fails it; ``cli sweep`` evaluates a failing batch again one state at
a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NumericalError, VerificationError
from .linalg import BLOCK_BYTES, COMPLEX_BYTES, IMAG_TOL, VAR_FLOOR, pack, purities, unpack, weighted
from .measurements import DEFAULT_TOL, GSM_KINDS, MUM_KINDS, Family, verify

PROB_TOL = 1e-10


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form quantities at a given purity.

    At an array of purities, C, V, I and U are arrays of the same shape.
    """

    C: float | np.ndarray
    V: float | np.ndarray
    V_min: float
    V_max: float
    I: float | np.ndarray
    U: float | np.ndarray


# the kinds a report carries: a SIC-POVM reports as the rank-one general SIC case
REPORT_KINDS = ("mum", "mub", "gsm")


def _raise_first(failing, error) -> None:
    """Raise ``error(j)`` for the first state j that the mask ``failing`` marks, if any."""
    hits = np.flatnonzero(failing)
    if len(hits):
        raise error(int(hits[0]))


def closed_forms(kind, d: int, parameter, purity_value) -> ClosedForms:
    """Closed forms for a family kind at the given purity, a float or an array of them.

    kind is one of "mum"/"mub" (parameter kappa) or "gsm"/"sic"
    (parameter a).  I and U are formed as the variance
    differences V_max - V and V - V_min.  On an array the arithmetic is
    elementwise, the same bits as on each float; V_min and V_max do not
    depend on the purity and stay floats.  The first purity out of range
    is named in the error.
    """
    if d < 2:  # every family has d >= 2
        raise DomainError(f"dimension must be >= 2, got {d}")
    p = purity_value
    _raise_first(np.logical_not((1.0 / d - 1e-12 <= p) & (p <= 1.0 + 1e-12)),
                 lambda j: DomainError(f"purity {np.ravel(p)[j].item()!r} outside [1/{d}, 1]"))
    if kind in MUM_KINDS:
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


def _item(value):
    """A numpy scalar as the Python float or int it holds; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class BzReport:
    """Direct and closed-form invariant-information quantities, reconciled.

    The report of one state holds floats; that of a batch of states holds
    one column per quantity that depends on the state, an entry per state
    in order, and ``row(i)`` is the report of state i.  V_min and V_max
    depend on the family alone and are floats either way.
    """

    dim: int
    kind: str
    parameter: float
    purity: float | np.ndarray
    C_direct: float | np.ndarray
    C_closed: float | np.ndarray
    V_direct: float | np.ndarray
    V_closed: float | np.ndarray
    V_min: float
    V_max: float
    I_direct: float | np.ndarray
    I_closed: float | np.ndarray
    U_direct: float | np.ndarray
    U_closed: float | np.ndarray
    max_abs_discrepancy: float | np.ndarray
    negatives_clamped: int | Sequence[int] = 0

    def row(self, i: int) -> BzReport:
        """The report of state i of a batch, its numbers Python floats and ints."""
        values = (getattr(self, f.name) for f in fields(self))
        return BzReport(*(_item(v[i] if np.ndim(v) else v) for v in values))


def reconcile(kind: str, d: int, parameter, purity, c_direct, v_direct, negatives_clamped):
    """The reports of states' direct C and V against the closed forms at their purities.

    Given one state's numbers, returns its BzReport; given arrays, with one
    entry per state, the BzReport of their columns.  The arithmetic is
    elementwise, the same bits as float arithmetic on each state, overflow
    to inf included.
    I_direct = V_max - V_direct and U_direct = V_direct - V_min.
    """
    if np.ndim(purity) == 0:
        return reconcile(kind, d, parameter, [purity], [c_direct], [v_direct],
                         [negatives_clamped]).row(0)
    purity = np.asarray(purity, dtype=np.float64)
    c_direct = np.asarray(c_direct, dtype=np.float64)
    v_direct = np.asarray(v_direct, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cf = closed_forms(kind, d, parameter, purity)
        i_direct = cf.V_max - v_direct
        u_direct = v_direct - cf.V_min
        discrepancy = np.maximum(np.abs(v_direct - cf.V), np.abs(i_direct - cf.I))
        np.maximum(discrepancy, np.abs(u_direct - cf.U), out=discrepancy)
        np.maximum(discrepancy, np.abs(c_direct - cf.C), out=discrepancy)

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


def _one_state(rho) -> np.ndarray:
    """A (d, d) state as a batch of one; a DomainError naming its shape unless it is square."""
    m = np.asarray(rho)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a (d, d) state, got shape {m.shape}")
    return m[None]


class DirectEvaluator:
    """Direct evaluation of one verified family on many states.

    Verifies the family at ``DEFAULT_TOL`` and raises VerificationError on
    a failure: the one verification of a family, loaded or built, in
    ``bz``, ``sample`` and ``sweep``.  ``rows`` is the family's packed
    rows themselves, read in place, and the evaluator keeps no stack of its
    own.  ``probs`` gives the checked outcome probabilities of one state and
    ``report_many`` the reconciled quantities of a batch, each from one
    call of ``_contract``, the one loop that contracts effects with states;
    only ``report_many`` has it form the squares, a block at a time.
    """

    def __init__(self, family: Family):
        report = verify(family, DEFAULT_TOL)
        if not report.passed:
            raise VerificationError(
                f"family failed verification at {DEFAULT_TOL:g}: "
                + ", ".join(report.failures())
            )
        self.kind = "gsm" if family.kind == "sic" else family.kind
        self.parameter = family.parameter
        self.dim = family.dim
        self.rows = family.rows
        self.layout = family.layout

    def _contract(self, states, squares: bool = False):
        """The packed rows of a (n, d, d) stack of states, its (n, k) Born traces and squares' traces.

        The states are checked finite, then Hermitian, each check raising at
        the first state that fails it, before any trace is taken.  Each block
        of effects' rows, of at most ``BLOCK_BYTES`` of matrices (one effect
        at least), writes its slice of the Born traces Tr(P rho_i); only if
        ``squares`` does it unpack its matrices, square them by ``matmul``
        and pack the squares, in reused buffers, and write their slice of
        Tr(P^2 rho_i), else the last item is None.  A state is read as its
        Hermitian part, which is the state itself bit for bit if it is
        Hermitian; a trace has the same bits in any block.
        """
        m = np.asarray(states, dtype=np.complex128)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DomainError(f"expected a (k, d, d) stack of states, got shape {m.shape}")
        d = self.dim
        if m.shape[1] != d:
            raise DomainError(f"dimension mismatch: family d={d}, state d={m.shape[1]}")
        # a state built by hand need not be finite, nor Hermitian
        _raise_first(np.logical_not(np.isfinite(m).all(axis=(1, 2))),
                     lambda j: NumericalError("state has non-finite entries"))
        # the family being informationally complete, a traced probability has an
        # imaginary part exactly when the state has a Hermitian defect
        adjoint = np.conjugate(m.transpose(0, 2, 1), order="C")
        with np.errstate(over="ignore"):  # entries near the float64 limit: a defect of inf
            defect = np.abs(m - adjoint).max(axis=(1, 2))
            _raise_first(np.logical_not(defect < IMAG_TOL),
                         lambda j: NumericalError("outcome probability has a non-negligible imaginary part"))
            # each state is read as (rho + rho^dag)/2, which is rho bit for bit if rho is Hermitian
            hermitian_part = np.add(m, adjoint, out=adjoint)
        hermitian_part /= 2.0
        rows = pack(hermitian_part)
        scaled = weighted(rows)
        effects = self.rows
        traces = np.empty((len(m), len(effects)))
        moments = np.empty_like(traces) if squares else None
        step = min(len(effects), max(1, BLOCK_BYTES // (COMPLEX_BYTES * d * d)))
        if squares:
            matrices = np.empty((step, d, d), dtype=np.complex128)
            products, packed = np.empty_like(matrices), np.empty((step, d * d))
        for a in range(0, len(effects), step):
            block = effects[a:a + step]
            k = len(block)
            np.einsum("kx,nx->nk", block, scaled, out=traces[:, a:a + k])
            if squares:
                unpack(block, d, out=matrices[:k])
                np.matmul(matrices[:k], matrices[:k], out=products[:k])
                pack(products[:k], out=packed[:k])
                np.einsum("kx,nx->nk", packed[:k], scaled, out=moments[:, a:a + k])
        return rows, traces, moments

    def probs(self, rho: np.ndarray) -> np.ndarray:
        """Born probabilities Tr(P rho) of every effect, POVM after POVM.

        The state is checked finite and Hermitian; each probability within
        [0, 1], and each POVM's sum within 1e-10 of one.
        """
        return self._checked_probs(self._contract(_one_state(rho))[1])[0]

    def _checked_probs(self, traces: np.ndarray) -> np.ndarray:
        """The Born traces of checked states, each within [0, 1], each POVM's sum within 1e-10 of one.

        Each check in turn raises at the first state that fails it; a nan
        trace fails the first, as each check is "not within".
        """
        low, high = np.minimum.reduce(traces, axis=1), np.maximum.reduce(traces, axis=1)
        _raise_first(np.logical_not((-PROB_TOL <= low) & (high <= 1.0 + PROB_TOL)), lambda j: NumericalError(
            f"probability out of [0, 1]: {low[j].item()!r}..{high[j].item()!r}"))
        totals = np.add.reduceat(traces, np.arange(0, traces.shape[1], self.layout[1]), axis=1)
        off = np.logical_not(np.abs(totals - 1.0) < PROB_TOL)
        _raise_first(np.logical_or.reduce(off, axis=1), lambda j: NumericalError(
            f"POVM probabilities sum to {totals[j][off[j]][0].item()!r}, not 1"))
        return traces

    def report_many(self, states) -> BzReport:
        """The report of a (n, d, d) stack of states, its columns computed as arrays.

        The states are checked in the order of ``probs`` (finite entries,
        Hermitian, [0, 1] range, POVM sums), then for the variance
        floor, then, in ``closed_forms``, for the purity domain.  Each check
        raises at the first state that fails it, so a batch whose states
        fail different checks raises the error of the earliest of those
        checks; a batch of one state raises that state's first failure.
        """
        rows, traces, terms = self._contract(states, squares=True)
        p = self._checked_probs(traces)
        squares = p * p  # the bits of p**2
        c_direct = np.add.reduce(squares, axis=1)
        terms -= squares
        smallest = np.minimum.reduce(terms, axis=1)
        _raise_first(smallest < VAR_FLOOR,
                     lambda j: NumericalError(f"effect variance {smallest[j].item()!r} below {VAR_FLOOR}"))
        # a row whose smallest term is negative or nan is clamped at 0 term by
        # term; its negative terms are counted
        clamped = np.add.reduce(terms < 0.0, axis=1)
        np.maximum(terms, 0.0, out=terms, where=np.logical_not(smallest >= 0.0)[:, None])
        v_direct = np.add.reduce(terms, axis=1)
        # Tr(rho^2), checked against [1/d, 1] by the closed forms
        return reconcile(self.kind, self.dim, self.parameter, purities(rows), c_direct,
                         v_direct, clamped)

    def report(self, rho: np.ndarray) -> BzReport:
        """The report of one (d, d) state: ``report_many`` of it, bit for bit."""
        return self.report_many(_one_state(rho)).row(0)
