"""Finite-shot simulation of measurement families and collision estimation.

A count table is one (POVMs, outcomes) array, the family's ``layout``.  One
``multinomial`` call draws its rows, POVM after POVM, from one
``Generator(Philox(seed))`` over the Born probabilities of a verified
``DirectEvaluator``, so time and memory grow with the outcomes, not the shots.
The bootstrap reads ``Philox(seed).jumped()``: the same key, 2^128 outputs
ahead, a stream that never meets the count table's.
The coincidence estimator is the unbiased collision statistic
sum_j n_j (n_j - 1) / (N (N - 1)); the plug-in sum of squared frequencies
would be biased upward by (1 - sum p^2)/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .invariants import DirectEvaluator, closed_forms
from .states import DensityMatrix, check_seed, rng_from_seed

BOOTSTRAP_RESAMPLES = 200
# Generator.multinomial takes the shot budget as a signed 64-bit integer
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts: a read-only (POVMs, outcomes) int64 array, each row summing to the shots."""

    shots_per_povm: int
    counts: np.ndarray


def sample_outcomes(evaluator: DirectEvaluator, rho: DensityMatrix, shots: int, seed: int) -> CountTable:
    """Draw ``shots`` outcomes from every POVM of the evaluator's verified family."""
    if not isinstance(shots, (int, np.integer)) or not 1 <= int(shots) <= MAX_SHOTS:
        raise DomainError(f"shots must be an integer in [1, {MAX_SHOTS}], got {shots!r}")
    shots = int(shots)
    rng = rng_from_seed(seed)
    p = np.maximum(evaluator.probs(rho), 0.0).reshape(evaluator.layout)
    counts = rng.multinomial(shots, p / p.sum(axis=1, keepdims=True))
    counts.setflags(write=False)
    return CountTable(shots_per_povm=shots, counts=counts)


def _collisions(counts: np.ndarray, n: int) -> np.ndarray:
    """The collision statistic of (..., POVMs, outcomes) counts of ``n`` shots per POVM.

    The POVMs' sums are added in POVM order, which ``add.accumulate`` keeps
    and ``add.reduce`` would not.
    """
    c = counts.astype(np.float64)
    per_povm = (c * (c - 1.0)).sum(axis=-1) / (n * (n - 1.0))
    return np.add.accumulate(per_povm, axis=-1)[..., -1]


def estimate_coincidence(table: CountTable) -> float:
    """Unbiased collision estimate of sum_j p_j^2 over the whole family."""
    n = table.shots_per_povm
    if n < 2:
        raise DomainError(f"collision estimation needs >= 2 shots per POVM, got {n}")
    return float(_collisions(table.counts, n))


def estimate_bz_info(evaluator: DirectEvaluator, table: CountTable, seed: int) -> tuple[float, float]:
    """Finite-shot estimate of the invariant information, with bootstrap error.

    The estimate is the coincidence of ``table``, the evaluator's counts
    drawn with ``sample_outcomes`` at ``seed``, minus the closed-form
    coincidence of the maximally mixed state for this family.  The
    standard error comes from ``BOOTSTRAP_RESAMPLES`` multinomial resamples
    of the count table, drawn from ``Generator(Philox(seed).jumped())``.
    """
    check_seed(seed)
    if table.counts.shape != evaluator.layout:
        raise DomainError("count table does not match the family's POVMs")
    d = evaluator.dim
    coincidence_at_mixed = closed_forms(evaluator.kind, d, evaluator.parameter, 1.0 / d).C
    estimate = estimate_coincidence(table) - coincidence_at_mixed

    n = table.shots_per_povm
    rng = np.random.Generator(np.random.Philox(int(seed)).jumped())
    # one draw of shape (resamples, POVMs, outcomes), in the order of a
    # resample-major loop over the POVMs
    resamples = rng.multinomial(n, table.counts / n, size=(BOOTSTRAP_RESAMPLES, len(table.counts)))
    replicas = _collisions(resamples, n) - coincidence_at_mixed
    return estimate, float(replicas.std(ddof=1))
