"""Finite-shot simulation of measurement families and collision estimation.

Each POVM's outcome counts are one multinomial draw of the shot budget
over its Born probabilities, so time and memory grow with the number of
outcomes, not of shots.  The probabilities come from a verified
``DirectEvaluator``.  The POVMs draw their counts one after another
from one ``Generator(Philox(seed))``, so sampling is deterministic.  The
bootstrap reads ``Philox(seed).jumped()``: the same key, 2^128 outputs
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
from .measurements import Family
from .states import DensityMatrix, check_seed, rng_from_seed

BOOTSTRAP_RESAMPLES = 200
# Generator.multinomial takes the shot budget as a signed 64-bit integer
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts per POVM, each row summing to the shot budget."""

    shots_per_povm: int
    counts: tuple[np.ndarray, ...]


def sample_outcomes(evaluator: DirectEvaluator, rho: DensityMatrix, shots: int, seed: int) -> CountTable:
    """Draw ``shots`` outcomes from every POVM of the evaluator's verified family."""
    if not isinstance(shots, (int, np.integer)) or not 1 <= int(shots) <= MAX_SHOTS:
        raise DomainError(f"shots must be an integer in [1, {MAX_SHOTS}], got {shots!r}")
    shots = int(shots)
    rng = rng_from_seed(seed)
    rows = []
    for probs in np.split(evaluator.probs(rho), evaluator.group_starts[1:]):
        p = np.maximum(probs, 0.0)
        counts = rng.multinomial(shots, p / p.sum())
        counts.setflags(write=False)
        rows.append(counts)
    return CountTable(shots_per_povm=shots, counts=tuple(rows))


def estimate_coincidence(table: CountTable) -> float:
    """Unbiased collision estimate of sum_j p_j^2 over the whole family."""
    n = table.shots_per_povm
    if n < 2:
        raise DomainError(f"collision estimation needs >= 2 shots per POVM, got {n}")
    total = 0.0
    for counts in table.counts:
        c = counts.astype(np.float64)
        total += float((c * (c - 1.0)).sum()) / (n * (n - 1.0))
    return total


def estimate_bz_info(family: Family, table: CountTable, seed: int) -> tuple[float, float]:
    """Finite-shot estimate of the invariant information, with bootstrap error.

    The estimate is the coincidence of ``table``, the family's counts
    drawn with ``sample_outcomes`` at ``seed``, minus the closed-form
    coincidence of the maximally mixed state for this family.  The
    standard error comes from ``BOOTSTRAP_RESAMPLES`` multinomial resamples
    of the count table, drawn from ``Generator(Philox(seed).jumped())``.
    """
    check_seed(seed)
    if tuple(len(counts) for counts in table.counts) != family.group_sizes:
        raise DomainError("count table does not match the family's POVMs")
    d = family.dim
    coincidence_at_mixed = closed_forms(family.kind, d, family.parameter, 1.0 / d).C
    estimate = estimate_coincidence(table) - coincidence_at_mixed

    n = table.shots_per_povm
    rng = np.random.Generator(np.random.Philox(int(seed)).jumped())
    frequencies = np.stack(table.counts) / n
    # one draw of shape (resamples, povms, outcomes), in the order of a
    # resample-major loop over the POVMs
    c = rng.multinomial(n, frequencies, size=(BOOTSTRAP_RESAMPLES, len(table.counts))).astype(np.float64)
    per_povm = (c * (c - 1.0)).sum(axis=2) / (n * (n - 1.0))
    # accumulate POVM by POVM, the float order of a per-resample running sum
    totals = np.zeros(BOOTSTRAP_RESAMPLES)
    for b in range(per_povm.shape[1]):
        totals += per_povm[:, b]
    replicas = totals - coincidence_at_mixed
    std_error = float(replicas.std(ddof=1))
    return estimate, std_error
