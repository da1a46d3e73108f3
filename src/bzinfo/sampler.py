"""Finite-shot simulation of measurement families and collision estimation.

Each POVM's outcome counts are one multinomial draw of the shot budget
over its Born probabilities, so time and memory grow with the number of
outcomes, not of shots.  The per-POVM generator is seeded as
seed + povm index, so sampling is deterministic and POVMs can be
simulated concurrently.
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


def sample_outcomes(family: Family, rho: DensityMatrix, shots: int, seed: int) -> CountTable:
    """Draw ``shots`` outcomes from every POVM of a verified family."""
    if not isinstance(shots, (int, np.integer)) or not 1 <= int(shots) <= MAX_SHOTS:
        raise DomainError(f"shots must be an integer in [1, {MAX_SHOTS}], got {shots!r}")
    shots = int(shots)
    check_seed(seed, len(family.group_sizes))
    rows = []
    for b, probs in enumerate(family.split(DirectEvaluator(family).probs(rho))):
        p = np.maximum(probs, 0.0)
        counts = rng_from_seed(seed + b).multinomial(shots, p / p.sum())
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


def estimate_bz_info(
    family: Family,
    rho: DensityMatrix,
    shots: int,
    seed: int,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> tuple[float, float]:
    """Finite-shot estimate of the invariant information, with bootstrap error.

    The estimate is the sampled coincidence minus the closed-form
    coincidence of the maximally mixed state for this family.  The
    standard error comes from ``resamples`` multinomial resamples of the
    count table, drawn from the generator seeded seed + number of POVMs.
    """
    check_seed(seed, len(family.group_sizes) + 1)
    table = sample_outcomes(family, rho, shots, seed)
    d = family.dim
    coincidence_at_mixed = closed_forms(family.kind, d, family.parameter, 1.0 / d).C
    estimate = estimate_coincidence(table) - coincidence_at_mixed

    n = table.shots_per_povm
    rng = rng_from_seed(seed + len(table.counts))
    frequencies = np.stack(table.counts) / n
    # one draw of shape (resamples, povms, outcomes), in the order of a
    # resample-major loop over the POVMs
    c = rng.multinomial(n, frequencies, size=(resamples, len(table.counts))).astype(np.float64)
    per_povm = (c * (c - 1.0)).sum(axis=2) / (n * (n - 1.0))
    # accumulate POVM by POVM, the float order of a per-resample running sum
    totals = np.zeros(resamples)
    for b in range(per_povm.shape[1]):
        totals += per_povm[:, b]
    replicas = totals - coincidence_at_mixed
    std_error = float(replicas.std(ddof=1))
    return estimate, std_error
