"""Numeric kernels: batched real traces, and the inverse-CDF tally kept as a reference."""

import numpy as np

BACKEND = "numpy"


def real_trace_batch(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(ops[k] @ rho) for a stack of operators, shape (k, d, d).

    The library does not call this: ``DirectEvaluator._contract`` takes
    every trace from one loop of real contractions over blocks of effects.
    It is kept because the benchmark's tracer wraps it by name.
    """
    return np.einsum("kij,ji->k", ops, rho).real.astype(np.float64)


def tally_inverse_cdf(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Bin uniform draws by inverse CDF; returns int64 counts per outcome.

    The library does not call this: the sampler draws each POVM's counts
    with one multinomial draw.  It is kept because the benchmark's tracer
    (``perfbench/tracing.py``) wraps it by name, and because the tests use
    it as the reference law for the multinomial counts.
    """
    idx = np.searchsorted(cumulative, uniforms, side="right")
    idx = np.minimum(idx, cumulative.shape[0] - 1)
    return np.bincount(idx, minlength=cumulative.shape[0]).astype(np.int64)
