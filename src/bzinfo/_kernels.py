"""Hot numeric kernels: batched real traces and inverse-CDF tallying."""

import numpy as np

BACKEND = "numpy"


def real_trace_batch(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(ops[k] @ rho) for a stack of operators, shape (k, d, d)."""
    return np.einsum("kij,ji->k", ops, rho).real.astype(np.float64)


def tally_inverse_cdf(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Bin uniform draws by inverse CDF; returns int64 counts per outcome."""
    idx = np.searchsorted(cumulative, uniforms, side="right")
    idx = np.minimum(idx, cumulative.shape[0] - 1)
    return np.bincount(idx, minlength=cumulative.shape[0]).astype(np.int64)
