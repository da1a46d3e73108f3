import numpy as np

from bzinfo import _kernels


def test_backend_selected():
    assert _kernels.BACKEND == "numpy"


def test_tally_single_outcome():
    counts = _kernels.tally_inverse_cdf(np.array([1.0]), np.array([0.0, 0.5, 0.999]))
    np.testing.assert_array_equal(counts, [3])
