import numpy as np
import pytest

from bzinfo import DomainError, hermitian, purity
from bzinfo.states import maximally_mixed, random_density, validate_state

from conftest import expectation, herm_eig, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = validate_state(np.diag([1.0, 0.0]))

# herm_eig and expectation are oracles, in conftest, that other tests compare against


def test_herm_eig_pauli_z():
    w, _ = herm_eig(SZ)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_identity():
    w, _ = herm_eig(np.eye(3, dtype=complex))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-14)


def test_herm_eig_diagonal():
    w, _ = herm_eig(np.diag([0.2, 0.8]).astype(complex))
    np.testing.assert_allclose(w, [0.2, 0.8], atol=1e-14)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("d", range(2, 9))
def test_herm_eig_reconstruction(d, rng):
    for _ in range(100):
        h = random_hermitian(d, rng)
        w, v = herm_eig(h)
        tol = 1e-10 * max(1.0, float(np.abs(h).max()))
        assert np.all(np.diff(w) >= 0)
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < tol
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10


def test_expectation_examples():
    assert expectation(SZ, KET0) == pytest.approx(1.0, abs=1e-14)
    rho = random_density(2, 2, 11)
    assert expectation(np.eye(2, dtype=complex), rho) == pytest.approx(1.0, abs=1e-12)
    assert expectation(SX, maximally_mixed(2)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_linearity(rng):
    rho = random_density(4, 4, 3)
    x = random_hermitian(4, rng)
    y = random_hermitian(4, rng)
    a, b = 0.7, -1.3
    lhs = expectation(a * x + b * y, rho)
    rhs = a * expectation(x, rho) + b * expectation(y, rho)
    assert abs(lhs - rhs) < 1e-10


def test_expectation_dimension_mismatch():
    with pytest.raises(DomainError):
        expectation(SZ, maximally_mixed(3))


def test_purity_examples():
    assert purity(maximally_mixed(4)) == pytest.approx(0.25, abs=1e-14)
    assert purity(random_density(5, 1, 9)) == pytest.approx(1.0, abs=1e-12)
    assert purity(validate_state(np.diag([0.75, 0.25]))) == pytest.approx(5 / 8, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_purity_bounds(d):
    for seed in range(20):
        rank = 1 + seed % d
        p = purity(random_density(d, rank, seed))
        assert 1 / d - 1e-12 <= p <= 1 + 1e-12


def test_hermitian_absorbs_rounding():
    a = SX + 1e-14 * np.array([[0, 1j], [0, 0]])
    h = hermitian(a)
    assert np.abs(h - h.conj().T).max() == 0.0


@pytest.mark.parametrize("shape", [(4, 4), (5, 3, 3)])
def test_hermitian_bits_equal_the_symmetrized_sum(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a = a + a.conj().swapaxes(-1, -2) + 1e-13 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    a[..., 0, 1] = complex(-0.0, 0.0)
    a[..., 1, 0] = complex(0.0, -0.0)
    a[..., 0, 0] = complex(-0.0, -0.0)
    h = hermitian(a)
    expected = (a + a.conj().swapaxes(-1, -2)) / 2.0
    assert h.flags.c_contiguous
    assert h.tobytes() == expected.tobytes()


def test_hermitian_rejects_large_defect():
    with pytest.raises(DomainError):
        hermitian(SX + 1e-6 * np.array([[0, 1j], [0, 0]]))
    # a defect that overflows is a defect, with no RuntimeWarning
    with pytest.raises(DomainError, match=r"not Hermitian \(defect inf"):
        hermitian(np.array([[0.5, 1.5e308], [-1.5e308, 0.5]]))


@pytest.mark.parametrize("entry", [1.5e308, -1.5e308, 1.5e308j])
def test_hermitian_refuses_a_sum_that_overflows(entry):
    # finite and Hermitian, but H + H^dag overflows; no RuntimeWarning escapes
    m = np.array([[0.5, entry], [np.conj(entry), 0.5]])
    with pytest.raises(DomainError, match="^matrix entries too large to symmetrize$"):
        hermitian(m)
    stack = np.stack([np.eye(2), m])
    with pytest.raises(DomainError, match="^matrix entries too large to symmetrize$"):
        hermitian(stack, overwrite=True)


def test_stacked_hermitian_matches_per_matrix_calls(rng):
    stack = np.stack([random_hermitian(3, rng) + 1e-14j * rng.normal(size=(3, 3)) for _ in range(6)])
    together = hermitian(stack)
    for matrix, symmetrized in zip(stack, together):
        np.testing.assert_array_equal(symmetrized, hermitian(matrix))
    np.testing.assert_array_equal(hermitian(stack.reshape(2, 3, 3, 3)), together.reshape(2, 3, 3, 3))


def test_stacked_hermitian_rejects_only_last_defective(rng):
    stack = np.stack([random_hermitian(3, rng) for _ in range(5)])
    stack[-1, 0, 1] += 1e-9
    with pytest.raises(DomainError, match="matrix 4 of the stack is not Hermitian"):
        hermitian(stack)
    hermitian(stack[:-1])
