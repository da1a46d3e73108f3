import numpy as np
import pytest

from bzinfo import DomainError, gell_mann_basis
from bzinfo.basis import write_gell_mann

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_d2_is_scaled_paulis():
    ops = gell_mann_basis(2)
    expected = np.stack([SX, SY, SZ]) / np.sqrt(2)
    np.testing.assert_allclose(ops, expected, atol=1e-15)


def test_sum_identity_d2_direct_arithmetic():
    ops = gell_mann_basis(2)
    total = sum(op @ op for op in ops)
    np.testing.assert_allclose(total, 1.5 * np.eye(2), atol=1e-14)


def test_sum_identity_d3_direct_arithmetic():
    ops = gell_mann_basis(3)
    assert ops.shape[0] == 8
    total = sum(op @ op for op in ops)
    np.testing.assert_allclose(total, (8 / 3) * np.eye(3), atol=1e-14)


@pytest.mark.parametrize("d", range(2, 9))
def test_basis_invariants(d):
    ops = gell_mann_basis(d)
    assert ops.shape == (d * d - 1, d, d)
    # Hermitian and traceless
    assert np.abs(ops - ops.conj().transpose(0, 2, 1)).max() < 1e-15
    assert np.abs(np.trace(ops, axis1=1, axis2=2)).max() < 1e-12
    # orthonormal
    gram = np.einsum("aij,bji->ab", ops, ops)
    assert np.abs(gram - np.eye(d * d - 1)).max() < 1e-10
    # sum of squares is (d - 1/d) I
    total = np.einsum("aij,ajk->ik", ops, ops)
    assert np.abs(total - (d - 1 / d) * np.eye(d)).max() < 1e-10


def test_gell_mann_rejects_small_dim():
    with pytest.raises(DomainError):
        gell_mann_basis(1)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_write_gell_mann_fills_the_mum_slots_povm_by_povm(d):
    # operator b(d-1) + n lands in slot n of POVM b, and each POVM's last slot stays zero
    stack = np.zeros((d + 1, d, d, d), dtype=complex)
    for b, povm in enumerate(stack):
        write_gell_mann(povm[:-1], b * (d - 1))
    assert np.array_equal(stack[:, :-1].reshape(d * d - 1, d, d), gell_mann_basis(d))
    assert not stack[:, -1].any()
    # a run past the last operator leaves its slots as they are
    tail = np.zeros((5, d, d), dtype=complex)
    write_gell_mann(tail, d * d - 3)
    assert np.array_equal(tail[:2], gell_mann_basis(d)[-2:]) and not tail[2:].any()
