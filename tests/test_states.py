import numpy as np
import pytest

from bzinfo import (
    DomainError,
    density_stream,
    linalg,
    maximally_mixed,
    purity,
    random_density,
    states,
    validate_state,
)


def test_maximally_mixed_values():
    np.testing.assert_allclose(maximally_mixed(2).matrix, np.diag([0.5, 0.5]))
    rho3 = maximally_mixed(3)
    np.testing.assert_allclose(rho3.matrix, np.eye(3) / 3)
    assert purity(rho3) == pytest.approx(1 / 3, abs=1e-15)
    assert purity(maximally_mixed(4)) == pytest.approx(0.25, abs=1e-15)


def test_rank_one_is_pure():
    assert purity(random_density(3, 1, 123)) == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    a = random_density(4, 4, 42)
    b = random_density(4, 4, 42)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_seed_sweep_purity_band():
    for seed in range(50):
        p = purity(random_density(2, 2, seed))
        assert 0.5 - 1e-12 <= p <= 1 + 1e-12


def test_rank_out_of_range():
    with pytest.raises(DomainError):
        random_density(3, 0, 1)
    with pytest.raises(DomainError):
        random_density(3, 4, 1)


def test_bad_seed():
    with pytest.raises(DomainError):
        random_density(2, 1, -1)
    with pytest.raises(DomainError):
        random_density(2, 1, 2**64)


def test_validate_accepts_mixed_diagonal():
    state = validate_state(np.diag([0.5, 0.5]).astype(complex))
    assert state.dim == 2


def test_validate_rejects_negativity():
    with pytest.raises(DomainError, match="negative eigenvalue"):
        validate_state(np.diag([1.1, -0.1]).astype(complex))


def test_validate_rejects_non_hermitian():
    with pytest.raises(DomainError, match="Hermitian"):
        validate_state(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))


def test_validate_rejects_bad_trace():
    with pytest.raises(DomainError, match="trace"):
        validate_state(np.diag([0.6, 0.6]).astype(complex))


def test_generated_states_validate():
    for seed in range(10):
        d = 2 + seed % 5
        rank = 1 + seed % d
        state = random_density(d, rank, seed)
        validated = validate_state(state.matrix)
        np.testing.assert_array_equal(validated.matrix, state.matrix)


def test_mean_purity_band():
    # sanity band only: full-rank Ginibre states are neither pure nor maximally mixed on average
    for d in (2, 3, 4):
        mean = np.mean([purity(random_density(d, d, seed)) for seed in range(200)])
        assert 1 / d + 0.05 < mean < 1 - 0.05


def test_state_size_limit_boundary(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 4 * 4)
    assert random_density(4, 1, 0).dim == 4
    with pytest.raises(DomainError, match="a state of dimension 5 needs"):
        random_density(5, 1, 0)


def reference_density(d, rank, seed):
    """random_density's arithmetic on a freshly built Generator(Philox(seed))."""
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return (rho + rho.conj().T) / 2.0


def assert_stream_matches(d, rank, seed, n, indices=None):
    stream = list(density_stream(d, rank, seed, n))
    assert len(stream) == n
    for i in range(n) if indices is None else indices:
        assert stream[i].matrix.tobytes() == reference_density(d, rank, seed + i).tobytes(), i


def test_philox_keys_match_seed_sequence():
    rng = np.random.Generator(np.random.Philox(2024))
    seeds = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    seeds += rng.integers(0, 2**64, 3000, dtype=np.uint64, endpoint=False).tolist()
    seeds += rng.integers(0, 2**32, 1000, dtype=np.uint64, endpoint=False).tolist()
    keys = states.philox_keys(np.array(seeds, dtype=np.uint64))
    assert keys.shape == (len(seeds), 2) and keys.dtype == np.uint64
    for seed, key in zip(seeds, keys):
        expected = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert key.tolist() == expected.tolist(), seed


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_density_stream_equals_fresh_generators(d):
    for rank in sorted({1, d}):
        assert_stream_matches(d, rank, 41, 30)
        for i, state in enumerate(density_stream(d, rank, 41, 5)):
            assert state.matrix.tobytes() == random_density(d, rank, 41 + i).matrix.tobytes()
            assert not state.matrix.flags.writeable


def test_density_stream_across_a_key_chunk_and_the_2_32_boundary():
    n = states.KEY_CHUNK + 60
    seed = 2**32 - states.KEY_CHUNK - 20  # seed + KEY_CHUNK + 20 is 2**32
    boundary = range(states.KEY_CHUNK - 25, states.KEY_CHUNK + 25)
    assert_stream_matches(2, 2, seed, n, indices=[0, 1, *boundary, n - 1])


def test_density_stream_small_chunks(monkeypatch):
    monkeypatch.setattr(states, "KEY_CHUNK", 3)
    assert_stream_matches(3, 2, 2**32 - 4, 11)
    # state batches of 1, 4 and 5 across key chunks of 3, which start at state 1
    for d in (1, 2, 3, 8):
        matrix_bytes = 16 * d * d
        for nbytes in (1, 4 * matrix_bytes + matrix_bytes - 1, 5 * matrix_bytes):
            monkeypatch.setattr(states, "BATCH_BYTES", nbytes)
            for rank in sorted({1, d}):
                assert_stream_matches(d, rank, 2**32 - 6, 13)


def test_density_stream_hashes_no_key_for_its_first_state(monkeypatch):
    monkeypatch.setattr(states, "KEY_CHUNK", 3)
    hashed = []

    def counting(seeds):
        hashed.append(seeds.tolist())
        return philox_keys(seeds)

    philox_keys = states.philox_keys
    monkeypatch.setattr(states, "philox_keys", counting)
    random_density(2, 2, 9)
    assert hashed == []
    list(density_stream(2, 2, 9, 5))
    assert hashed == [[10, 11, 12], [13]]


def test_density_stream_at_the_largest_seed():
    n = 12
    assert_stream_matches(3, 3, 2**64 - n, n)
    with pytest.raises(DomainError, match=f"seed must be an integer in \\[0, {2**64 - n}\\]"):
        density_stream(3, 3, 2**64 - n + 1, n)


def test_density_stream_checks_arguments_before_drawing():
    for d, rank, seed, n in ((0, 1, 0, 1), (3, 4, 0, 1), (3, 0, 0, 1), (2, 1, -1, 1)):
        with pytest.raises(DomainError):
            density_stream(d, rank, seed, n)
    assert list(density_stream(2, 1, 5, 0)) == []
