import re

import numpy as np
import pytest

from bzinfo import (
    DirectEvaluator,
    DomainError,
    SchemaError,
    build_mum,
    decode,
    encode,
    linalg,
    load,
    maximally_mixed,
    purity,
    random_density,
    save,
    states,
    validate_state,
)
from bzinfo.cli import main


def test_maximally_mixed_values():
    np.testing.assert_allclose(maximally_mixed(2), np.diag([0.5, 0.5]))
    rho3 = maximally_mixed(3)
    np.testing.assert_allclose(rho3, np.eye(3) / 3)
    assert purity(rho3) == pytest.approx(1 / 3, abs=1e-15)
    assert purity(maximally_mixed(4)) == pytest.approx(0.25, abs=1e-15)


def test_maximally_mixed_refuses_dimension_zero():
    with pytest.raises(DomainError, match="^dimension must be >= 1, got 0$"):
        maximally_mixed(0)


def test_rank_one_is_pure():
    assert purity(random_density(3, 1, 123)) == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    a = random_density(4, 4, 42)
    b = random_density(4, 4, 42)
    np.testing.assert_array_equal(a, b)


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


@pytest.mark.parametrize("shape", [(1, 2), (2,), (1, 2, 2), (0, 0)])
def test_encode_refuses_an_array_that_is_no_state(shape):
    # so encode never writes a state file whose shape decode refuses
    with pytest.raises(SchemaError, match=rf"^a state is a \(d, d\) array with d >= 1, got shape "
                                          rf"{re.escape(str(shape))}$"):
        encode(np.full(shape, 0.5, dtype=complex))
    assert decode(encode(np.eye(1, dtype=complex))).shape == (1, 1)


def test_encode_refuses_an_object_of_no_schema():
    with pytest.raises(SchemaError, match="^cannot encode object of type object$"):
        encode(object())


def test_encode_refuses_a_state_whose_trace_is_not_one(capsys):
    # so encode never writes a state file that decode refuses for its trace
    with pytest.raises(SchemaError, match=r"^state trace is 0\.0, not 1 within 1e-12$"):
        encode(np.zeros((2, 2)))
    with pytest.raises(SchemaError, match="^state trace is "):
        encode(np.eye(3, dtype=complex) / 3 * (1 + 1e-11))
    # only the trace is checked: an array of unit trace that is no state
    # encodes, and decode refuses its file
    data = encode(np.diag([2.0, -1.0]).astype(complex))
    with pytest.raises(SchemaError, match="negative eigenvalue"):
        decode(data)
    # every state that state gen makes encodes
    for d in (1, 2, 3, 8, 17, 64):
        for rank in sorted({1, (d + 1) // 2, d}):
            for seed in (0, 1, 2**64 - 1):
                argv = ["state", "gen", "--dim", str(d), "--rank", str(rank), "--seed", str(seed)]
                assert main(argv) == 0
                assert decode(capsys.readouterr().out).shape == (d, d)


def _assert_a_state(rho, d):
    assert type(rho) is np.ndarray
    assert (rho.shape, rho.dtype) == ((d, d), np.complex128)
    assert rho.flags.c_contiguous and not rho.flags.writeable


def test_every_state_is_a_read_only_contiguous_complex_matrix(tmp_path):
    rho = random_density(3, 2, 5)
    _assert_a_state(rho, 3)
    _assert_a_state(maximally_mixed(4), 4)
    # a real, Fortran-ordered, writeable input comes back as a state all the same
    _assert_a_state(validate_state(np.asfortranarray(np.diag([0.25, 0.75]))), 2)
    _assert_a_state(decode(encode(rho)), 3)
    save(rho, tmp_path / "s.json")
    loaded = load(tmp_path / "s.json")
    _assert_a_state(loaded, 3)
    assert loaded.tobytes() == rho.tobytes()


def test_the_report_of_a_state_is_row_zero_of_its_batch():
    evaluator = DirectEvaluator(build_mum(3, "auto"))
    for rho in (random_density(3, 1, 2), random_density(3, 3, 4), maximally_mixed(3)):
        # a float's repr is its bits, the sign of a zero too
        assert repr(evaluator.report(rho)) == repr(evaluator.report_many(rho[None]).row(0))


def test_validate_accepts_mixed_diagonal():
    state = validate_state(np.diag([0.5, 0.5]).astype(complex))
    assert state.shape == (2, 2)


def test_validate_rejects_negativity():
    with pytest.raises(DomainError, match="negative eigenvalue"):
        validate_state(np.diag([1.1, -0.1]).astype(complex))


def test_validate_rejects_non_hermitian():
    with pytest.raises(DomainError, match="Hermitian"):
        validate_state(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))


def test_validate_rejects_bad_trace():
    with pytest.raises(DomainError, match="trace"):
        validate_state(np.diag([0.6, 0.6]).astype(complex))


@pytest.mark.parametrize(
    "entries, message",
    [
        (np.full((2, 2, 2), 0.25), "expected a square matrix, got shape (2, 2, 2)"),
        (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.zeros(3), "expected a square matrix, got shape (3,)"),
        # the shape is checked first, then finiteness, then the Hermitian
        # defect, the trace and the eigenvalues
        ([[np.nan, 1.0, 0.0], [0.0, 0.5, 0.0]], "expected a square matrix, got shape (2, 3)"),
        ([[np.nan, 1.0], [0.0, 0.5]], "matrix has non-finite entries"),
        ([[0.5, 0.0], [0.0, np.inf]], "matrix has non-finite entries"),
        ([[0.7, 1.0], [0.0, 0.7]], "matrix is not Hermitian (defect 1.000e+00 >= 1e-12)"),
        ([[1.1, 0.0], [0.0, -0.2]], "state trace is 0.9000000000000001, not 1 within 1e-12"),
        ([[1.1, 0.0], [0.0, -0.1]], "state has negative eigenvalue -1.000e-01"),
    ],
    ids=["stack", "rectangle", "vector", "rectangle-nan", "nan", "inf", "hermitian", "trace", "eigenvalue"],
)
def test_validate_state_names_the_first_failing_check(entries, message):
    with pytest.raises(DomainError) as info:
        validate_state(np.asarray(entries, dtype=complex))
    assert str(info.value) == message


def test_generated_states_validate():
    for seed in range(10):
        d = 2 + seed % 5
        rank = 1 + seed % d
        state = random_density(d, rank, seed)
        validated = validate_state(state)
        np.testing.assert_array_equal(validated, state)


def test_mean_purity_band():
    # sanity band only: full-rank Ginibre states are neither pure nor maximally mixed on average
    for d in (2, 3, 4):
        mean = np.mean([purity(random_density(d, d, seed)) for seed in range(200)])
        assert 1 / d + 0.05 < mean < 1 - 0.05


def test_state_size_limit_boundary(monkeypatch):
    # the peak of drawing one state of rank 1 at d=4: rho and its conjugate, two matrices
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 2 * 4 * 4)
    assert random_density(4, 1, 0).shape == (4, 4)
    with pytest.raises(DomainError, match="a state of dimension 5 needs"):
        random_density(5, 1, 0)


def reference_stream(d, rank, seed, n):
    """Each state's arithmetic on its slice of one Generator(Philox(seed)) draw."""
    normals = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 2, d, rank))
    for re_part, im_part in normals:
        g = re_part + 1j * im_part
        rho = g @ g.conj().T
        rho /= rho.trace().real
        yield (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_density_stream_equals_one_philox_draw(monkeypatch, d):
    n = 13
    matrix_bytes = 16 * d * d
    # batches of 1, 4 and 5 states
    for nbytes in (1, 4 * matrix_bytes + matrix_bytes // 2, 5 * matrix_bytes):
        monkeypatch.setattr(states, "BATCH_BYTES", nbytes)
        monkeypatch.setattr(states, "MIN_BATCH_PER_DIM", 0)
        for rank in sorted({1, d}):
            for seed in (0, 2**32, 2**64 - 1):
                batches = list(states.density_batches(d, rank, seed, n))
                assert len(batches[0]) == max(1, nbytes // matrix_bytes)
                stream = [matrix for batch in batches for matrix in batch]
                expected = list(reference_stream(d, rank, seed, n))
                assert len(stream) == n
                assert not any(batch.flags.writeable for batch in batches)
                for i, (got, matrix) in enumerate(zip(stream, expected)):
                    assert got.tobytes() == matrix.tobytes(), (nbytes, rank, seed, i)
                assert stream[0].tobytes() == random_density(d, rank, seed).tobytes()


@pytest.mark.parametrize("d, batch", [(2, 256), (8, 32), (16, 64)])
def test_density_batches_hold_at_least_four_states_per_dimension(d, batch):
    # BATCH_BYTES of matrices up to d=6, MIN_BATCH_PER_DIM * d states from d=7 on
    sizes = [len(b) for b in states.density_batches(d, 1, 0, 2 * batch + 1)]
    assert sizes == [batch, batch, 1]


def test_density_stream_at_the_largest_seed():
    assert sum(map(len, states.density_batches(3, 3, 2**64 - 1, 12))) == 12
    with pytest.raises(DomainError, match=f"seed must be an integer in \\[0, {2**64 - 1}\\]"):
        states.density_batches(3, 3, 2**64, 1)


def test_density_stream_checks_arguments_before_drawing():
    for d, rank, seed, n in ((0, 1, 0, 1), (3, 4, 0, 1), (3, 0, 0, 1), (2, 1, -1, 1), (2, 1, 0, -5)):
        with pytest.raises(DomainError):
            states.density_batches(d, rank, seed, n)
    assert list(states.density_batches(2, 1, 5, 0)) == []
