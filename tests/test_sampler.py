import numpy as np
import pytest

from bzinfo import (
    CountTable,
    DirectEvaluator,
    DomainError,
    VerificationError,
    build_gsm,
    build_mub,
    build_mum,
    closed_forms,
    estimate_bz_info,
    estimate_coincidence,
    maximally_mixed,
    purity,
    random_density,
    sample_outcomes,
    validate_state,
)

KET0 = validate_state(np.diag([1.0, 0.0]))


def test_deterministic_distribution_gives_deterministic_counts():
    table = sample_outcomes(build_mub(2), KET0, 1000, seed=1)
    # the first POVM is the computational basis, and |0><0| is its eigenstate
    np.testing.assert_array_equal(table.counts[0], [1000, 0])


def test_same_seed_same_table():
    mset = build_mum(3, "auto")
    rho = random_density(3, 3, 4)
    a = sample_outcomes(mset, rho, 500, seed=77)
    b = sample_outcomes(mset, rho, 500, seed=77)
    for x, y in zip(a.counts, b.counts):
        np.testing.assert_array_equal(x, y)


def test_counts_sum_to_shots():
    gset = build_gsm(3, "auto")
    table = sample_outcomes(gset, random_density(3, 2, 5), 400, seed=2)
    assert all(int(row.sum()) == 400 for row in table.counts)


def test_binomial_concentration_on_mixed_qubit():
    n = 10**6
    table = sample_outcomes(build_mub(2), maximally_mixed(2), n, seed=12)
    for row in table.counts:
        for count in row:
            assert abs(int(count) - n / 2) < 5 * np.sqrt(n / 4)


def test_sample_rejects_degenerate_family():
    with pytest.raises(VerificationError):
        sample_outcomes(build_mum(2, 0.0), maximally_mixed(2), 10, seed=0)


def test_sample_rejects_bad_shots():
    with pytest.raises(DomainError):
        sample_outcomes(build_mub(2), KET0, 0, seed=0)


def test_collision_estimator_deterministic_counts():
    table = CountTable(shots_per_povm=100, counts=(np.array([100, 0]), np.array([0, 100])))
    assert estimate_coincidence(table) == pytest.approx(2.0, abs=1e-15)


def test_collision_estimator_no_collisions():
    table = CountTable(shots_per_povm=4, counts=(np.array([1, 1, 1, 1]),))
    assert estimate_coincidence(table) == pytest.approx(0.0, abs=1e-15)


def test_collision_estimator_needs_two_shots():
    with pytest.raises(DomainError):
        estimate_coincidence(CountTable(shots_per_povm=1, counts=(np.array([1, 0]),)))


def test_collision_estimator_unbiased():
    mset = build_mub(3)
    rho = random_density(3, 3, 21)
    c_direct = float((DirectEvaluator(mset).probs(rho) ** 2).sum())
    estimates = np.array(
        [
            estimate_coincidence(sample_outcomes(mset, rho, 60, seed=1000 + i))
            for i in range(1000)
        ]
    )
    standard_error = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - c_direct) < 4 * standard_error


def test_estimate_bz_info_pure_qubit():
    mset = build_mub(2)
    rho = random_density(2, 1, 7)
    true_i = purity(rho) - 0.5  # unit-kappa closed form
    estimate, std_error = estimate_bz_info(mset, rho, 10**5, seed=3)
    assert std_error > 0
    assert abs(estimate - true_i) < 3 * std_error


def test_estimate_bz_info_maximally_mixed():
    estimate, std_error = estimate_bz_info(build_mub(2), maximally_mixed(2), 10**5, seed=8)
    assert abs(estimate) < 3 * std_error


def test_estimate_bz_info_deterministic():
    mset = build_mub(2)
    rho = random_density(2, 2, 30)
    assert estimate_bz_info(mset, rho, 2000, seed=5) == estimate_bz_info(
        mset, rho, 2000, seed=5
    )


def test_more_shots_reduce_error():
    mset = build_mub(2)
    rho = random_density(2, 2, 17)
    kind_c = closed_forms("mub", 2, 1.0, purity(rho))
    true_i = kind_c.I
    mean_abs_error = []
    for shots in (500, 1000, 2000, 4000, 8000):
        errors = [
            abs(estimate_bz_info(mset, rho, shots, seed=100 * s)[0] - true_i)
            for s in range(20)
        ]
        mean_abs_error.append(np.mean(errors))
    # 20 seeds leave noise on each mean, so assert the trend: every two
    # doublings must reduce the error, and the endpoints must halve
    assert all(a > b for a, b in zip(mean_abs_error, mean_abs_error[2:]))
    assert mean_abs_error[-1] < mean_abs_error[0] / 2
