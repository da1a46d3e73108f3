import numpy as np
import pytest

from bzinfo import (
    CountTable,
    DensityMatrix,
    DirectEvaluator,
    DomainError,
    NumericalError,
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
from bzinfo import _kernels
from bzinfo.sampler import BOOTSTRAP_RESAMPLES
from bzinfo.states import rng_from_seed
from conftest import degenerate_family

KET0 = validate_state(np.diag([1.0, 0.0]))


def draw_and_estimate(family, rho, shots, seed):
    """The estimate and error from the count table ``sample_outcomes`` draws at the same seed."""
    evaluator = DirectEvaluator(family)
    return estimate_bz_info(evaluator, sample_outcomes(evaluator, rho, shots, seed), seed)


def test_deterministic_distribution_gives_deterministic_counts():
    table = sample_outcomes(DirectEvaluator(build_mub(2)), KET0, 1000, seed=1)
    # the first POVM is the computational basis, and |0><0| is its eigenstate
    np.testing.assert_array_equal(table.counts[0], [1000, 0])


def test_same_seed_same_table():
    mset = build_mum(3, "auto")
    rho = random_density(3, 3, 4)
    evaluator = DirectEvaluator(mset)
    a = sample_outcomes(evaluator, rho, 500, seed=77)
    b = sample_outcomes(evaluator, rho, 500, seed=77)
    for x, y in zip(a.counts, b.counts):
        np.testing.assert_array_equal(x, y)


def test_counts_sum_to_shots():
    gset = build_gsm(3, "auto")
    table = sample_outcomes(DirectEvaluator(gset), random_density(3, 2, 5), 400, seed=2)
    assert all(int(row.sum()) == 400 for row in table.counts)


@pytest.mark.parametrize(
    "family", [build_mub(2), build_mum(3, "auto"), build_gsm(3, "auto"), build_mum(8, "auto")],
    ids=["mub2", "mum3", "gsm3", "mum8"],
)
def test_counts_and_coincidence_match_per_povm_loops(family):
    d = family.dim
    evaluator = DirectEvaluator(family)
    rho = random_density(d, 2, 8)
    for seed, shots in ((0, 2), (1, 1000), (2**64 - 1, 4 * 10**6)):
        table = sample_outcomes(evaluator, rho, shots, seed)
        assert table.counts.shape == family.layout
        assert table.counts.dtype == np.int64 and not table.counts.flags.writeable
        # reference: one multinomial call per POVM, POVM after POVM, from one
        # stream, and a running sum of the POVMs' collision terms
        rng = rng_from_seed(seed)
        total = 0.0
        for probs, counts in zip(evaluator.probs(rho).reshape(family.layout), table.counts):
            p = np.maximum(probs, 0.0)
            np.testing.assert_array_equal(counts, rng.multinomial(shots, p / p.sum()))
            c = counts.astype(np.float64)
            total += float((c * (c - 1.0)).sum()) / (shots * (shots - 1.0))
        assert estimate_coincidence(table) == total


def test_binomial_concentration_on_mixed_qubit():
    n = 10**6
    table = sample_outcomes(DirectEvaluator(build_mub(2)), maximally_mixed(2), n, seed=12)
    for row in table.counts:
        for count in row:
            assert abs(int(count) - n / 2) < 5 * np.sqrt(n / 4)


def test_sample_rejects_degenerate_family():
    with pytest.raises(VerificationError):
        sample_outcomes(DirectEvaluator(degenerate_family("mum", 2)), maximally_mixed(2), 10, seed=0)


def test_sample_rejects_bad_shots():
    evaluator = DirectEvaluator(build_mub(2))
    for shots in (0, -1, 2**63, 2**64, 1.5):
        with pytest.raises(DomainError, match=rf"\[1, {2**63 - 1}\], got {shots!r}"):
            sample_outcomes(evaluator, KET0, shots, seed=0)


def test_sample_takes_shots_beyond_memory():
    n = 10**12
    table = sample_outcomes(DirectEvaluator(build_mum(3, "auto")), random_density(3, 2, 4), n, seed=6)
    assert table.shots_per_povm == n
    assert all(int(row.sum()) == n for row in table.counts)


def test_largest_shot_budget():
    table = sample_outcomes(DirectEvaluator(build_mub(2)), KET0, 2**63 - 1, seed=0)
    assert [int(c) for c in table.counts[0]] == [2**63 - 1, 0]


# the 0.1 % upper quantiles of chi-square with 7 and 63 degrees of freedom
CHI2_CRITICAL_7 = 24.3219
CHI2_CRITICAL_63 = 103.442


def test_multinomial_counts_follow_the_inverse_cdf_law():
    # multinomial counts and inverse-CDF binning of one uniform per shot
    # follow the same law: both scatter around n p by binomial noise only
    family = build_mum(8, "auto")
    rho = random_density(8, 3, 40)
    n = 10**6
    evaluator = DirectEvaluator(family)
    probs = evaluator.probs(rho).reshape(family.layout)
    table = sample_outcomes(evaluator, rho, n, seed=41)
    statistic = 0.0
    for b, (p, counts) in enumerate(zip(probs, table.counts)):
        p = np.maximum(p, 0.0) / np.maximum(p, 0.0).sum()
        binned = _kernels.tally_inverse_cdf(np.cumsum(p), rng_from_seed(500 + b).random(n))
        sigma = np.sqrt(n * p * (1.0 - p))
        for observed in (counts, binned):
            assert int(observed.sum()) == n
            assert np.all(np.abs(observed - n * p) <= 5 * sigma)
        row = float(((counts - n * p) ** 2 / (n * p)).sum())
        assert row < CHI2_CRITICAL_7
        statistic += row
    assert statistic < CHI2_CRITICAL_63


def _loop_std_error(table, seed, coincidence_at_mixed, resamples):
    # reference: one multinomial draw per resample and POVM, summed in that order
    n = table.shots_per_povm
    rng = np.random.Generator(np.random.Philox(seed).jumped())
    replicas = np.empty(resamples)
    frequencies = [counts / n for counts in table.counts]
    for r in range(resamples):
        total = 0.0
        for freq in frequencies:
            c = rng.multinomial(n, freq).astype(np.float64)
            total += float((c * (c - 1.0)).sum()) / (n * (n - 1.0))
        replicas[r] = total - coincidence_at_mixed
    return float(replicas.std(ddof=1))


@pytest.mark.parametrize(
    "family, rank, seed, shots",
    [
        (build_mum(3, "auto"), 1, 0, 2),
        (build_mum(3, "auto"), 3, 11, 1000),
        (build_mub(5), 1, 12345, 10**5),
        (build_mub(7), 7, 11, 1000),
        (build_gsm(3, "auto"), 3, 0, 1000),
        (build_gsm(3, "auto"), 1, 12345, 2),
    ],
    ids=["mum3-pure-2", "mum3-mixed-1e3", "mub5-pure-1e5", "mub7-mixed-1e3",
         "gsm3-mixed-1e3", "gsm3-pure-2"],
)
def test_bootstrap_matches_per_resample_loop(family, rank, seed, shots):
    d = family.dim
    rho = random_density(d, rank, seed + 1)
    evaluator = DirectEvaluator(family)
    table = sample_outcomes(evaluator, rho, shots, seed)
    coincidence_at_mixed = closed_forms(family.kind, d, family.parameter, 1.0 / d).C
    expected = _loop_std_error(table, seed, coincidence_at_mixed, 200)
    assert estimate_bz_info(evaluator, table, seed)[1] == expected


def test_bootstrap_matches_loop_on_hand_built_table():
    # zero-count outcomes and one deterministic POVM
    table = CountTable(
        shots_per_povm=6,
        counts=np.array([[6, 0], [3, 3], [1, 5]]),
    )
    coincidence_at_mixed = closed_forms("mub", 2, 1.0, 0.5).C
    expected = _loop_std_error(table, 9, coincidence_at_mixed, BOOTSTRAP_RESAMPLES)
    _, std_error = estimate_bz_info(DirectEvaluator(build_mub(2)), table, 9)
    assert std_error == expected


def test_a_hand_built_nan_state_raises_before_sampling():
    evaluator = DirectEvaluator(build_mub(2))
    nan_state = DensityMatrix(dim=2, matrix=np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(NumericalError, match="^state has non-finite entries$"):
        sample_outcomes(evaluator, nan_state, 10, seed=0)
    with pytest.raises(NumericalError, match="^state has non-finite entries$"):
        evaluator.report(nan_state)
    # a batch raises its earliest failing check, at the first state that fails it
    batch = np.stack([maximally_mixed(2).matrix, nan_state.matrix, np.eye(2) * 0.7])
    with pytest.raises(NumericalError, match="^state has non-finite entries$"):
        evaluator.report_many(batch)
    # a nan in the traces alone, of a finite Hermitian state, past the
    # Hermitian check, fails the [0, 1] range
    traces = np.full((1, 6), 0.5)
    traces[0, 1] = np.nan
    with pytest.raises(NumericalError, match=r"^probability out of \[0, 1\]: nan\.\.nan$"):
        evaluator._checked_probs(maximally_mixed(2).matrix[None], traces)


def test_estimate_rejects_a_table_of_another_family_or_a_bad_seed():
    evaluator = DirectEvaluator(build_mub(2))
    table = sample_outcomes(evaluator, KET0, 10, seed=1)
    with pytest.raises(DomainError, match="count table does not match"):
        estimate_bz_info(DirectEvaluator(build_mub(3)), table, 1)
    with pytest.raises(DomainError, match="count table does not match"):
        estimate_bz_info(DirectEvaluator(build_gsm(2, "auto")), table, 1)
    with pytest.raises(DomainError, match="seed must be"):
        estimate_bz_info(evaluator, table, -1)


def test_collision_estimator_deterministic_counts():
    table = CountTable(shots_per_povm=100, counts=np.array([[100, 0], [0, 100]]))
    assert estimate_coincidence(table) == pytest.approx(2.0, abs=1e-15)


def test_collision_estimator_no_collisions():
    table = CountTable(shots_per_povm=4, counts=np.array([[1, 1, 1, 1]]))
    assert estimate_coincidence(table) == pytest.approx(0.0, abs=1e-15)


def test_collision_estimator_needs_two_shots():
    with pytest.raises(DomainError):
        estimate_coincidence(CountTable(shots_per_povm=1, counts=np.array([[1, 0]])))


def test_collision_estimator_unbiased():
    mset = build_mub(3)
    rho = random_density(3, 3, 21)
    evaluator = DirectEvaluator(mset)
    c_direct = float((evaluator.probs(rho) ** 2).sum())
    estimates = np.array(
        [
            estimate_coincidence(sample_outcomes(evaluator, rho, 60, seed=1000 + i))
            for i in range(1000)
        ]
    )
    standard_error = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - c_direct) < 4 * standard_error


def test_estimate_bz_info_pure_qubit():
    mset = build_mub(2)
    rho = random_density(2, 1, 7)
    true_i = purity(rho) - 0.5  # unit-kappa closed form
    estimate, std_error = draw_and_estimate(mset, rho, 10**5, seed=3)
    assert std_error > 0
    assert abs(estimate - true_i) < 3 * std_error


def test_estimate_bz_info_maximally_mixed():
    estimate, std_error = draw_and_estimate(build_mub(2), maximally_mixed(2), 10**5, seed=8)
    assert abs(estimate) < 3 * std_error


def test_estimate_bz_info_deterministic():
    mset = build_mub(2)
    rho = random_density(2, 2, 30)
    assert draw_and_estimate(mset, rho, 2000, seed=5) == draw_and_estimate(mset, rho, 2000, seed=5)


def test_more_shots_reduce_error():
    mset = build_mub(2)
    rho = random_density(2, 2, 17)
    kind_c = closed_forms("mub", 2, 1.0, purity(rho))
    true_i = kind_c.I
    mean_abs_error = []
    for shots in (500, 1000, 2000, 4000, 8000):
        errors = [
            abs(draw_and_estimate(mset, rho, shots, seed=100 * s)[0] - true_i)
            for s in range(20)
        ]
        mean_abs_error.append(np.mean(errors))
    # 20 seeds leave noise on each mean, so assert the trend: every two
    # doublings must reduce the error, and the endpoints must halve
    assert all(a > b for a, b in zip(mean_abs_error, mean_abs_error[2:]))
    assert mean_abs_error[-1] < mean_abs_error[0] / 2
