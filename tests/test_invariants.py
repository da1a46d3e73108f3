import dataclasses

import numpy as np
import pytest

from bzinfo import (
    BzReports,
    DensityMatrix,
    DirectEvaluator,
    DomainError,
    NumericalError,
    VerificationError,
    build_gsm,
    build_mub,
    build_mum,
    bz_report,
    closed_forms,
    density_stream,
    sample_outcomes,
    maximally_mixed,
    purity,
    random_density,
    sic2_fixture,
    validate_state,
    variance,
)

from bzinfo import states
from bzinfo.states import density_batches
from conftest import random_unitary

KET0 = validate_state(np.diag([1.0, 0.0]))
SZ = np.diag([1.0, -1.0]).astype(complex)


def explicit_variance_sum(family, rho):
    """Plain-python oracle: per-effect variances, one at a time."""
    return sum(variance(effect, rho) for effect in family.effects)


def total_variance(family, rho):
    return DirectEvaluator(family).report(rho).V_direct


def coincidence(family, rho):
    return float((DirectEvaluator(family).probs(rho) ** 2).sum())


# ---------------------------------------------------------------- probabilities


def test_probs_computational_basis():
    z_probs = DirectEvaluator(build_mub(2)).probs(KET0)[:2]
    np.testing.assert_allclose(z_probs, [1.0, 0.0], atol=1e-14)


def test_probs_unit_trace_effects_on_mixed():
    probs = DirectEvaluator(build_mum(3, "auto")).probs(maximally_mixed(3))
    assert probs.shape == (12,)
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)


def test_probs_normalize_over_random_states():
    evaluator = DirectEvaluator(build_gsm(3, "auto"))
    for seed in range(100):
        probs = evaluator.probs(random_density(3, 3, seed))
        assert abs(probs.sum() - 1.0) < 1e-10


def test_probs_dimension_mismatch():
    with pytest.raises(DomainError):
        DirectEvaluator(build_mub(2)).probs(maximally_mixed(3))
    with pytest.raises(DomainError, match="state-only"):
        DirectEvaluator(None, dim=2).probs(KET0)


# Each check of probs and report, reached with a state or an effect stack that
# validation would have refused, fires with its own message.


def unchecked_state(m):
    m = np.asarray(m, dtype=np.complex128)
    return DensityMatrix(dim=m.shape[0], matrix=m)


def born(effects, m):
    return np.einsum("kij,ji->k", effects, np.asarray(m, dtype=np.complex128)).real


def test_probs_check_imaginary_part():
    evaluator = DirectEvaluator(build_mub(2))
    state = unchecked_state(np.eye(2) / 2 + 1e-6j * np.eye(2))
    for check in (evaluator.probs, evaluator.report):
        with pytest.raises(NumericalError) as info:
            check(state)
        assert str(info.value) == "outcome probability has a non-negligible imaginary part"


def test_probs_check_unit_interval():
    family = build_mub(2)
    m = np.diag([2.0, -1.0])  # Hermitian with unit trace, but not positive
    p = born(family.effects, m)
    with pytest.raises(NumericalError) as info:
        DirectEvaluator(family).probs(unchecked_state(m))
    assert str(info.value) == f"probability out of [0, 1]: {p.min()!r}..{p.max()!r}"


def test_probs_check_names_the_povm_sum_that_is_off():
    evaluator = DirectEvaluator(build_mub(3))
    evaluator.observables = evaluator.observables.copy()
    evaluator.observables[3:6] *= 0.9  # only the second POVM sums to 0.9
    totals = np.add.reduceat(born(evaluator.observables, np.eye(3) / 3), [0, 3, 6, 9]).tolist()
    assert [abs(t - 1.0) >= 1e-10 for t in totals] == [False, True, False, False]
    with pytest.raises(NumericalError) as info:
        evaluator.probs(maximally_mixed(3))
    assert str(info.value) == f"POVM probabilities sum to {totals[1]!r}, not 1"


def test_probs_check_names_the_first_povm_sum_that_is_off():
    evaluator = DirectEvaluator(build_mub(3))
    evaluator.observables = evaluator.observables.copy()
    evaluator.observables[3:6] *= 0.9
    evaluator.observables[6:9] *= 0.8
    totals = np.add.reduceat(born(evaluator.observables, np.eye(3) / 3), [0, 3, 6, 9]).tolist()
    for check in (evaluator.probs, evaluator.report):
        with pytest.raises(NumericalError) as info:
            check(maximally_mixed(3))
        assert str(info.value) == f"POVM probabilities sum to {totals[1]!r}, not 1"


def test_report_variance_floor_and_clamp_count():
    evaluator = DirectEvaluator(build_mub(2))
    second_moments = evaluator.observables_sq.copy()
    # Z projectors on |0>: p (1 - p) = 0, so m2 - p^2 is the shift itself; the
    # squares are written in place, in the stack report contracts
    evaluator.observables_sq[:] = second_moments - 1e-12 * np.eye(2)
    assert evaluator.report(KET0).negatives_clamped == 2
    evaluator.observables_sq[:] = second_moments
    assert evaluator.report(KET0).negatives_clamped == 0
    evaluator.observables_sq[:] = second_moments - 1e-9 * np.eye(2)
    p = born(evaluator.observables, KET0.matrix)
    terms = born(evaluator.observables_sq, KET0.matrix) - p * p
    with pytest.raises(NumericalError) as info:
        evaluator.report(KET0)
    assert str(info.value) == f"effect variance {terms.min()!r} below -1e-10"


# ---------------------------------------------------------------- variance


def test_variance_eigenstate_is_zero():
    assert variance(SZ, KET0) == pytest.approx(0.0, abs=1e-14)


def test_variance_mixed_pauli():
    assert variance(SZ, maximally_mixed(2)) == pytest.approx(1.0, abs=1e-14)


def test_variance_projector_on_mixed():
    d = 4
    proj = np.zeros((d, d), dtype=complex)
    proj[1, 1] = 1.0
    assert variance(proj, maximally_mixed(d)) == pytest.approx(1 / d - 1 / d**2, abs=1e-14)


def test_variance_dimension_mismatch():
    with pytest.raises(DomainError):
        variance(SZ, maximally_mixed(3))


# ---------------------------------------------------------------- coincidence


def test_coincidence_uniform_and_deterministic():
    mub = build_mub(2)
    # every Pauli basis is uniform on I/2: 3 * (1/4 + 1/4)
    assert coincidence(mub, maximally_mixed(2)) == pytest.approx(1.5, abs=1e-15)
    # |0> is deterministic in Z and uniform in X and Y: 1 + 1/2 + 1/2
    assert coincidence(mub, KET0) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_coincidence_is_one_plus_purity(d):
    mset = build_mub(d)
    for seed in range(5):
        rho = random_density(d, d, seed)
        c = coincidence(mset, rho)
        assert abs(c - (1 + purity(rho))) < 1e-9


# ---------------------------------------------------------------- total variance


def test_total_variance_mum_unit_kappa_pure():
    mset = build_mum(2, "auto")  # kappa = 1
    v = total_variance(mset, KET0)
    oracle = explicit_variance_sum(mset, KET0)
    assert abs(v - oracle) < 1e-12
    assert abs(v - 1.0) < 1e-10


def test_total_variance_mum_unit_kappa_mixed():
    mset = build_mum(2, "auto")
    assert abs(total_variance(mset, maximally_mixed(2)) - 1.5) < 1e-10


def test_total_variance_sic_fixture_pure():
    gset = sic2_fixture()
    v = total_variance(gset, KET0)
    oracle = explicit_variance_sum(gset, KET0)
    assert abs(v - oracle) < 1e-12
    assert abs(v - 1 / 6) < 1e-10


# ---------------------------------------------------------------- closed forms


def test_closed_forms_state_at_maximally_mixed():
    d = 4
    cf = closed_forms("state", d, None, 1 / d)
    assert cf.C is None
    assert cf.I == pytest.approx(0.0, abs=1e-15)
    assert cf.U == pytest.approx(1 - 1 / d, abs=1e-15)
    assert cf.V == pytest.approx(d - 1 / d, abs=1e-15)


def test_closed_forms_mum_unit_kappa_pure():
    cf = closed_forms("mum", 2, 1.0, 1.0)
    assert cf.I == pytest.approx(0.5, abs=1e-12)
    assert cf.V == pytest.approx(1.0, abs=1e-12)
    assert cf.V_max == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_closed_forms_gsm_rank_one_simplification(d):
    # at a = 1/d^2 the prefactor collapses to 1/(d(d+1))
    for p in (1 / d, 0.5 * (1 + 1 / d), 1.0):
        cf = closed_forms("gsm", d, 1 / d**2, p)
        assert abs(cf.I - (p - 1 / d) / (d * (d + 1))) < 1e-12


def test_closed_forms_difference_relations_exact():
    cf = closed_forms("mum", 3, 0.7, 0.8)
    assert cf.I == cf.V_max - cf.V
    assert cf.U == cf.V - cf.V_min


def test_closed_forms_domain_errors():
    with pytest.raises(DomainError):
        closed_forms("mum", 2, 0.5, 0.9)  # kappa at the degenerate boundary
    with pytest.raises(DomainError):
        closed_forms("gsm", 2, 1 / 8, 0.9)  # a at the degenerate boundary
    with pytest.raises(DomainError):
        closed_forms("mum", 2, 1.0, 1.2)  # purity out of range
    with pytest.raises(DomainError):
        closed_forms("quux", 2, 1.0, 0.9)


# ---------------------------------------------------------------- reconciliation


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_equivalence(d):
    mum_max = build_mum(d, "auto").t
    gsm_max = build_gsm(d, "auto").t
    for frac in (0.25, 0.5, 1.0):
        for family in (build_mum(d, frac * mum_max), build_gsm(d, frac * gsm_max)):
            evaluator = DirectEvaluator(family)
            star = evaluator.report(maximally_mixed(d))
            for seed in range(10):
                rho = random_density(d, d, seed)
                r = evaluator.report(rho)
                assert r.max_abs_discrepancy < 1e-9
                # coincidence route to the invariant information
                coincidence_i = r.C_direct - star.C_direct
                assert abs(coincidence_i - r.I_direct) < 1e-9
                assert abs(r.I_direct - (r.V_max - r.V_direct)) < 1e-15
                assert abs(r.U_direct - (r.V_direct - r.V_min)) < 1e-15


def test_report_zero_information_at_maximally_mixed():
    for family in (build_mum(3, "auto"), build_gsm(3, "auto"), build_mub(3)):
        r = bz_report(family, maximally_mixed(3))
        assert abs(r.I_direct) < 1e-10


def test_variance_extremes():
    d = 3
    evaluator = DirectEvaluator(build_mum(d, "auto"))
    at_pure = evaluator.report(random_density(d, 1, 7))
    at_mixed = evaluator.report(maximally_mixed(d))
    assert abs(at_pure.V_direct - at_pure.V_min) < 1e-9
    assert abs(at_mixed.V_direct - at_mixed.V_max) < 1e-9
    for seed in range(20):
        v = evaluator.report(random_density(d, d, seed)).V_direct
        assert at_pure.V_direct - 1e-9 <= v <= at_mixed.V_direct + 1e-9


def test_unitary_invariance_at_purity_level(rng):
    d = 4
    rho = random_density(d, d, 5)
    w = random_unitary(d, rng)
    rotated = validate_state(w @ rho.matrix @ w.conj().T)
    assert abs(purity(rotated) - purity(rho)) < 1e-10
    a, b = closed_forms("state", d, None, purity(rho)), closed_forms(
        "state", d, None, purity(rotated)
    )
    assert abs(a.I - b.I) < 1e-10
    assert abs(a.U - b.U) < 1e-10


def test_mub_report_matches_unit_kappa_mum_forms():
    d = 3
    mset = build_mub(d)
    for seed in range(5):
        rho = random_density(d, d, seed)
        r = bz_report(mset, rho)
        assert r.kind == "mub" and r.parameter == 1.0
        assert abs(r.C_closed - (1 + r.purity)) < 1e-12
        assert r.max_abs_discrepancy < 1e-9


def test_sic2_pure_state_information():
    r = bz_report(sic2_fixture(), KET0)
    assert abs(r.I_direct - 1 / 12) < 1e-10
    assert abs(r.I_closed - 1 / 12) < 1e-12


def test_state_only_report():
    d = 4
    rho = random_density(d, d, 13)
    r = bz_report(None, rho)
    assert r.kind == "state-only"
    assert r.C_direct is None and r.C_closed is None
    assert abs(r.V_direct - (d - r.purity)) < 1e-9
    assert abs(r.I_direct - (r.purity - 1 / d)) < 1e-9
    assert r.max_abs_discrepancy < 1e-9


@pytest.mark.parametrize(
    "make, d",
    [
        (lambda: build_mum(2, "auto"), 2),
        (lambda: build_mum(5, "auto"), 5),
        (lambda: build_gsm(3, "auto"), 3),
        (lambda: build_gsm(8, "auto"), 8),
        (lambda: build_mub(5), 5),
        (sic2_fixture, 2),
        (lambda: None, 2),
        (lambda: None, 8),
    ],
    ids=["mum2", "mum5", "gsm3", "gsm8", "mub5", "sic2", "state2", "state8"],
)
def test_stacked_contraction_equals_two_separate_ones(make, d):
    family = make()
    evaluator = DirectEvaluator(family, dim=d if family is None else None)
    effects = evaluator.observables.copy() if family is None else family.effects
    squares = effects @ effects
    # a family's effects are read in place; the squares are the one stack derived
    assert family is None or evaluator.observables is family.effects
    assert not hasattr(evaluator, "moments")
    assert not np.shares_memory(evaluator.observables_sq, evaluator.observables)
    assert evaluator.observables.tobytes() == effects.tobytes()
    assert evaluator.observables_sq.tobytes() == squares.tobytes()
    real_effects = effects.view(np.float64).reshape(len(effects), -1)
    real_squares = squares.view(np.float64).reshape(len(effects), -1)
    for rank in sorted({1, d}):
        for rho in density_stream(d, rank, 300, 40):
            # Re Tr(A rho) is the dot product of A's float64 view with conj(rho^T)'s
            rows = np.ascontiguousarray(rho.matrix.T.conj()).view(np.float64).reshape(1, -1)
            p = np.einsum("kx,nx->nk", real_effects, rows)[0]
            m2 = np.einsum("kx,nx->nk", real_squares, rows)[0]
            r = evaluator.report(rho)
            assert r.V_direct == float(np.add.reduce(np.maximum(m2 - p * p, 0.0)))
            if family is not None:
                assert r.C_direct == float(np.add.reduce(p * p))
                assert evaluator.probs(rho).tobytes() == p.tobytes()
            # an independent oracle: the complex per-state contraction
            np.testing.assert_allclose(p, born(effects, rho.matrix), rtol=0, atol=1e-15)
            np.testing.assert_allclose(m2, born(squares, rho.matrix), rtol=0, atol=1e-15)


def test_probs_forms_no_squares(monkeypatch):
    family = build_mum(8, "auto")
    rho = random_density(8, 8, 3)
    evaluator = DirectEvaluator(family)
    evaluator.probs(rho)
    assert "observables_sq" not in vars(evaluator)
    evaluator.report(rho)
    assert vars(evaluator)["observables_sq"].tobytes() == (family.effects @ family.effects).tobytes()

    def no_squares(self):
        raise AssertionError("squares formed")

    monkeypatch.setattr(DirectEvaluator, "observables_sq", property(no_squares))
    table = sample_outcomes(family, rho, 1000, 5)
    assert [int(c.sum()) for c in table.counts] == [1000] * (8 + 1)


REPORT_FAMILIES = [
    ("mum", d, lambda d: build_mum(d, "auto")) for d in (2, 3, 5, 8)
] + [
    ("gsm", d, lambda d: build_gsm(d, "auto")) for d in (2, 3, 5, 8)
] + [
    ("mub", d, build_mub) for d in (2, 3, 5)
] + [("sic2", 2, lambda d: sic2_fixture())]


def fields(report):
    return [repr(value) for value in dataclasses.astuple(report)]


@pytest.mark.parametrize("kind, d, make", REPORT_FAMILIES,
                         ids=[f"{kind}{d}" for kind, d, _ in REPORT_FAMILIES])
def test_report_many_rows_are_report_bit_for_bit(monkeypatch, kind, d, make):
    evaluator = DirectEvaluator(make(d))
    n = 11
    columns = {}
    for per_batch in (1, 3, None):  # one state, three states, the default batch
        if per_batch is not None:
            monkeypatch.setattr(states, "BATCH_BYTES", per_batch * 16 * d * d)
        for rank in sorted({1, d}):
            rows = []
            for batch in density_batches(d, rank, 11, n):
                reports = evaluator.report_many(batch)
                assert isinstance(reports, BzReports) and len(reports) == len(batch)
                for i, matrix in enumerate(batch):
                    row = fields(reports.report(i))
                    assert row == fields(evaluator.report(DensityMatrix(dim=d, matrix=matrix)))
                    rows.append(row)
            # the rows do not depend on how the states are batched
            assert columns.setdefault(rank, rows) == rows
        monkeypatch.undo()
    assert len(columns[1]) == n


def test_report_many_of_no_states_is_empty():
    reports = DirectEvaluator(build_mum(3, "auto")).report_many(np.empty((0, 3, 3), complex))
    assert len(reports) == 0


def test_report_rejects_degenerate_family():
    with pytest.raises(VerificationError):
        bz_report(build_mum(2, 0.0), maximally_mixed(2))


def test_report_dimension_mismatch():
    with pytest.raises(DomainError):
        bz_report(build_mum(2, "auto"), maximally_mixed(3))
