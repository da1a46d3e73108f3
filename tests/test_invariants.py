import numpy as np
import pytest

from bzinfo import (
    DirectEvaluator,
    DomainError,
    VerificationError,
    build_gsm,
    build_mub,
    build_mum,
    bz_report,
    closed_forms,
    maximally_mixed,
    purity,
    random_density,
    sic2_fixture,
    validate_state,
    variance,
)

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


def test_report_rejects_degenerate_family():
    with pytest.raises(VerificationError):
        bz_report(build_mum(2, 0.0), maximally_mixed(2))


def test_report_dimension_mismatch():
    with pytest.raises(DomainError):
        bz_report(build_mum(2, "auto"), maximally_mixed(3))
