import dataclasses
import io
import json

import numpy as np
import pytest

from bzinfo import (
    DomainError,
    PositivityError,
    VerificationReport,
    build_gsm,
    build_mub,
    build_mum,
    decode,
    encode,
    gell_mann_basis,
    grid_partition,
    herm_eig,
    linalg,
    max_t_gsm,
    max_t_mum,
    measurements,
    serialize,
    sic2_fixture,
    verify,
)
from bzinfo.measurements import _pairwise_overlaps, family_bytes, gsm_operators, mum_operators
from conftest import random_hermitian


def bisect_max_t(generators, identity_weight, hi=2.0, iters=80):
    """Independent positivity oracle: bisection on the all-effects-PSD predicate."""
    d = generators.shape[-1]
    flat = generators.reshape(-1, d, d)

    def all_psd(t):
        for g in flat:
            effect = identity_weight * np.eye(d) + t * g
            if np.linalg.eigvalsh(effect)[0] < -1e-14:
                return False
        return True

    lo = 0.0
    assert all_psd(lo) and not all_psd(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if all_psd(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------- sharpness bound


def test_max_t_mum_d2_anchor():
    grid = grid_partition(gell_mann_basis(2))
    generators = mum_operators(grid)
    # eigenvalue oracle: every generator has spectrum +-(1 + sqrt(2))/sqrt(2)
    lam = (1 + np.sqrt(2)) / np.sqrt(2)
    bounds = []
    for g in generators.reshape(-1, 2, 2):
        w, _ = herm_eig(g)
        np.testing.assert_allclose(w, [-lam, lam], atol=1e-12)
        bounds.append(-1 / (2 * w[0]))
    oracle = min(bounds)
    assert abs(oracle - (2 - np.sqrt(2)) / 2) < 1e-12
    assert abs(max_t_mum(grid) - (2 - np.sqrt(2)) / 2) < 1e-12


def test_max_t_mum_d3_bisection_oracle():
    grid = grid_partition(gell_mann_basis(3))
    oracle = bisect_max_t(mum_operators(grid), 1 / 3)
    assert abs(max_t_mum(grid) - oracle) < 1e-10


def test_max_t_gsm_d2_anchor():
    basis = gell_mann_basis(2)
    generators = gsm_operators(basis)
    lam = 3 * np.sqrt(3) / np.sqrt(2)
    for g in generators:
        w, _ = herm_eig(g)
        np.testing.assert_allclose(w, [-lam, lam], atol=1e-12)
    oracle = bisect_max_t(generators, 1 / 4, hi=0.5)
    t_max = max_t_gsm(basis)
    assert abs(t_max - oracle) < 1e-10
    assert abs(t_max - 1 / (6 * np.sqrt(6))) < 1e-12


def test_max_t_gsm_d3_bisection_oracle():
    basis = gell_mann_basis(3)
    oracle = bisect_max_t(gsm_operators(basis), 1 / 9, hi=0.5)
    assert abs(max_t_gsm(basis) - oracle) < 1e-10


# ---------------------------------------------------------------- MUM construction


def test_build_mum_d2_auto_is_mub():
    mset = build_mum(2, "auto")
    assert abs(mset.parameter - 1.0) < 1e-12
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for povm, sigma in zip(mset.split(mset.effects), paulis):
        # effects are the rank-one Pauli eigenprojectors (I +- sigma)/2
        for effect in povm:
            np.testing.assert_allclose(effect @ effect, effect, atol=1e-12)
        expected = {1.0: (np.eye(2) + sigma) / 2, -1.0: (np.eye(2) - sigma) / 2}
        for effect in povm:
            sign = np.trace(effect @ sigma).real
            np.testing.assert_allclose(effect, expected[round(sign)], atol=1e-12)


def test_build_mum_t0_degenerate():
    mset = build_mum(3, 0.0)
    assert mset.parameter == pytest.approx(1 / 3, abs=1e-15)
    np.testing.assert_allclose(mset.effects[0], np.eye(3) / 3, atol=1e-15)
    report = verify(mset, 1e-10)
    assert report.degenerate and not report.passed
    assert "degenerate" in report.failures()


def test_failures_name_a_nan_deviation():
    report = VerificationReport("mum", 1e-10, {"a": float("nan"), "b": 0.0, "c": 1.0}, False)
    assert not report.passed
    assert report.failures() == ["a", "c"]


@pytest.mark.parametrize("build", [build_mum, build_gsm])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_build_rejects_a_non_finite_or_negative_t(build, t):
    with pytest.raises(DomainError, match="t must be a finite nonnegative number"):
        build(3, t)


def test_build_mum_d3_kappa_formula():
    mset = build_mum(3, "auto")
    expected = 1 / 3 + mset.t**2 * (1 + np.sqrt(3)) ** 2 * 2
    assert abs(mset.parameter - expected) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_mum_defining_conditions(d):
    grid = grid_partition(gell_mann_basis(d))
    t_max = max_t_mum(grid)
    for frac in (0.12, 0.25, 0.5, 0.8, 1.0):
        mset = build_mum(d, frac * t_max)
        report = verify(mset, 1e-10)
        assert report.passed, report.summary()


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_generators_sum_to_zero(d):
    generators = mum_operators(grid_partition(gell_mann_basis(d)))
    assert np.abs(generators.sum(axis=1)).max() < 1e-12


def test_kappa_strictly_increasing_in_t():
    grid = grid_partition(gell_mann_basis(4))
    t_max = max_t_mum(grid)
    kappas = [build_mum(4, f * t_max).parameter for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(a < b for a, b in zip(kappas, kappas[1:]))


@pytest.mark.parametrize("d", range(2, 9))
def test_t_above_bound_fails_positivity(d):
    grid = grid_partition(gell_mann_basis(d))
    with pytest.raises(PositivityError, match=r"b=\d+, n=\d+"):
        build_mum(d, 1.000001 * max_t_mum(grid))


def test_negative_t_rejected():
    with pytest.raises(DomainError):
        build_mum(3, -0.01)
    with pytest.raises(DomainError):
        build_mum(3, "fastest")


def test_verify_mum_flags_perturbation():
    mset = build_mum(3, "auto")
    effects = mset.effects.copy()
    effects[0, 0, 0] += 1e-6
    perturbed = dataclasses.replace(mset, effects=effects)
    report = verify(perturbed, 1e-10)
    assert not report.passed
    assert "effect_trace" in report.failures()
    assert "completeness" in report.failures()


def test_batched_eigenvalue_checks_match_per_effect_loop():
    d = 5
    for family in (build_mum(d, "auto"), build_gsm(d, "auto"), build_mub(d)):
        loop = max(0.0, max(-float(np.linalg.eigvalsh(e)[0]) for e in family.effects))
        assert verify(family).deviations["positivity"] == loop
    grid = grid_partition(gell_mann_basis(d))
    bounds = []
    for op in mum_operators(grid).reshape(-1, d, d):
        lams = np.linalg.eigvalsh(op)
        bounds.append(float((-(1.0 / d) / lams[lams < 0.0]).min()))
    assert max_t_mum(grid) == min(bounds)


BUILD = {"mum": build_mum, "gsm": build_gsm}


@pytest.mark.parametrize("factor", [1.000001, 2.0])
@pytest.mark.parametrize("kind", sorted(BUILD))
@pytest.mark.parametrize("d", range(2, 9))
def test_positivity_error_names_the_effect_an_effect_eigensolve_names(d, kind, factor):
    basis = gell_mann_basis(d)
    if kind == "mum":
        grid = grid_partition(basis)
        t, weight, generators = factor * max_t_mum(grid), 1.0 / d, mum_operators(grid).reshape(-1, d, d)
    else:
        t, weight, generators = factor * max_t_gsm(basis), 1.0 / d**2, gsm_operators(basis)
    smallest = np.linalg.eigvalsh(weight * np.eye(d) + t * generators)[:, 0]
    i = int(np.flatnonzero(smallest < measurements.PSD_FLOOR)[0])
    label = f"(b={i // d + 1}, n={i % d + 1})" if kind == "mum" else f"alpha={i + 1}"
    with pytest.raises(PositivityError) as caught:
        BUILD[kind](d, t)
    assert str(caught.value).startswith(f"effect {label} has eigenvalue {smallest[i]:.3e};")


@pytest.mark.parametrize("kind", sorted(BUILD))
def test_huge_finite_t_is_a_positivity_error_not_an_overflow(kind):
    # the smallest eigenvalue 1/d + t*lam lies past the float range; RuntimeWarnings are errors here
    with pytest.raises(PositivityError, match="has eigenvalue -inf; t exceeds the positivity bound"):
        BUILD[kind](3, 1e308)


@pytest.mark.parametrize("t", ["auto", 0.001])
@pytest.mark.parametrize("kind", sorted(BUILD))
def test_each_build_solves_and_forms_its_generators_once(monkeypatch, kind, t):
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    operators = f"{kind}_operators"
    count(np.linalg, "eigvalsh")
    count(measurements, operators)
    BUILD[kind](5, t)
    assert sorted(calls) == ["eigvalsh", operators]


def decoded_both_routes(family) -> list:
    """The family's effects decoded from its file, once by the direct parse and once
    by json.loads, as saved and with one off-diagonal entry nudged off Hermitian."""
    data = encode(family)
    doc = json.loads(data)
    matrix = doc["effects"]
    while isinstance(matrix[0][0][0], list):  # down to the first effect's rows of [re, im]
        matrix = matrix[0]
    matrix[0][1][0] += 1e-13
    stacks = []
    for text in (data, json.dumps(doc).encode()):
        assert serialize._parse_canonical_measurement(io.BytesIO(text).read, len(text)) is not None
        stacks += [decode(text).effects, decode(text.decode()).effects]
    return stacks


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_generators_and_effects_equal_their_conjugate_transpose(d):
    """``eigvalsh`` reads one triangle and verification's Gram matrix drops the
    imaginary parts, so both need effects that are exactly Hermitian."""
    basis = gell_mann_basis(d)
    stacks = [mum_operators(grid_partition(basis)), gsm_operators(basis)]
    families = [build_mum(d), build_gsm(d), build_gsm(d, 0.5 * max_t_gsm(basis))]
    if d in (2, 3, 5):
        families.append(build_mub(d))
    if d == 2:
        families.append(sic2_fixture())
    for family in families:
        stacks.append(family.effects)
        if d < 8:
            stacks += decoded_both_routes(family)
    for stack in stacks:
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def per_pair_overlaps(effects):
    n = len(effects)
    return np.array([[np.trace(effects[i] @ effects[j]).real for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "family",
    [build_mum(3), build_mum(4), build_gsm(3), build_gsm(5), build_mub(5), sic2_fixture()],
    ids=["mum3", "mum4", "gsm3", "gsm5", "mub5", "sic2"],
)
def test_pairwise_overlaps_match_per_pair_traces(family):
    oracle = per_pair_overlaps(family.effects)
    assert np.abs(_pairwise_overlaps(family.effects) - oracle).max() < 1e-14


def test_pairwise_overlaps_of_a_random_hermitian_stack_match_per_pair_traces():
    rng = np.random.default_rng(3)
    stack = np.stack([random_hermitian(4, rng) for _ in range(7)])
    oracle = per_pair_overlaps(stack)
    assert np.abs(_pairwise_overlaps(stack) - oracle).max() < 1e-14


def test_family_rejects_unknown_kind_and_wrong_effect_count():
    mset = build_mum(2, "auto")
    with pytest.raises(DomainError, match="unknown measurement kind"):
        dataclasses.replace(mset, kind="povm")
    with pytest.raises(DomainError, match="needs 6 effects"):
        dataclasses.replace(mset, effects=mset.effects[:4])
    with pytest.raises(DomainError, match="needs 4 effects"):
        dataclasses.replace(mset, kind="gsm")


def test_cross_overlaps_are_inverse_dim():
    mset = build_mum(4, 0.5 * max_t_mum(grid_partition(gell_mann_basis(4))))
    povms = mset.split(mset.effects)
    for b1, p1 in enumerate(povms):
        for b2, p2 in enumerate(povms):
            if b1 == b2:
                continue
            overlaps = np.einsum("aij,bji->ab", p1, p2).real
            assert np.abs(overlaps - 1 / 4).max() < 1e-10


def test_random_grid_partition_valid_downstream():
    d = 4
    basis = gell_mann_basis(d)
    order = np.random.Generator(np.random.Philox(99)).permutation(d * d - 1)
    grid = grid_partition(basis, order=order)
    mset = build_mum(d, 0.7 * max_t_mum(grid), grid=grid)
    assert verify(mset, 1e-10).passed


def test_build_mum_grid_dim_mismatch():
    grid = grid_partition(gell_mann_basis(3))
    with pytest.raises(DomainError):
        build_mum(4, "auto", grid=grid)


# ---------------------------------------------------------------- general SIC


def test_build_gsm_d2_auto_is_sic():
    gset = build_gsm(2, "auto")
    assert abs(gset.parameter - 0.25) < 1e-12
    assert verify(gset, 1e-10).passed


def test_build_gsm_t0_degenerate():
    gset = build_gsm(2, 0.0)
    assert gset.parameter == pytest.approx(1 / 8, abs=1e-15)
    report = verify(gset, 1e-10)
    assert report.degenerate and not report.passed


def test_build_gsm_d3_parameter_matches_direct_traces():
    gset = build_gsm(3, "auto")
    assert abs(gset.parameter - (1 / 27 + gset.t**2 * 2 * 64)) < 1e-12
    for effect in gset.effects:
        assert abs(np.trace(effect @ effect).real - gset.parameter) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_gsm_defining_conditions(d):
    basis = gell_mann_basis(d)
    t_max = max_t_gsm(basis)
    for frac in (0.12, 0.25, 0.5, 0.8, 1.0):
        gset = build_gsm(d, frac * t_max)
        report = verify(gset, 1e-10)
        assert report.passed, report.summary()
        # telescoping completeness
        assert np.abs(gset.effects.sum(axis=0) - np.eye(d)).max() < 1e-10


@pytest.mark.parametrize("d", range(2, 9))
def test_gsm_t_above_bound_fails_positivity(d):
    with pytest.raises(PositivityError, match=r"alpha=\d+"):
        build_gsm(d, 1.000001 * max_t_gsm(gell_mann_basis(d)))


# ---------------------------------------------------------------- MUB and SIC fixtures


def test_mub_d2_overlap_oracle():
    mset = build_mub(2)
    assert mset.kind == "mub"
    povms = mset.split(mset.effects)
    # direct inner-product oracle on the rank-one effects: Tr(P Q) = |<phi|psi>|^2
    for b1 in range(3):
        for b2 in range(b1 + 1, 3):
            overlaps = np.einsum("aij,bji->ab", povms[b1], povms[b2]).real
            np.testing.assert_allclose(overlaps, 0.5, atol=1e-12)


def test_mub_d3_overlap_oracle():
    mset = build_mub(3)
    povms = mset.split(mset.effects)
    assert len(povms) == 4
    for b1 in range(4):
        for b2 in range(b1 + 1, 4):
            overlaps = np.einsum("aij,bji->ab", povms[b1], povms[b2]).real
            np.testing.assert_allclose(overlaps, 1 / 3, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_is_valid_mum_with_unit_kappa(d):
    mset = build_mub(d)
    assert mset.parameter == 1.0
    assert mset.group_sizes == (d,) * (d + 1)
    report = verify(mset, 1e-10)
    assert report.passed, report.summary()
    for effect in mset.effects:
        assert np.abs(effect @ effect - effect).max() < 1e-10


@pytest.mark.parametrize("d,factor", [(4, 2), (6, 2), (9, 3), (15, 3)])
def test_mub_rejects_non_prime(d, factor):
    with pytest.raises(DomainError, match=f"smallest factor {factor}"):
        build_mub(d)


def test_sic2_fixture():
    gset = sic2_fixture()
    assert gset.kind == "sic"
    assert gset.parameter == 0.25
    overlaps = np.einsum("aij,bji->ab", gset.effects, gset.effects).real
    for j in range(4):
        assert abs(overlaps[j, j] - 0.25) < 1e-12  # Tr(P^2) = 1/d^2
        for k in range(4):
            if j != k:
                # vector overlap |<phi_j|phi_k>|^2 = d^2 Tr(P_j P_k) = 1/(d+1)
                assert abs(4 * overlaps[j, k] - 1 / 3) < 1e-12
    assert verify(gset, 1e-12).passed


def test_family_bytes_counts_effects_and_basis():
    for d in (2, 5, 32):
        basis = (d * d - 1) * d * d
        assert family_bytes("mum", d) == family_bytes("mub", d) == 16 * ((d + 1) * d**3 + basis)
        assert family_bytes("gsm", d) == family_bytes("sic", d) == 16 * (d**4 + basis)
    assert family_bytes("gsm", 32) < linalg.MAX_DENSE_BYTES // 20  # d=32 stays well inside


def test_family_size_limit_boundary(monkeypatch):
    for kind, build in (("mum", build_mum), ("gsm", build_gsm), ("mub", build_mub)):
        monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", family_bytes(kind, 5))
        assert build(5).dim == 5
        monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", family_bytes(kind, 5) - 1)
        with pytest.raises(DomainError, match=f"a {kind} family of dimension 5 needs"):
            build(5)


def test_verify_computes_the_deviations_once_per_family_object(monkeypatch):
    calls = []

    def counting(effects):
        calls.append(effects.shape)
        return _pairwise_overlaps(effects)

    monkeypatch.setattr(measurements, "_pairwise_overlaps", counting)
    family = build_mum(3, "auto")
    loose, strict = verify(family, 1e-6), verify(family, 0.0)
    assert len(calls) == 1
    assert (loose.tol, loose.passed) == (1e-6, True)
    assert (strict.tol, strict.passed) == (0.0, False)
    assert loose.deviations == strict.deviations
    # each report owns its dict: a caller's edit reaches neither the family nor another report
    del loose.deviations["parameter"]
    assert "parameter" in strict.deviations and "parameter" in verify(family).deviations
    assert len(calls) == 1
    # a copy is a new object, which computes its own deviations
    assert verify(dataclasses.replace(family), 1e-6).deviations == strict.deviations
    assert len(calls) == 2
