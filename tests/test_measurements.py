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
    linalg,
    max_t_gsm,
    max_t_mum,
    measurements,
    serialize,
    sic2_fixture,
    verify,
)
from bzinfo.linalg import pack
from bzinfo.measurements import _pairwise_overlaps, family_bytes
from conftest import (
    degenerate_family,
    effects_of,
    generator_stack,
    herm_eig,
    random_hermitian,
    with_effects,
)


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
    generators = generator_stack("mum", 2)
    # eigenvalue oracle: every generator has spectrum +-(1 + sqrt(2))/sqrt(2)
    lam = (1 + np.sqrt(2)) / np.sqrt(2)
    bounds = []
    for g in generators.reshape(-1, 2, 2):
        w, _ = herm_eig(g)
        np.testing.assert_allclose(w, [-lam, lam], atol=1e-12)
        bounds.append(-1 / (2 * w[0]))
    oracle = min(bounds)
    assert abs(oracle - (2 - np.sqrt(2)) / 2) < 1e-12
    assert abs(max_t_mum(2) - (2 - np.sqrt(2)) / 2) < 1e-12


def test_max_t_mum_d3_bisection_oracle():
    oracle = bisect_max_t(generator_stack("mum", 3), 1 / 3)
    assert abs(max_t_mum(3) - oracle) < 1e-10


def test_max_t_gsm_d2_anchor():
    generators = generator_stack("gsm", 2)
    lam = 3 * np.sqrt(3) / np.sqrt(2)
    for g in generators:
        w, _ = herm_eig(g)
        np.testing.assert_allclose(w, [-lam, lam], atol=1e-12)
    oracle = bisect_max_t(generators, 1 / 4, hi=0.5)
    t_max = max_t_gsm(2)
    assert abs(t_max - oracle) < 1e-10
    assert abs(t_max - 1 / (6 * np.sqrt(6))) < 1e-12


def test_max_t_gsm_d3_bisection_oracle():
    oracle = bisect_max_t(generator_stack("gsm", 3), 1 / 9, hi=0.5)
    assert abs(max_t_gsm(3) - oracle) < 1e-10


# ---------------------------------------------------------------- MUM construction


def test_build_mum_d2_auto_is_mub():
    mset = build_mum(2, "auto")
    assert abs(mset.parameter - 1.0) < 1e-12
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for povm, sigma in zip(effects_of(mset).reshape(3, 2, 2, 2), paulis):
        # effects are the rank-one Pauli eigenprojectors (I +- sigma)/2
        for effect in povm:
            np.testing.assert_allclose(effect @ effect, effect, atol=1e-12)
        expected = {1.0: (np.eye(2) + sigma) / 2, -1.0: (np.eye(2) - sigma) / 2}
        for effect in povm:
            sign = np.trace(effect @ sigma).real
            np.testing.assert_allclose(effect, expected[round(sign)], atol=1e-12)


def test_build_mum_t0_degenerate():
    mset = degenerate_family("mum", 3)
    assert mset.parameter == pytest.approx(1 / 3, abs=1e-15)
    np.testing.assert_allclose(effects_of(mset)[0], np.eye(3) / 3, atol=1e-15)
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


@pytest.mark.parametrize("build", [build_mum, build_gsm])
@pytest.mark.parametrize("t", [0.0, -0.0, 1e-12])
def test_build_refuses_a_t_that_leaves_the_family_degenerate(build, t):
    with pytest.raises(DomainError, match=f"t={t} gives a degenerate"):
        build(3, t)


def test_build_mum_d3_kappa_formula():
    mset = build_mum(3, "auto")
    expected = 1 / 3 + mset.t**2 * (1 + np.sqrt(3)) ** 2 * 2
    assert abs(mset.parameter - expected) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_mum_defining_conditions(d):
    t_max = max_t_mum(d)
    for frac in (0.12, 0.25, 0.5, 0.8, 1.0):
        mset = build_mum(d, frac * t_max)
        report = verify(mset, 1e-10)
        assert report.passed, report.summary()


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_generators_sum_to_zero(d):
    generators = generator_stack("mum", d).reshape(d + 1, d, d, d)
    assert np.abs(generators.sum(axis=1)).max() < 1e-12


def test_kappa_strictly_increasing_in_t():
    t_max = max_t_mum(4)
    kappas = [build_mum(4, f * t_max).parameter for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(a < b for a, b in zip(kappas, kappas[1:]))


@pytest.mark.parametrize("d", range(2, 9))
def test_t_above_bound_fails_positivity(d):
    with pytest.raises(PositivityError, match=r"b=\d+, n=\d+"):
        build_mum(d, 1.000001 * max_t_mum(d))


def test_negative_t_rejected():
    with pytest.raises(DomainError):
        build_mum(3, -0.01)
    with pytest.raises(DomainError):
        build_mum(3, "fastest")


def test_verify_mum_flags_perturbation():
    mset = build_mum(3, "auto")
    effects = effects_of(mset).copy()
    effects[0, 0, 0] += 1e-6
    perturbed = with_effects(mset, effects)
    report = verify(perturbed, 1e-10)
    assert not report.passed
    assert "effect_trace" in report.failures()
    assert "completeness" in report.failures()


def test_verify_overflow_and_nan_fail_without_a_warning(monkeypatch):
    family = build_mum(2, "auto")
    effects = effects_of(family).copy()
    effects[0, 0, 1] = effects[0, 1, 0] = 1e200  # the Gram's diagonal overflows
    report = verify(with_effects(family, effects))
    assert report.deviations["within_overlap_diag"] == np.inf
    assert {"within_overlap_diag", "positivity", "completeness"} <= set(report.failures())
    # a nan eigenvalue is a positivity failure, not a deviation of 0
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    report = verify(family)
    assert np.isnan(report.deviations["positivity"])
    assert report.failures() == ["positivity"]


def test_an_effect_with_a_nan_entry_fails_positivity():
    # eigvalsh finds [[nan, 0], [0, 1]] positive, so positivity reads the Gram diagonal
    family = build_mub(2)
    effects = effects_of(family).copy()
    effects[1, 0, 0] = np.nan
    report = verify(with_effects(family, effects))
    assert np.isnan(report.deviations["positivity"])
    assert "positivity" in report.failures()
    assert "  positivity               nan  FAIL" in report.summary().splitlines()


def test_batched_eigenvalue_checks_match_per_effect_loop():
    d = 5
    for family in (build_mum(d, "auto"), build_gsm(d, "auto"), build_mub(d)):
        loop = max(0.0, max(-float(np.linalg.eigvalsh(e)[0]) for e in effects_of(family)))
        assert verify(family).deviations["positivity"] == loop
    bounds = []
    for op in generator_stack("mum", d):
        lams = np.linalg.eigvalsh(op)
        bounds.append(float((-(1.0 / d) / lams[lams < 0.0]).min()))
    assert max_t_mum(d) == min(bounds)


BUILD = {"mum": build_mum, "gsm": build_gsm}


@pytest.mark.parametrize("factor", [1.000001, 2.0])
@pytest.mark.parametrize("kind", sorted(BUILD))
@pytest.mark.parametrize("d", range(2, 9))
def test_positivity_error_names_the_effect_an_effect_eigensolve_names(d, kind, factor):
    if kind == "mum":
        t, weight = factor * max_t_mum(d), 1.0 / d
    else:
        t, weight = factor * max_t_gsm(d), 1.0 / d**2
    generators = generator_stack(kind, d)
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
    """Each generator is formed and eigensolved once, a POVM (mum) or a block
    of at most ``BLOCK_BYTES`` of matrices (gsm) at a time; blocks of seven
    give the default block's bits."""
    reference = BUILD[kind](5, t)
    monkeypatch.setattr(measurements, "BLOCK_BYTES", 7 * 16 * 5 * 5)
    solved, formed = [], []
    eigvalsh, blocks = np.linalg.eigvalsh, measurements._generator_blocks

    def solving(a):
        solved.append(len(a))
        return eigvalsh(a)

    def forming(*args):
        formed.append(args)
        return blocks(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", solving)
    monkeypatch.setattr(measurements, "_generator_blocks", forming)
    family = BUILD[kind](5, t)
    assert formed == [(kind, 5)]
    assert solved == ([5] * 6 if kind == "mum" else [7, 7, 7, 4])
    assert family.rows.tobytes() == reference.rows.tobytes()


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
        stacks += [effects_of(decode(text)), effects_of(decode(text.decode()))]
    return stacks


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_generators_and_effects_equal_their_conjugate_transpose(d):
    """``eigvalsh`` reads one triangle and verification's Gram matrix drops the
    imaginary parts, so both need effects that are exactly Hermitian."""
    stacks = [generator_stack("mum", d), generator_stack("gsm", d)]
    families = [build_mum(d), build_gsm(d), build_gsm(d, 0.5 * max_t_gsm(d))]
    if d in (2, 3, 5):
        families.append(build_mub(d))
    if d == 2:
        families.append(sic2_fixture())
    for family in families:
        stacks.append(effects_of(family))
        if d < 8:
            stacks += decoded_both_routes(family)
    for stack in stacks:
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def per_pair_overlaps(effects):
    n = len(effects)
    return np.array([[np.trace(effects[i] @ effects[j]).real for j in range(n)] for i in range(n)])


# rows of a Gram tile: one, seven (a tile edge inside a POVM of 3, 4 or 5
# effects, and no divisor of 20, the effects of mum d=4), and the default,
# under which each family here is one tile
GRAM_ROWS = [1, 7, None]


def patch_gram_rows(monkeypatch, rows):
    """Make a Gram tile ``rows`` rows and columns; None keeps the default."""
    if rows is not None:
        monkeypatch.setattr(measurements, "GRAM_TILE_ROWS", rows)


def tiled_overlaps(monkeypatch, effects, rows):
    """The Gram matrix from the tiles ``_pairwise_overlaps`` yields, NaN where no tile reaches."""
    n = len(effects)
    gram = np.full((n, n), np.nan)
    with monkeypatch.context() as patched:
        patch_gram_rows(patched, rows)
        for a, b, tile in _pairwise_overlaps(pack(effects), effects.shape[-1]):
            size = measurements.GRAM_TILE_ROWS
            assert a % size == b % size == 0 and b >= a
            assert tile.shape == (min(size, n - a), min(size, n - b))
            assert np.isnan(gram[a:a + size, b:b + size]).all()  # each tile once
            gram[a:a + size, b:b + size] = tile
    return gram


def assert_tiles_match_per_pair_traces(monkeypatch, effects):
    oracle = per_pair_overlaps(effects)
    upper = np.triu_indices(len(effects))  # each pair i <= j, which the tiles cover
    for rows in GRAM_ROWS:
        gram = tiled_overlaps(monkeypatch, effects, rows)
        assert np.abs(gram[upper] - oracle[upper]).max() < 1e-14, rows


@pytest.mark.parametrize(
    "family",
    [build_mum(3), build_mum(4), build_gsm(3), build_gsm(5), build_mub(5), sic2_fixture()],
    ids=["mum3", "mum4", "gsm3", "gsm5", "mub5", "sic2"],
)
def test_pairwise_overlaps_match_per_pair_traces(monkeypatch, family):
    assert_tiles_match_per_pair_traces(monkeypatch, effects_of(family))


def test_pairwise_overlaps_of_a_random_hermitian_stack_match_per_pair_traces(monkeypatch):
    rng = np.random.default_rng(3)
    stack = np.stack([random_hermitian(4, rng) for _ in range(7)])
    assert_tiles_match_per_pair_traces(monkeypatch, stack)


def oracle_overlap_deviations(family):
    """The overlap deviations ``verify`` reports, from per-pair traces and whole masks."""
    gram = per_pair_overlaps(effects_of(family))
    povms, outcomes = family.layout
    group = np.repeat(np.arange(povms), outcomes)
    same = group[:, None] == group
    diag = np.eye(len(group), dtype=bool)
    d, param = family.dim, family.parameter

    def worst(where, target):
        return np.abs(gram[where] - target).max()

    if family.kind in ("mum", "mub"):
        return {
            "cross_overlap": worst(~same, 1.0 / d),
            "within_overlap_diag": worst(diag, param),
            "within_overlap_offdiag": worst(same & ~diag, (1.0 - param) / (d - 1)),
        }
    return {
        "self_overlap": worst(diag, param),
        "pair_overlap": worst(~diag, (1.0 - param * d) / (d * (d * d - 1))),
    }


def perturbed(family, index, scale):
    """The family with one effect moved by a seeded Hermitian perturbation of this scale."""
    effects = effects_of(family).copy()
    effects[index] += scale * random_hermitian(family.dim, np.random.default_rng(index))
    return with_effects(family, effects)


@pytest.mark.parametrize(
    "family, passed, degenerate",
    [
        (build_mum(3), True, False),
        (build_mum(4), True, False),
        (build_gsm(3), True, False),
        (build_gsm(5), True, False),
        (build_mub(5), True, False),
        (sic2_fixture(), True, False),
        (degenerate_family("mum", 3), False, True),
        (degenerate_family("gsm", 4), False, True),
        (perturbed(build_mum(4), 7, 1e-7), False, False),
        (perturbed(build_gsm(3), 6, 1e-7), False, False),
    ],
    ids=["mum3", "mum4", "gsm3", "gsm5", "mub5", "sic2", "mum3-t0", "gsm4-t0", "mum4-off", "gsm3-off"],
)
def test_blocked_deviations_match_the_per_pair_oracle(monkeypatch, family, passed, degenerate):
    expected = oracle_overlap_deviations(family)
    for rows in GRAM_ROWS:
        with monkeypatch.context() as patched:
            patch_gram_rows(patched, rows)
            report = verify(family)
        for name, value in expected.items():
            assert abs(report.deviations[name] - value) < 1e-14, (rows, name)
        assert (report.passed, report.degenerate) == (passed, degenerate), rows


@pytest.mark.parametrize(
    "family, rows",
    [
        (build_mum(6), 5),
        (build_gsm(6), 7),
        (build_mub(7), 9),
        (perturbed(build_mum(5), 11, 1e-7), 7),
        (perturbed(build_gsm(5), 3, 1e-7), 4),
        (build_mum(12), None),  # 156 effects: the default tiles
        (build_gsm(12), None),  # 144 effects
    ],
    ids=["mum6", "gsm6", "mub7", "mum5-off", "gsm5-off", "mum12", "gsm12"],
)
def test_tiled_deviations_match_one_tile_within_a_few_ulps(monkeypatch, family, rows):
    n = len(family.rows)
    with monkeypatch.context() as patched:
        patched.setattr(measurements, "GRAM_TILE_ROWS", n)
        whole = verify(family)
    with monkeypatch.context() as patched:
        patch_gram_rows(patched, rows)
        assert measurements.GRAM_TILE_ROWS < n  # more than one tile
        tiled = verify(family)
    # the rounding of the largest overlap, the diagonal's
    ulp = np.spacing(np.abs(per_pair_overlaps(effects_of(family))).max())
    for name, value in whole.deviations.items():
        assert abs(tiled.deviations[name] - value) <= 4 * ulp, name
    assert (tiled.passed, tiled.failures()) == (whole.passed, whole.failures())


def test_family_rejects_unknown_kind_and_wrong_effect_count():
    mset = build_mum(2, "auto")
    with pytest.raises(DomainError, match="unknown measurement kind"):
        dataclasses.replace(mset, kind="povm")
    with pytest.raises(DomainError, match="needs 6 effects"):
        dataclasses.replace(mset, rows=mset.rows[:4])
    with pytest.raises(DomainError, match="needs 4 effects"):
        dataclasses.replace(mset, kind="gsm")


def test_cross_overlaps_are_inverse_dim():
    mset = build_mum(4, 0.5 * max_t_mum(4))
    povms = effects_of(mset).reshape(5, 4, 4, 4)
    for b1, p1 in enumerate(povms):
        for b2, p2 in enumerate(povms):
            if b1 == b2:
                continue
            overlaps = np.einsum("aij,bji->ab", p1, p2).real
            assert np.abs(overlaps - 1 / 4).max() < 1e-10


# ---------------------------------------------------------------- general SIC


def test_build_gsm_d2_auto_is_sic():
    gset = build_gsm(2, "auto")
    assert abs(gset.parameter - 0.25) < 1e-12
    assert verify(gset, 1e-10).passed


def test_build_gsm_t0_degenerate():
    gset = degenerate_family("gsm", 2)
    assert gset.parameter == pytest.approx(1 / 8, abs=1e-15)
    report = verify(gset, 1e-10)
    assert report.degenerate and not report.passed


def test_build_gsm_d3_parameter_matches_direct_traces():
    gset = build_gsm(3, "auto")
    assert abs(gset.parameter - (1 / 27 + gset.t**2 * 2 * 64)) < 1e-12
    for effect in effects_of(gset):
        assert abs(np.trace(effect @ effect).real - gset.parameter) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_gsm_defining_conditions(d):
    t_max = max_t_gsm(d)
    for frac in (0.12, 0.25, 0.5, 0.8, 1.0):
        gset = build_gsm(d, frac * t_max)
        report = verify(gset, 1e-10)
        assert report.passed, report.summary()
        # telescoping completeness
        assert np.abs(effects_of(gset).sum(axis=0) - np.eye(d)).max() < 1e-10


@pytest.mark.parametrize("d", range(2, 9))
def test_gsm_t_above_bound_fails_positivity(d):
    with pytest.raises(PositivityError, match=r"alpha=\d+"):
        build_gsm(d, 1.000001 * max_t_gsm(d))


# ---------------------------------------------------------------- MUB and SIC fixtures


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_build_mub_matches_a_per_basis_reference_bit_for_bit(d):
    # basis b's vector j has components omega^(b k^2 + j k)/sqrt(d), one vector and one basis at a time
    k = np.arange(d)
    bases = [np.eye(d, dtype=np.complex128)]
    for b in range(d):
        cols = np.empty((d, d), dtype=np.complex128)
        for j in range(d):
            cols[:, j] = np.exp(2j * np.pi * ((b * k * k + j * k) % d) / d) / np.sqrt(d)
        bases.append(cols)
    effects = np.concatenate([np.einsum("ik,jk->kij", cols, cols.conj()) for cols in bases])
    assert effects_of(build_mub(d)).tobytes() == effects.tobytes()


def test_mub_d2_overlap_oracle():
    mset = build_mub(2)
    assert mset.kind == "mub"
    povms = effects_of(mset).reshape(3, 2, 2, 2)
    # direct inner-product oracle on the rank-one effects: Tr(P Q) = |<phi|psi>|^2
    for b1 in range(3):
        for b2 in range(b1 + 1, 3):
            overlaps = np.einsum("aij,bji->ab", povms[b1], povms[b2]).real
            np.testing.assert_allclose(overlaps, 0.5, atol=1e-12)


def test_mub_d3_overlap_oracle():
    mset = build_mub(3)
    povms = effects_of(mset).reshape(4, 3, 3, 3)
    assert len(povms) == 4
    for b1 in range(4):
        for b2 in range(b1 + 1, 4):
            overlaps = np.einsum("aij,bji->ab", povms[b1], povms[b2]).real
            np.testing.assert_allclose(overlaps, 1 / 3, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_is_valid_mum_with_unit_kappa(d):
    mset = build_mub(d)
    assert mset.parameter == 1.0
    assert mset.layout == (d + 1, d)
    report = verify(mset, 1e-10)
    assert report.passed, report.summary()
    for effect in effects_of(mset):
        assert np.abs(effect @ effect - effect).max() < 1e-10


@pytest.mark.parametrize("d,factor", [(4, 2), (6, 2), (9, 3), (15, 3)])
def test_mub_rejects_non_prime(d, factor):
    with pytest.raises(DomainError, match=f"smallest factor {factor}"):
        build_mub(d)


def test_sic2_fixture():
    gset = sic2_fixture()
    assert gset.kind == "sic"
    assert gset.parameter == 0.25
    overlaps = np.einsum("aij,bji->ab", effects_of(gset), effects_of(gset)).real
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


def test_verify_judges_the_same_deviations_at_each_tol():
    family = build_mum(3, "auto")
    loose, strict = verify(family, 1e-6), verify(family, 0.0)
    assert (loose.tol, loose.passed) == (1e-6, True)
    assert (strict.tol, strict.passed) == (0.0, False)
    assert loose.deviations == strict.deviations
    # each report owns its dict: a caller's edit reaches no other report
    del loose.deviations["parameter"]
    assert "parameter" in strict.deviations and "parameter" in verify(family).deviations
    assert verify(dataclasses.replace(family), 1e-6).deviations == strict.deviations
