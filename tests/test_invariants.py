import dataclasses

import numpy as np
import pytest

from bzinfo import (
    BzReport,
    DirectEvaluator,
    DomainError,
    NumericalError,
    VerificationError,
    build_gsm,
    build_mub,
    build_mum,
    closed_forms,
    sample_outcomes,
    maximally_mixed,
    purity,
    random_density,
    sic2_fixture,
    validate_state,
    verify,
)

from bzinfo import invariants, states
from bzinfo.linalg import real_rows
from bzinfo.measurements import MUM_KINDS
from bzinfo.states import density_batches
from conftest import degenerate_family, expectation, random_unitary

KET0 = validate_state(np.diag([1.0, 0.0]))
SZ = np.diag([1.0, -1.0]).astype(complex)


def variance(x, rho):
    """Oracle: V(X|rho) = <X^2> - <X>^2 for one observable X."""
    x = np.asarray(x, dtype=np.complex128)
    return expectation(x @ x, rho) - expectation(x, rho) ** 2


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


# Each check of probs and report, reached with a state or an effect stack that
# validation would have refused, fires with its own message.


def unchecked_state(m):
    return np.asarray(m, dtype=np.complex128)


def born(effects, m):
    return np.einsum("kij,ji->k", effects, np.asarray(m, dtype=np.complex128)).real


def test_probs_check_imaginary_part():
    evaluator = DirectEvaluator(build_mub(2))
    state = unchecked_state(np.eye(2) / 2 + 1e-6j * np.eye(2))
    for check in (evaluator.probs, evaluator.report):
        with pytest.raises(NumericalError) as info:
            check(state)
        assert str(info.value) == "outcome probability has a non-negligible imaginary part"


HERMITIAN_CHECK_FAMILIES = {"mum3": lambda: build_mum(3, "auto"), "gsm3": lambda: build_gsm(3, "auto"),
                            "mub3": lambda: build_mub(3), "sic2": sic2_fixture}


@pytest.mark.parametrize("name", sorted(HERMITIAN_CHECK_FAMILIES))
def test_an_off_diagonal_anti_hermitian_defect_is_checked_on_the_state(name):
    evaluator = DirectEvaluator(HERMITIAN_CHECK_FAMILIES[name]())
    d = evaluator.dim
    batch = np.concatenate(list(density_batches(d, d, 21, 6)))
    # traceless, zero on the diagonal, and K^dag = -K
    defect = np.zeros((d, d), dtype=complex)
    defect[0, 1], defect[1, 0] = 1 + 1j, -1 + 1j
    message = "^outcome probability has a non-negligible imaginary part$"
    for j in (0, 4):
        bad = batch.copy()
        bad[j] = batch[j] + 1e-6 * defect
        state = unchecked_state(bad[j])
        for check in (evaluator.probs, evaluator.report, lambda rho: sample_outcomes(evaluator, rho, 100, 0)):
            with pytest.raises(NumericalError, match=message):
                check(state)
        with pytest.raises(NumericalError, match=message):
            evaluator.report_many(bad)
        evaluator.report_many(bad[:j])  # the states before j pass
    # a defect well inside the tolerance passes, its probabilities those of
    # the symmetrized state
    for matrix in batch:
        near = matrix + 1e-13 * defect
        p = evaluator.probs(unchecked_state(near))
        np.testing.assert_allclose(p, evaluator.probs(unchecked_state((near + near.conj().T) / 2)),
                                   rtol=0, atol=1e-15)
        evaluator.report(unchecked_state(near))
    evaluator.report_many(batch + 1e-13 * defect)


def test_probs_check_unit_interval():
    family = build_mub(2)
    m = np.diag([2.0, -1.0])  # Hermitian with unit trace, but not positive
    p = born(family.effects, m)
    with pytest.raises(NumericalError) as info:
        DirectEvaluator(family).probs(unchecked_state(m))
    assert str(info.value) == f"probability out of [0, 1]: {p.min().item()!r}..{p.max().item()!r}"


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


def square_stack(evaluator):
    """The effects' squares as ``report_many`` forms them, its blocks joined."""
    state = np.eye(evaluator.dim, dtype=np.complex128)[None]
    blocks = []

    def recorded(stack):
        # a square block is neither the state nor a view of the effects; each
        # is copied before the next overwrites it
        if not (np.shares_memory(stack, state) or np.shares_memory(stack, evaluator.observables)):
            blocks.append(stack.copy())
        return real_rows(stack)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(invariants, "real_rows", recorded)
        evaluator._contract(state, squares=True)
    return np.concatenate(blocks)


def test_report_variance_floor_and_clamp_count(monkeypatch):
    evaluator = DirectEvaluator(build_mub(2))
    second_moments = square_stack(evaluator)
    contract = evaluator._contract

    def shift_squares(shift):
        def shifted(states, squares=False):
            rows, traces, moments = contract(states, squares)
            return rows, traces, moments - shift
        monkeypatch.setattr(evaluator, "_contract", shifted)

    # Z projectors on |0>: p (1 - p) = 0, so m2 - p^2 is the shift itself; the
    # squares' traces are shifted at the seam report reads them from
    shift_squares(1e-12)
    assert evaluator.report(KET0).negatives_clamped == 2
    shift_squares(0.0)
    assert evaluator.report(KET0).negatives_clamped == 0
    shift_squares(1e-9)
    p = born(evaluator.observables, KET0)
    terms = born(second_moments, KET0) - 1e-9 - p * p
    with pytest.raises(NumericalError) as info:
        evaluator.report(KET0)
    assert str(info.value) == f"effect variance {terms.min().item()!r} below -1e-10"


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
    # the maximally mixed state: no information, the largest variance, and
    # uniform outcomes, so C is 1/d for each of the d + 1 POVMs of a MUM and
    # 1/d^2 for the one d^2-outcome POVM of a general SIC
    d = 4
    for kind, parameter, c in (("mum", 0.7, (d + 1) / d), ("gsm", 1 / d**2 - 1e-3, 1 / d**2)):
        cf = closed_forms(kind, d, parameter, 1 / d)
        assert cf.I == pytest.approx(0.0, abs=1e-15)
        assert cf.U == pytest.approx(cf.V_max - cf.V_min, abs=1e-15)
        assert cf.V == pytest.approx(cf.V_max, abs=1e-15)
        assert cf.C == pytest.approx(c, abs=1e-15)


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
    for kind in ("mum", "gsm"):
        # every family has d >= 2; at d = 1 a parameter within the 1e-12 slack
        # above 1 (or 1/d^2) passed, and the closed forms divided by d - 1
        with pytest.raises(DomainError, match="^dimension must be >= 2, got 1$"):
            closed_forms(kind, 1, 1.0000000000005, 1.0)


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
        r = DirectEvaluator(family).report(maximally_mixed(3))
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
    rotated = validate_state(w @ rho @ w.conj().T)
    assert abs(purity(rotated) - purity(rho)) < 1e-10
    a, b = closed_forms("mum", d, 0.7, purity(rho)), closed_forms("mum", d, 0.7, purity(rotated))
    assert abs(a.C - b.C) < 1e-10
    assert abs(a.I - b.I) < 1e-10
    assert abs(a.U - b.U) < 1e-10


def test_mub_report_matches_unit_kappa_mum_forms():
    d = 3
    evaluator = DirectEvaluator(build_mub(d))
    for seed in range(5):
        rho = random_density(d, d, seed)
        r = evaluator.report(rho)
        assert r.kind == "mub" and r.parameter == 1.0
        assert abs(r.C_closed - (1 + r.purity)) < 1e-12
        assert r.max_abs_discrepancy < 1e-9


def test_sic2_pure_state_information():
    r = DirectEvaluator(sic2_fixture()).report(KET0)
    assert abs(r.I_direct - 1 / 12) < 1e-10
    assert abs(r.I_closed - 1 / 12) < 1e-12


def test_state_only_report():
    # every report is of a family: the closed forms know no state-only kind
    for kind in (None, "state", "state-only"):
        with pytest.raises(DomainError, match="unknown family kind"):
            closed_forms(kind, 4, None, 0.5)


@pytest.mark.parametrize(
    "make, d",
    [
        (lambda: build_mum(2, "auto"), 2),
        (lambda: build_mum(5, "auto"), 5),
        (lambda: build_gsm(3, "auto"), 3),
        (lambda: build_gsm(8, "auto"), 8),
        (lambda: build_mub(5), 5),
        (sic2_fixture, 2),
    ],
    ids=["mum2", "mum5", "gsm3", "gsm8", "mub5", "sic2"],
)
def test_stacked_contraction_equals_two_separate_ones(make, d):
    family = make()
    evaluator = DirectEvaluator(family)
    effects = family.effects
    squares = effects @ effects
    # a family's effects are read in place; the squares are derived a block at a time
    assert evaluator.observables is family.effects
    assert not hasattr(evaluator, "moments")
    assert not np.shares_memory(square_stack(evaluator), evaluator.observables)
    assert evaluator.observables.tobytes() == effects.tobytes()
    assert square_stack(evaluator).tobytes() == squares.tobytes()
    real_effects = effects.view(np.float64).reshape(len(effects), -1)
    real_squares = squares.view(np.float64).reshape(len(effects), -1)
    for rank in sorted({1, d}):
        for rho in np.concatenate(list(density_batches(d, rank, 300, 40))):
            # Re Tr(A rho) is the dot product of A's float64 view with conj(rho^T)'s
            rows = np.ascontiguousarray(rho.T.conj()).view(np.float64).reshape(1, -1)
            p = np.einsum("kx,nx->nk", real_effects, rows)[0]
            m2 = np.einsum("kx,nx->nk", real_squares, rows)[0]
            r = evaluator.report(rho)
            assert r.V_direct == float(np.add.reduce(np.maximum(m2 - p * p, 0.0)))
            assert r.C_direct == float(np.add.reduce(p * p))
            assert evaluator.probs(rho).tobytes() == p.tobytes()
            # an independent oracle: the complex per-state contraction
            np.testing.assert_allclose(p, born(effects, rho), rtol=0, atol=1e-15)
            np.testing.assert_allclose(m2, born(squares, rho), rtol=0, atol=1e-15)


def test_a_failing_state_is_refused_before_any_trace_is_taken(monkeypatch):
    evaluator = DirectEvaluator(build_mum(3, "auto"))

    def no_traces(stack):
        raise AssertionError("a trace was taken")

    monkeypatch.setattr(invariants, "real_rows", no_traces)
    for entry, message in ((np.nan, "state has non-finite entries"),
                           (1e-3, "outcome probability has a non-negligible imaginary part")):
        batch = np.stack([maximally_mixed(3)] * 3)
        batch[1, 0, 1] += entry
        for check in (evaluator.report_many, lambda m: evaluator.probs(unchecked_state(m[1]))):
            with pytest.raises(NumericalError) as info:
                check(batch)
            assert str(info.value) == message


def test_probs_forms_no_squares(monkeypatch):
    family = build_mum(8, "auto")
    rho = random_density(8, 8, 3)
    evaluator = DirectEvaluator(family)
    formed = []
    contract = evaluator._contract

    def recorded(states, squares=False):
        result = contract(states, squares)
        # copied: report_many turns the squares' traces into the variance terms in place
        formed.append(None if result[2] is None else result[2].copy())
        return result

    monkeypatch.setattr(evaluator, "_contract", recorded)
    evaluator.probs(rho)
    assert formed == [None]
    evaluator.report(rho)
    rows = real_rows(rho[None])
    squares = family.effects @ family.effects
    assert formed[1].tobytes() == np.einsum("kx,nx->nk", real_rows(squares), rows).tobytes()
    assert square_stack(evaluator).tobytes() == squares.tobytes()
    # and the evaluator keeps no stack but the family's
    arrays = [v for v in vars(evaluator).values() if isinstance(v, np.ndarray)]
    stacks = [v for v in arrays if v.size > len(family.effects)]
    assert len(stacks) == 1 and stacks[0] is family.effects

    def no_squares(states, squares=False):
        if squares:
            raise AssertionError("squares formed")
        return contract(states)

    monkeypatch.setattr(evaluator, "_contract", no_squares)
    table = sample_outcomes(evaluator, rho, 1000, 5)
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
            monkeypatch.setattr(states, "MIN_BATCH_PER_DIM", 0)
        for rank in sorted({1, d}):
            rows = []
            for batch in density_batches(d, rank, 11, n):
                assert per_batch is None or len(batch) <= per_batch
                reports = evaluator.report_many(batch)
                assert isinstance(reports, BzReport) and len(reports.purity) == len(batch)
                for i, matrix in enumerate(batch):
                    row = fields(reports.row(i))
                    assert row == fields(evaluator.report(matrix))
                    rows.append(row)
            # the rows do not depend on how the states are batched
            assert columns.setdefault(rank, rows) == rows
        monkeypatch.undo()
    assert len(columns[1]) == n


@pytest.mark.parametrize("kind, d, make", REPORT_FAMILIES,
                         ids=[f"{kind}{d}" for kind, d, _ in REPORT_FAMILIES])
def test_report_many_rows_do_not_depend_on_the_squares_block(monkeypatch, kind, d, make):
    family = make(d)
    evaluator = DirectEvaluator(family)
    batch = np.concatenate([*density_batches(d, 1, 12, 5), *density_batches(d, d, 13, 5)])
    columns, probs = [], []
    for per_block in (1, 3, None):  # one effect, three effects, the default block
        with monkeypatch.context() as patched:
            if per_block is not None:
                patched.setattr(invariants, "BLOCK_BYTES", per_block * 16 * d * d)
            reports = evaluator.report_many(batch)
            squares = square_stack(evaluator)
            probs.append([evaluator.probs(m).tobytes() for m in batch])
        assert squares.tobytes() == (family.effects @ family.effects).tobytes()
        columns.append([fields(reports.row(i)) for i in range(len(batch))])
    assert columns[0] == columns[1] == columns[2]
    assert probs[0] == probs[1] == probs[2]


@pytest.mark.parametrize("kind, d, make", REPORT_FAMILIES,
                         ids=[f"{kind}{d}" for kind, d, _ in REPORT_FAMILIES])
def test_squares_traces_sum_to_q_on_every_clamp_free_row(monkeypatch, kind, d, make):
    """Sum_k P_k^2 = q I, with q = (d + 1) kappa for MUMs and d a for general
    SICs, so a row whose terms are not clamped has V_direct + C_direct =
    Sum_k Tr(P_k^2 rho) = q, within 2 n u max(1, q) for n effects (measured at
    most 0.89 n u max(1, q), at mub2).  A squares block that is stale, or
    read from the wrong effects, moves the sum far more."""
    family = make(d)
    evaluator = DirectEvaluator(family)
    q = (d + 1) * family.parameter if family.kind in MUM_KINDS else d * family.parameter
    bound = 2 * len(family.effects) * 2.0**-53 * max(1.0, q)
    batch = np.concatenate([*density_batches(d, 1, 18, 40), *density_batches(d, d, 19, 40)])
    for per_block in (1, 3, None):  # one effect, three effects, the default block
        with monkeypatch.context() as patched:
            if per_block is not None:
                patched.setattr(invariants, "BLOCK_BYTES", per_block * 16 * d * d)
            reports = evaluator.report_many(batch)
        free = np.asarray(reports.negatives_clamped) == 0
        assert free.sum() > len(batch) // 2
        errors = np.abs(reports.V_direct + reports.C_direct - q)[free]
        assert errors.max() <= bound, (per_block, errors.max() / bound)


@pytest.mark.parametrize("kind, d, make", REPORT_FAMILIES,
                         ids=[f"{kind}{d}" for kind, d, _ in REPORT_FAMILIES])
def test_a_non_contiguous_effect_stack_reads_as_its_contiguous_copy(kind, d, make):
    family = make(d)
    fortran = dataclasses.replace(family, effects=np.asfortranarray(family.effects))
    deviations = verify(family).deviations
    assert list(verify(fortran).deviations.items()) == list(deviations.items())
    batch = np.concatenate([*density_batches(d, 1, 14, 5), *density_batches(d, d, 15, 5)])
    reports = DirectEvaluator(family).report_many(batch)
    fortran_reports = DirectEvaluator(fortran).report_many(batch)
    assert ([fields(fortran_reports.row(i)) for i in range(len(batch))]
            == [fields(reports.row(i)) for i in range(len(batch))])


def test_report_many_of_no_states_is_empty():
    reports = DirectEvaluator(build_mum(3, "auto")).report_many(np.empty((0, 3, 3), complex))
    assert len(reports.purity) == 0


def test_report_rejects_degenerate_family():
    with pytest.raises(VerificationError):
        DirectEvaluator(degenerate_family("mum", 2)).report(maximally_mixed(2))


def test_report_dimension_mismatch():
    with pytest.raises(DomainError):
        DirectEvaluator(build_mum(2, "auto")).report(maximally_mixed(3))
