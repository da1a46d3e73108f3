"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Closed-form targets are spelled out inline rather than routed through the
library's own closed_forms, so every comparison here is a genuine
cross-check of the direct evaluation path.  Run with -s to see the lines.
"""

import dataclasses
import json

import numpy as np
import pytest

from bzinfo import (
    DirectEvaluator,
    PositivityError,
    build_gsm,
    build_mub,
    build_mum,
    decode,
    encode,
    estimate_bz_info,
    estimate_coincidence,
    max_t_gsm,
    max_t_mum,
    maximally_mixed,
    purity,
    random_density,
    sample_outcomes,
    sic2_fixture,
    verify,
)
from bzinfo.cli import main as cli_main

from conftest import effects_of, generator_stack
from test_measurements import bisect_max_t

DIMS = range(2, 9)
FRACS = (0.25, 0.5, 1.0)
N_STATES = 100


def total_variance_direct(evaluator, rho):
    return evaluator.report(rho).V_direct


def coincidence_direct(evaluator, rho):
    return float((evaluator.probs(rho) ** 2).sum())


def _criterion(num, desc, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


@dataclasses.dataclass
class Cell:
    d: int
    frac: float
    mset: object
    gset: object
    purities: np.ndarray
    mum_v: np.ndarray
    gsm_v: np.ndarray
    mum_c: np.ndarray
    gsm_c: np.ndarray
    mum_v_star: float
    gsm_v_star: float
    mum_c_star: float
    gsm_c_star: float


@pytest.fixture(scope="module")
def cells():
    out = []
    for d in DIMS:
        mum_bound = max_t_mum(d)
        gsm_bound = max_t_gsm(d)
        states = [random_density(d, d, 10_000 * d + i) for i in range(N_STATES)]
        purities = np.array([purity(rho) for rho in states])
        star = maximally_mixed(d)
        for frac in FRACS:
            mset = build_mum(d, frac * mum_bound)
            gset = build_gsm(d, frac * gsm_bound)
            mum, gsm = DirectEvaluator(mset), DirectEvaluator(gset)
            out.append(
                Cell(
                    d=d,
                    frac=frac,
                    mset=mset,
                    gset=gset,
                    purities=purities,
                    mum_v=np.array([total_variance_direct(mum, r) for r in states]),
                    gsm_v=np.array([total_variance_direct(gsm, r) for r in states]),
                    mum_c=np.array(
                        [coincidence_direct(mum, r) for r in states]
                    ),
                    gsm_c=np.array(
                        [coincidence_direct(gsm, r) for r in states]
                    ),
                    mum_v_star=total_variance_direct(mum, star),
                    gsm_v_star=total_variance_direct(gsm, star),
                    mum_c_star=coincidence_direct(mum, star),
                    gsm_c_star=coincidence_direct(gsm, star),
                )
            )
    return out


def test_criterion_1_mum_construction(cells):
    worst_condition = 0.0
    worst_kappa = 0.0
    for cell in cells:
        d, mset = cell.d, cell.mset
        report = verify(mset, 1e-10)
        for name in ("effect_trace", "cross_overlap", "within_overlap_diag", "within_overlap_offdiag"):
            worst_condition = max(worst_condition, report.deviations[name])
        formula = 1 / d + mset.t**2 * (1 + np.sqrt(d)) ** 2 * (d - 1)
        worst_kappa = max(worst_kappa, abs(mset.parameter - formula))
    _criterion(
        1,
        f"MUM defining conditions (worst {worst_condition:.2e} < 1e-10), "
        f"kappa formula (worst {worst_kappa:.2e} < 1e-12), d=2..8, t/t_max in {FRACS}",
        worst_condition < 1e-10 and worst_kappa < 1e-12,
    )


def test_criterion_2_gsm_construction(cells):
    worst_condition = 0.0
    worst_a = 0.0
    for cell in cells:
        d, gset = cell.d, cell.gset
        report = verify(gset, 1e-10)
        for name in ("self_overlap", "pair_overlap", "completeness"):
            worst_condition = max(worst_condition, report.deviations[name])
        formula = 1 / d**3 + gset.t**2 * (d - 1) * (d + 1) ** 3
        worst_a = max(worst_a, abs(gset.parameter - formula))
    _criterion(
        2,
        f"general SIC defining conditions (worst {worst_condition:.2e} < 1e-10), "
        f"a formula (worst {worst_a:.2e} < 1e-12)",
        worst_condition < 1e-10 and worst_a < 1e-12,
    )


def test_criterion_3_total_variance_closed_forms(cells):
    worst = 0.0
    for cell in cells:
        d, p = cell.d, cell.purities
        mum_target = (cell.mset.parameter * d - 1) / (d - 1) * (d - p)
        gsm_target = (cell.gset.parameter * d**3 - 1) / (d * (d * d - 1)) * (d - p)
        worst = max(
            worst,
            np.abs(cell.mum_v - mum_target).max(),
            np.abs(cell.gsm_v - gsm_target).max(),
        )
    _criterion(
        3,
        f"total variance matches closed forms over {len(cells) * N_STATES * 2} "
        f"(family, state) pairs (worst {worst:.2e} < 1e-9)",
        worst < 1e-9,
    )


def test_criterion_4_coincidence_identities(cells):
    worst_mum = 0.0
    worst_gsm = 0.0
    for cell in cells:
        d, p = cell.d, cell.purities
        kappa, a = cell.mset.parameter, cell.gset.parameter
        mum_target = ((kappa * d - 1) * (d * p - 1) + d * d - 1) / (d * (d - 1))
        gsm_target = ((a * d**3 - 1) * p + d * (1 - a * d)) / (d * (d * d - 1))
        worst_mum = max(worst_mum, np.abs(cell.mum_c - mum_target).max())
        worst_gsm = max(worst_gsm, np.abs(cell.gsm_c - gsm_target).max())
    worst_mub = 0.0
    for d in (2, 3, 5, 7):
        mub = DirectEvaluator(build_mub(d))
        for i in range(20):
            rho = random_density(d, d, 777 * d + i)
            c = coincidence_direct(mub, rho)
            worst_mub = max(worst_mub, abs(c - (1 + purity(rho))))
    _criterion(
        4,
        f"coincidence identities: MUM (worst {worst_mum:.2e}), "
        f"MUB 1 + purity (worst {worst_mub:.2e}), "
        f"general SIC squared-mean sum (worst {worst_gsm:.2e}), all < 1e-9",
        max(worst_mum, worst_gsm, worst_mub) < 1e-9,
    )


def test_criterion_5_information_balance(cells):
    # variance route vs coincidence route to the same invariant information
    worst_route = 0.0
    worst_star = 0.0
    for cell in cells:
        d = cell.d
        mum_pref = (cell.mset.parameter * d - 1) / (d - 1)
        gsm_pref = (cell.gset.parameter * d**3 - 1) / (d * (d * d - 1))
        for pref, v, v_star, c, c_star in (
            (mum_pref, cell.mum_v, cell.mum_v_star, cell.mum_c, cell.mum_c_star),
            (gsm_pref, cell.gsm_v, cell.gsm_v_star, cell.gsm_c, cell.gsm_c_star),
        ):
            v_max = pref * (d - 1 / d)
            v_min = pref * (d - 1)
            info_variance = v_max - v
            info_coincidence = c - c_star
            uncertainty = v - v_min
            worst_route = max(
                worst_route,
                np.abs(info_variance - info_coincidence).max(),
                np.abs((info_variance + uncertainty) - (v_max - v_min)).max(),
            )
            worst_star = max(worst_star, abs(v_max - v_star))
    worst_pure = 0.0
    for d in (2, 3, 5, 7):
        mub = DirectEvaluator(build_mub(d))
        v_max = (d + 1) / d * (d - 1)  # kappa = 1
        for i in range(10):
            rho = random_density(d, 1, 55 * d + i)
            info = v_max - total_variance_direct(mub, rho)
            worst_pure = max(worst_pure, abs(info - (1 - 1 / d)))
    _criterion(
        5,
        f"information balance: variance vs coincidence route (worst {worst_route:.2e} < 1e-9), "
        f"zero at the maximally mixed state (worst {worst_star:.2e} < 1e-10), "
        f"1 - 1/d at pure states with unit kappa (worst {worst_pure:.2e} < 1e-9)",
        worst_route < 1e-9 and worst_star < 1e-10 and worst_pure < 1e-9,
    )


def test_criterion_6_exact_anchors():
    # independent oracles first: bisection on the PSD predicate
    mum_oracle = bisect_max_t(generator_stack("mum", 2), 1 / 2)
    gsm_oracle = bisect_max_t(generator_stack("gsm", 2), 1 / 4, hi=0.5)
    mum_t = max_t_mum(2)
    gsm_t = max_t_gsm(2)
    checks = {
        "mum bisection": abs(mum_t - mum_oracle),
        "mum t_max": abs(mum_t - (2 - np.sqrt(2)) / 2),
        "mum kappa": abs(build_mum(2, "auto").parameter - 1.0),
        "gsm bisection": abs(gsm_t - gsm_oracle),
        "gsm t_max": abs(gsm_t - 1 / (6 * np.sqrt(6))),
        "gsm a": abs(build_gsm(2, "auto").parameter - 0.25),
    }
    sic = sic2_fixture()
    overlaps = np.einsum("aij,bji->ab", effects_of(sic), effects_of(sic)).real
    off_diag = overlaps[~np.eye(4, dtype=bool)]
    checks["sic2 vector overlap"] = float(np.abs(4 * off_diag - 1 / 3).max())
    worst = max(checks.values())
    _criterion(
        6,
        "exact anchors for d=2: t_max = (2 - sqrt(2))/2 with kappa = 1, "
        f"t_max = 1/(6 sqrt(6)) with a = 1/4, tetrahedron overlap 1/3 (worst {worst:.2e} < 1e-12)",
        worst < 1e-12,
    )


def test_criterion_7_t_maximality():
    ok = True
    for d in DIMS:
        try:
            build_mum(d, 1.000001 * max_t_mum(d))
            ok = False
        except PositivityError:
            pass
        try:
            build_gsm(d, 1.000001 * max_t_gsm(d))
            ok = False
        except PositivityError:
            pass
    _criterion(
        7,
        "building at 1.000001 * t_max fails positivity for every d in 2..8, both families",
        ok,
    )


def test_criterion_8_sampler_statistics():
    shots = 10**5
    coverage_ok = True
    results = []
    for d in (2, 3):
        mub = build_mub(d)
        evaluator = DirectEvaluator(mub)
        for label, rho in (
            ("pure", random_density(d, 1, 4242 + d)),
            ("mixed", maximally_mixed(d)),
        ):
            true_info = purity(rho) - 1 / d  # unit-kappa closed form
            hits = 0
            for run in range(100):
                seed = 1_000_000 * d + 1000 * (label == "pure") + run
                table = sample_outcomes(evaluator, rho, shots, seed)
                estimate, std_error = estimate_bz_info(evaluator, table, seed)
                if abs(estimate - true_info) <= 3 * std_error:
                    hits += 1
            results.append(f"d={d} {label}: {hits}/100")
            coverage_ok = coverage_ok and hits >= 95

    unbias_ok = True
    for d in (2, 3):
        families = [build_mum(d, "auto"), build_gsm(d, "auto"), build_mub(d)]
        if d == 2:
            families.append(sic2_fixture())
        for family in families:
            rho = random_density(d, d, 31 * d)
            evaluator = DirectEvaluator(family)
            c_direct = coincidence_direct(evaluator, rho)
            estimates = np.array(
                [
                    estimate_coincidence(sample_outcomes(evaluator, rho, 100, seed=2000 + i))
                    for i in range(1000)
                ]
            )
            standard_error = estimates.std(ddof=1) / np.sqrt(estimates.size)
            unbias_ok = unbias_ok and abs(estimates.mean() - c_direct) < 4 * standard_error
    _criterion(
        8,
        f"sampler: 3-sigma coverage {', '.join(results)} (all >= 95), "
        "collision estimator unbiased within 4 standard errors for every family kind",
        coverage_ok and unbias_ok,
    )


def test_criterion_9_serialization(tmp_path):
    entities = []
    for i in range(25):
        d = 2 + i % 5
        entities.append(build_mum(d, (0.3 + 0.07 * (i % 10)) * max_t_mum(d)))
    for i in range(25):
        d = 2 + i % 5
        entities.append(build_gsm(d, (0.2 + 0.08 * (i % 10)) * max_t_gsm(d)))
    entities += [build_mub(d) for d in (2, 3, 5, 7, 2, 3, 5, 7, 2, 3)]
    entities += [sic2_fixture() for _ in range(5)]
    entities += [random_density(2 + i % 7, 1 + i % (2 + i % 7), i) for i in range(20)]
    entities += [
        DirectEvaluator(build_mum(2 + i % 4, "auto")).report(random_density(2 + i % 4, 2 + i % 4, i))
        for i in range(10)
    ]
    mub3 = DirectEvaluator(build_mub(3))
    entities += [sample_outcomes(mub3, random_density(3, 3, i), 50, seed=i) for i in range(5)]
    assert len(entities) == 100

    ok = True
    for entity in entities:
        back = decode(encode(entity))
        if hasattr(entity, "rows"):
            ok = ok and verify(entity, 1e-10).deviations == verify(back, 1e-10).deviations
        elif isinstance(entity, np.ndarray):
            ok = ok and bool(np.array_equal(entity, back))
        elif hasattr(entity, "counts"):
            ok = ok and all(
                np.array_equal(a, b) for a, b in zip(entity.counts, back.counts)
            )
        else:
            ok = ok and back == entity

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--dim", "3", "--states", "50", "--seed", "123", "--out"]
    assert cli_main(argv + [str(a)]) == 0
    assert cli_main(argv + [str(b)]) == 0
    reproducible = a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()[1:]
    sweep_ok = len(rows) == 50 and all(
        abs(float(r.split(",")[6]) - float(r.split(",")[7])) < 1e-9 for r in rows
    )
    _criterion(
        9,
        "100 round-trips reproduce verification deviations identically; "
        "sweep CSV byte-identical under a fixed seed",
        ok and reproducible and sweep_ok,
    )
