"""Hypothesis properties of the verification and the reconciliation.

The defining conditions of MUMs and general SIC measurements involve only
traces of products of effects, so they are invariant under P -> U P U^dag
for any unitary U (Kalev & Gour, NJP 16, 053038, 2014).  The
Brukner-Zeilinger balance I + U = V_max - V_min holds for every state.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bzinfo import (
    DirectEvaluator,
    build_gsm,
    build_mub,
    build_mum,
    max_t_gsm,
    max_t_mum,
    random_density,
    sic2_fixture,
    verify,
)
from bzinfo.invariants import reconcile
from conftest import effects_of, random_unitary, with_effects

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**64 - 1)


@lru_cache(maxsize=None)
def family(kind, d, fraction=1.0):
    """A family of this kind, its sharpness t the given fraction of the positivity bound."""
    if kind == "mum":
        return build_mum(d, fraction * max_t_mum(d))
    if kind == "gsm":
        return build_gsm(d, fraction * max_t_gsm(d))
    if kind == "mub":
        return build_mub(d)
    return sic2_fixture()


FAMILIES = st.one_of(
    st.tuples(st.sampled_from(["mum", "gsm"]), st.integers(2, 5), st.sampled_from([1.0, 0.5, 0.1])),
    st.tuples(st.just("mub"), st.sampled_from([2, 3, 5])),
    st.just(("sic2", 2)),
)


@SETTINGS
@given(FAMILIES, SEEDS, st.integers(1, 5))
def test_a_unitarily_rotated_family_verifies_and_reconciles(spec, seed, rank):
    base = family(*spec)
    d = base.dim
    u = random_unitary(d, np.random.Generator(np.random.Philox(seed)))
    rotated = with_effects(base, u @ effects_of(base) @ u.conj().T)
    report = verify(rotated, 1e-10)
    assert report.passed, report.summary()
    rho = random_density(d, min(rank, d), seed)
    assert DirectEvaluator(rotated).report(rho).max_abs_discrepancy < 1e-9


@lru_cache(maxsize=None)
def evaluators(d):
    return DirectEvaluator(family("mum", d)), DirectEvaluator(family("gsm", d))


@SETTINGS
@given(st.integers(2, 8), st.integers(1, 8), SEEDS)
def test_random_states_satisfy_the_balance(d, rank, seed):
    rho = random_density(d, min(rank, d), seed)
    for evaluator in evaluators(d):
        r = evaluator.report(rho)
        spread = r.V_max - r.V_min
        assert abs(r.I_direct + r.U_direct - spread) <= 1e-12 * r.V_max
        assert abs(r.I_closed + r.U_closed - spread) <= 1e-12 * r.V_max


@lru_cache(maxsize=None)
def evaluator(spec):
    return DirectEvaluator(family(*spec))


@SETTINGS
@given(FAMILIES, SEEDS, st.integers(1, 5))
def test_reconcile_rebuilds_every_report_exactly(spec, seed, rank):
    ev = evaluator(spec)
    r = ev.report(random_density(ev.dim, min(rank, ev.dim), seed))
    assert reconcile(r.kind, r.dim, r.parameter, r.purity, r.C_direct, r.V_direct,
                     r.negatives_clamped) == r
