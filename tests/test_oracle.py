import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinorm_sha.abelian import BudgetExceeded, PGroup, Subgroup
from multinorm_sha.places import Classification
from multinorm_sha.selftest import random_config
from multinorm_sha.oracle import (
    InternalCheckError,
    ShaReport,
    aprime,
    classify,
    classify_fast,
    compute_G_and_Gomega,
    enumerate_members,
    in_diagonal,
    oracle_report,
    quotient_by_D,
    subtorus_groups,
    varpi_r,
)

from conftest import NO_PLACES, abstract_config


def test_rank_three_compositum_collapses():
    # three independent quadratic fields: G = G_omega = D
    cfg = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    g_sub, gw_sub = compute_G_and_Gomega(cfg, NO_PLACES)
    diag = Subgroup.span(g_sub.ambient, [(1, 1)])
    assert g_sub == gw_sub == diag
    assert quotient_by_D(g_sub) == []


def test_paper_17_13(quartic_17_13):
    cfg, local = quartic_17_13
    g_sub, gw_sub = compute_G_and_Gomega(cfg, local)
    assert quotient_by_D(gw_sub) == [2]
    assert quotient_by_D(g_sub) == [1]
    assert gw_sub.order // g_sub.order == 2


def test_paper_17_409(quartic_17_409):
    cfg, local = quartic_17_409
    g_sub, gw_sub = compute_G_and_Gomega(cfg, local)
    assert quotient_by_D(gw_sub) == [2]
    assert quotient_by_D(g_sub) == [2]
    assert g_sub == gw_sub


def test_paper_bicyclic(quartic_bicyclic):
    cfg, local = quartic_bicyclic
    rep = oracle_report(cfg, local)
    assert rep.sha_invariants == (1,)
    assert rep.sha_omega_invariants == (1,)
    assert rep.quotient_invariants == ()


def test_quotient_by_d_cases():
    amb = PGroup(2, (1, 1, 1))
    diag = Subgroup.span(amb, [(1, 1, 1)])
    assert quotient_by_D(diag) == []
    assert quotient_by_D(Subgroup.full(amb)) == [1, 1]
    off = Subgroup.span(amb, [(1, 0, 0)])
    with pytest.raises(InternalCheckError):
        quotient_by_D(off)


def test_budget():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    with pytest.raises(BudgetExceeded):
        compute_G_and_Gomega(cfg, NO_PLACES, budget=8)


def test_varpi_r():
    cfg = abstract_config(
        2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1)), (2, (1, 2))]
    )
    assert cfg.U(1) == (3,)
    assert varpi_r(cfg, (1, 2, 1), 1) == (1,)
    assert varpi_r(cfg, (1, 2, 1), 0) == (1, 2)
    assert varpi_r(cfg, (0, 0, 0), 1) == (0,)
    with pytest.raises(ValueError):
        varpi_r(cfg, (1, 2, 1), 2)


def test_subtorus_groups(quartic_bicyclic):
    cfg, local = quartic_bicyclic
    g1, gw1 = subtorus_groups(cfg, local, 1)
    # U_1 is a single field with e_i = 1: the block group is all of Z/2
    assert gw1.ambient.exponents == (1,)
    assert gw1.order == 2 and g1.order == 2
    with pytest.raises(ValueError):
        subtorus_groups(cfg, local, 2)


def test_aprime_validation(quartic_17_13):
    cfg, local = quartic_17_13
    with pytest.raises(ValueError):
        aprime(cfg, local, (1, 1))  # diagonal
    # an OUTSIDE vector exists in the rank-three quadratic configuration
    cfg3 = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    outside = next(
        a
        for a in PGroup(2, cfg3.eis).elements()
        if classify(cfg3, NO_PLACES, a) is Classification.OUTSIDE
    )
    with pytest.raises(ValueError):
        aprime(cfg3, NO_PLACES, outside)


def test_aprime_fixed_point(quartic_17_13):
    cfg, local = quartic_17_13
    a = (1, 0)
    ap = aprime(cfg, local, a)
    assert aprime(cfg, local, ap) == ap


def test_aprime_preserves_membership(quartic_17_13, quartic_bicyclic):
    for cfg, local in (quartic_17_13, quartic_bicyclic):
        g_members, gw_members = enumerate_members(cfg, local)
        g_set = set(g_members)
        rng = random.Random(0)
        pool = [a for a in gw_members if not in_diagonal(cfg, a)]
        for a in rng.sample(pool, min(6, len(pool))):
            ap = aprime(cfg, local, a)  # postconditions asserted inside
            assert not in_diagonal(cfg, ap)
            assert classify(cfg, local, ap) is not Classification.OUTSIDE
            if a in g_set:
                assert classify(cfg, local, ap) is Classification.IN_G


def test_closure_check_fires_on_inconsistent_input():
    amb = PGroup(2, (1, 1))
    with pytest.raises(InternalCheckError):
        # not a subgroup: {0, e1} plus a stray element
        from multinorm_sha.oracle import _as_subgroup

        _as_subgroup(amb, [(0, 0), (1, 0), (1, 1)])


def test_sha_report_invariant_validation():
    with pytest.raises(ValueError):
        ShaReport((1, 2), (2, 1), None, "oracle")
    with pytest.raises(ValueError):
        ShaReport((2, 2), (2, 1), None, "oracle")
    rep = ShaReport((1,), (2, 1), (1,), "oracle")
    assert rep.sha_omega_invariants == (2, 1)


def _shift(a, c, moduli):
    return tuple((x + c) % q for x, q in zip(a, moduli))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_classification_is_constant_on_diagonal_cosets(seed, data):
    cfg, local = random_config(random.Random(seed))
    for indices in [tuple(range(1, cfg.m + 1))] + [cfg.U(r) for r in cfg.R]:
        moduli = [cfg.p ** cfg.e_i(i) for i in indices]
        a = tuple(data.draw(st.integers(0, q - 1)) for q in moduli)
        c = data.draw(st.integers(1, moduli[0] - 1)) if moduli[0] > 1 else 0
        assert classify_fast(cfg, local, a, indices) is classify_fast(
            cfg, local, _shift(a, c, moduli), indices
        )


def test_enumerate_members_is_the_slice_and_is_cached(quartic_17_13):
    cfg, local = quartic_17_13
    g_members, gw_members = enumerate_members(cfg, local)
    assert all(a[0] == 0 for a in gw_members)
    assert set(g_members) <= set(gw_members)
    assert enumerate_members(cfg, local) is enumerate_members(cfg, local)


def _reference_groups(cfg, local, indices):
    """G and G_omega over an index set, by classifying every vector."""
    ambient = PGroup(cfg.p, tuple(cfg.e_i(i) for i in indices))
    g, gw = [], []
    for a in ambient.elements():
        cls = classify_fast(cfg, local, a, indices)
        if cls is not Classification.OUTSIDE:
            gw.append(a)
        if cls is Classification.IN_G:
            g.append(a)
    g_sub, gw_sub = Subgroup.span(ambient, g), Subgroup.span(ambient, gw)
    assert (g_sub.order, gw_sub.order) == (len(g), len(gw))
    return g_sub, gw_sub


def test_slice_sweep_matches_full_reference_sweep():
    rng = random.Random(20191209)
    checked = 0
    while checked < 200:
        cfg, local = random_config(rng)
        if not local.exceptional:
            continue
        checked += 1
        g_ref, gw_ref = _reference_groups(cfg, local, range(1, cfg.m + 1))
        assert compute_G_and_Gomega(cfg, local) == (g_ref, gw_ref)
        rep = oracle_report(cfg, local)
        assert rep.sha_invariants == tuple(quotient_by_D(g_ref))
        assert rep.sha_omega_invariants == tuple(quotient_by_D(gw_ref))
        assert rep.quotient_invariants == tuple(gw_ref.invariants_mod(g_ref))
        for r in cfg.R:
            assert subtorus_groups(cfg, local, r) == _reference_groups(
                cfg, local, cfg.U(r)
            )


def test_budget_counts_the_whole_ambient_before_the_cache(quartic_17_13):
    cfg, local = quartic_17_13
    enumerate_members(cfg, local)  # fills the cache
    full = PGroup(cfg.p, cfg.eis).order
    with pytest.raises(BudgetExceeded):
        enumerate_members(cfg, local, budget=full - 1)
    enumerate_members(cfg, local, budget=full)


def test_chain_check_fires_when_zero_is_not_in_G(monkeypatch, quartic_17_13):
    import multinorm_sha.oracle as oracle

    cfg, local = quartic_17_13
    g_members, gw_members = enumerate_members(cfg, local)
    monkeypatch.setattr(
        oracle, "enumerate_members", lambda *a, **k: (g_members[1:], gw_members)
    )
    with pytest.raises(InternalCheckError):
        oracle_report(cfg, local)
