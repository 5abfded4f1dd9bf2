import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multinorm_sha.abelian import (
    BudgetExceeded,
    Character,
    PGroup,
    Subgroup,
    hermite_normal_form,
    intersect,
    valuation,
)
from multinorm_sha.fields import FieldConfig, ShaInputError, validate_and_normalize
from multinorm_sha.places import (
    Classification,
    LocalData,
    Place,
    fail_set,
    generic_place_candidates,
    sigma_threshold,
)
from multinorm_sha.selftest import (
    _patchable,
    _sample_outside_diagonal,
    random_config,
    run_selftest,
)
from multinorm_sha.oracle import (
    InternalCheckError,
    ShaReport,
    _no_new_failures,
    aprime,
    classify,
    compute_G_and_Gomega,
    enumerate_members,
    in_diagonal,
    oracle_report,
    _engine,
    _pair_levels,
    quotient_by_D,
    subtorus_groups,
)
from multinorm_sha.structure import assemble

from conftest import NO_PLACES, abstract_config, perfbench_workloads
from oracle_reference import (
    SweepContext,
    as_subgroup,
    pair_system_groups,
    reference_aprime,
    reference_congruences,
    reference_groups,
    signature_thresholds,
)
from structure_reference import reference_kernel_at_level


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


def test_report_spans_the_diagonal_once(monkeypatch, quartic_17_13):
    # one D for both quotients, written down with no Hermite form; the chain
    # D <= G <= G_omega is checked before
    from multinorm_sha import oracle

    cfg, local = quartic_17_13
    spans, diagonals = [], []
    span = Subgroup.span.__func__
    diagonal = oracle._diagonal

    def counted(cls, ambient, gens):
        spans.append(list(gens))
        return span(cls, ambient, gens)

    monkeypatch.setattr(Subgroup, "span", classmethod(counted))
    monkeypatch.setattr(oracle, "_diagonal", lambda amb: diagonals.append(amb) or diagonal(amb))
    rep = oracle_report(cfg, local)
    assert spans == []
    assert diagonals == [PGroup(cfg.p, cfg.eis)]
    assert (rep.sha_invariants, rep.sha_omega_invariants) == ((1,), (2,))


def test_diagonal_is_its_span():
    # D's Hermite basis, written down, is the one the span computes
    from itertools import combinations_with_replacement

    from multinorm_sha.oracle import _diagonal

    groups = 0
    for p in (2, 3, 5, 7):
        for rank in range(1, 6):
            for exps in combinations_with_replacement(range(6, 0, -1), rank):
                amb = PGroup(p, exps)
                assert _diagonal(amb) == Subgroup.span(amb, [(1,) * rank]), amb
                groups += 1
    assert groups == 1844


def test_budget():
    # the groups are written down whatever the ambient; only the listing
    # reference refuses an ambient above its budget
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    g_sub, gw_sub = compute_G_and_Gomega(cfg, NO_PLACES)
    assert g_sub.ambient.order == 16
    with pytest.raises(BudgetExceeded):
        enumerate_members(cfg, NO_PLACES, budget=8)


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
            ap = aprime(cfg, local, a)  # postconditions checked inside
            assert not in_diagonal(cfg, ap)
            assert fail_set(cfg, local, ap) <= fail_set(cfg, local, a)
            assert classify(cfg, local, ap) is not Classification.OUTSIDE
            if a in g_set:
                assert classify(cfg, local, ap) is Classification.IN_G


def _outcome(f, cfg, local, a):
    try:
        return f(cfg, local, a)
    except (ValueError, InternalCheckError) as exc:
        return type(exc), str(exc)


def test_aprime_matches_the_two_pass_reference():
    # the one-pass aprime against the former one on vectors of G_omega off
    # the diagonal, diagonal vectors and vectors of the whole ambient
    rng = random.Random(29)
    kinds = {"answer": 0, "diagonal": 0, "outside": 0}
    vectors = 0
    while vectors < 2_400:
        cfg, local = random_config(rng)
        gw_sub = compute_G_and_Gomega(cfg, local)[1]
        moduli = gw_sub.ambient.moduli
        c = rng.randrange(moduli[0])
        batch = _sample_outside_diagonal(rng, gw_sub, 3) + [
            tuple(c % q for q in moduli),
            tuple(rng.randrange(q) for q in moduli),
            tuple(rng.randrange(q) for q in moduli),
        ]
        for a in batch:
            got = _outcome(aprime, cfg, local, a)
            assert got == _outcome(reference_aprime, cfg, local, a), (cfg, local, a)
            if isinstance(got[0], type):
                kinds["diagonal" if "diagonal" in got[1] else "outside"] += 1
            else:
                kinds["answer"] += 1
            vectors += 1
    assert min(kinds.values()) > 100, kinds


def test_closure_check_fires_on_inconsistent_input():
    amb = PGroup(2, (1, 1))
    with pytest.raises(InternalCheckError):
        # not a subgroup: {0, e1} plus a stray element
        as_subgroup(amb, [(0, 0), (1, 0), (1, 1)])


def test_sha_report_invariant_validation():
    # a route whose report breaks these checks is broken itself (exit 5)
    with pytest.raises(InternalCheckError):
        ShaReport((1, 2), (2, 1), None, "oracle")
    with pytest.raises(InternalCheckError):
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
        assert classify(cfg, local, a, indices) is classify(
            cfg, local, _shift(a, c, moduli), indices
        )


def test_enumerate_members_is_the_slice(quartic_17_13):
    cfg, local = quartic_17_13
    g_members, gw_members = enumerate_members(cfg, local)
    assert all(a[0] == 0 for a in gw_members)
    assert set(g_members) <= set(gw_members)


def _listed_patchable(slice_members, cfg, r, k):
    """The patchable count from the listed slice of a block group: its
    members x = 0 mod p^k, times the p^max(0, e - k) such vectors of D_r
    except for block U_0."""
    p = cfg.p
    count = sum(1 for x in slice_members if all(c % p ** k == 0 for c in x))
    if r == 0:
        return count
    return count * p ** max(0, cfg.e_i(cfg.U(r)[0]) - k)


def test_patchable_counts_match_the_listed_counts():
    rng = random.Random(16)
    cases = 0
    for _ in range(600):
        cfg, local = random_config(rng)
        eps0 = cfg.eps[0]
        for r in cfg.R:
            groups = subtorus_groups(cfg, local, r)
            listed = enumerate_members(cfg, local, indices=cfg.U(r))
            for d in range(r, eps0 + 1):
                for group, members in zip(groups, listed):
                    k = eps0 - d
                    assert _patchable(group, r, k) == _listed_patchable(members, cfg, r, k)
                    cases += 1
    assert cases > 3000


def test_random_config_stream_is_pinned():
    # which configs a seed yields: the selftest's runs, the benchmark's
    # selftest digest and every failure report a user quotes depend on it,
    # so a change to the stream must be deliberate and change this value
    import hashlib

    from multinorm_sha.selftest import describe_config

    text = "".join(
        describe_config(*random_config(rng)) + "\n\n"
        for rng in (random.Random(s) for s in range(10))
        for _ in range(25)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "619cb05c516f7dc3b03e894fdb8fa42679e2e36d1bfee04f8df61d5f83b25d6a"
    )


def test_selftest_config_stream_is_pinned(monkeypatch):
    # which configs `selftest --seed s --count 25` checks, s = 0..9: run_selftest
    # draws each trial's a' samples from the rng it draws the configs from, so
    # most of them are not the back-to-back draws pinned above
    import hashlib

    import multinorm_sha.selftest as selftest

    texts = []

    def recording(rng):
        cfg, local = random_config(rng)
        texts.append(selftest.describe_config(cfg, local) + "\n\n")
        return cfg, local

    monkeypatch.setattr(selftest, "random_config", recording)
    for s in range(10):
        assert run_selftest(s, 25).ok
    assert len(texts) == 250
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "ec04d768a1f8b28137a9cfe569985a56bc1207e3144be0e71d39e5b446c9560d"
    )


def test_random_config_builds_only_the_configs_it_returns(monkeypatch):
    # a draw is decided on its rows (fields.normalize_rows), so a selftest
    # round builds one group per config it keeps; refused and chased draws
    # build none
    import multinorm_sha.selftest as selftest

    built = []

    def counting_pgroup(*args):
        built.append(args)
        return PGroup(*args)

    monkeypatch.setattr(selftest, "PGroup", counting_pgroup)
    for s in range(10):
        assert run_selftest(s, 25).ok
    assert len(built) == 250


def test_random_config_hands_over_the_normalization(monkeypatch):
    # every config random_config returns is what validate_and_normalize
    # makes of its draws, and every draw defines a map onto its target,
    # whether normalization keeps it or refuses it
    import multinorm_sha.selftest as selftest

    drawn = []

    def recording(make):
        def draw(rng, p, exps, nfields):
            draws = make(rng, p, exps, nfields)
            if draws is not None:
                drawn.append((p, tuple(exps), draws))
            return draws
        return draw

    for name in ("_generic_characters", "_block_characters"):
        monkeypatch.setattr(selftest, name, recording(getattr(selftest, name)))
    rng = random.Random(31)
    for _ in range(500):
        cfg, _local = random_config(rng)
        p, exps, draws = drawn[-1]
        group = PGroup(p, exps)
        raw = FieldConfig(group, tuple(Character(group, e, c) for e, c in draws), ())
        want = validate_and_normalize(raw)
        assert (cfg.group, cfg.chars, cfg.permutation, cfg.labels, cfg.eij, cfg.R) == (
            want.group, want.chars, want.permutation, want.labels, want.eij, want.R
        )
    assert len(drawn) > 2_000
    for p, exps, draws in drawn:
        group = PGroup(p, exps)
        for eps, coeffs in draws:
            assert Character(group, eps, coeffs).is_surjective(), (p, exps, eps, coeffs)


def test_sampler_draws_like_rng_sample_on_the_listed_vectors():
    rng = random.Random(5)
    for _ in range(200):
        cfg, local = random_config(rng)
        _, gw_sub = compute_G_and_Gomega(cfg, local)
        _, gw_members = enumerate_members(cfg, local)
        n = cfg.p ** cfg.e_i(1) * (len(gw_members) - 1)
        twin = random.Random()
        twin.setstate(rng.getstate())
        twin.sample(range(n), min(4, n))
        drawn = _sample_outside_diagonal(rng, gw_sub, 4)
        assert rng.getstate() == twin.getstate()
        assert len(drawn) == min(4, n) == len(set(drawn))
        members = set(gw_members)
        for a in drawn:
            assert not in_diagonal(cfg, a)
            assert _shift(a, -a[0], gw_sub.ambient.moduli) in members


def test_sampler_reaches_every_vector_outside_the_diagonal():
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        cfg, local = random_config(rng)
        _, gw_sub = compute_G_and_Gomega(cfg, local)
        _, gw_members = enumerate_members(cfg, local)
        moduli = gw_sub.ambient.moduli
        want = {_shift(s, c, moduli) for s in gw_members if any(s) for c in range(moduli[0])}
        if not 0 < len(want) <= 2000:
            continue
        checked += 1
        assert set(_sample_outside_diagonal(random.Random(0), gw_sub, len(want))) == want


def test_sampler_draws_nothing_when_G_omega_is_D():
    cfg = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    _, gw_sub = compute_G_and_Gomega(cfg, NO_PLACES)
    rng, twin = random.Random(3), random.Random(3)
    assert _sample_outside_diagonal(rng, gw_sub, 4) == []
    twin.sample(range(0), 0)
    assert rng.getstate() == twin.getstate()


def _reference_groups(cfg, local, indices):
    """G and G_omega over an index set, by sweeping every vector."""
    ambient = PGroup(cfg.p, tuple(cfg.e_i(i) for i in indices))
    ctx = SweepContext(cfg, local, indices)
    g, gw = [], []
    for a in ambient.elements():
        cls = ctx.classify(a)
        if cls is not Classification.OUTSIDE:
            gw.append(a)
        if cls is Classification.IN_G:
            g.append(a)
    return as_subgroup(ambient, g), as_subgroup(ambient, gw)


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


def test_engine_spans_one_group_when_the_lists_match(monkeypatch):
    # G is spanned once and serves as G_omega exactly when no exceptional
    # place raises a pair level; the report matches the three quotients on
    # every config, with or without exceptional places
    import multinorm_sha.oracle as oracle

    spans = []
    tree_group = oracle._tree_group
    monkeypatch.setattr(
        oracle, "_tree_group", lambda *args, **kw: spans.append(args) or tree_group(*args, **kw)
    )
    rng = random.Random(31)
    shared = place_free = 0
    for _ in range(300):
        cfg, local = random_config(rng)  # a fresh config: an empty memo
        spans.clear()
        eng = _engine(cfg, local)
        equal = eng.g == eng.omega
        assert len(spans) == (1 if equal else 2), (cfg, local)
        assert (eng.groups[0] is eng.groups[1]) is equal, (cfg, local)
        g_sub, gw_sub = eng.groups
        rep = oracle_report(cfg, local)
        assert rep.sha_invariants == tuple(quotient_by_D(g_sub))
        assert rep.sha_omega_invariants == tuple(quotient_by_D(gw_sub))
        assert rep.quotient_invariants == tuple(gw_sub.invariants_mod(g_sub))
        shared += equal
        place_free += not local.exceptional
    assert shared > 150 and 300 - shared > 50 and place_free > 40, (shared, place_free)


def test_classify_refuses_a_vector_of_another_length(quartic_17_13):
    cfg, local = quartic_17_13
    assert cfg.m == 2
    assert classify(cfg, local, (0, 0)) is Classification.IN_G
    for vec in ((0,), (0, 0, 0), (1, 1, 5)):
        with pytest.raises(ValueError, match="rank 2"):
            classify(cfg, local, vec)


def test_selftest_leaves_no_group_objects_alive():
    # thresholds and pass groups live in their config: once a run is over,
    # no character, subgroup or config of it is reachable
    code = (
        "import gc\n"
        "from multinorm_sha.abelian import Character, Subgroup\n"
        "from multinorm_sha.fields import NormalizedConfig\n"
        "from multinorm_sha.selftest import run_selftest\n"
        "assert run_selftest(0, 50).ok\n"
        "gc.collect()\n"
        "kinds = (Character, Subgroup, NormalizedConfig)\n"
        "print(sum(isinstance(o, kinds) for o in gc.get_objects()))\n"
    )
    import multinorm_sha

    src = str(Path(multinorm_sha.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.split() == ["0"]


def test_budget_counts_the_whole_ambient_before_the_cache(quartic_17_13):
    cfg, local = quartic_17_13
    enumerate_members(cfg, local)  # fills the engine's group cache
    full = PGroup(cfg.p, cfg.eis).order
    with pytest.raises(BudgetExceeded):
        enumerate_members(cfg, local, budget=full - 1)
    enumerate_members(cfg, local, budget=full)


def test_chain_check_fires_when_zero_is_not_in_G(monkeypatch, quartic_17_13):
    import multinorm_sha.oracle as oracle

    # a trivial G, without the diagonal
    def trivial(ambient, congruences, first_zero=False):
        return Subgroup.trivial(ambient)

    cfg, local = quartic_17_13
    monkeypatch.setattr(oracle, "_tree_group", trivial)
    with pytest.raises(InternalCheckError, match="D <= G"):
        oracle_report(cfg, local)


def test_engine_matches_reference_sweep():
    # G, G_omega and every block against the sweep, on 1,000 configs; on
    # small ambients, classify on every vector too
    vectors = 0
    for seed in (0, 7):
        rng = random.Random(seed)
        for _ in range(500):
            cfg, local = random_config(rng)
            assert compute_G_and_Gomega(cfg, local) == reference_groups(cfg, local)
            for r in cfg.R:
                assert subtorus_groups(cfg, local, r) == reference_groups(
                    cfg, local, cfg.U(r)
                )
            ambient = PGroup(cfg.p, cfg.eis)
            if ambient.order <= 256:
                ctx = SweepContext(cfg, local, range(1, cfg.m + 1))
                for a in ambient.elements():
                    assert classify(cfg, local, a) is ctx.classify(a), (cfg, local, a)
                vectors += ambient.order
    assert vectors > 30_000


def _valuation(p, x, cap):
    v = 0
    while v < cap and x % p ** (v + 1) == 0:
        v += 1
    return v


def test_signature_threshold_is_sigma_threshold():
    # on every cyclic subgroup <g> of 300 configs, through every generator g
    rng = random.Random(3)
    subgroups = 0
    for _ in range(300):
        cfg, _local = random_config(rng)
        group = cfg.group
        seen = {sub.basis for sub in generic_place_candidates(cfg)}
        for g in group.elements():
            sub = Subgroup.span(group, [g])
            s = tuple(_valuation(cfg.p, chi.value(g), chi.exponent) for chi in cfg.chars)
            want = tuple(sigma_threshold(cfg, sub, i) for i in range(1, cfg.m + 1))
            assert signature_thresholds(cfg, s) == want, (cfg, g)
            seen.discard(sub.basis)
        assert not seen
        subgroups += len(generic_place_candidates(cfg))
    assert subgroups > 5_000


def test_image_level_matches_intersection_reference():
    # chi_0 of S cap ker psi_1 cap ... from the Hermite form of the image of
    # S, against the intersection of the reference kernels: S = A, an
    # exceptional place's group or a random subgroup, with 0 to 3 kernels
    rng = random.Random(37)
    seen = set()
    for _ in range(2000):
        cfg, local = random_config(rng)
        chi0, group = cfg.chars[0], cfg.group
        kernels = [rng.choice(cfg.chars[1:]) for _ in range(rng.randint(0, 3))]
        kind = rng.choice(("A", "place", "random"))
        if kind == "place" and local.exceptional:
            sub = rng.choice(local.exceptional).group
        elif kind == "random":
            sub = Subgroup.span(group, [
                tuple(rng.randrange(m) for m in group.moduli) for _ in range(rng.randint(1, 3))
            ])
        else:
            kind, sub = "A", Subgroup.full(group)
        want = sub
        for psi in kernels:
            want = intersect(want, reference_kernel_at_level(psi, psi.exponent))
        values = [chi0.value(row) for row in want.basis]
        level = chi0.exponent - min(
            (valuation(cfg.p, v) for v in values if v), default=chi0.exponent
        )
        gens = None if kind == "A" else sub.basis
        assert chi0.image_level(gens, kernels) == level, (cfg, sub, kernels)
        seen.add((kind, len(kernels)))
    assert len(seen) == 12, seen


def _hermite_level(chi0, gens, kernels):
    """image_level as the last pivot of a Hermite form, back-reduced."""
    chars = (*kernels, chi0)
    if gens is None:
        rows = [list(col) for col in zip(*(psi.coeffs for psi in chars))]
    else:
        rows = [[psi.value(g) for psi in chars] for g in gens]
    r = len(chars)
    rows += [[psi.modulus * (s == t) for t in range(r)] for s, psi in enumerate(chars)]
    return chi0.exponent - valuation(chi0.ambient.p, hermite_normal_form(rows, r)[-1][-1])


def _hermite_patchable(group, r, k):
    """_patchable with |H + p^k A_r| from the Hermite form of the join."""
    amb = group.ambient
    q = amb.p ** k
    rows = [[q * (j == l) for j in range(amb.rank)] for l in range(amb.rank)]
    join = Subgroup._span_rows(amb, list(group.basis) + rows)
    count = group.order * prod(m // min(m, q) for m in amb.moduli) // join.order
    return count // amb.p ** max(0, amb.exponents[0] - k) if r == 0 else count


def test_levels_and_patchable_counts_need_no_hermite_form(monkeypatch):
    # image_level and _patchable read the echelon form: with the Hermite
    # form refused they still give its values, on 300 configs
    import multinorm_sha.abelian as abelian

    rng = random.Random(47)
    levels, counts = [], []
    for _ in range(300):
        cfg, local = random_config(rng)
        chi0, group = cfg.chars[0], cfg.group
        kernels = tuple(rng.choice(cfg.chars[1:]) for _ in range(rng.randint(1, 2)))
        random_span = Subgroup.span(group, [
            tuple(rng.randrange(m) for m in group.moduli) for _ in range(rng.randint(1, 3))
        ])
        spans = [None, random_span.basis] + [pl.group.basis for pl in local.exceptional]
        levels += [(chi0, gens, kernels, _hermite_level(chi0, gens, kernels)) for gens in spans]
        for r in cfg.R:
            for block in subtorus_groups(cfg, local, r):
                k = rng.randint(0, cfg.eps[0])
                counts.append((block, r, k, _hermite_patchable(block, r, k)))

    def refuse(*args, **kwargs):
        raise AssertionError("a Hermite form ran")

    monkeypatch.setattr(abelian, "hermite_normal_form", refuse)
    for chi0, gens, kernels, want in levels:
        assert chi0.image_level(gens, kernels) == want, (chi0, gens, kernels)
    for block, r, k, want in counts:
        assert _patchable(block, r, k) == want, (block, r, k)
    assert len(levels) > 700 and len(counts) > 800, (len(levels), len(counts))


def _ladder_configs():
    """The normalized config and places of each oracle-ladder rung, seeds 0
    and 1."""
    from multinorm_sha.cli import parse_document

    out = []
    for seed in (0, 1):
        for _name, doc in perfbench_workloads().ladder_inputs(seed):
            for cfg_raw, local, _budget, _debug in parse_document(doc):
                out.append((validate_and_normalize(cfg_raw), local))
    return out


def test_pass_levels_match_signature_reference():
    # the pair levels from joint kernels against the signature pass, on the
    # full index set and each U_r of 1,000 configs and of the ladder rungs
    configs = _ladder_configs()
    assert len(configs) == 16
    rng = random.Random(13)
    configs += [random_config(rng) for _ in range(1000)]
    engines = 0
    for cfg, local in configs:
        for indices in [tuple(range(1, cfg.m + 1))] + [cfg.U(r) for r in cfg.R]:
            eng = _engine(cfg, local, indices)
            want = reference_congruences(cfg, local, indices)
            assert (eng.omega, eng.g, eng.places) == want, (cfg, local, indices)
            engines += 1
    assert engines > 2_000


def test_tree_groups_match_the_pair_system():
    # G, G_omega and their slices a_1 = 0 along spanning trees against every
    # pair congruence, on the full index set and each U_r of the ladder
    # rungs and of 1,000 configs
    configs = _ladder_configs()
    rng = random.Random(23)
    configs += [random_config(rng) for _ in range(1000)]
    engines = 0
    for cfg, local in configs:
        for indices in [tuple(range(1, cfg.m + 1))] + [cfg.U(r) for r in cfg.R]:
            groups, slices = pair_system_groups(cfg, local, indices)
            assert _engine(cfg, local, indices).groups == groups, (cfg, local, indices)
            assert enumerate_members(cfg, local, indices) == tuple(
                tuple(sorted(s.elements())) for s in slices
            ), (cfg, local, indices)
            engines += 1
    assert engines > 2_000


def test_pair_level_is_eps0_minus_b_brute_force():
    # max over g in A of min(t_i(g), t_j(g)) by signature, and b_ij as the
    # least chi_0-valuation over the listed elements of H_ij, on |A| <= 256
    rng = random.Random(17)
    pairs = 0
    while pairs < 1_000:
        cfg, _local = random_config(rng)
        group = cfg.group
        if group.order > 256:
            continue
        p, eps, chars = cfg.p, cfg.eps, cfg.chars
        elements = list(group.elements())
        thresholds = [
            signature_thresholds(
                cfg, [_valuation(p, chi.value(g), chi.exponent) for chi in chars]
            )
            for g in elements
        ]
        levels = _pair_levels(cfg)
        for i in range(1, cfg.m + 1):
            for j in range(i + 1, cfg.m + 1):
                best = max(min(t[i - 1], t[j - 1]) for t in thresholds)
                b = min(
                    _valuation(p, chars[0].value(g), eps[0])
                    for g in elements
                    if chars[i].value(g) == 0 and chars[j].value(g) == 0
                )
                assert best == eps[0] - b == levels[i, j] == levels[j, i], (cfg, i, j)
                pairs += 1


def test_oracle_answers_beyond_the_former_order_cap():
    # |A| = 2^40, refused by the former signature pass over A: K_0 of
    # degree 4, four fields of degree 2^20 and one exceptional place
    group = PGroup(2, (20, 20))
    chars = (Character(group, 2, (3, 2)),) + tuple(
        Character(group, 20, c) for c in [(1, 0), (0, 1), (1, 1), (1, 4)]
    )
    cfg = validate_and_normalize(FieldConfig(group, chars, ()))
    local = LocalData((Place("v", Subgroup.span(group, [(32, 0), (0, 2 ** 18)])),))
    assert cfg.m == 4 and group.order == 2 ** 40
    rep = oracle_report(cfg, local)
    assert rep.sha_invariants == rep.sha_omega_invariants == (2, 1, 1)
    formula = assemble(cfg, local).report()
    assert (formula.sha_invariants, formula.sha_omega_invariants) == (
        rep.sha_invariants,
        rep.sha_omega_invariants,
    )


@st.composite
def configs_p5_p7(draw):
    """A valid config with p in {5, 7}, |A| <= 625 and a swept ambient of at
    most 4,096 vectors: coordinate characters keep it separating, and the
    further characters have two unit coefficients (see formula-scale)."""
    p = draw(st.sampled_from([5, 7]))
    shapes = [(1, 1), (2, 1), (2, 2), (1, 1, 1)] if p == 5 else [(1, 1), (2, 1)]
    exps = draw(st.sampled_from(shapes))
    group = PGroup(p, exps)
    unit = st.integers(1, p - 1)
    chars = [
        Character(group, n, tuple(draw(unit) if l == j else 0 for l in range(len(exps))))
        for j, n in enumerate(exps)
    ]
    for _ in range(draw(st.integers(1, 2))):
        eps = draw(st.integers(1, exps[1]))
        pair = draw(st.permutations([l for l, n in enumerate(exps) if n >= eps]))[:2]
        coeffs = []
        for l, n in enumerate(exps):
            if l in pair:
                coeffs.append(draw(unit))
            else:
                c = draw(st.integers(0, p ** eps - 1))
                coeffs.append(c - c % p ** max(0, eps - n))
        chars.append(Character(group, eps, tuple(coeffs)))
    chars = draw(st.permutations(chars))
    try:
        cfg = validate_and_normalize(FieldConfig(group, tuple(chars), ()))
    except ShaInputError:
        assume(False)
    assume(prod(p ** e for e in cfg.eis) <= 4096)
    places = [
        Place(f"v{t}", Subgroup.span(group, [
            tuple(draw(st.integers(0, m - 1)) for m in group.moduli)
            for _ in range(draw(st.integers(1, 2)))
        ]))
        for t in range(draw(st.integers(0, 2)))
    ]
    return cfg, LocalData(tuple(places))


@settings(max_examples=40, deadline=None)
@given(configs_p5_p7())
def test_engine_matches_reference_sweep_p5_p7(config):
    cfg, local = config
    assert cfg.p in (5, 7)
    assert compute_G_and_Gomega(cfg, local) == reference_groups(cfg, local)
    for r in cfg.R:
        assert subtorus_groups(cfg, local, r) == reference_groups(cfg, local, cfg.U(r))


def test_report_path_builds_no_cyclic_subgroups(no_literal_places, quartic_17_13):
    cfg, local = quartic_17_13
    rep = oracle_report(cfg, local)
    assert (rep.sha_invariants, rep.sha_omega_invariants) == ((1,), (2,))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selftest_runs_without_the_literal_sweep(no_literal_places, no_listing, seed):
    summary = run_selftest(seed, 25)
    assert summary.ok, summary.failures
    assert summary.invariant_checks == 25


def test_no_new_failures_matches_fail_set():
    # a from G_omega, as aprime requires; b a vector of G_omega or of the
    # whole ambient, so both outcomes and both halves of the check occur
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    exceptional_only = 0
    for _ in range(200):
        cfg, local = random_config(rng)
        moduli = [cfg.p ** e for e in cfg.eis]
        _, gw_members = enumerate_members(cfg, local)
        for _ in range(4):
            a = _shift(rng.choice(gw_members), rng.randrange(moduli[0]), moduli)
            if rng.random() < 0.7:
                b = _shift(rng.choice(gw_members), rng.randrange(moduli[0]), moduli)
            else:
                b = tuple(rng.randrange(q) for q in moduli)
            want = fail_set(cfg, local, b) <= fail_set(cfg, local, a)
            assert _no_new_failures(cfg, local, a, b) is want, (cfg, local, a, b)
            outcomes[want] += 1
            if not want and classify(cfg, local, b) is not Classification.OUTSIDE:
                exceptional_only += 1
    assert min(outcomes.values()) > 50, outcomes
    assert exceptional_only > 10
