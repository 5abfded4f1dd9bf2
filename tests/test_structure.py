import itertools
import random
import re
from math import gcd

import pytest

from multinorm_sha.abelian import (
    Character,
    PGroup,
    Subgroup,
    divisor_valuations,
    intersect,
)
from multinorm_sha.fields import (
    FieldConfig,
    ShaInputError,
    separates,
    validate_and_normalize,
)
from multinorm_sha.places import Classification, LocalData, Place, delta, locally_cyclic
from multinorm_sha.oracle import (
    classify,
    enumerate_members,
    in_diagonal,
    oracle_report,
    subtorus_groups,
)
from multinorm_sha.structure import (
    GeneratorCert,
    PatchingData,
    ShapeMismatch,
    StructureResult,
    assemble,
    criterion_trivial,
    l_classes,
    level,
    patching_degrees,
    shortcut_bicyclic_subfields,
    shortcut_linearly_disjoint,
)
from multinorm_sha.selftest import SelftestFailure, check_invariants, random_config

from conftest import NO_PLACES, abstract_config, formula_shaped, perfbench_workloads
from structure_reference import (
    noncyclic_places,
    reference_composite,
    reference_contains,
    reference_criterion_trivial,
    reference_is_sub_bicyclic,
    reference_kernel_at_level,
    reference_l_classes,
    reference_locally_cyclic,
    reference_pair_composite,
)


def pair_block_config():
    # (1,0), (0,1), (1,2): blocks U_0 = {1}, U_1 = {2}
    return abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])


def disjoint_config():
    return abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])


def test_levels_and_classes():
    cfg = pair_block_config()
    # singleton: level is the field degree exponent
    assert level(cfg, (1,)) == cfg.eps[1]
    lvl = level(cfg, (1, 2))
    assert lvl == cfg.eij[1][2]
    assert l_classes(cfg, (1, 2), 0) == [(1, 2)]
    assert l_classes(cfg, (1, 2), lvl + 1) == [(1,), (2,)]

    cfg2 = disjoint_config()
    assert level(cfg2, (1, 2)) == 0
    assert len(l_classes(cfg2, (1, 2), 1)) == 2
    with pytest.raises(ValueError):
        level(cfg2, ())


def test_level_is_the_least_pair_level():
    # level reads one member's row of e; the definition is the least e_ij
    # over all pairs of the class
    rng = random.Random(11)
    sets = 0
    for _ in range(1000):
        cfg, _local = random_config(rng)
        everyone = range(1, cfg.m + 1)
        for size in range(2, cfg.m + 1):
            for members in itertools.combinations(everyone, size):
                assert level(cfg, members) == min(
                    cfg.eij[a][b] for a in members for b in members if a < b
                ), members
                sets += 1
    assert sets > 2000


def test_criterion_shortcut_matches_the_reduction():
    # criterion_trivial builds no matrix when rank(A) < 3 or |U_0| < 2, as
    # the F_p rank of c_0 and the c_i, i in U_0, is at most
    # min(rank(A), |U_0| + 1); it must agree with that rank everywhere
    from multinorm_sha.cli import parse_document

    configs = [
        validate_and_normalize(raw)
        for doc in perfbench_workloads().formula_inputs(0)
        for raw, *_ in parse_document(doc)
    ]
    assert len(configs) == 503
    rng = random.Random(29)
    configs += [random_config(rng)[0] for _ in range(1000)]
    shortcuts = 0
    for cfg in configs:
        rows = [[c % cfg.p for c in cfg.chars[i].coeffs] for i in (0,) + cfg.U(0)]
        rank = len(divisor_valuations(rows, cfg.p, 1))
        assert criterion_trivial(cfg) is (rank >= 3), cfg
        shortcuts += cfg.group.rank < 3 or len(cfg.U(0)) < 2
    assert shortcuts > 210


def test_certificate_orders_are_the_orders_of_their_vectors():
    # the formula's answer is read off its certificates: each order is the
    # additive order of its vector in (+)_{i in U_r} Z/p^{e_i}, and sha,
    # sha_omega and the quotient are the log_p of the orders of every
    # certificate but U_0's block vector, sorted, nonzero
    from multinorm_sha.cli import parse_document

    cases = [
        (validate_and_normalize(raw), local)
        for doc in perfbench_workloads().formula_inputs(0)
        for raw, local, *_ in parse_document(doc)
    ]
    assert len(cases) == 503
    rng = random.Random(7)
    cases += [random_config(rng) for _ in range(1000)]
    certs = 0
    for cfg, local in cases:
        p = cfg.p
        res = assemble(cfg, local)
        exps = []
        for cert in res.generators:
            moduli = [p ** cfg.e_i(i) for i in cfg.U(cert.r)]
            pair = []
            for vec, order in ((cert.x, cert.order), (cert.x_omega, cert.order_omega)):
                assert len(vec) == len(moduli)
                q = max(m // gcd(m, x) for x, m in zip(vec, moduli))
                assert order == q, (cfg, cert)
                pair.append(next(k for k in itertools.count() if p ** k >= q))
            if cert.r or cert.kind == "class":
                exps.append(pair)
            certs += 1

        def invariants(values):
            return tuple(sorted((v for v in values if v), reverse=True))

        assert res.sha_invariants == invariants(e for e, _ in exps)
        assert res.sha_omega_invariants == invariants(w for _, w in exps)
        assert res.quotient_annotation == invariants(w - e for e, w in exps)
    assert certs > 5000


def test_l_classes_threshold_graph():
    # e matrix on the quartic fields: e_{1,2} = 1, e_{1,3} = e_{2,3} = 0
    cfg = abstract_config(
        2,
        (2, 2, 1),
        [(1, (0, 0, 1)), (2, (1, 0, 0)), (2, (0, 1, 0)), (2, (1, 2, 2))],
    )
    triple = tuple(range(1, cfg.m + 1))
    pairs = sorted(
        cfg.eij[i][j] for i in triple for j in triple if i < j
    )
    assert pairs == [0, 0, 1]
    assert level(cfg, triple) == 0
    classes = l_classes(cfg, triple, 1)
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [1, 2]


def test_delta_omega_block_is_everything():
    cfg = disjoint_config()
    assert cfg.U(0) == (1, 2)
    assert patching_degrees(cfg, NO_PLACES, 0).delta_omega == cfg.eps[0]


def test_delta_omega_pair_block():
    cfg = pair_block_config()
    assert patching_degrees(cfg, NO_PLACES, 0).delta_omega == 2
    assert patching_degrees(cfg, NO_PLACES, 1).delta_omega == 2
    with pytest.raises(ValueError):
        patching_degrees(cfg, NO_PLACES, 2)


def test_delta_omega_criterion_shape():
    # intersection of the K_0 K_i over the base block is K_0 itself:
    # three disjoint fields whose compositum has full rank three
    cfg = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    assert criterion_trivial(cfg)
    res = assemble(cfg, NO_PLACES)
    assert res.sha_invariants == () and res.sha_omega_invariants == ()


def test_delta_ordinary_paper_block(quartic_bicyclic):
    cfg, local = quartic_bicyclic
    assert patching_degrees(cfg, local, 1) == PatchingData(1, 2, 2)
    no_places = patching_degrees(cfg, NO_PLACES, 1)
    assert no_places.delta == no_places.delta_omega


def test_freedom_paper_values(quartic_17_13, quartic_17_409):
    cfg, local = quartic_17_13
    res = assemble(cfg, local)
    root = res.trees[0]
    assert root.f_omega == 2 and root.f == 1
    cfg2, local2 = quartic_17_409
    res2 = assemble(cfg2, local2)
    root2 = res2.trees[0]
    assert root2.f_omega == 2 and root2.f == 2


def test_assemble_goldens(quartic_17_13, quartic_17_409, quartic_bicyclic):
    for (cfg, local), want in [
        (quartic_17_13, ((1,), (2,))),
        (quartic_17_409, ((2,), (2,))),
        (quartic_bicyclic, ((1,), (1,))),
    ]:
        res = assemble(cfg, local)
        assert (res.sha_invariants, res.sha_omega_invariants) == want


def test_deep_level_class_contributes():
    # a class whose level exceeds eps_0 must still contribute
    cfg = abstract_config(2, (3, 1), [(1, (0, 1)), (3, (1, 0)), (3, (1, 4))])
    assert cfg.eps[0] == 1
    assert cfg.eij[1][2] == 2  # deeper than eps_0
    res = assemble(cfg, NO_PLACES)
    assert res.sha_omega_invariants == (1,)
    assert oracle_report(cfg, NO_PLACES).sha_omega_invariants == (1,)


def test_generators_disjoint_shape(quartic_17_409):
    cfg, local = quartic_17_409
    res = assemble(cfg, local)
    class_certs = [c for c in res.generators if c.kind == "class"]
    assert len(class_certs) == cfg.m - 1
    for cert in class_certs:
        assert cert.order == cert.order_omega == 4
        assert classify(cfg, local, cert.x, indices=cfg.U(0)) \
            is Classification.IN_G


def test_expression_of_composite_as_pair():
    # M_c(f + L(c) - r) = K_0(f) K_i(f + L(c) - r) along every tree node
    rng = random.Random(21)
    for _ in range(30):
        cfg, local = random_config(rng)
        res = assemble(cfg, local)
        for r, tree in res.trees.items():
            for node in tree.walk():
                lvl = node.level
                for f in range(r, node.f_omega + 1):
                    deg = f + lvl - r
                    if deg > min(cfg.eps[i] for i in node.members):
                        continue
                    m_c = reference_composite(cfg, node.members, deg)
                    for i in node.members:
                        pair = intersect(
                            reference_kernel_at_level(cfg.chars[0], f),
                            reference_kernel_at_level(cfg.chars[i], deg),
                        )
                        assert pair == m_c


def test_bicyclic_field_proposition():
    # membership vectors produce pair composites containing K_0(d)
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        cfg, local = random_config(rng)
        p, eps0, e1 = cfg.p, cfg.eps[0], cfg.e_i(1)
        g_members, gw_members = enumerate_members(cfg, local)
        g_set = set(g_members)
        pool = [a for a in gw_members if not in_diagonal(cfg, a)]
        for a in rng.sample(pool, min(3, len(pool))):
            a1 = a[0]
            outside = [
                i
                for i in range(1, cfg.m + 1)
                if (a1 - a[i - 1]) % p ** cfg.e_i(i) != 0
            ]
            dmin = min(delta(p, a1, e1, a[i - 1], cfg.e_i(i)) for i in outside)
            d = eps0 - dmin
            deltas = {
                i: delta(p, a1, e1, a[i - 1], cfg.e_i(i))
                for i in range(1, cfg.m + 1)
            }
            ss = [i for i in range(1, cfg.m + 1) if deltas[i] > eps0 - d]
            ts = [i for i in range(1, cfg.m + 1) if deltas[i] == eps0 - d]
            for s, t in itertools.product(ss, ts):
                beta = min(cfg.e0(s), cfg.e0(t))
                pair = reference_pair_composite(cfg, d, s, t, beta)  # degree must be in range
                assert pair.issubset(reference_kernel_at_level(cfg.chars[0], d))
                if cfg.e0(s) == cfg.e0(t):
                    g = d + cfg.eij[s][t] - beta
                    for j in (s, t):
                        assert pair == intersect(
                            reference_kernel_at_level(cfg.chars[0], d),
                            reference_kernel_at_level(cfg.chars[j], g),
                        )
                if a in g_set:
                    u = max(s, t)
                    g = d + cfg.eij[s][t] - beta
                    h = intersect(
                        reference_kernel_at_level(cfg.chars[0], d),
                        reference_kernel_at_level(cfg.chars[u], g),
                    )
                    assert not noncyclic_places(local, h)
                checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# Shortcut shapes.

def random_disjoint_instance(rng):
    while True:
        p = rng.choice([2, 3])
        rank = rng.randint(2, 3)
        n = rng.randint(1, 2)
        group = PGroup(p, (n,) * rank)
        nfields = rng.randint(3, 4)
        chars = []
        for _ in range(nfields):
            while True:
                eps = rng.randint(1, n)
                coeffs = tuple(rng.randrange(p ** eps) for _ in range(rank))
                chi = Character(group, eps, coeffs)
                if chi.is_surjective():
                    chars.append(chi)
                    break
        try:
            cfg = validate_and_normalize(FieldConfig(group, tuple(chars), ()))
        except ShaInputError:
            continue
        span = cfg.m + 1
        if any(
            cfg.eij[i][j] != 0 for i in range(span) for j in range(span) if i < j
        ):
            continue
        places = []
        for t in range(rng.randint(0, 2)):
            gens = [tuple(rng.randrange(m) for m in group.moduli)]
            places.append(Place(f"v{t}", Subgroup.span(group, gens)))
        return cfg, LocalData(tuple(places))


def random_bicyclic_subfields_instance(rng):
    while True:
        p = rng.choice([2, 3])
        n = rng.randint(1, 2)
        s = rng.randint(1, n)
        group = PGroup(p, (n, s))
        seen = {}
        for c1 in range(p ** n):
            for c2 in range(0, p ** n, p ** (n - s)):
                chi = Character(group, n, (c1, c2))
                if chi.is_surjective():
                    seen.setdefault(reference_kernel_at_level(chi, n), chi)
        if len(seen) < 3:
            continue
        count = rng.randint(3, min(4, len(seen)))
        chars = [seen[k] for k in rng.sample(list(seen), count)]
        try:
            cfg = validate_and_normalize(FieldConfig(group, tuple(chars), ()))
        except ShaInputError:
            continue
        if any(e != n for e in cfg.eps):
            continue
        places = []
        for t in range(rng.randint(0, 2)):
            gens = [tuple(rng.randrange(m) for m in group.moduli)]
            places.append(Place(f"v{t}", Subgroup.span(group, gens)))
        return cfg, LocalData(tuple(places))


def test_shortcut_linearly_disjoint_matches_both_paths():
    rng = random.Random(41)
    for _ in range(100):
        cfg, local = random_disjoint_instance(rng)
        sha, sha_omega = shortcut_linearly_disjoint(cfg, local)
        res = assemble(cfg, local)
        rep = oracle_report(cfg, local)
        assert sha == res.sha_invariants == rep.sha_invariants
        assert sha_omega == res.sha_omega_invariants == rep.sha_omega_invariants


def test_shortcut_bicyclic_subfields_matches_both_paths():
    rng = random.Random(43)
    for _ in range(100):
        cfg, local = random_bicyclic_subfields_instance(rng)
        sha_omega = shortcut_bicyclic_subfields(cfg)
        res = assemble(cfg, local)
        rep = oracle_report(cfg, local)
        assert sha_omega == res.sha_omega_invariants == rep.sha_omega_invariants


def test_shortcut_shape_validation(quartic_bicyclic):
    cfg, local = quartic_bicyclic
    with pytest.raises(ShapeMismatch):
        shortcut_linearly_disjoint(cfg, local)  # e_{0,2} = 1 breaks disjointness
    cfg3 = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    with pytest.raises(ShapeMismatch):
        shortcut_bicyclic_subfields(cfg3)  # compositum has rank three


def test_shortcut_small_cases(quartic_bicyclic):
    # three disjoint quadratic subfields of a (Z/2)^2 extension
    cfg = abstract_config(2, (1, 1), [(1, (1, 0)), (1, (0, 1)), (1, (1, 1))])
    assert shortcut_bicyclic_subfields(cfg) == (1,)
    cfg_b, _ = quartic_bicyclic
    assert shortcut_bicyclic_subfields(cfg_b) == (1,)


def test_oracle_equivalence_randomized():
    rng = random.Random(47)
    for trial in range(60):
        cfg, local = random_config(rng)
        rep = oracle_report(cfg, local)
        res = assemble(cfg, local, debug=(trial % 15 == 0))
        assert rep.sha_invariants == res.sha_invariants
        assert rep.sha_omega_invariants == res.sha_omega_invariants
        check_invariants(cfg, local, res, rng)


def _outside(group):
    """A unit vector outside a proper subgroup, or None for the whole group."""
    k = group.ambient.rank
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return next((u for u in units if not group.contains(u)), None)


def test_check_invariants_catches_certificates_outside_their_groups():
    # a generator whose x leaves G_r, or whose x_omega leaves G_omega_r,
    # fails the suite with the message naming it
    rng = random.Random(5)
    seen = set()
    while len(seen) < 2:
        cfg, local = random_config(rng)
        res = assemble(cfg, local)
        check_invariants(cfg, local, res, random.Random(0))
        for t, cert in enumerate(res.generators):
            g_r, gw_r = subtorus_groups(cfg, local, cert.r)
            for field_name, group, want in (
                ("x", g_r, f"generator x over U_{cert.r} not in G"),
                ("x_omega", gw_r, f"generator x_omega over U_{cert.r} not in G_omega"),
            ):
                vec = _outside(group)
                if vec is None:
                    continue
                gens = list(res.generators)
                x_omega, x = (cert.x_omega, vec) if field_name == "x" else (vec, cert.x)
                gens[t] = GeneratorCert(
                    cert.r, cert.kind, cert.support, x_omega, x, cert.order_omega, cert.order
                )
                broken = StructureResult(
                    res.patching, res.trees, gens, res.sha_invariants,
                    res.sha_omega_invariants, res.quotient_annotation, res.criterion_trivial,
                )
                with pytest.raises(SelftestFailure) as info:
                    check_invariants(cfg, local, broken, random.Random(0))
                assert str(info.value) == want
                seen.add(field_name)


def test_l_classes_match_union_find_reference():
    # the first-member classes against the union-find closure, at every
    # level, on every index subset of 1,000 random configs and on the full
    # index set and each block of the seed-0 formula-scale documents
    from multinorm_sha.cli import parse_document

    from conftest import perfbench_workloads

    cases = []
    rng = random.Random(29)
    for _ in range(1000):
        cfg, _local = random_config(rng)
        indices = range(1, cfg.m + 1)
        for size in range(1, cfg.m + 1):
            cases += [(cfg, c) for c in itertools.combinations(indices, size)]
    for doc in perfbench_workloads().formula_inputs(0):
        for raw, _local, _budget, _debug in parse_document(doc):
            cfg = validate_and_normalize(raw)
            cases += [(cfg, tuple(range(1, cfg.m + 1)))]
            cases += [(cfg, cfg.U(r)) for r in cfg.R]
    checked = 0
    for cfg, members in cases:
        for l in range(max(cfg.eps) + 2):
            assert l_classes(cfg, members, l) == reference_l_classes(cfg, members, l), (
                cfg.eij, members, l,
            )
            checked += 1
    assert checked > 25_000, checked


def test_monotone_scans_on_goldens(quartic_17_13, quartic_bicyclic):
    for cfg, local in (quartic_17_13, quartic_bicyclic):
        assemble(cfg, local, debug=True)


def test_quotient_annotation_matches_oracle_when_defined(quartic_17_13):
    # the termwise difference is an annotation; on this example it agrees
    cfg, local = quartic_17_13
    res = assemble(cfg, local)
    rep = oracle_report(cfg, local)
    assert res.quotient_annotation == rep.quotient_invariants


def test_formula_quotient_invariants_match_oracle():
    # the formula's generator pairs are aligned, so its termwise quotient is
    # sha_omega/sha itself: both routes report the same quotient_invariants
    rng = random.Random(1)
    nontrivial = 0
    for _ in range(150):
        cfg, local = random_config(rng)
        rep = oracle_report(cfg, local)
        assert assemble(cfg, local).report().quotient_invariants == rep.quotient_invariants
        nontrivial += bool(rep.quotient_invariants)
    assert nontrivial > 20


# ---------------------------------------------------------------------------
# Character rows against the lattice references they replace.

def _random_places(rng, group):
    return LocalData(tuple(
        Place(f"v{t}", Subgroup.span(group, [
            tuple(rng.randrange(m) for m in group.moduli) for _ in range(rng.randint(1, 3))
        ]))
        for t in range(rng.randint(1, 3))
    ))


def _check_against_reference(rng, cfg, local, outcomes):
    """The five tests on character rows against their lattice references."""

    def check(name, got, want, *args):
        assert got == want, (name, args)
        outcomes[name][got] += 1

    check("criterion", criterion_trivial(cfg), reference_criterion_trivial(cfg))
    n = cfg.m + 1
    for _ in range(3):
        C = tuple(rng.sample(range(n), rng.randint(1, min(n, 5))))
        d = rng.randint(0, min(cfg.eps[i] for i in C))
        check("bicyclic", cfg.is_sub_bicyclic(C, d), reference_is_sub_bicyclic(cfg, C, d), C, d)
        check("locally_cyclic", locally_cyclic(cfg, local, C, d),
              reference_locally_cyclic(cfg, local, C, d), C, d)
        inner = tuple(rng.sample(range(n), rng.randint(1, min(n, 3))))
        d_in = rng.randint(0, min(cfg.eps[i] for i in inner))
        check("contains", cfg.contains(C, d, inner, d_in),
              reference_contains(cfg, C, d, inner, d_in), C, d, inner, d_in)
        common = Subgroup.full(cfg.group)
        for i in C:
            common = intersect(common, reference_kernel_at_level(cfg.chars[i], cfg.eps[i]))
        check("separates", separates(cfg.group, [cfg.chars[i] for i in C]),
              common.order == 1, C)
    # the shape of the f_omega scan: K_0(f) inside a composite of degree >= f
    C = tuple(rng.sample(range(1, n), rng.randint(1, min(n - 1, 4))))
    deg = rng.randint(1, min(cfg.eps[i] for i in C))
    f = rng.randint(0, min(deg, cfg.eps[0]))
    check("contains", cfg.contains(C, deg, (0,), f), reference_contains(cfg, C, deg, (0,), f))


def test_composite_and_criterion_match_reference():
    rng = random.Random(43)
    names = ("criterion", "bicyclic", "locally_cyclic", "contains", "separates")
    outcomes = {name: {True: 0, False: 0} for name in names}
    for _ in range(1000):
        cfg, local = random_config(rng)
        _check_against_reference(rng, cfg, local, outcomes)
    floors = dict.fromkeys(names, 30) | {"criterion": 50}
    assert all(min(outcomes[name].values()) >= floors[name] for name in names), outcomes

    shaped = {name: {True: 0, False: 0} for name in names}
    count = 0
    while count < 150:
        p = rng.choice((2, 3, 5, 7))
        rank = rng.randint(2, 5)
        exps = tuple(sorted((rng.randint(1, 10) for _ in range(rank)), reverse=True))
        try:
            cfg = validate_and_normalize(formula_shaped(rng, p, exps, rng.randint(5, 10)))
        except ShaInputError:
            continue
        _check_against_reference(rng, cfg, _random_places(rng, cfg.group), shaped)
        count += 1
    assert all(min(v.values()) >= 5 for v in shaped.values()), shaped


def test_scans_reduce_each_matrix_once(monkeypatch):
    # fields on (Z/2^n)^2 and one place: every scan, and in the debug mode
    # its walk on from the hit, read their degrees off one reduction per
    # matrix, so the number of reductions, in a plain and in a debug
    # assembly, does not grow with n.  The six-field document has the
    # blocks R = (0, 1, 3, 5), so its containment tests reduce several
    # blocks, a block of more than two rows through the pivot rows of its
    # own reduction.
    import multinorm_sha.abelian as abelian
    import multinorm_sha.fields as fields
    import multinorm_sha.places as places
    import multinorm_sha.structure as structure

    calls = []
    reduce = abelian.divisor_valuations

    def counted(rows, p, d, *rest):
        calls.append(d)
        return reduce(rows, p, d, *rest)

    for module in (fields, places, structure):
        if hasattr(module, "divisor_valuations"):
            monkeypatch.setattr(module, "divisor_valuations", counted)
    documents = [
        (((1, 0), (0, 1), (1, 1), (1, 3), (1, 5)), (2, 2, 2),
         lambda n: (n, n - 1, n - 2), lambda n: ((0, n, n),)),
        (((1, 0), (0, 1), (1, 1), (1, 2), (1, 8), (1, 32)), (2, 2, 2, 2),
         lambda n: (n, n - 1, n - 3, n - 5),
         lambda n: ((0, n, 3), (1, n, 3), (3, n, 5), (5, n, 7))),
    ]
    for coeffs, sha, sha_omega, patching in documents:
        counts = {}
        for n in (10, 40):
            group = PGroup(2, (n, n))
            chars = tuple(Character(group, n, c) for c in coeffs)
            raw = FieldConfig(group, chars, ())
            local = LocalData((Place("v", Subgroup.span(group, [(4, 0), (0, 4)])),))
            made = []
            for debug in (False, True):
                cfg = validate_and_normalize(raw)  # a fresh memo for each assembly
                calls.clear()
                result = assemble(cfg, local, debug)
                made.append(len(calls))
            counts[n] = tuple(made)
            assert result.sha_invariants == sha
            assert result.sha_omega_invariants == sha_omega(n)
            assert tuple(
                (pd.r, pd.delta_omega, pd.delta) for pd in result.patching
            ) == patching(n)
        assert counts[10] == counts[40], (coeffs, counts)


def test_short_blocks_are_not_reduced_alone():
    # a block of at most rank(A) rows enters a stacked matrix by its rows, so
    # the lone row p^(L(c) - r) c_0 of an f_omega containment is never
    # reduced on its own
    rng = random.Random(7)
    for _ in range(300):
        cfg, local = random_config(rng)
        assemble(cfg, local)
        alone = [key for key in cfg._memo
                 if key[0] == "divisors" and key[2] is None
                 and len(key[1]) == 1 and key[1][0][0] == (0,) and key[1][0][1] > 0]
        assert not alone, alone


def test_class_scans_ask_only_existing_degrees(monkeypatch):
    # a class scan starts at the last f where K(c, f + L(c) - r) exists, so
    # neither the scan nor its debug walk asks a degree above min eps_i over
    # c, and a singleton (L(c) = eps_i) scans nothing: it is asked only by
    # the debug walk, at its floor
    import multinorm_sha.structure as structure
    from multinorm_sha.cli import parse_document

    components = [
        (raw, local)
        for doc in perfbench_workloads().formula_inputs(0)
        for raw, local, *_ in parse_document(doc)
    ]
    assert len(components) == 503
    asked = []

    def recorded(name):
        honest = getattr(structure, name)

        def predicate(cfg, *args):
            members, lvl, f, r = args[-4:]
            asked.append((len(members), f + lvl - r <= min(cfg.eps[i] for i in members)))
            return honest(cfg, *args)

        monkeypatch.setattr(structure, name, predicate)

    recorded("_f_omega_admissible")
    recorded("_f_admissible")
    for debug in (False, True):
        asked.clear()
        for raw, local in components:
            assemble(validate_and_normalize(raw), local, debug)
        beyond = [size for size, exists in asked if not exists]
        assert asked and not beyond, (debug, len(beyond))
        singletons = sum(size == 1 for size, _ in asked)
        assert (singletons > 0) is debug, (debug, singletons)


def test_composite_keeps_its_errors():
    cfg = pair_block_config()
    with pytest.raises(ValueError, match="empty index set"):
        cfg.is_sub_bicyclic((), 1)
    with pytest.raises(ValueError, match="exceeds eps_1"):
        cfg.is_sub_bicyclic((1, 0), 3)
    with pytest.raises(ValueError, match="out of range"):
        cfg.contains((0, 1), 1, (0,), -1)
    with pytest.raises(ValueError, match="exceeds eps_2"):
        locally_cyclic(cfg, NO_PLACES, (2,), 3)


@pytest.mark.parametrize("name, message", [
    ("_delta_omega_admissible", "delta_omega scan not monotone at r=0, d=0"),
    ("_delta_admissible", "delta scan not monotone at r=0, d=0"),
    ("_f_omega_admissible", "f_omega scan not monotone at r=0, c=(1,), f=0"),
    ("_f_admissible", "f scan not monotone at r=0, c=(1,), f=0"),
])
def test_debug_check_reaches_the_floor_of_each_scan(name, message, monkeypatch):
    # a scan never asks its floor r, so a predicate failing only there leaves
    # every hit as it is; the debug walk goes down to r and names it
    import multinorm_sha.structure as structure

    cfg = pair_block_config()
    honest_result = assemble(cfg, NO_PLACES)
    assert assemble(cfg, NO_PLACES, debug=True) == honest_result
    honest = getattr(structure, name)

    def fails_at_floor(*args):
        if name.startswith("_delta"):  # (..., d, u_r, u_gt, u_lt): r = e_{0,i}, i in U_r
            value, floor = args[-4], cfg.e0(args[-3][0])
        else:  # (..., f, r)
            value, floor = args[-2], args[-1]
        return value != floor and honest(*args)

    monkeypatch.setattr(structure, name, fails_at_floor)
    assert assemble(cfg, NO_PLACES) == honest_result
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        assemble(cfg, NO_PLACES, debug=True)


def _all_characters_up_to_units(p, n, rank=3):
    """One character onto Z/p^n per kernel on (Z/p^n)^rank: the coefficient
    rows whose first unit entry is 1."""
    q = p ** n
    specs = []
    for first in range(rank):
        for head in itertools.product(range(0, q, p), repeat=first):
            for tail in itertools.product(range(q), repeat=rank - first - 1):
                specs.append((n, head + (1,) + tail))
    return specs


@pytest.mark.parametrize("n, count, degrees", [(3, 112, (1, 1, 2)), (4, 448, (1, 1, 2, 3))])
def test_all_characters_of_a_cube(n, count, degrees, monkeypatch):
    # every cyclic degree-2^n field inside (Z/2^n)^3: one block per r < n,
    # delta = delta_omega, and both groups trivial; the oracle agrees on the
    # smaller document.  Containment in the composite K((0,) + U_r, d), one
    # merged test in place of one per i, would put delta_omega(0) at n.
    import multinorm_sha.structure as structure

    specs = _all_characters_up_to_units(2, n)
    cfg = abstract_config(2, (n,) * 3, specs)
    assert len(specs) == cfg.m + 1 == count
    result = assemble(cfg, NO_PLACES)
    assert tuple(pd.delta_omega for pd in result.patching) == degrees
    assert all(pd.delta == pd.delta_omega for pd in result.patching)
    assert result.sha_invariants == result.sha_omega_invariants == ()
    if n == 3:
        assert oracle_report(cfg, NO_PLACES).invariants == result.report().invariants

    def merged(cfg, d, u_r, u_gt, u_lt):
        if u_gt and not cfg.contains((0,) + u_r, d, u_gt, d):
            return False
        return not u_lt or all(cfg.contains((0, i), d, u_r, d) for i in u_lt)

    monkeypatch.setattr(structure, "_delta_omega_admissible", merged)
    assert patching_degrees(cfg, NO_PLACES, 0).delta_omega == n


def test_containment_matches_the_full_rows():
    # cfg.contains reduces several blocks from the pivot rows of each
    # block's own reduction; against the full rows, at every degree, for
    # every pair c_0, c_i and every shared block (U_gt, or U_r), it gives
    # the same answer.  The degrees are asked upward first, so that each
    # higher degree redoes the blocks' reductions, then downward.
    from multinorm_sha.cli import parse_document

    configs = [
        validate_and_normalize(raw)
        for doc in perfbench_workloads().formula_inputs(0)
        for raw, *_ in parse_document(doc)
    ]
    rng = random.Random(31)
    configs += [random_config(rng)[0] for _ in range(1000)]
    configs += [abstract_config(2, (n,) * 3, _all_characters_up_to_units(2, n)) for n in (3, 4)]
    held = refused = 0
    for cfg in configs:
        shared = {cfg.U_gt(r) for r in cfg.R} | {cfg.U(r) for r in cfg.R}
        rows = {inner: [cfg.chars[i].coeffs for i in inner] for inner in filter(None, shared)}
        top = cfg.eps[0]
        wants = {}
        for d in [*range(1, top + 1), *range(top, 0, -1)]:
            for inner, inner_rows in rows.items():
                for i in range(1, cfg.m + 1):
                    if (d, inner, i) not in wants:
                        pair = [cfg.chars[0].coeffs, cfg.chars[i].coeffs]
                        wants[d, inner, i] = divisor_valuations(
                            pair + inner_rows, cfg.p, d
                        ) == divisor_valuations(pair, cfg.p, d)
                    want = wants[d, inner, i]
                    assert cfg.contains((0, i), d, inner, d) is want, (cfg, d, inner, i)
        held += sum(wants.values())
        refused += len(wants) - sum(wants.values())
    assert held > 10000 and refused > 10000, (held, refused)


# ---------------------------------------------------------------------------
# The formula route runs without abelian.intersect or any lattice kernel.

@pytest.fixture(scope="module")
def golden_components():
    """(raw config, local data) of every golden example, parsed unpatched."""
    from multinorm_sha.cli import EXAMPLES, parse_document

    return [
        (raw, local)
        for entry in EXAMPLES.values()
        for raw, local, _budget, _debug in parse_document(entry["document"])
    ]


def test_formula_route_makes_no_intersect_call(golden_components, no_intersect, no_lattice):
    group = PGroup(2, (80, 80))
    chars = tuple(
        Character(group, 80, c) for c in ((1, 0), (0, 1), (1, 1), (1, 3), (1, 5))
    )
    ran = {"disjoint": 0, "bicyclic": 0}
    for raw, local in [(FieldConfig(group, chars, ()), NO_PLACES)] + golden_components:
        cfg = validate_and_normalize(raw)
        assemble(cfg, local, debug=True)
        for name, shortcut in (
            ("disjoint", lambda: shortcut_linearly_disjoint(cfg, local)),
            ("bicyclic", lambda: shortcut_bicyclic_subfields(cfg)),
        ):
            try:
                shortcut()
            except ShapeMismatch:
                continue
            ran[name] += 1
    assert min(ran.values()) >= 1, ran


def test_oracle_path_makes_no_intersect_or_left_kernel_call(
    golden_components, no_intersect, monkeypatch, capsys
):
    # pair levels and thresholds come from Hermite forms of images: no
    # subgroup is intersected and no left kernel is taken on the oracle path
    import multinorm_sha.abelian as abelian
    from multinorm_sha.cli import main, parse_document

    from conftest import perfbench_workloads

    def refuse(*args, **kwargs):
        raise AssertionError("abelian.left_kernel ran")

    monkeypatch.setattr(abelian, "left_kernel", refuse)
    rungs = [
        (raw, local)
        for seed in (0, 1)
        for _name, doc in perfbench_workloads().ladder_inputs(seed)
        for raw, local, _budget, _debug in parse_document(doc)
    ]
    assert len(rungs) == 16
    for raw, local in golden_components + rungs:
        oracle_report(validate_and_normalize(raw), local)
    argv = ["kummer", "--radicands", "17,221,13,5,7", "--compute", "--method", "oracle"]
    assert main(argv) == 0
    assert "sha_omega" in capsys.readouterr().out


def test_formula_command_makes_no_intersect_call(no_intersect, tmp_path, capsys):
    import json

    from multinorm_sha.cli import main

    doc = {
        "mode": "abstract",
        "p": 2,
        "exponents": [10, 9],
        "characters": [
            {"label": f"K{t}", "target_exponent": eps, "coeffs": coeffs}
            for t, (eps, coeffs) in enumerate([
                (10, [1, 0]), (9, [0, 3]), (5, [3, 7]), (7, [5, 1]),
                (9, [1, 3]), (3, [1, 1]), (8, [7, 5]),
            ])
        ],
        "exceptional_places": [
            {"label": "v0", "generators": [[5, 17]]},
            {"label": "v1", "generators": [[3, 2], [100, 6]]},
        ],
        "debug_monotonicity": True,
    }
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path), "--method", "formula", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["components"][0]["methods"]["formula"]
