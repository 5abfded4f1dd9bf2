import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinorm_sha.abelian import (
    Character,
    divisor_valuations,
    PGroup,
    Subgroup,
    intersect,
)
from multinorm_sha.fields import (
    FieldConfig,
    IntersectionNotBase,
    NonSeparatingAmbient,
    NonSurjectiveCharacter,
    ShaInputError,
    TooFewFields,
    meet,
    same_field,
    separates,
    validate_and_normalize,
)

from conftest import (
    abstract_config,
    field_variant,
    formula_shaped,
    random_char,
)
from fields_reference import reference_normalize
from structure_reference import (
    join,
    quotient_invariants,
    reference_composite,
    reference_kernel_at_level,
)

Z44 = PGroup(2, (2, 2))


def test_normalize_quartic_pair_block_example():
    # characters (1,0), (0,1), (1,2): one field meets K_0 in a quadratic
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])
    assert cfg.eps == (2, 2, 2)
    assert cfg.e0(1) == 0 and cfg.e0(2) == 1
    assert cfg.u_partition == {0: (1,), 1: (2,)}
    assert cfg.R == (0, 1)


def test_normalize_disjoint_example():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert all(
        cfg.eij[i][j] == 0 for i in range(3) for j in range(3) if i != j
    )
    assert cfg.u_partition == {0: (1, 2)}


def test_normalize_prunes_superfields():
    # chi_3 cuts a subfield of the chi_2 field: the superfield index is kept,
    # the caller's field 2 (the bigger one) is dropped when 3 sits inside it
    group = PGroup(2, (2, 2))
    chars = (
        Character(group, 2, (1, 0)),
        Character(group, 2, (0, 1)),
        Character(group, 2, (1, 1)),
        Character(group, 1, (1, 1)),  # the quadratic subfield of the (1,1) field
    )
    cfg = validate_and_normalize(FieldConfig(group, chars, ()))
    # the degree-4 field (1,1) contains the quadratic one and is pruned
    assert cfg.m == 2
    assert sorted(cfg.permutation) == [0, 1, 3]


def test_normalize_prunes_duplicates():
    group = PGroup(2, (2, 2))
    chars = (
        Character(group, 2, (1, 0)),
        Character(group, 2, (0, 1)),
        Character(group, 2, (1, 1)),
        Character(group, 2, (3, 3)),  # same kernel as (1, 1)
    )
    cfg = validate_and_normalize(FieldConfig(group, chars, ()))
    assert cfg.m == 2
    assert sorted(cfg.permutation) == [0, 1, 2]


def test_normalize_reindexes_to_minimal_degree():
    # the quadratic field must become K_0 regardless of input position
    cfg = abstract_config(
        2, (2, 1), [(2, (1, 0)), (1, (0, 1)), (2, (1, 2))]
    )
    assert cfg.eps[0] == 1
    assert cfg.permutation[0] == 1
    assert cfg.eps == (1, 2, 2)
    # ties in e_{0,i} break by original index
    assert cfg.permutation == (1, 0, 2)


def test_normalize_errors():
    group = PGroup(2, (2, 2))
    with pytest.raises(NonSurjectiveCharacter):
        validate_and_normalize(
            FieldConfig(
                group,
                (
                    Character(group, 2, (2, 0)),
                    Character(group, 2, (0, 1)),
                    Character(group, 2, (1, 1)),
                ),
                (),
            )
        )
    with pytest.raises(TooFewFields):
        validate_and_normalize(
            FieldConfig(
                group,
                (Character(group, 2, (1, 0)), Character(group, 2, (0, 1))),
                (),
            )
        )
    # characters congruent mod 2: every field contains one common quadratic
    g3 = PGroup(2, (2, 2, 1))
    with pytest.raises(IntersectionNotBase):
        validate_and_normalize(
            FieldConfig(
                g3,
                (
                    Character(g3, 2, (1, 0, 0)),
                    Character(g3, 2, (1, 2, 0)),
                    Character(g3, 2, (1, 0, 2)),
                ),
                (),
            )
        )
    # quadratic characters of (Z/4)^2 never separate the squares
    with pytest.raises(NonSeparatingAmbient):
        validate_and_normalize(
            FieldConfig(
                group,
                (
                    Character(group, 1, (1, 0)),
                    Character(group, 1, (0, 1)),
                    Character(group, 1, (1, 1)),
                ),
                (),
            )
        )


def test_normalize_idempotent():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])
    again = validate_and_normalize(
        FieldConfig(cfg.group, cfg.chars, cfg.labels)
    )
    assert again.permutation == tuple(range(cfg.m + 1))
    assert again.eij == cfg.eij
    assert again.u_partition == cfg.u_partition


def test_subfield_endpoints_and_middle():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])
    for i in range(3):
        assert reference_kernel_at_level(cfg.chars[i], 0) == Subgroup.full(cfg.group)
        kernel = reference_kernel_at_level(cfg.chars[i], cfg.eps[i])
        assert set(kernel.elements()) == {
            a for a in cfg.group.elements() if cfg.chars[i].value(a) == 0
        }
    idx = cfg.permutation.index(2)
    mid = reference_kernel_at_level(cfg.chars[idx], 1)
    assert mid.order == 8
    assert set(mid.elements()) == {
        a for a in cfg.group.elements() if (a[0] + 2 * a[1]) % 2 == 0
    }


def test_composite():
    # X(C, d), the rows of the chi_i mod p^d, i in C: K_1 alone, degree 0 (the
    # base field), and K_0 K_1, whose Galois group is all of A
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.divisors((((1,), 0),), 2) == [0]
    assert cfg.divisors((((1,), 0),), 1) == [0]
    assert cfg.divisors((((0, 1, 2), 0),), 0) == []
    assert cfg.divisors((((0, 1), 0),), 2) == [0, 0]
    # scaled into Z/p^top, a row of K_i(1) has order p
    row = [c % 2 * 4 for c in cfg.chars[1].coeffs]
    assert cfg.divisors((((1,), 2),), 3) == divisor_valuations([row], 2, 3) == [2]
    assert cfg.contains((0, 1), 2, (2,), 2) and cfg.contains((2,), 2, (2,), 1)
    assert not cfg.contains((0,), 2, (1,), 1) and not cfg.contains((0,), 1, (0,), 2)
    with pytest.raises(ValueError):
        cfg.divisors((((), 0),), 1)
    with pytest.raises(ValueError):
        cfg.divisors((((0,), 0),), 3)


def test_negative_degree_names_the_least_eps():
    # a degree over C lies in [0, min eps_i, i in C], wherever the least sits in C
    cfg = abstract_config(2, (2, 2), [(1, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.eps == (1, 2, 2)
    with pytest.raises(ValueError, match=r"^subfield degree -1 out of range \[0, 1\]$"):
        cfg.check_degree((1, 0), -1)
    with pytest.raises(ValueError, match=r"^subfield degree -1 out of range \[0, 2\]$"):
        cfg.check_degree((2, 1), -1)


def test_intersection_exponent():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])
    assert cfg.eij[0][0] == 2
    assert cfg.eij[0][1] == 0
    idx = cfg.permutation.index(2)
    assert cfg.eij[0][idx] == 1


def test_is_sub_bicyclic():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.is_sub_bicyclic((0, 1, 2), 0)
    assert cfg.is_sub_bicyclic((0, 1, 2), 2)
    cfg3 = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    assert cfg3.is_sub_bicyclic((0, 1), 1)
    assert not cfg3.is_sub_bicyclic((0, 1, 2), 1)


def test_pair_composite():
    # K_1(g) K_2(g) at g = d + e_12 - beta, beta = 0: the base field at
    # d = 0, the whole compositum (Galois group A) at d = 2
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.eij[1][2] == 0
    assert cfg.divisors((((1, 2), 0),), 0) == []
    assert cfg.divisors((((1, 2), 0),), 2) == [0, 0]
    with pytest.raises(ValueError):
        cfg.divisors((((1, 2), 0),), 3)


def test_galois_correspondence_consistency():
    for spec in (
        [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))],
        [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))],
        [(1, (0, 1)), (3, (1, 0)), (3, (1, 4))],
    ):
        exps = (3, 1) if spec[0][0] == 1 else (2, 2)
        cfg = abstract_config(2, exps, spec)
        for i in range(cfg.m + 1):
            for f in range(cfg.eps[i] + 1):
                sub = reference_kernel_at_level(cfg.chars[i], f)
                assert reference_kernel_at_level(cfg.chars[i], cfg.eps[i]).issubset(sub)
                assert quotient_invariants(cfg.group, sub) == ([f] if f else [])


def test_bicyclic_galois_group_lemma():
    # Gal of the composite of two cyclic fields: [eps_i, eps_j - e_ij]
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice([2, 3])
        exps = tuple(
            sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True)
        )
        group = PGroup(p, exps)
        chars = []
        while len(chars) < 2:
            eps = rng.randint(1, exps[0])
            coeffs = []
            for n in exps:
                c = rng.randrange(p ** eps)
                vmin = max(0, eps - n)
                if vmin:
                    c -= c % p ** vmin
                coeffs.append(c)
            chi = Character(group, eps, tuple(coeffs))
            if chi.is_surjective():
                chars.append(chi)
        hi, hj = (reference_kernel_at_level(chi, chi.exponent) for chi in chars)
        ei, ej = chars[0].exponent, chars[1].exponent
        if ej > ei:
            hi, hj, ei, ej = hj, hi, ej, ei
        eij = sum(quotient_invariants(group, join(hi, hj)))
        expected = [e for e in (ei, ej - eij) if e]
        assert quotient_invariants(group, intersect(hi, hj)) == sorted(
            expected, reverse=True
        )


def test_subfield_of_bicyclic_lemma():
    # R cyclic inside K_i K_j lands in the pair composite at the shifted level
    rng = random.Random(9)
    trials = 0
    for _ in range(300):
        p = rng.choice([2, 3])
        exps = tuple(
            sorted((rng.randint(1, 3) for _ in range(2)), reverse=True)
        )
        group = PGroup(p, exps)

        def rand_char():
            while True:
                eps = rng.randint(1, exps[0])
                coeffs = []
                for n in exps:
                    c = rng.randrange(p ** eps)
                    vmin = max(0, eps - n)
                    if vmin:
                        c -= c % p ** vmin
                    coeffs.append(c)
                chi = Character(group, eps, tuple(coeffs))
                if chi.is_surjective():
                    return chi

        chi_i, chi_j, rho = rand_char(), rand_char(), rand_char()
        hi, hj, hr = (
            reference_kernel_at_level(chi, chi.exponent) for chi in (chi_i, chi_j, rho)
        )
        d = rho.exponent
        if d > min(chi_i.exponent, chi_j.exponent):
            continue
        if hi == hj:
            continue
        if not intersect(hi, hj).issubset(hr):
            continue  # R not inside K_i K_j
        trials += 1
        eij = sum(quotient_invariants(group, join(hi, hj)))
        h = sum(quotient_invariants(group, join(join(hi, hj), hr)))
        g = d + eij - h
        assert g <= min(chi_i.exponent, chi_j.exponent)
        pair = intersect(
            reference_kernel_at_level(chi_i, g), reference_kernel_at_level(chi_j, g)
        )
        assert pair.issubset(hr)
    assert trials >= 20


def test_generator_of_bicyclic_lemma(quartic_17_13):
    # a sub-bicyclic non-cyclic composite equals its largest pair composite
    cfg, _ = quartic_17_13
    rng = random.Random(4)
    for _ in range(60):
        d = rng.randint(1, 2)
        size = rng.randint(2, cfg.m + 1)
        subset = tuple(sorted(rng.sample(range(cfg.m + 1), size)))
        if any(cfg.eps[i] < d for i in subset):
            continue
        comp = reference_composite(cfg, subset, d)
        inv = quotient_invariants(cfg.group, comp)
        if len(inv) != 2:
            continue
        best = None
        for s in subset:
            for t in subset:
                if s < t:
                    pair = reference_composite(cfg, (s, t), d)
                    if best is None or pair.order < best.order:
                        best = pair
        assert best == comp


def test_convention_checks_survive_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import multinorm_sha

    script = """
import sys
from multinorm_sha.abelian import Character, PGroup
from multinorm_sha.fields import FieldConfig, validate_and_normalize
assert False, "asserts must be stripped here"
group = PGroup(2, (2, 2))
chars = tuple(Character(group, 2, c) for c in ((1, 0), (1, 1), (0, 1)))
cfg = validate_and_normalize(FieldConfig(group, chars, ()))
cfg._check_conventions()
eij = [list(row) for row in cfg.eij]
eij[0][1] = eij[1][0] = 1
cfg.eij = tuple(tuple(row) for row in eij)
try:
    cfg._check_conventions()
except AssertionError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(multinorm_sha.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")


# ---------------------------------------------------------------------------
# Normalization by congruences against the lattice reference.

def _raw_config(rng, p, exps, nchars):
    """Random characters, with subfields and duplicates of earlier ones,
    non-surjective ones, and (in one draw in four) a common subfield."""
    group = PGroup(p, exps)
    shared = rng.random() < 0.25
    base = [c % p for c in random_char(rng, group, 1).coeffs]
    chars = []
    while len(chars) < nchars:
        roll = rng.random()
        if chars and roll < 0.15:
            chi = field_variant(rng, rng.choice(chars))
        else:
            chi = random_char(rng, group, rng.randint(1, exps[0]))
            if roll > 0.99:
                chi = Character(group, chi.exponent, tuple(p * c for c in chi.coeffs))
            elif shared and any(base):
                # keep chi only when chi = u * base (mod p): K(1) is common
                low = [c % p for c in chi.coeffs]
                if not any(
                    low == [u * b % p for b in base] for u in range(1, p)
                ):
                    continue
        chars.append(chi)
    labels = tuple(f"F{i}" for i in range(nchars))
    return FieldConfig(group, tuple(chars), labels)


def _outcome(normalize, cfg):
    try:
        got = normalize(cfg)
    except ShaInputError as exc:
        return type(exc).__name__, str(exc)
    return "ok", (got.permutation, got.labels, got.eij, got.R)


def test_normalize_matches_lattice_reference():
    rng = random.Random(8)
    outcomes = {}
    for _ in range(10_000):
        p = rng.choice((2, 3, 5, 7))
        rank = rng.choice((1, 2, 2, 3, 3))
        exps = tuple(sorted((rng.randint(1, 3) for _ in range(rank)), reverse=True))
        cfg = _raw_config(rng, p, exps, rng.randint(2, 6))
        got = _outcome(validate_and_normalize, cfg)
        assert got == _outcome(reference_normalize, cfg), cfg
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    assert set(outcomes) == {
        "ok",
        "NonSurjectiveCharacter",
        "TooFewFields",
        "IntersectionNotBase",
        "NonSeparatingAmbient",
    }
    assert min(outcomes.values()) >= 100, outcomes

    ok = 0
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        rank = rng.randint(2, 5)
        exps = tuple(sorted((rng.randint(1, 10) for _ in range(rank)), reverse=True))
        cfg = formula_shaped(rng, p, exps, rng.randint(5, 10))
        got = _outcome(validate_and_normalize, cfg)
        assert got == _outcome(reference_normalize, cfg), cfg
        ok += got[0] == "ok"
    assert ok >= 100


def test_predicates_match_kernels():
    # same_field and separates, which the Kummer builder also uses, against
    # kernel equality and the intersection of the kernels
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        exps = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))),
                            reverse=True))
        group = PGroup(p, exps)
        chars = [random_char(rng, group, rng.randint(1, exps[0])) for _ in range(2)]
        chars += [field_variant(rng, chars[0]) for _ in range(rng.randint(0, 2))]
        for chi in chars:
            for psi in chars:
                same = same_field(chi, psi)
                assert same == (
                    reference_kernel_at_level(chi, chi.exponent)
                    == reference_kernel_at_level(psi, psi.exponent)
                )
                seen.add(("same", same))
        common = Subgroup.full(group)
        for chi in chars:
            common = intersect(common, reference_kernel_at_level(chi, chi.exponent))
        sep = separates(group, chars)
        assert sep == (common.order == 1)
        seen.add(("separates", sep))
    assert len(seen) == 4


def test_normalize_runs_no_lattice_kernel(golden_raw_configs, no_lattice):
    group = PGroup(2, (80, 80))
    chars = tuple(
        Character(group, 80, c) for c in ((1, 0), (0, 1), (1, 1), (1, 3), (1, 5))
    )
    cfg = validate_and_normalize(FieldConfig(group, chars, ()))
    assert cfg.m == 4 and cfg.eij[1][2] == 0
    assert len(golden_raw_configs) == 5
    for raw in golden_raw_configs:
        assert validate_and_normalize(raw).m >= 2


@pytest.fixture(scope="module")
def golden_raw_configs():
    """The raw configs of the golden examples, built before any test patches."""
    from multinorm_sha.cli import EXAMPLES, parse_document

    return [
        raw
        for entry in EXAMPLES.values()
        for raw, _local, _budget, _debug in parse_document(entry["document"])
    ]


@st.composite
def surjective_chars(draw):
    """The coordinate characters of A, which separate it, plus 1-4 random
    surjective characters, in a drawn order."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rank = draw(st.integers(2, 3))
    exps = tuple(sorted(draw(st.lists(st.integers(1, 6), min_size=rank, max_size=rank)),
                        reverse=True))
    group = PGroup(p, exps)
    unit = st.integers(1, p - 1)
    chars = [
        Character(group, n, tuple(draw(unit) if l == j else 0 for l in range(rank)))
        for j, n in enumerate(exps)
    ]
    for _ in range(draw(st.integers(1, 4))):
        # a unit at a coordinate l0 with n_l0 >= eps makes the character surjective
        eps = draw(st.integers(1, exps[0]))
        l0 = draw(st.sampled_from([l for l, n in enumerate(exps) if n >= eps]))
        coeffs = []
        for l, n in enumerate(exps):
            c = draw(st.integers(0, p ** eps - 1))
            if l == l0:
                c += 1 - c % p
            coeffs.append(c - c % p ** max(0, eps - n))
        chars.append(Character(group, eps, tuple(coeffs)))
    return draw(st.permutations(chars))


@settings(max_examples=150, deadline=None)
@given(chars=surjective_chars(), data=st.data())
def test_meet_symmetric_and_permutation_invariant(chars, data):
    for chi in chars:
        assert meet(chi, chi) == chi.exponent
        for psi in chars:
            assert meet(chi, psi) == meet(psi, chi)
    group = chars[0].ambient
    labels = tuple(f"F{i}" for i in range(len(chars)))
    order = data.draw(st.permutations(range(len(chars))))
    permuted = FieldConfig(
        group, tuple(chars[i] for i in order), tuple(labels[i] for i in order)
    )
    try:
        cfg = validate_and_normalize(FieldConfig(group, tuple(chars), labels))
    except ShaInputError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            validate_and_normalize(permuted)
        return
    again = validate_and_normalize(permuted)
    for new in (cfg, again):
        for i, chi in enumerate(new.chars):
            for j, psi in enumerate(new.chars):
                assert new.eij[i][j] == meet(chi, psi)
    # duplicated fields may keep another representative after the permutation
    if set(again.labels) == set(cfg.labels):
        pos = {label: i for i, label in enumerate(cfg.labels)}
        for i, a in enumerate(again.labels):
            for j, b in enumerate(again.labels):
                assert again.eij[i][j] == cfg.eij[pos[a]][pos[b]]


def test_fields_meet_only_where_their_unit_coordinates_agree(monkeypatch):
    # normalize_rows writes e_ij = 0 for a pair whose first unit coordinates
    # differ without calling _meet, and its e_ij still equal meet on the
    # kept fields; the draws are those selftest.random_config decides,
    # refused ones included
    import multinorm_sha.fields as fields
    import multinorm_sha.selftest as selftest

    draws = []
    normalize = fields.normalize_rows

    def recorded(p, exps, rows):
        draws.append((p, tuple(exps), rows))
        return normalize(p, exps, rows)

    monkeypatch.setattr(selftest, "normalize_rows", recorded)
    rng = random.Random(41)
    while len(draws) < 1000:
        selftest.random_config(rng)
    monkeypatch.undo()

    met = []
    honest = fields._meet

    def counted(p, q, rows):
        met.append([next(l for l, c in enumerate(u) if c % p) for _, u in rows])
        return honest(p, q, rows)

    monkeypatch.setattr(fields, "_meet", counted)
    outcomes, apart = {}, 0
    for p, exps, rows in draws:
        leads = [next(l for l, c in enumerate(coeffs) if c % p) for _, coeffs in rows]
        apart += sum(a != b for t, a in enumerate(leads) for b in leads[t + 1:])
        try:
            order, eij = fields.normalize_rows(p, exps, rows)
        except ShaInputError as exc:
            outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
            continue
        outcomes["ok"] = outcomes.get("ok", 0) + 1
        group = PGroup(p, exps)
        chars = [Character(group, eps, coeffs) for eps, coeffs in rows]
        for a, i in enumerate(order):
            for b, j in enumerate(order):
                assert eij[a][b] == meet(chars[i], chars[j]), (p, exps, rows)
    assert all(l == l2 for l, l2 in met), [m for m in met if m[0] != m[1]][:5]
    assert met and apart > 1000, apart
    assert {"ok", "TooFewFields", "IntersectionNotBase"} <= set(outcomes), outcomes
