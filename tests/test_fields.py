import random

import pytest

from multinorm_sha.abelian import (
    Character,
    PGroup,
    Subgroup,
    intersect,
    join,
    quotient_invariants,
    subgroup_from_generators,
)
from multinorm_sha.fields import (
    FieldConfig,
    IntersectionNotBase,
    NonSeparatingAmbient,
    NonSurjectiveCharacter,
    TooFewFields,
    validate_and_normalize,
)

from conftest import abstract_config

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
        assert cfg.subfield(i, 0) == Subgroup.full(cfg.group)
        assert cfg.subfield(i, cfg.eps[i]) == cfg.kernel(i)
    idx = cfg.permutation.index(2)
    mid = cfg.subfield(idx, 1)
    assert mid.order == 8
    assert set(mid.elements()) == {
        a for a in cfg.group.elements() if (a[0] + 2 * a[1]) % 2 == 0
    }
    with pytest.raises(ValueError):
        cfg.subfield(0, 3)


def test_composite():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.composite((1,), 2) == cfg.subfield(1, 2)
    assert cfg.composite((0, 1, 2), 0) == Subgroup.full(cfg.group)
    assert cfg.composite((0, 1), 2) == Subgroup.trivial(cfg.group)
    with pytest.raises(ValueError):
        cfg.composite((), 1)
    with pytest.raises(ValueError):
        cfg.composite((0,), 3)


def test_intersection_exponent():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 2))])
    assert cfg.intersection_exponent(0, 0) == 2
    assert cfg.intersection_exponent(0, 1) == 0
    idx = cfg.permutation.index(2)
    assert cfg.intersection_exponent(0, idx) == 1


def test_is_sub_bicyclic():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    assert cfg.is_sub_bicyclic(Subgroup.full(cfg.group))
    assert cfg.is_sub_bicyclic(subgroup_from_generators(cfg.group, [(2, 2)]))
    g3 = PGroup(2, (1, 1, 1))
    cfg3 = abstract_config(
        2, (1, 1, 1), [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    )
    assert not cfg3.is_sub_bicyclic(Subgroup.trivial(g3))


def test_pair_composite():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    # d = beta: both subfields coincide with the intersection level
    beta = 0
    assert cfg.pair_composite(0, 1, 2, beta) == Subgroup.full(cfg.group)
    assert cfg.pair_composite(2, 1, 2, beta) == Subgroup.trivial(cfg.group)
    with pytest.raises(ValueError):
        cfg.pair_composite(3, 1, 2, beta)


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
                sub = cfg.subfield(i, f)
                assert cfg.kernel(i).issubset(sub)
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
        hi, hj = chars[0].kernel(), chars[1].kernel()
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
        hi, hj, hr = chi_i.kernel(), chi_j.kernel(), rho.kernel()
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
        pair = intersect(chi_i.kernel_at_level(g), chi_j.kernel_at_level(g))
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
        comp = cfg.composite(subset, d)
        inv = quotient_invariants(cfg.group, comp)
        if len(inv) != 2:
            continue
        best = None
        for s in subset:
            for t in subset:
                if s < t:
                    pair = intersect(cfg.subfield(s, d), cfg.subfield(t, d))
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
