import itertools
import random
from math import prod

import pytest

from multinorm_sha.abelian import PGroup, Subgroup, intersect
from multinorm_sha.places import (
    Classification,
    LocalData,
    Place,
    delta,
    fail_set,
    generic_place_candidates,
    i_n,
    locally_cyclic,
    omega_contains,
    sigma_contains,
)
from multinorm_sha.oracle import classify
from multinorm_sha.selftest import random_config

from conftest import NO_PLACES, abstract_config
from structure_reference import (
    noncyclic_places,
    reference_composite,
    reference_kernel_at_level,
)


def sigma_contains_literal(cfg, d_sub, i, d):
    """Definitional form of sigma_contains, for cross-checking."""
    h_i = reference_kernel_at_level(cfg.chars[i], cfg.eps[i])
    return intersect(d_sub, h_i).issubset(
        reference_kernel_at_level(cfg.chars[0], cfg.eps[0] - d)
    )


def test_delta_examples():
    assert delta(2, 1, 2, 1, 2) == 2
    assert delta(2, 1, 2, 3, 2) == 1
    assert delta(2, 5, 3, 1, 1) == 1
    assert delta(3, 4, 2, 7, 2) == 1
    assert delta(2, 0, 3, 4, 3) == 2


def four_field_config():
    # e_i = (2, 2, 1): fields (0,1), (1,1), (1,2) against K_0 = (1,0)
    return abstract_config(
        2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1)), (2, (1, 2))]
    )


def test_i_n_examples():
    cfg = four_field_config()
    assert cfg.eis == (2, 2, 1)
    # diagonal image of n: every index dominated
    assert i_n(cfg, (3, 3, 1), 3) == (1, 2, 3)
    assert i_n(cfg, (0, 0, 0), 1) == ()
    assert i_n(cfg, (0, 2, 1), 2) == (2,)


def test_sigma_trivial_cases():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    full = Subgroup.full(cfg.group)
    triv = Subgroup.trivial(cfg.group)
    for i in (1, 2):
        assert sigma_contains(cfg, full, i, cfg.eps[0])
        for d in range(cfg.eps[0] + 1):
            assert sigma_contains(cfg, triv, i, d)
    with pytest.raises(ValueError):
        sigma_contains(cfg, full, 1, 3)


def test_sigma_derived_example():
    cfg = abstract_config(2, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1))])
    # field with character (0,1) sits at some index i; D = <(1,0)> = its kernel
    i = cfg.permutation.index(1)
    d_sub = Subgroup.span(cfg.group, [(1, 0)])
    assert not sigma_contains(cfg, d_sub, i, 0)
    assert sigma_contains(cfg, d_sub, i, 2)


def test_sigma_matches_literal_definition():
    rng = random.Random(17)
    for spec, exps in [
        ([(2, (1, 0)), (2, (0, 1)), (2, (1, 2))], (2, 2)),
        ([(1, (0, 1)), (3, (1, 0)), (3, (1, 4))], (3, 1)),
        ([(2, (1, 0, 0)), (2, (0, 1, 0)), (1, (0, 0, 1)), (2, (1, 1, 2))], (2, 2, 1)),
    ]:
        cfg = abstract_config(2, exps, spec)
        for d_sub in generic_place_candidates(cfg):
            for i in range(1, cfg.m + 1):
                for d in range(cfg.eps[0] + 1):
                    assert sigma_contains(cfg, d_sub, i, d) == \
                        sigma_contains_literal(cfg, d_sub, i, d)
        for _ in range(10):
            gens = [
                tuple(rng.randrange(m) for m in cfg.group.moduli)
                for _ in range(2)
            ]
            d_sub = Subgroup.span(cfg.group, gens)
            for i in range(1, cfg.m + 1):
                for d in range(cfg.eps[0] + 1):
                    assert sigma_contains(cfg, d_sub, i, d) == \
                        sigma_contains_literal(cfg, d_sub, i, d)


def test_sigma_monotone_in_d():
    cfg = four_field_config()
    for d_sub in generic_place_candidates(cfg):
        for i in range(1, cfg.m + 1):
            values = [sigma_contains(cfg, d_sub, i, d) for d in range(cfg.eps[0] + 1)]
            assert values == sorted(values)  # False... then True...
            assert values[-1]


def test_omega_trivial_cases():
    cfg = four_field_config()
    full = Subgroup.full(cfg.group)
    # n dominating every entry: Omega(I) is everything
    assert omega_contains(cfg, full, (0, 0, 0), 0)
    assert omega_contains(cfg, full, (3, 3, 1), 3)


def test_omega_improvement_closure():
    # if omega holds at n, it holds at any n' dominating the same pattern
    cfg = four_field_config()
    p, e1 = cfg.p, cfg.e_i(1)
    vectors = list(itertools.product(*(range(p ** e) for e in cfg.eis)))
    rng = random.Random(1)
    for d_sub in generic_place_candidates(cfg):
        for a in rng.sample(vectors, 12):
            for n in range(p ** e1):
                if not omega_contains(cfg, d_sub, a, n):
                    continue
                inside = set(i_n(cfg, a, n))
                for n2 in range(p ** e1):
                    inside2 = set(i_n(cfg, a, n2))
                    if not inside <= inside2:
                        continue
                    if all(
                        delta(p, n2, e1, a[i - 1], cfg.e_i(i))
                        >= delta(p, n, e1, a[i - 1], cfg.e_i(i))
                        for i in range(1, cfg.m + 1)
                        if i not in inside2
                    ):
                        assert omega_contains(cfg, d_sub, a, n2)


def test_classify_diagonal_is_in_g():
    cfg = four_field_config()
    places = LocalData(
        (Place("w", Subgroup.span(cfg.group, [(1, 0), (0, 1)])),)
    )
    p = cfg.p
    for n in range(p ** cfg.e_i(1)):
        a = tuple(n % p ** e for e in cfg.eis)
        assert classify(cfg, places, a) is Classification.IN_G


def test_classify_paper_example(quartic_17_13):
    cfg, local = quartic_17_13
    # the order-4 generator of G_omega fails only at finitely many places
    gen = (1, 0)
    assert classify(cfg, local, gen) is Classification.IN_G_OMEGA_ONLY
    double = (2, 0)
    assert classify(cfg, local, double) is Classification.IN_G
    assert classify(cfg, NO_PLACES, gen) is Classification.IN_G


def test_classify_matches_fail_set():
    # the threshold engine against the literal place-by-place path
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        cfg, local = random_config(rng)
        if prod(cfg.p ** e for e in cfg.eis) > 64:
            continue
        checked += 1
        for a in itertools.product(*(range(cfg.p ** e) for e in cfg.eis)):
            kinds = {kind for kind, _ in fail_set(cfg, local, a)}
            if "cyclic" in kinds:
                expected = Classification.OUTSIDE
            elif kinds:
                expected = Classification.IN_G_OMEGA_ONLY
            else:
                expected = Classification.IN_G
            assert classify(cfg, local, a) is expected, (cfg, local, a)


def test_fail_set_shapes(quartic_17_13):
    cfg, local = quartic_17_13
    bad = fail_set(cfg, local, (1, 0))
    assert bad  # fails somewhere exceptional
    assert all(kind == "place" for kind, _ in bad)
    assert fail_set(cfg, local, (1, 1)) == set()


def test_locally_cyclic_and_noncyclic_places(quartic_17_13, quartic_17_409):
    cfg, local = quartic_17_13
    # the full compositum is not locally cyclic at the places over 13
    everything = (0, 1, 2)
    assert not locally_cyclic(cfg, local, everything, 2)
    bad = noncyclic_places(local, reference_composite(cfg, everything, 2))
    assert {pl.label for pl in bad} == {"13|3+2i", "13|3-2i"}
    # its quadratic part is locally cyclic
    assert locally_cyclic(cfg, local, everything, 1)
    assert noncyclic_places(local, reference_composite(cfg, everything, 1)) == []
    # cyclic quotients never fail, with or without places
    for i in everything:
        assert locally_cyclic(cfg, local, (i,), 2)
    assert locally_cyclic(cfg, NO_PLACES, everything, 2)
    with pytest.raises(ValueError):
        locally_cyclic(cfg, NO_PLACES, everything, 3)

    cfg2, local2 = quartic_17_409
    assert locally_cyclic(cfg2, local2, everything, 2)


def test_place_label_uniqueness():
    group = PGroup(2, (1, 1))
    sub = Subgroup.trivial(group)
    with pytest.raises(ValueError):
        LocalData((Place("v", sub), Place("v", sub)))
