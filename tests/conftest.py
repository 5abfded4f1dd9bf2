import importlib
import sys
from pathlib import Path

import pytest

from multinorm_sha import (
    Character,
    FieldConfig,
    KummerSpec,
    LocalData,
    PGroup,
    build_kummer,
    validate_and_normalize,
)
from multinorm_sha import cli


def abstract_config(p, exponents, char_specs, labels=None):
    """(exponent, coeffs) pairs -> normalized config with no places."""
    group = PGroup(p, tuple(exponents))
    chars = tuple(Character(group, eps, tuple(coeffs)) for eps, coeffs in char_specs)
    labels = tuple(labels) if labels else ()
    return validate_and_normalize(FieldConfig(group, chars, labels))


def kummer_config(radicands):
    raw, local = build_kummer(KummerSpec(tuple(radicands)))
    return validate_and_normalize(raw), local


NO_PLACES = LocalData(())


def run_example(name, method="both"):
    """(report, golden failures) of a built-in example."""
    entry = cli.EXAMPLES[name]
    report = cli.build_report(cli.parse_document(entry["document"]), method)
    return report, cli._check_example(report, entry)


def perfbench_module(name):
    """A module of the benchmark harness, perfbench/<name>.py."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(perfbench))


def perfbench_workloads():
    """The benchmark's input generators, perfbench/workloads.py."""
    return perfbench_module("workloads")


# ---------------------------------------------------------------------------
# Random characters and configs, shared by the reference tests.

def random_coeff(rng, p, eps, n):
    """A random coefficient of a character Z/p^n -> Z/p^eps."""
    x = rng.randrange(p ** eps)
    return x - x % p ** max(0, eps - n)


def random_char(rng, group, eps):
    """A random surjective character onto Z/p^eps."""
    while True:
        chi = Character(
            group, eps, tuple(random_coeff(rng, group.p, eps, n) for n in group.exponents)
        )
        if chi.is_surjective():
            return chi


def random_unit(rng, p, eps):
    while True:
        u = rng.randrange(1, p ** eps)
        if u % p:
            return u


def field_variant(rng, chi):
    """A unit multiple of chi, reduced to a level f: the field K_chi(f)."""
    p = chi.ambient.p
    f = rng.randint(1, chi.exponent)
    u = random_unit(rng, p, f)
    return Character(chi.ambient, f, tuple(u * c % p ** f for c in chi.coeffs))


def formula_shaped(rng, p, exps, nfields):
    """Coordinate characters, pair characters with two unit coefficients, and
    now and then a free character or a duplicate of an earlier field."""
    group = PGroup(p, exps)
    rank = len(exps)
    chars = [
        Character(group, n, tuple(random_unit(rng, p, n) if l == j else 0 for l in range(rank)))
        for j, n in enumerate(exps)
    ]
    while len(chars) < nfields:
        roll = rng.random()
        if roll < 0.05:
            chars.append(field_variant(rng, rng.choice(chars)))
        elif roll < 0.1:
            chars.append(random_char(rng, group, rng.randint(1, exps[0])))
        else:
            eps = rng.randint(1, exps[1])
            pair = rng.sample([l for l in range(rank) if exps[l] >= eps], 2)
            chars.append(Character(group, eps, tuple(
                random_unit(rng, p, eps) if l in pair else random_coeff(rng, p, eps, n)
                for l, n in enumerate(exps)
            )))
    rng.shuffle(chars)
    return FieldConfig(group, tuple(chars), ())


@pytest.fixture
def quartic_17_13():
    """K = Q(i)(4rt 17), Q(i)(4rt 221), Q(i)(4rt 13)."""
    return kummer_config([17, 17 * 13, 13])


@pytest.fixture
def quartic_17_409():
    return kummer_config([17, 17 * 409, 409])


@pytest.fixture
def quartic_bicyclic():
    """K = Q(i)(4rt 13), Q(i)(4rt 17), Q(i)(4rt 13*17^2)."""
    return kummer_config([13, 17, 13 * 17 * 17])


@pytest.fixture
def no_literal_places(monkeypatch):
    """Make the literal place sweep raise: fail_set, the cyclic candidates
    and both bindings of the cyclic-subgroup enumeration behind them."""
    import multinorm_sha.abelian as abelian
    import multinorm_sha.places as places

    def refuse(*args, **kwargs):
        raise AssertionError("the literal place sweep ran")

    for module, name in (
        (places, "fail_set"),
        (places, "generic_place_candidates"),
        (places, "cyclic_subgroups"),
        (abelian, "cyclic_subgroups"),
    ):
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def no_listing(monkeypatch):
    """Make every listing of group elements raise: oracle.enumerate_members,
    in every package module that binds it, and the elements() of
    abelian.Subgroup and abelian.PGroup."""
    import sys

    import multinorm_sha.abelian as abelian
    import multinorm_sha.oracle as oracle

    original = oracle.enumerate_members

    def refuse(*args, **kwargs):
        raise AssertionError("a group was listed")

    for name, module in list(sys.modules.items()):
        if name.startswith("multinorm_sha") and getattr(module, "enumerate_members", None) is original:
            monkeypatch.setattr(module, "enumerate_members", refuse)
    monkeypatch.setattr(abelian.Subgroup, "elements", refuse)
    monkeypatch.setattr(abelian.PGroup, "elements", refuse)


@pytest.fixture
def no_lattice(monkeypatch):
    """Make the lattice kernels of abelian.py raise: Hermite form, left
    kernel and Smith form, behind its spans, joins, intersections and
    quotient invariants."""
    import multinorm_sha.abelian as abelian

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice kernel ran")

    for name in ("hermite_normal_form", "left_kernel", "smith_invariants"):
        monkeypatch.setattr(abelian, name, refuse)


@pytest.fixture
def no_intersect(monkeypatch):
    """Make abelian.intersect raise, in abelian.py and in every package
    module that binds it."""
    import sys

    import multinorm_sha.abelian as abelian

    original = abelian.intersect

    def refuse(*args, **kwargs):
        raise AssertionError("abelian.intersect ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("multinorm_sha") and getattr(module, "intersect", None) is original:
            monkeypatch.setattr(module, "intersect", refuse)
