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
def no_lattice(monkeypatch):
    """Make the lattice kernels of abelian.py raise: Hermite form, left
    kernel and Smith form, behind its spans, joins, intersections and
    quotient invariants."""
    import multinorm_sha.abelian as abelian

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice kernel ran")

    for name in ("hermite_normal_form", "left_kernel", "smith_invariants"):
        monkeypatch.setattr(abelian, name, refuse)
