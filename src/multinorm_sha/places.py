"""Places of k modeled through decomposition subgroups.

All but finitely many places are unramified with cyclic decomposition group,
and every cyclic subgroup of A arises that way infinitely often, so the
generic places are represented exactly by the set of all cyclic subgroups of
A.  The finitely many exceptional places (ramified ones, or any the user
wants to pin down) are listed explicitly with their decomposition subgroups.
A failure at a cyclic candidate therefore means an infinite set of failing
places; a failure at an exceptional place means a finite one.

The runtime reads the place model (Place, LocalData), sigma_threshold and
local cyclicity from here.  sigma_threshold is the chi_0 level of D cap H_i
(abelian.Character.image_level), the level the oracle also reads off
ker chi_i cap ker chi_j for its generic pair levels.  The literal
membership path, fail_set over generic_place_candidates through
omega_contains and sigma_contains, tries every place and every n; no
runtime path calls it.  It is the reference the tests hold the oracle's
pass groups against, and it stays here because the benchmark's span
recorder wraps fail_set and generic_place_candidates by name.  The
definitional subgroup test behind sigma_contains lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .abelian import (
    PGroup,
    Subgroup,
    cyclic_subgroups,
    divisor_valuations,
    intersect,
    valuation,
)
from .fields import NormalizedConfig


@dataclass(frozen=True)
class Place:
    """An exceptional place, carrying its decomposition subgroup of A."""

    label: str
    group: Subgroup
    exceptional: bool = True


@dataclass(frozen=True)
class LocalData:
    """The finite list of exceptional places (possibly empty)."""

    exceptional: tuple[Place, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "exceptional", tuple(self.exceptional))
        labels = [pl.label for pl in self.exceptional]
        if len(set(labels)) != len(labels):
            raise ValueError("exceptional place labels must be unique")


class Classification(Enum):
    IN_G = "in_G"
    IN_G_OMEGA_ONLY = "in_G_omega_only"
    OUTSIDE = "outside"


def delta(p: int, x: int, s: int, y: int, t: int) -> int:
    """Greatest d <= min(s, t) with x = y mod p^d (x mod p^s, y mod p^t)."""
    d = min(s, t)
    z = (x - y) % p ** d
    if z == 0:
        return d
    return valuation(p, z)


def i_n(cfg: NormalizedConfig, a, n: int) -> tuple[int, ...]:
    """The set of indices i with n dominating a_i, as field indices 1..m."""
    p = cfg.p
    return tuple(
        i
        for i in range(1, cfg.m + 1)
        if (n - a[i - 1]) % p ** cfg.e_i(i) == 0
    )


@lru_cache(maxsize=None)
def _cyclic_candidates(group: PGroup) -> tuple[Subgroup, ...]:
    return tuple(cyclic_subgroups(group))


def generic_place_candidates(cfg: NormalizedConfig) -> tuple[Subgroup, ...]:
    """All cyclic subgroups of A, each standing for infinitely many places."""
    return _cyclic_candidates(cfg.group)


@lru_cache(maxsize=None)
def _sigma_threshold(chi0, h_i: Subgroup, d_sub: Subgroup) -> int:
    """Least d with sigma_contains true; monotone, so one number suffices:
    the chi_0 level of D cap H_i."""
    return chi0.image_level(intersect(d_sub, h_i))


def sigma_threshold(cfg: NormalizedConfig, d_sub: Subgroup, i: int) -> int:
    return _sigma_threshold(cfg.chars[0], cfg.kernel(i), d_sub)


def sigma_contains(cfg: NormalizedConfig, d_sub: Subgroup, i: int, d: int) -> bool:
    """Whether a place with decomposition group D lies in Sigma_i^d.

    Equivalent forms: K_0(eps_0 - d) tensor K_i^w splits into copies of
    K_i^w at every w over the place, or (D cap H_i) <= the subgroup of
    K_0(eps_0 - d).
    """
    if not 0 <= d <= cfg.eps[0]:
        raise ValueError(f"degree {d} out of range [0, {cfg.eps[0]}]")
    return d >= sigma_threshold(cfg, d_sub, i)


def omega_contains(cfg: NormalizedConfig, d_sub: Subgroup, a, n: int) -> bool:
    """Whether a place with decomposition group D lies in Omega(I_n(a))."""
    inside = i_n(cfg, a, n)
    if len(inside) == cfg.m:
        return True
    p = cfg.p
    e1 = cfg.e_i(1)
    for i in range(1, cfg.m + 1):
        if i in inside:
            continue
        d = delta(p, n, e1, a[i - 1], cfg.e_i(i))
        if not sigma_contains(cfg, d_sub, i, d):
            return False
    return True


def _passes_place(cfg, d_sub, a) -> bool:
    return any(
        omega_contains(cfg, d_sub, a, n) for n in range(cfg.p ** cfg.e_i(1))
    )


def fail_set(cfg: NormalizedConfig, localdata: LocalData, a):
    """Labels of all failing candidates: canonical cyclic bases + place labels."""
    failures = set()
    for sub in generic_place_candidates(cfg):
        if not _passes_place(cfg, sub, a):
            failures.add(("cyclic", sub.basis))
    for place in localdata.exceptional:
        if not _passes_place(cfg, place.group, a):
            failures.add(("place", place.label))
    return failures


def locally_cyclic(cfg: NormalizedConfig, localdata: LocalData, C, d: int) -> bool:
    """Whether the composite K(C, d) of the K_i(d), i in C, is locally cyclic
    at every place.

    Cyclic decomposition groups have cyclic images, so generic places never
    fail; only the exceptional list needs checking.  At a place with
    decomposition group D the local Galois group is DH/H, H the subgroup of
    K(C, d).  H is the kernel of a -> (chi_i(a) mod p^d)_{i in C}, so DH/H is
    the image of D in (Z/p^d)^C, the span of the rows chi_i(g) over the basis
    rows g of D: cyclic iff it has at most one elementary divisor.
    """
    rows = cfg.rows(C, d)
    q = cfg.p ** d
    for place in localdata.exceptional:
        image = [
            [sum(c * x for c, x in zip(row, g)) % q for row in rows]
            for g in place.group.basis
        ]
        if len(divisor_valuations(image, cfg.p, d)) > 1:
            return False
    return True
