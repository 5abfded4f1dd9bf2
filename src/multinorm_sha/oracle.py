"""Definitional brute-force computation of the obstruction groups.

Classifies vectors of the ambient sum (+) Z/p^{e_i} against all candidate
decomposition subgroups and returns G and G_omega as explicit subgroups,
together with the invariant factors of sha = G/D and sha_omega = G_omega/D,
D the diagonal.  This is the slow, trusted route; the closed-form route must
match it.

Only the slice H = {a : a_1 = 0} is swept, one vector per coset of D.  The
classification of a depends on each a_i only through n - a_i, with n running
over all of Z/p^{e_1} and e_1 the largest swept exponent, so a and
a + c(1,...,1) are classified alike.  H is a complement of D, hence
G = (G cap H) (+) D and G/D is isomorphic to G cap H; likewise for G_omega.
The sweep budget still counts the whole ambient sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .abelian import BudgetExceeded, PGroup, Subgroup
from .fields import NormalizedConfig
from .places import (
    Classification,
    LocalData,
    delta,
    dominates,
    fail_set,
    generic_place_candidates,
    i_n,
    omega_contains,
    sigma_contains,
    sigma_threshold,
)

__all__ = [
    "Classification",
    "InternalCheckError",
    "ShaReport",
    "aprime",
    "classify",
    "classify_fast",
    "compute_G_and_Gomega",
    "delta",
    "dominates",
    "enumerate_members",
    "i_n",
    "omega_contains",
    "oracle_report",
    "quotient_by_D",
    "sigma_contains",
    "subtorus_groups",
    "varpi_r",
]

DEFAULT_BUDGET = 2 ** 24
_SENTINEL = 10 ** 6  # stands for "dominated, condition vacuous"


class InternalCheckError(RuntimeError):
    """An enumeration-time invariant failed; the oracle itself is broken."""


@dataclass(frozen=True)
class ShaReport:
    """Invariant factors (p-exponents, non-increasing) of the two groups."""

    sha_invariants: tuple[int, ...]
    sha_omega_invariants: tuple[int, ...]
    quotient_invariants: tuple[int, ...] | None
    method: str
    agreement: bool | None = None
    quotient_annotation: tuple[int, ...] | None = None
    generators: tuple | None = None

    def __post_init__(self):
        for seq in (self.sha_invariants, self.sha_omega_invariants):
            if any(a < b for a, b in zip(seq, seq[1:])):
                raise ValueError("invariant factors must be non-increasing")
        small, big = self.sha_invariants, self.sha_omega_invariants
        # subgroup invariants divide group invariants factor by factor
        if len(small) > len(big) or any(s > b for s, b in zip(small, big)):
            raise ValueError("sha must embed in sha_omega factor by factor")


@lru_cache(maxsize=None)
def _delta_table(p: int, e1: int, e: int):
    """table[n][y] = delta(n, y), with a large sentinel when n dominates y."""
    q1, q = p ** e1, p ** e
    table = []
    for n in range(q1):
        row = []
        for y in range(q):
            if (n - y) % q == 0:
                row.append(_SENTINEL)
            else:
                row.append(delta(p, n, e1, y, e))
        table.append(row)
    return table


def _maximal_vectors(vecs):
    distinct = set(vecs)
    out = [
        s
        for s in distinct
        if not any(t != s and all(x >= y for x, y in zip(t, s)) for t in distinct)
    ]
    return sorted(out, reverse=True)


class _SweepContext:
    """Precomputed classification data for one (config, places, index set)."""

    def __init__(self, cfg: NormalizedConfig, localdata: LocalData, indices):
        self.cfg = cfg
        self.indices = tuple(indices)
        self.exps = tuple(cfg.e_i(i) for i in self.indices)
        if any(a < b for a, b in zip(self.exps, self.exps[1:])):
            raise InternalCheckError("index set must have non-increasing e_i")
        self.p = cfg.p
        self.e1 = self.exps[0]
        self.n_range = cfg.p ** self.e1
        self.tables = [_delta_table(cfg.p, self.e1, e) for e in self.exps]
        cyc = [
            tuple(sigma_threshold(cfg, sub, i) for i in self.indices)
            for sub in generic_place_candidates(cfg)
        ]
        exc = [
            tuple(sigma_threshold(cfg, pl.group, i) for i in self.indices)
            for pl in localdata.exceptional
        ]
        self.cyclic_tvecs = _maximal_vectors(cyc)
        self.exc_tvecs = _maximal_vectors(exc)
        self.members = None  # (G slice, G_omega slice), set by the sweep

    def classify(self, a) -> Classification:
        cyc = set(self.cyclic_tvecs)
        exc = set(self.exc_tvecs)
        tables = self.tables
        width = len(self.exps)
        first = a[0]
        for n in itertools.chain((first,), range(self.n_range)):
            vals = tuple(tables[pos][n][a[pos]] for pos in range(width))
            if cyc:
                cyc = {s for s in cyc if any(v < t for v, t in zip(vals, s))}
            if exc:
                exc = {s for s in exc if any(v < t for v, t in zip(vals, s))}
            if not cyc and not exc:
                return Classification.IN_G
        if cyc:
            return Classification.OUTSIDE
        return Classification.IN_G_OMEGA_ONLY


def _context(cfg: NormalizedConfig, localdata: LocalData, indices=None) -> _SweepContext:
    if indices is None:
        indices = tuple(range(1, cfg.m + 1))
    indices = tuple(indices)
    cache = cfg.__dict__.setdefault("_sweep_cache", {})
    key = (localdata, indices)
    if key not in cache:
        cache[key] = _SweepContext(cfg, localdata, indices)
    return cache[key]


def classify_fast(cfg, localdata, a, indices=None) -> Classification:
    return _context(cfg, localdata, indices).classify(a)


def classify(cfg: NormalizedConfig, localdata: LocalData, a) -> Classification:
    return classify_fast(cfg, localdata, a)


def enumerate_members(cfg, localdata, indices=None, budget=DEFAULT_BUDGET):
    """The vectors of G and of G_omega whose first swept coordinate is 0.

    That is one member per coset of the diagonal, over the given index set
    (default: all).  Each index set is swept once per config; later calls
    return the stored tuples.  The budget bounds the whole ambient sum.
    """
    if indices is None:
        indices = range(1, cfg.m + 1)
    total = prod(cfg.p ** cfg.e_i(i) for i in indices)
    if total > budget:
        raise BudgetExceeded(
            f"oracle sweep over {total} candidate vectors exceeds budget {budget}"
        )
    ctx = _context(cfg, localdata, indices)
    if ctx.members is None:
        g_members, gw_members = [], []
        ranges = [range(1)] + [range(cfg.p ** e) for e in ctx.exps[1:]]
        for a in itertools.product(*ranges):
            cls = ctx.classify(a)
            if cls is Classification.OUTSIDE:
                continue
            gw_members.append(a)
            if cls is Classification.IN_G:
                g_members.append(a)
        ctx.members = (tuple(g_members), tuple(gw_members))
    return ctx.members


def _as_subgroup(ambient: PGroup, members) -> Subgroup:
    sub = Subgroup.span(ambient, members)
    if sub.order != len(members):
        raise InternalCheckError(
            "classified member set is not closed under addition"
        )
    return sub


def _slice_subgroups(cfg, localdata, indices=None, budget=DEFAULT_BUDGET):
    """The spans of the swept slices, G cap H and G_omega cap H.

    Closure and the chain D <= G <= G_omega, read on the slices as
    0 in G cap H <= G_omega cap H, are verified, not assumed.
    """
    g_members, gw_members = enumerate_members(cfg, localdata, indices, budget)
    ambient = PGroup(cfg.p, _context(cfg, localdata, indices).exps)
    if not g_members or g_members[0] != ambient.zero():
        raise InternalCheckError("expected D <= G")
    g_sub = _as_subgroup(ambient, g_members)
    gw_sub = _as_subgroup(ambient, gw_members)
    if not g_sub.issubset(gw_sub):
        raise InternalCheckError("expected G <= G_omega")
    return g_sub, gw_sub


def _plus_diagonal(sub: Subgroup) -> Subgroup:
    ambient = sub.ambient
    return Subgroup._span_rows(ambient, list(sub.basis) + [(1,) * ambient.rank])


def compute_G_and_Gomega(
    cfg: NormalizedConfig,
    localdata: LocalData,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Subgroup, Subgroup]:
    """G and G_omega as canonical subgroups of (+) Z/p^{e_i}."""
    g_sub, gw_sub = _slice_subgroups(cfg, localdata, budget=budget)
    return _plus_diagonal(g_sub), _plus_diagonal(gw_sub)


def subtorus_groups(cfg, localdata, r: int, budget: int = DEFAULT_BUDGET):
    """G and G_omega of the block (K_0, K_{U_r}), as subgroups of (+)_{U_r}."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    g_sub, gw_sub = _slice_subgroups(cfg, localdata, cfg.U(r), budget)
    return _plus_diagonal(g_sub), _plus_diagonal(gw_sub)


def quotient_by_D(group: Subgroup) -> list[int]:
    """Invariant factors (p-exponents) of group/D, D the diagonal subgroup."""
    ambient = group.ambient
    diag = Subgroup.span(ambient, [(1,) * ambient.rank])
    if not diag.issubset(group):
        raise InternalCheckError("diagonal subgroup not contained in the group")
    return group.invariants_mod(diag)


def varpi_r(cfg: NormalizedConfig, a, r: int) -> tuple[int, ...]:
    """Coordinate restriction of a to the block U_r."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    return tuple(a[i - 1] for i in cfg.U(r))


def in_diagonal(cfg: NormalizedConfig, a) -> bool:
    p = cfg.p
    return all(
        (a[0] - a[i - 1]) % p ** cfg.e_i(i) == 0 for i in range(1, cfg.m + 1)
    )


def aprime(cfg: NormalizedConfig, localdata: LocalData, a) -> tuple[int, ...]:
    """The two-valued approximation a' of a with no larger failure set.

    Requires a in G_omega \\ D.  Asserts the defining properties: a' is not
    diagonal and every candidate place failing for a' already failed for a.
    """
    if in_diagonal(cfg, a):
        raise ValueError("a lies in the diagonal subgroup")
    if classify(cfg, localdata, a) is Classification.OUTSIDE:
        raise ValueError("a is not in G_omega")
    p = cfg.p
    e1 = cfg.e_i(1)
    a1 = a[0]
    inside = set(i_n(cfg, a, a1))
    outside = [i for i in range(1, cfg.m + 1) if i not in inside]
    dmin = min(delta(p, a1, e1, a[i - 1], cfg.e_i(i)) for i in outside)
    stratum = [
        i for i in outside if delta(p, a1, e1, a[i - 1], cfg.e_i(i)) == dmin
    ]
    j = stratum[0]
    out = []
    for i in range(1, cfg.m + 1):
        if i in stratum:
            out.append(a[j - 1] % p ** cfg.e_i(i))
        else:
            out.append(a1 % p ** cfg.e_i(i))
    res = tuple(out)
    if in_diagonal(cfg, res):
        raise InternalCheckError("a' landed in the diagonal subgroup")
    if not fail_set(cfg, localdata, res) <= fail_set(cfg, localdata, a):
        raise InternalCheckError("failure set of a' is not contained in that of a")
    return res


def oracle_report(cfg, localdata, budget: int = DEFAULT_BUDGET) -> ShaReport:
    g_sub, gw_sub = _slice_subgroups(cfg, localdata, budget=budget)
    zero = Subgroup.trivial(g_sub.ambient)
    return ShaReport(
        sha_invariants=tuple(g_sub.invariants_mod(zero)),
        sha_omega_invariants=tuple(gw_sub.invariants_mod(zero)),
        quotient_invariants=tuple(gw_sub.invariants_mod(g_sub)),
        method="oracle",
    )
