"""The oracle's former vector sweep, kept as a reference for the tests.

Classifies a vector by trying every n in Z/p^{e_1} against the threshold
vectors of all cyclic subgroups of A (places.generic_place_candidates) and
of the exceptional places, both from places.sigma_threshold, and builds G
and G_omega by sweeping the slice a_1 = 0 and spanning the passing vectors.
It shares no code with the congruence engine in oracle.py.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from multinorm_sha.abelian import PGroup, Subgroup
from multinorm_sha.oracle import InternalCheckError
from multinorm_sha.places import (
    Classification,
    delta,
    generic_place_candidates,
    sigma_threshold,
)

_SENTINEL = 10 ** 6  # stands for "dominated, condition vacuous"


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


class SweepContext:
    """Classification data for one (config, places, index set)."""

    def __init__(self, cfg, localdata, indices):
        self.indices = tuple(indices)
        self.exps = tuple(cfg.e_i(i) for i in self.indices)
        self.n_range = cfg.p ** self.exps[0]
        self.cyclic_tvecs = _maximal_vectors(
            tuple(sigma_threshold(cfg, sub, i) for i in self.indices)
            for sub in generic_place_candidates(cfg)
        )
        self.exc_tvecs = _maximal_vectors(
            tuple(sigma_threshold(cfg, pl.group, i) for i in self.indices)
            for pl in localdata.exceptional
        )
        self.tables = [_delta_table(cfg.p, self.exps[0], e) for e in self.exps]

    def classify(self, a) -> Classification:
        cyc = set(self.cyclic_tvecs)
        exc = set(self.exc_tvecs)
        tables = self.tables
        width = len(self.exps)
        for n in itertools.chain((a[0],), range(self.n_range)):
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


def as_subgroup(ambient: PGroup, members) -> Subgroup:
    """The span of members, which must already be closed under addition."""
    sub = Subgroup.span(ambient, members)
    if sub.order != len(members):
        raise InternalCheckError(
            "classified member set is not closed under addition"
        )
    return sub


def reference_groups(cfg, localdata, indices=None):
    """G and G_omega over an index set: the passing slice vectors, spanned
    and closure-checked, plus the diagonal."""
    if indices is None:
        indices = range(1, cfg.m + 1)
    ctx = SweepContext(cfg, localdata, indices)
    ambient = PGroup(cfg.p, ctx.exps)
    g_members, gw_members = [], []
    ranges = [range(1)] + [range(cfg.p ** e) for e in ctx.exps[1:]]
    for a in itertools.product(*ranges):
        cls = ctx.classify(a)
        if cls is not Classification.OUTSIDE:
            gw_members.append(a)
        if cls is Classification.IN_G:
            g_members.append(a)
    diag = [(1,) * ambient.rank]
    return tuple(
        Subgroup._span_rows(ambient, list(as_subgroup(ambient, mem).basis) + diag)
        for mem in (g_members, gw_members)
    )
