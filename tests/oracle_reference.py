"""The oracle's former vector sweep, kept as a reference for the tests.

Classifies a vector by trying every n in Z/p^{e_1} against the threshold
vectors of all cyclic subgroups of A (places.generic_place_candidates) and
of the exceptional places, both from places.sigma_threshold, and builds G
and G_omega by sweeping the slice a_1 = 0 and spanning the passing vectors.
It shares no code with the congruence engine in oracle.py.

The signature pass the engine used before its pair levels came from joint
kernels is kept here too: generic_thresholds reads the threshold vector of
every cyclic subgroup <g> off the valuation signature of g, one pass over
the elements of A, and reference_congruences turns threshold vectors into
the congruences of G_omega, of G and of each exceptional place.

The full pair system the engine solved before it spanned its groups along
spanning trees is kept here too: pair_system_groups hands every pair
congruence to abelian.congruence_kernel.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from multinorm_sha.abelian import PGroup, Subgroup, congruence_kernel
from multinorm_sha.oracle import InternalCheckError
from multinorm_sha.places import (
    Classification,
    delta,
    generic_place_candidates,
    sigma_threshold,
)

def _valuations(p: int, eps: int) -> list[int]:
    """v_p(x) capped at eps, for every residue x mod p^eps."""
    q = p ** eps
    table = [0] * q
    for k in range(1, eps + 1):
        table[::p ** k] = [k] * (q // p ** k)
    return table


def signature_thresholds(cfg, s) -> tuple[int, ...]:
    """(t_1, ..., t_m) of the generic places with decomposition group <g>,
    s = (s_0, ..., s_m) the valuation signature of g."""
    eps = cfg.eps
    return tuple(
        eps[0] - min(eps[0], eps[i] - s[i] + s[0]) for i in range(1, cfg.m + 1)
    )


def generic_thresholds(cfg) -> frozenset:
    """The threshold vectors of all cyclic subgroups of A, by signature."""
    group = cfg.group
    # one column per character: its valuations over A in product order
    columns = []
    for chi in cfg.chars:
        q = chi.modulus
        vals = [0]
        for c, m in zip(chi.coeffs, group.moduli):
            steps = [c * x % q for x in range(m)]
            vals = [(v + s) % q for v in vals for s in steps]
        table = _valuations(cfg.p, chi.exponent)
        columns.append([table[v] for v in vals])
    return frozenset(signature_thresholds(cfg, s) for s in set(zip(*columns)))


def _threshold_congruences(p, tvecs, positions, exps):
    """(x, y, p^M_xy) for each M_xy > 0, M_xy the largest min(r_x, r_y) over
    the threshold vectors, r_x = min(t_x, e_x)."""
    rs = [[min(t[i], e) for i, e in zip(positions, exps)] for t in tvecs]
    out = []
    for x in range(len(exps)):
        for y in range(x + 1, len(exps)):
            lv = max((min(r[x], r[y]) for r in rs), default=0)
            if lv:
                out.append((x, y, p ** lv))
    return tuple(out)


def reference_congruences(cfg, localdata, indices):
    """(omega, g, places) of an index set from the signature pass: the
    congruences of G_omega, of G and of each exceptional place."""
    exps = tuple(cfg.e_i(i) for i in indices)
    positions = [i - 1 for i in indices]
    generic = list(generic_thresholds(cfg))
    exceptional = [
        tuple(sigma_threshold(cfg, pl.group, i) for i in range(1, cfg.m + 1))
        for pl in localdata.exceptional
    ]
    return (
        _threshold_congruences(cfg.p, generic, positions, exps),
        _threshold_congruences(cfg.p, generic + exceptional, positions, exps),
        tuple(_threshold_congruences(cfg.p, [t], positions, exps) for t in exceptional),
    )


def pair_system_groups(cfg, localdata, indices):
    """((G, G_omega), their slices a_1 = 0) over an index set: each group
    one congruence_kernel on every pair congruence a_x = a_y mod q of
    reference_congruences, each slice with the row a_1 = 0 added."""
    omega, g, _places = reference_congruences(cfg, localdata, indices)
    ambient = PGroup(cfg.p, tuple(cfg.e_i(i) for i in indices))
    k = ambient.rank
    first_zero = ([int(l == 0) for l in range(k)], ambient.moduli[0])
    systems = [
        [([(l == x) - (l == y) for l in range(k)], q) for x, y, q in cong]
        for cong in (g, omega)
    ]
    return tuple(
        tuple(congruence_kernel(ambient, rows + extra) for rows in systems)
        for extra in ([], [first_zero])
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
