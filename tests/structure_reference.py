"""Field questions of the formula route as subgroup-lattice computations,
kept as a reference for the tests.

The package answers every formula-route question from coefficient rows of
the characters over Z/p^d.  Here each composite is a subgroup of A again:
a chain of pairwise intersections of subfield kernels (the former
fields.NormalizedConfig.composite), and each question is asked of it with
joins, Smith forms and quotients, as the package did before.  The
one-character kernel is the former abelian._kernel_at_level: the package
builds no kernel of a character, and every test that needs one takes it
from here.  join, quotient_invariants and
image_is_cyclic are the former abelian routines of those names, and
noncyclic_places the former places routine.  reference_l_classes is the
former structure.l_classes, a union-find that does not lean on the
relation being transitive.
"""

from __future__ import annotations

from multinorm_sha.abelian import (
    Character,
    PGroup,
    Subgroup,
    _p_exponents,
    intersect,
    left_kernel,
    smith_invariants,
)


def join(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Smallest subgroup containing both."""
    if h1.ambient != h2.ambient:
        raise ValueError("ambient mismatch")
    return Subgroup._span_rows(h1.ambient, list(h1.basis) + list(h2.basis))


def quotient_invariants(ambient: PGroup, h: Subgroup) -> list[int]:
    """Non-increasing p-exponents [m_1, ...] with A/H = (+) Z/p^{m_t}."""
    if h.ambient != ambient:
        raise ValueError("ambient mismatch")
    return _p_exponents(ambient.p, smith_invariants(h.basis))


def image_is_cyclic(d: Subgroup, h: Subgroup) -> bool:
    """Whether DH/H is cyclic."""
    if d.ambient != h.ambient:
        raise ValueError("ambient mismatch")
    return len(join(d, h).invariants_mod(h)) <= 1


def reference_kernel_at_level(chi: Character, f: int) -> Subgroup:
    """Kernel of A -> Z/p^exponent -> Z/p^f from a one-column left kernel."""
    amb = chi.ambient
    if f == 0:
        return Subgroup.full(amb)
    k = amb.rank
    rows = [[c] for c in chi.coeffs] + [[amb.p ** f]]
    gens = [w[:k] for w in left_kernel(rows, 1)]
    return Subgroup._span_rows(amb, gens)


def reference_composite(cfg, C, d: int) -> Subgroup:
    """Subgroup of the composite of the K_i(d), i in C, as an intersection chain."""
    C = tuple(C)
    sub = reference_kernel_at_level(cfg.chars[C[0]], d)
    for i in C[1:]:
        sub = intersect(sub, reference_kernel_at_level(cfg.chars[i], d))
    return sub


def reference_pair_composite(cfg, d: int, s: int, t: int, beta: int) -> Subgroup:
    """Subgroup of K_s(d + e_{s,t} - beta) K_t(d + e_{s,t} - beta)."""
    g = d + cfg.eij[s][t] - beta
    if g < 0 or g > min(cfg.eps[s], cfg.eps[t]):
        raise ValueError(f"degree {g} out of range for pair ({s}, {t})")
    return reference_composite(cfg, (s, t), g)


def reference_is_sub_bicyclic(cfg, C, d: int) -> bool:
    """Whether A/H has at most two invariant factors, H the composite's subgroup."""
    return len(quotient_invariants(cfg.group, reference_composite(cfg, C, d))) <= 2


def reference_contains(cfg, outer, d_out: int, inner, d_in: int) -> bool:
    """Whether K(inner, d_in) <= K(outer, d_out): the subgroups the other way."""
    return reference_composite(cfg, outer, d_out).issubset(
        reference_composite(cfg, inner, d_in)
    )


def noncyclic_places(localdata, h: Subgroup):
    """The exceptional places whose image in Gal of the field of h is not cyclic."""
    return [
        place
        for place in localdata.exceptional
        if not image_is_cyclic(place.group, h)
    ]


def reference_locally_cyclic(cfg, localdata, C, d: int) -> bool:
    """Whether DH/H is cyclic at every exceptional place, H of K(C, d)."""
    return not noncyclic_places(localdata, reference_composite(cfg, C, d))


def reference_criterion_trivial(cfg) -> bool:
    """Whether the join of the ker chi_0 cap ker chi_i over U_0 is ker chi_0."""
    h0 = reference_kernel_at_level(cfg.chars[0], cfg.eps[0])
    acc = None
    for i in cfg.U(0):
        pair = intersect(h0, reference_kernel_at_level(cfg.chars[i], cfg.eps[i]))
        acc = pair if acc is None else join(acc, pair)
    return acc == h0


def reference_l_classes(cfg, members, l: int) -> list[tuple[int, ...]]:
    """The classes of the closure of i ~ j iff e_{i,j} >= l, by union-find."""
    members = sorted(members)
    parent = {i: i for i in members}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in members:
        for b in members:
            if a < b and cfg.eij[a][b] >= l:
                parent[find(a)] = find(b)
    buckets: dict[int, list[int]] = {}
    for i in members:
        buckets.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in buckets.values())
