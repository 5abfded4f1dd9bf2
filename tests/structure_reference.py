"""Composites and the intersection criterion as subgroup-lattice chains,
kept as a reference for the tests.

These are the former fields.NormalizedConfig.composite (a chain of pairwise
intersections of subfield kernels) and structure.criterion_trivial (the
join of every pair ker chi_0 cap ker chi_i over U_0), where the package now
takes each composite as one joint character kernel and stops the criterion
early.  The one-character kernel is the former abelian._kernel_at_level,
so nothing here goes through abelian.joint_kernel.
"""

from __future__ import annotations

from multinorm_sha.abelian import Character, Subgroup, intersect, join, left_kernel


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


def reference_criterion_trivial(cfg) -> bool:
    """Whether the join of the ker chi_0 cap ker chi_i over U_0 is ker chi_0."""
    h0 = reference_kernel_at_level(cfg.chars[0], cfg.eps[0])
    acc = None
    for i in cfg.U(0):
        pair = intersect(h0, reference_kernel_at_level(cfg.chars[i], cfg.eps[i]))
        acc = pair if acc is None else join(acc, pair)
    return acc == h0
