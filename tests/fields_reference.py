"""Normalization through subgroup lattices, kept as a reference for the tests.

This is the former fields.validate_and_normalize: it decides containment,
intersections and separation from the kernels of the characters, with joins,
intersections and Smith forms, where fields.py reads the same facts off
congruences of the character coefficients.  It shares no code with
fields.meet or fields.separates.
"""

from __future__ import annotations

from typing import NamedTuple

from multinorm_sha.abelian import Subgroup, intersect
from multinorm_sha.fields import (
    FieldConfig,
    IntersectionNotBase,
    NonSeparatingAmbient,
    NonSurjectiveCharacter,
    TooFewFields,
)

from structure_reference import join, quotient_invariants, reference_kernel_at_level


class Normalized(NamedTuple):
    permutation: tuple[int, ...]
    labels: tuple[str, ...]
    eij: tuple[tuple[int, ...], ...]
    R: tuple[int, ...]


def reference_normalize(cfg: FieldConfig) -> Normalized:
    """The order, labels, e_ij and R of the normalized config, or the
    exception fields.validate_and_normalize must raise."""
    group = cfg.group
    for chi, label in zip(cfg.chars, cfg.labels):
        if not chi.is_surjective():
            raise NonSurjectiveCharacter(
                f"character of {label} does not map onto Z/p^{chi.exponent}"
            )
    kernels = [reference_kernel_at_level(chi, chi.exponent) for chi in cfg.chars]

    # K_j <= K_i exactly when ker chi_i <= ker chi_j: drop the superfield i.
    keep = []
    for i, hi in enumerate(kernels):
        redundant = any(
            j != i
            and hi.issubset(kernels[j])
            and (hi != kernels[j] or j < i)
            for j in range(len(kernels))
        )
        if not redundant:
            keep.append(i)
    if len(keep) < 3:
        raise TooFewFields(
            f"only {len(keep)} field(s) remain after pruning; need at least 3"
        )

    total = kernels[keep[0]]
    for i in keep[1:]:
        total = join(total, kernels[i])
    if total != Subgroup.full(group):
        fixed = quotient_invariants(group, total)
        raise IntersectionNotBase(
            "the fields intersect in a proper extension of k with Galois "
            f"invariants {fixed}"
        )
    common = kernels[keep[0]]
    for i in keep[1:]:
        common = intersect(common, kernels[i])
    if common.order != 1:
        raise NonSeparatingAmbient(
            "characters do not jointly separate A; pass the Galois group of "
            "the compositum as the ambient group"
        )

    def e_of(i, j):
        return sum(quotient_invariants(group, join(kernels[i], kernels[j])))

    zero = min(keep, key=lambda i: (cfg.chars[i].exponent, i))
    rest = [i for i in keep if i != zero]
    rest.sort(key=lambda i: (e_of(zero, i), i))
    order = [zero] + rest
    eij = tuple(
        tuple(cfg.chars[i].exponent if i == j else e_of(i, j) for j in order)
        for i in order
    )
    return Normalized(
        tuple(order),
        tuple(cfg.labels[i] for i in order),
        eij,
        tuple(sorted(set(eij[0][1:]))),
    )
