"""Field configurations through the Galois correspondence.

The base field k and the cyclic extensions K_0..K_m are never touched
directly: the tuple (p, A, characters) encodes them, with K_i the fixed
field of ker(chi_i) inside the compositum whose Galois group is A.  All
field-level notions (subfields, composites, intersections, bicyclicity)
become subgroup-lattice computations in A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    Character,
    PGroup,
    Subgroup,
    intersect,
    join,
    quotient_invariants,
)


class ShaInputError(Exception):
    """A configuration failed validation."""


class NonSurjectiveCharacter(ShaInputError):
    pass


class IntersectionNotBase(ShaInputError):
    """The common fixed field of all characters is larger than k."""


class TooFewFields(ShaInputError):
    """Fewer than three distinct fields remain after pruning."""


class NonSeparatingAmbient(ShaInputError):
    """The characters do not jointly separate A, so A is not the Galois
    group of the compositum of the K_i."""


@dataclass(frozen=True)
class FieldConfig:
    """Raw user-facing configuration: ambient group plus one character per field."""

    group: PGroup
    chars: tuple[Character, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "chars", tuple(self.chars))
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"K{i}" for i in range(len(self.chars)))
            )
        else:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) != len(self.chars):
            raise ShaInputError("one label per character required")
        for chi in self.chars:
            if chi.ambient != self.group:
                raise ShaInputError("character ambient mismatch")


class NormalizedConfig:
    """A validated configuration in the standing conventions.

    Index 0 is a minimal-degree field; indices 1..m are sorted so that
    e_{0,i} is non-decreasing.  Derived constants: eps[i] = log_p [K_i:k],
    eij[i][j] = log_p [K_i cap K_j : k] (diagonal carries eps), e0(i) and
    ei(i) for the interaction with K_0, and the partition U_r of 1..m by
    e_{0,i} = r.
    """

    def __init__(self, group: PGroup, chars, labels, permutation):
        self.group = group
        self.p = group.p
        self.chars = tuple(chars)
        self.labels = tuple(labels)
        self.permutation = tuple(permutation)
        self.m = len(self.chars) - 1
        self.eps = tuple(chi.exponent for chi in self.chars)
        self._kernels = tuple(chi.kernel() for chi in self.chars)

        n = self.m + 1
        eij = [[0] * n for _ in range(n)]
        for i in range(n):
            eij[i][i] = self.eps[i]
            for j in range(i + 1, n):
                q = quotient_invariants(group, join(self._kernels[i], self._kernels[j]))
                eij[i][j] = eij[j][i] = sum(q)
        self.eij = tuple(tuple(r) for r in eij)

        parts: dict[int, list[int]] = {}
        for i in range(1, n):
            parts.setdefault(self.eij[0][i], []).append(i)
        self.u_partition = {r: tuple(v) for r, v in sorted(parts.items())}
        self.R = tuple(sorted(self.u_partition))
        self._check_conventions()

    def _check_conventions(self):
        """Raises AssertionError (also under python -O) on a broken convention."""
        eps0 = self.eps[0]
        if not all(eps0 <= e for e in self.eps):
            raise AssertionError("K_0 must have minimal degree")
        if 0 not in self.R:
            raise AssertionError("U_0 must be nonempty when the K_i intersect in k")
        if self.eij[0][1] != 0 or self.e_i(1) != eps0:
            raise AssertionError("K_1 must meet K_0 in k")
        for i in range(1, self.m + 1):
            for j in range(i + 1, self.m + 1):
                if not self.eij[0][i] <= self.eij[i][j] < min(self.eps[i], self.eps[j]):
                    raise AssertionError(
                        f"e_ij out of range for (i, j) = ({i}, {j})"
                    )

    # -- field-level views ------------------------------------------------

    def kernel(self, i: int) -> Subgroup:
        return self._kernels[i]

    def e0(self, i: int) -> int:
        return self.eij[0][i]

    def e_i(self, i: int) -> int:
        """e_i = eps_0 - e_{0,i}, the generic local degree of K_0 over K_i."""
        return self.eps[0] - self.eij[0][i]

    @property
    def eis(self) -> tuple[int, ...]:
        return tuple(self.e_i(i) for i in range(1, self.m + 1))

    def U(self, r: int) -> tuple[int, ...]:
        return self.u_partition.get(r, ())

    def U_gt(self, r: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.m + 1) if self.e0(i) > r)

    def U_lt(self, r: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.m + 1) if self.e0(i) < r)

    def subfield(self, i: int, f: int) -> Subgroup:
        """Subgroup of the unique subfield of K_i of degree p^f."""
        if not 0 <= f <= self.eps[i]:
            raise ValueError(f"subfield degree {f} out of range [0, {self.eps[i]}]")
        return self.chars[i].kernel_at_level(f)

    def composite(self, C, d: int) -> Subgroup:
        """Subgroup of the composite field of the K_i(d), i in C."""
        C = tuple(C)
        if not C:
            raise ValueError("empty index set")
        for i in C:
            if d > self.eps[i]:
                raise ValueError(f"degree {d} exceeds eps_{i} = {self.eps[i]}")
        sub = self.subfield(C[0], d)
        for i in C[1:]:
            sub = intersect(sub, self.subfield(i, d))
        return sub

    def is_sub_bicyclic(self, h: Subgroup) -> bool:
        """True when the field of h embeds in a bicyclic extension (rank <= 2)."""
        return len(quotient_invariants(self.group, h)) <= 2

    def pair_composite(self, d: int, s: int, t: int, beta: int) -> Subgroup:
        """Subgroup of K_s(d + e_{s,t} - beta) K_t(d + e_{s,t} - beta)."""
        g = d + self.eij[s][t] - beta
        if g < 0 or g > min(self.eps[s], self.eps[t]):
            raise ValueError(f"degree {g} out of range for pair ({s}, {t})")
        return intersect(self.subfield(s, g), self.subfield(t, g))

    def field_table(self):
        """Rows (label, eps_i, e_{0,i}) in normalized order."""
        rows = [(self.labels[0], self.eps[0], self.eps[0])]
        for i in range(1, self.m + 1):
            rows.append((self.labels[i], self.eps[i], self.e0(i)))
        return rows


def validate_and_normalize(cfg: FieldConfig) -> NormalizedConfig:
    """Prune superfields, reindex to the standing conventions, derive constants.

    Raises NonSurjectiveCharacter, TooFewFields, IntersectionNotBase or
    NonSeparatingAmbient when the input does not describe m+1 >= 3 distinct
    cyclic p-power extensions with pairwise-incomparable fields, compositum
    Galois group A and common intersection k.
    """
    group = cfg.group
    for chi, label in zip(cfg.chars, cfg.labels):
        if not chi.is_surjective():
            raise NonSurjectiveCharacter(
                f"character of {label} does not map onto Z/p^{chi.exponent}"
            )
    kernels = [chi.kernel() for chi in cfg.chars]

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

    zero = min(keep, key=lambda i: (cfg.chars[i].exponent, i))
    h0 = kernels[zero]
    rest = [i for i in keep if i != zero]

    def e0_of(i):
        return sum(quotient_invariants(group, join(h0, kernels[i])))

    rest.sort(key=lambda i: (e0_of(i), i))
    order = [zero] + rest
    return NormalizedConfig(
        group,
        [cfg.chars[i] for i in order],
        [cfg.labels[i] for i in order],
        order,
    )
