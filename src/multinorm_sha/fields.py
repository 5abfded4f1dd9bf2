"""Field configurations through the Galois correspondence.

The base field k and the cyclic extensions K_0..K_m are never touched
directly: the tuple (p, A, characters) encodes them, with K_i the fixed
field of ker(chi_i) inside the compositum whose Galois group is A.  Write
chi_i(a) = sum_l c_i[l] a_l mod p^eps_i on A = (+)_l Z/p^{n_l}, and K_i(f)
for the fixed field of the kernel of chi_i mod p^f.  K_i is cyclic over k,
so its subfields form the chain k = K_i(0) < K_i(1) < ... < K_i(eps_i).

Every field question is answered on coefficient rows, with no subgroup of
A.  A character of order dividing p^d is determined by its values on the
basis e_l, so evaluation there embeds the characters into (Z/p^d)^rank(A).
The Galois group of the composite K(C, d) of the K_i(d), i in C, is dual to
the characters that vanish on the common kernel, the span of the chi_i mod
p^d: it is isomorphic to X(C, d), the Z/p^d row span of the c_i mod p^d.
So the elementary divisors of that matrix over Z/p^d
(:func:`abelian.divisor_valuations`) give its invariants.  K(C, d) embeds in
a bicyclic extension iff there are at most two of them
(:meth:`NormalizedConfig.is_sub_bicyclic`).  K(C_in, d_in) <= K(C_out,
d_out) iff X(C_in, d_in) <= X(C_out, d_out) inside the dual of A: with
N = max(d_in, d_out), multiplying by p^(N - d) embeds Z/p^d in Z/p^N, and the
test is that adding the C_in rows to the C_out rows leaves the elementary
divisors, so the order, of their span unchanged
(:meth:`NormalizedConfig.contains`).  Each block of rows is reduced once,
and the pivot rows its reduction pops, at most rank(A), span it at every
lower degree; so a block of more rows than rank(A) is added through its
pivot rows, and any other block by its own rows.

Normalization needs only congruences of characters, so it runs on their
(eps, coeffs) rows alone (:func:`normalize_rows`): validate_and_normalize
checks surjectivity, naming the field, and wraps the result, and the selftest
decides each raw draw on its rows before it builds anything.  K_i cap K_j =
K_i(e_ij), with e_ij the largest f for which K_i(f) = K_j(f).  Two
characters onto Z/p^f have one kernel iff they differ by a unit, so e_ij is
the largest f <= min(eps_i, eps_j) with chi_i = y chi_j (mod p^f)
coefficient by coefficient.  Scale each chi_i once, by the inverse of its
first unit coefficient c_i[l_i], to the row u_i with u_i[l_i] = 1 (its
unit row).  If l_i != l_j, one character is a unit where the other
is not, so no y works mod p and e_ij = 0.  Otherwise y = c_i[l_i] / c_j[l_i]
and chi_i = y chi_j (mod p^f) iff u_i = u_j (mod p^f), so e_ij is the p-adic
valuation of gcd(p^min(eps_i, eps_j), u_i - u_j) (:func:`meet`).  From it:

* K_j <= K_i iff eps_j <= eps_i and e_ij = eps_j, and K_j = K_i iff
  moreover eps_j = eps_i (:func:`same_field`);
* the K_i meet in K_b(min_i e_bi), for any one of them K_b;
* the characters separate A (the common kernel is trivial) iff the F_p
  matrix M[i][l] = c_i[l] p^(n_l - 1) / p^(eps_i - 1) mod p has rank rank(A)
  (:func:`separates`).  A nonzero subgroup of A meets A[p], whose elements
  are a_l = p^(n_l - 1) b_l with b in F_p^rank(A), and chi_i takes
  p^(eps_i - 1) (M b)_i there.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from .abelian import Character, PGroup, Value, divisor_valuations, valuation


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


class FieldConfig(Value):
    """Raw user-facing configuration: ambient group plus one character per field."""

    __slots__ = _fields = ("group", "chars", "labels")

    def __init__(self, group: PGroup, chars: tuple[Character, ...], labels: tuple[str, ...]):
        chars = tuple(chars)
        if not labels:
            labels = tuple(f"K{i}" for i in range(len(chars)))
        else:
            labels = tuple(str(s) for s in labels)
        Value.__init__(self, group, chars, labels)
        if len(labels) != len(chars):
            raise ShaInputError("one label per character required")
        for chi in chars:
            if chi.ambient != group:
                raise ShaInputError("character ambient mismatch")


class NormalizedConfig:
    """A validated configuration in the standing conventions.

    Index 0 is a minimal-degree field; indices 1..m are sorted so that
    e_{0,i} is non-decreasing.  Derived constants: eps[i] = log_p [K_i:k],
    eij[i][j] = log_p [K_i cap K_j : k] (diagonal carries eps), e0(i) and
    ei(i) for the interaction with K_0, and the partition U_r of 1..m by
    e_{0,i} = r.  Built from a FieldConfig and the (permutation, eij) that
    :func:`normalize_rows` returns for its characters.  Its one memo holds
    the rest: divisor reductions (each with its pivot rows, through which a
    block longer than rank(A) enters a stacked matrix), thresholds, pair
    levels and pass engines.
    """

    def __init__(self, cfg: FieldConfig, permutation, eij):
        self.group = cfg.group
        self.p = cfg.group.p
        self.chars = tuple(cfg.chars[i] for i in permutation)
        self.labels = tuple(cfg.labels[i] for i in permutation)
        self.permutation = tuple(permutation)
        self.m = len(self.chars) - 1
        self.eps = tuple(chi.exponent for chi in self.chars)
        self.eij = tuple(tuple(r) for r in eij)
        self._memo: dict = {}

        n = self.m + 1
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

    def check_degree(self, C, d: int) -> tuple[int, ...]:
        """C as a tuple, once K_i(d) exists for every i in C (ValueError
        otherwise)."""
        C = tuple(C)
        if not C:
            raise ValueError("empty index set")
        for i in C:
            if d > self.eps[i]:
                raise ValueError(f"degree {d} exceeds eps_{i} = {self.eps[i]}")
        if d < 0:
            bound = min(self.eps[i] for i in C)
            raise ValueError(f"subfield degree {d} out of range [0, {bound}]")
        return C

    def memo(self, key, compute):
        """The value under ``key`` in the config's one memo of derived data,
        made by ``compute()`` on the first ask; each key starts with its kind."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def divisors(self, blocks, top: int, image_of=None) -> list[int]:
        """Elementary divisor valuations over Z/p^top of the rows p^s c_i,
        i in C, for each (C, s) in the tuple ``blocks`` (so the rows of C at
        degree top - s), or, given a subgroup ``image_of``, of their values
        on its basis.  The integer matrix does not depend on top, so it is
        reduced once, at the highest top asked so far, and each lower top is
        read off that reduction (:func:`abelian.divisor_valuations`), kept in
        the memo with the pivot rows it pops and replaced when a higher top
        is asked.  Those pivots, at most the row width (rank(A), or the size
        of the basis), span the rows mod p^d for every d up to that top; so
        in a key of several blocks, a block with more rows than that enters
        through the pivots of its own reduction, asked (and so, when the top
        is higher, redone) at the same top, and any other block by its rows."""
        key = ("divisors", blocks, image_of)
        hit = self._memo.get(key)
        if hit is None or not hit[0] <= top <= hit[1]:
            width = self.group.rank if image_of is None else len(image_of.basis)
            mat = []
            for block in blocks:
                C, s = block
                if len(blocks) > 1 and len(C) > width:
                    self.divisors((block,), top, image_of)
                    mat += self._memo["divisors", (block,), image_of][3]
                    continue
                self.check_degree(C, top - s)
                ps = self.p ** s
                rows = [[c * ps for c in self.chars[i].coeffs] for i in C]
                if image_of is not None:
                    rows = [[sum(map(mul, row, g)) for g in image_of.basis] for row in rows]
                mat += rows
            pivots = []
            vals = divisor_valuations(mat, self.p, top, pivots)
            hit = self._memo[key] = (max(s for _, s in blocks), top, vals, pivots)
        _, reduced_at, vals, _ = hit
        return vals if top == reduced_at else [v for v in vals if v < top]

    def is_sub_bicyclic(self, C, d: int) -> bool:
        """Whether K(C, d) embeds in a bicyclic extension: X(C, d) has at
        most two elementary divisors."""
        return len(self.divisors(((tuple(C), 0),), d)) <= 2

    def contains(self, outer, d_out: int, inner, d_in: int) -> bool:
        """Whether K(inner, d_in) <= K(outer, d_out): over Z/p^N, N the larger
        degree, the inner rows leave the span of the outer rows as it is."""
        top = max(d_out, d_in)
        blocks = ((tuple(outer), top - d_out),)
        return self.divisors(blocks, top) == self.divisors(
            blocks + ((tuple(inner), top - d_in),), top
        )


def _unit_row(p: int, q: int, coeffs) -> tuple[int, list[int]]:
    for l, c in enumerate(coeffs):
        if c % p:
            inv = pow(c, -1, q)
            return l, [x * inv % q for x in coeffs]
    raise ValueError("meet needs a surjective character")


def _meet(p: int, q: int, rows) -> int:
    """v_p(gcd(q, u - u')) for unit rows (l, u), (l, u'): one first unit coordinate."""
    (_, u), (_, u2) = rows
    return valuation(p, gcd(q, *map(sub, u, u2)))


def _meets(p: int, eps, units) -> tuple[list[list[int]], list[bool]]:
    """(e, dropped) over the unit rows of characters onto Z/p^eps[i]: the e_ij
    (eps on the diagonal), and each meet's drop of a superfield K_i of K_j
    (e_ij = eps_j < eps_i) or, of equal fields, the later (e_ij = eps_i <=
    eps_j).  Fields whose first unit coordinates differ meet in k: e_ij = 0."""
    e = [[0] * len(eps) for _ in eps]
    dropped = [False] * len(eps)
    for i, (l, _) in enumerate(units):
        e[i][i] = eps[i]
        for j in range(i + 1, len(eps)):
            if l == units[j][0]:
                e[i][j] = e[j][i] = eij = _meet(p, p ** min(eps[i], eps[j]), (units[i], units[j]))
                if eij == eps[j] < eps[i]:
                    dropped[i] = True
                elif eij == eps[i] <= eps[j]:
                    dropped[j] = True
    return e, dropped


def _fp_rank(p: int, exponents, rows) -> int:
    scales = [p ** (n - 1) for n in exponents]
    return len(divisor_valuations(
        [[c * s // p ** (eps - 1) % p for c, s in zip(coeffs, scales)]
         for eps, coeffs in rows], p, 1))


def meet(chi: Character, psi: Character) -> int:
    """log_p [K_chi cap K_psi : k] for surjective characters on one A.

    With (l, u) and (l', u') their unit rows, each the row divided by its
    first unit coefficient c[l] mod p^eps: the fields meet above k only if
    l = l', and then e is the p-adic valuation of gcd(p^min(eps_chi,
    eps_psi), u - u')."""
    units = [_unit_row(chi.ambient.p, x.modulus, x.coeffs) for x in (chi, psi)]
    return _meets(chi.ambient.p, (chi.exponent, psi.exponent), units)[0][0][1]


def same_field(chi: Character, psi: Character) -> bool:
    """Whether K_chi = K_psi, that is ker chi = ker psi."""
    return chi.exponent == psi.exponent and meet(chi, psi) == chi.exponent


def separates(group: PGroup, chars) -> bool:
    """Whether the common kernel of ``chars`` in A is trivial: the F_p rank,
    the number of elementary divisors over Z/p, is rank(A)."""
    rows = [(chi.exponent, chi.coeffs) for chi in chars]
    return _fp_rank(group.p, group.exponents, rows) == group.rank


def normalize_rows(p: int, exponents, rows) -> tuple[list[int], list[list[int]]]:
    """The row-level core of :func:`validate_and_normalize`, on the (eps,
    coeffs) rows of surjective characters of (+) Z/p^{n_l}, n_l in
    ``exponents``: (order, eij), the kept indices in normalized order and
    the e_ij in that order (eps on the diagonal), or TooFewFields,
    IntersectionNotBase or NonSeparatingAmbient.  Builds no group or character."""
    eps = [x for x, _ in rows]
    e, dropped = _meets(p, eps, [_unit_row(p, p ** x, coeffs) for x, coeffs in rows])
    keep = [i for i, gone in enumerate(dropped) if not gone]
    if len(keep) < 3:
        raise TooFewFields(
            f"only {len(keep)} field(s) remain after pruning; need at least 3"
        )

    common = min(e[keep[0]][i] for i in keep[1:])
    if common:
        raise IntersectionNotBase(
            "the fields intersect in a proper extension of k with Galois "
            f"invariants [{common}]"
        )
    if _fp_rank(p, exponents, [rows[i] for i in keep]) != len(exponents):
        raise NonSeparatingAmbient(
            "characters do not jointly separate A; pass the Galois group of "
            "the compositum as the ambient group"
        )

    zero = min(keep, key=lambda i: (eps[i], i))
    order = [zero] + sorted((i for i in keep if i != zero), key=lambda i: (e[zero][i], i))
    return order, [[e[i][j] for j in order] for i in order]


def validate_and_normalize(cfg: FieldConfig) -> NormalizedConfig:
    """Prune superfields, reindex to the standing conventions, derive constants.

    Raises NonSurjectiveCharacter, TooFewFields, IntersectionNotBase or
    NonSeparatingAmbient when the input does not describe m+1 >= 3 distinct
    cyclic p-power extensions with pairwise-incomparable fields, compositum
    Galois group A and common intersection k: surjectivity here, naming the
    field, and the rest in :func:`normalize_rows`."""
    for chi, label in zip(cfg.chars, cfg.labels):
        if not chi.is_surjective():
            raise NonSurjectiveCharacter(
                f"character of {label} does not map onto Z/p^{chi.exponent}"
            )
    rows = [(chi.exponent, chi.coeffs) for chi in cfg.chars]
    return NormalizedConfig(cfg, *normalize_rows(cfg.group.p, cfg.group.exponents, rows))
