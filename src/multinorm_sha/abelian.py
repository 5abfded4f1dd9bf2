"""Exact arithmetic for finite abelian p-groups and their subgroup lattices.

A group A = (+) Z/p^{n_j} is a :class:`PGroup`; its elements are plain tuples
of residues.  A subgroup is stored as the integer lattice L with
P*Z^k <= L <= Z^k (P = diag(p^{n_j})), kept in a canonical row-style Hermite
normal form, so equal subgroups compare equal and hash equal.  Quotient
structure comes from Smith normal form.  Everything is plain Python integer
arithmetic; all values are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

CYCLIC_SWEEP_CAP = 2 ** 16  # bound on |A| for passes over its elements


class BudgetExceeded(Exception):
    """A budget, or the bound of an exact test, refused the input."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above is exact for every n below this bound
# (Sorenson & Webster 2017); above it a test would only be probable.
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; BudgetExceeded where it cannot be exact."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_BOUND:
        raise BudgetExceeded(
            f"primality of {n} is not decided exactly above {MR_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer lattice normal forms (row convention: lattice = Z-span of the rows).

def _echelon(mat, width: int) -> int:
    """Row-reduce ``mat`` in place on its first ``width`` columns; return the rank.

    Only unimodular row operations are used, so the row span is kept and any
    columns past ``width`` record the transform.  Afterwards row h < rank has
    its first nonzero entry (the pivot) strictly right of row h-1's, and the
    rows from the rank on are zero in the first ``width`` columns.  An entry
    the pivot divides is cleared by subtraction, which leaves the pivot as it
    is; without that, alternating row and column passes in
    :func:`smith_invariants` can cycle forever.
    """
    nr = len(mat)
    h = 0
    for j in range(width):
        for piv in range(h, nr):
            if mat[piv][j]:
                break
        else:
            continue
        mat[h], mat[piv] = mat[piv], mat[h]
        rh = mat[h]
        n = len(rh)
        for i in range(h + 1, nr):
            ri = mat[i]
            b = ri[j]
            if not b:
                continue
            a = rh[j]
            if b % a == 0:
                q = b // a
                for c in range(j, n):
                    ri[c] -= q * rh[c]
                continue
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            for c in range(j, n):
                rh[c], ri[c] = x * rh[c] + y * ri[c], u * ri[c] - v * rh[c]
        h += 1
    return h


def hermite_normal_form(rows, width: int) -> list[list[int]]:
    """Canonical basis of the lattice spanned by ``rows`` inside Z^width.

    Row-style HNF: nonzero rows in echelon order, positive pivots, entries
    above each pivot reduced into [0, pivot).  Two generating sets of the
    same lattice produce identical output.
    """
    mat = [list(r) for r in rows if any(r)]
    del mat[_echelon(mat, width):]
    j = 0
    for h, rh in enumerate(mat):
        while not rh[j]:
            j += 1
        if rh[j] < 0:
            for c in range(j, width):
                rh[c] = -rh[c]
        for i in range(h):
            ri = mat[i]
            q = ri[j] // rh[j]
            if q:
                for c in range(j, width):
                    ri[c] -= q * rh[c]
    return mat


def left_kernel(rows, width: int) -> list[list[int]]:
    """Basis of {w in Z^r : w @ rows == 0} for an r-row integer matrix."""
    r = len(rows)
    mat = [
        list(row[:width]) + [int(i == j) for j in range(r)]
        for i, row in enumerate(rows)
    ]
    rank = _echelon(mat, width)
    return [row[width:] for row in mat[rank:]]


def smith_invariants(mat) -> list[int]:
    """Nonzero diagonal d_1 | d_2 | ... of the Smith normal form of ``mat``."""
    m = [list(r) for r in mat]
    # row passes on m and on its transpose, dropping zero rows, until diagonal
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        rank = _echelon(m, len(m[0]))
        m = [list(col) for col in zip(*m[:rank])]
    diags = [abs(row[i]) for i, row in enumerate(m) if i < len(row) and row[i]]
    for i in range(len(diags)):
        for j in range(i + 1, len(diags)):
            a, b = diags[i], diags[j]
            g = gcd(a, b)
            diags[i], diags[j] = g, a * b // g
    return diags


def divisor_valuations(rows, p: int, d: int) -> list[int]:
    """Valuations v < d of the elementary divisors p^v of an integer matrix
    over Z/p^d, in increasing order; its row span mod p^d is the direct sum
    of the Z/p^(d - v).

    Z/p^d is a local ring: an entry of least valuation v is p^v times a
    unit and divides every other entry, so it clears its column with no
    xgcd, and its row then falls away by column moves that change no other
    row.  The search runs level by level, every entry being divisible by p^v.
    """
    q = p ** d
    mat = [row for row in ([x % q for x in r] for r in rows) if any(row)]
    out = []
    v, pv = 0, 1
    while mat:
        step = pv * p
        hit = next(
            ((r, j) for r, row in enumerate(mat) for j, x in enumerate(row) if x % step),
            None,
        )
        if hit is None:
            v, pv = v + 1, step
            continue
        r, j = hit
        top = mat.pop(r)
        inv = pow(top[j] // pv, -1, q // pv)
        for row in mat:
            if row[j]:
                f = row[j] // pv * inv
                for c, x in enumerate(top):
                    row[c] = (row[c] - f * x) % q
        mat = [row for row in mat if any(row)]
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Groups and subgroups.

@dataclass(frozen=True)
class PGroup:
    """A finite abelian p-group (+)_j Z/p^{n_j}, exponents non-increasing."""

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(n) for n in self.exponents))
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not self.exponents:
            raise ValueError("need at least one cyclic factor")
        if any(n < 1 for n in self.exponents):
            raise ValueError("exponents must be >= 1")
        if any(a < b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError("exponents must be non-increasing")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p ** n for n in self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(x) % m for x, m in zip(vec, self.moduli))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def elements(self):
        """Iterate over all elements (tuples of residues)."""
        return itertools.product(*(range(m) for m in self.moduli))

    def contains(self, vec) -> bool:
        return len(vec) == self.rank and all(
            0 <= x < m for x, m in zip(vec, self.moduli)
        )

    @cached_property
    def _p_diag(self) -> tuple[tuple[int, ...], ...]:
        k = self.rank
        return tuple(
            tuple(self.moduli[i] if j == i else 0 for j in range(k)) for i in range(k)
        )

    def _p_rows(self) -> list[list[int]]:
        """The rows of P = diag(p^{n_j}), fresh lists (_echelon works in place)."""
        return [list(r) for r in self._p_diag]


def _check_elements(ambient: PGroup, gens) -> list[tuple[int, ...]]:
    out = []
    for g in gens:
        g = tuple(int(x) for x in g)
        if not ambient.contains(g):
            raise ValueError(f"coordinate out of range in generator {g}")
        out.append(g)
    return out


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a PGroup as a canonical full-rank HNF lattice basis."""

    ambient: PGroup
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, ambient: PGroup, gens) -> "Subgroup":
        return cls._span_rows(ambient, _check_elements(ambient, gens))

    @classmethod
    def _span_rows(cls, ambient: PGroup, rows) -> "Subgroup":
        """Span of arbitrary lattice vectors (no residue-range validation)."""
        hnf = hermite_normal_form(list(rows) + ambient._p_rows(), ambient.rank)
        return cls(ambient, tuple(tuple(r) for r in hnf))

    @classmethod
    def trivial(cls, ambient: PGroup) -> "Subgroup":
        return cls.span(ambient, [])

    @classmethod
    def full(cls, ambient: PGroup) -> "Subgroup":
        k = ambient.rank
        eye = [[int(i == j) for j in range(k)] for i in range(k)]
        return cls(ambient, tuple(tuple(r) for r in eye))

    @property
    def order(self) -> int:
        return self.ambient.order // prod(self.basis[i][i] for i in range(len(self.basis)))

    def _coords(self, vec):
        """u with u @ basis == vec over Z, or None."""
        k = self.ambient.rank
        res = list(vec)
        u = []
        for i in range(k):
            q, rem = divmod(res[i], self.basis[i][i])
            if rem:
                return None
            u.append(q)
            for c in range(i, k):
                res[c] -= q * self.basis[i][c]
        return u

    def contains(self, vec) -> bool:
        return self._coords(vec) is not None

    def issubset(self, other: "Subgroup") -> bool:
        return all(other._coords(row) is not None for row in self.basis)

    def elements(self):
        """All elements, as reduced tuples (no duplicates)."""
        amb = self.ambient
        counts = [m // self.basis[i][i] for i, m in enumerate(amb.moduli)]
        for coeffs in itertools.product(*(range(c) for c in counts)):
            vec = [0] * amb.rank
            for c, row in zip(coeffs, self.basis):
                for j in range(amb.rank):
                    vec[j] += c * row[j]
            yield amb.reduce(vec)

    def invariants_mod(self, other: "Subgroup") -> list[int]:
        """Invariant factors (p-exponents) of self/other, other <= self."""
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        rel = []
        for row in other.basis:
            u = self._coords(row)
            if u is None:
                raise ValueError("not a subgroup of the given group")
            rel.append(u)
        return _p_exponents(self.ambient.p, smith_invariants(rel))


def valuation(p: int, n: int) -> int:
    """The exponent of p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _p_exponents(p: int, diags) -> list[int]:
    out = []
    for d in diags:
        e = valuation(p, d)
        if d != p ** e:
            raise ValueError("quotient is not a p-group")
        if e:
            out.append(e)
    out.sort(reverse=True)
    return out


def intersect(h1: Subgroup, h2: Subgroup) -> Subgroup:
    """Largest subgroup contained in both."""
    if h1.ambient != h2.ambient:
        raise ValueError("ambient mismatch")
    k = h1.ambient.rank
    stacked = list(h1.basis) + list(h2.basis)
    gens = []
    for w in left_kernel(stacked, k):
        vec = [0] * k
        for c, row in zip(w[: len(h1.basis)], h1.basis):
            for j in range(k):
                vec[j] += c * row[j]
        gens.append(vec)
    return Subgroup._span_rows(h1.ambient, gens)


def cyclic_subgroups(ambient: PGroup, cap: int = CYCLIC_SWEEP_CAP) -> list[Subgroup]:
    """All cyclic subgroups <g>, deduplicated; includes the trivial one."""
    if ambient.order > cap:
        raise BudgetExceeded(
            f"cyclic-subgroup sweep over |A| = {ambient.order} exceeds cap {cap}"
        )
    seen = {}
    for g in ambient.elements():
        sub = Subgroup.span(ambient, [g])
        seen.setdefault(sub.basis, sub)
    return list(seen.values())


@dataclass(frozen=True)
class Character:
    """Surjective-capable character A -> Z/p^exponent, a = sum(coeffs*a) map."""

    ambient: PGroup
    exponent: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.ambient.rank:
            raise ValueError("coefficient count must match ambient rank")
        if self.exponent < 1:
            raise ValueError("target exponent must be >= 1")
        p, eps = self.ambient.p, self.exponent
        for c, n in zip(self.coeffs, self.ambient.exponents):
            if (c * p ** n) % p ** eps:
                raise ValueError(
                    f"coefficient {c} does not define a map on Z/p^{n} into Z/p^{eps}"
                )

    @property
    def modulus(self) -> int:
        return self.ambient.p ** self.exponent

    def value(self, vec) -> int:
        return sum(c * x for c, x in zip(self.coeffs, vec)) % self.modulus

    def is_surjective(self) -> bool:
        return gcd(*self.coeffs, self.ambient.p) == 1

    def image_level(self, sub: Subgroup) -> int:
        """f with chi(sub) = p^(exponent - f) Z/p^exponent, of order p^f:
        the exponent less the least valuation of chi over the basis of sub
        (f = 0 when chi vanishes on sub)."""
        p = self.ambient.p
        values = [self.value(row) for row in sub.basis]
        return self.exponent - min(
            (valuation(p, v) for v in values if v), default=self.exponent
        )

    def kernel_at_level(self, f: int) -> Subgroup:
        """Kernel of the composite A -> Z/p^exponent -> Z/p^f."""
        if not 0 <= f <= self.exponent:
            raise ValueError(f"level {f} out of range [0, {self.exponent}]")
        return _kernel_at_level(self, f)

    def kernel(self) -> Subgroup:
        return self.kernel_at_level(self.exponent)


@lru_cache(maxsize=None)
def _kernel_at_level(char: Character, f: int) -> Subgroup:
    return joint_kernel(char.ambient, [(char, f)])


def joint_kernel(ambient: PGroup, pairs) -> Subgroup:
    """Common kernel of the maps A -> Z/p^exponent -> Z/p^f, one per (chi, f).

    Pairs with f = 0 impose nothing; with none left the kernel is all of A.
    """
    congruences = []
    for chi, f in pairs:
        if chi.ambient != ambient:
            raise ValueError("ambient mismatch")
        if not 0 <= f <= chi.exponent:
            raise ValueError(f"level {f} out of range [0, {chi.exponent}]")
        if f:
            congruences.append((chi.coeffs, ambient.p ** f))
    return congruence_kernel(ambient, congruences)


def congruence_kernel(ambient: PGroup, congruences) -> Subgroup:
    """{a : sum_l c_l a_l = 0 mod q for every (c, q)}, each congruence well
    defined on A; all of A when there is none.

    One left kernel: a in Z^rank lies in it iff there is z with
    a @ C + z @ diag(q) == 0, C the coefficient rows c as columns.
    """
    if not congruences:
        return Subgroup.full(ambient)
    k, t = ambient.rank, len(congruences)
    rows = [[c[l] for c, _ in congruences] for l in range(k)]
    rows += [[q if s == u else 0 for u in range(t)] for s, (_, q) in enumerate(congruences)]
    return Subgroup._span_rows(ambient, [w[:k] for w in left_kernel(rows, t)])
