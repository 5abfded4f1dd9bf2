"""Exact arithmetic for finite abelian p-groups and their subgroup lattices.

A group A = (+) Z/p^{n_j} is a :class:`PGroup`; its elements are plain tuples
of residues.  A subgroup is stored as the integer lattice L with
P*Z^k <= L <= Z^k (P = diag(p^{n_j})), kept in a canonical row-style Hermite
normal form, so equal subgroups compare equal and hash equal.  Quotient
structure comes from Smith normal form.  No kernel of a character is
built: the order of chi_0 on a subgroup cut by other characters is read
off the last pivot of an echelon form of the subgroup's image in their
targets (:meth:`Character.image_level`), and the order of a span off the
pivots of its echelon form (:func:`span_order`).  Everything is plain
Python integer arithmetic.  The value types of the package derive from
:class:`Value`, which makes them immutable once constructed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
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
# PSI[k] is the least strong pseudoprime to every base in MR_BASES[:k + 1]
# (OEIS A014233: Jaeschke 1993, Sorenson & Webster 2017), so Miller-Rabin
# to that prefix is exact below it; above PSI[-1] it would only be probable.
PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
       3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
       3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
       3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
       3_317_044_064_679_887_385_961_981)
MR_BOUND = PSI[-1]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the least exact prefix of MR_BASES; else BudgetExceeded."""
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
    for b in MR_BASES[:bisect_right(PSI, n) + 1]:
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


def span_order(ambient: PGroup, rows) -> int:
    """|<rows>| in ``ambient``: |A| over the product of the pivots of an
    echelon form of the rows and P, with no back-reduction."""
    mat = [list(r) for r in rows] + ambient._p_rows()
    k = _echelon(mat, ambient.rank)
    return ambient.order // abs(prod(mat[h][h] for h in range(k)))


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


def divisor_valuations(rows, p: int, d: int, pivots=None) -> list[int]:
    """Valuations v < d of the elementary divisors p^v of an integer matrix
    over Z/p^d, in increasing order; its row span mod p^d is the direct sum
    of the Z/p^(d - v).  Given a list ``pivots``, the pivot rows are appended
    to it as they are popped: a step only subtracts multiples of its pivot
    row from the rows left, so the pivot rows span the rows mod p^d.

    Z/p^d is a local ring: an entry of least valuation v is p^v times a
    unit and divides every other entry, so it clears its column with no
    xgcd, and its row then falls away by column moves that change no other
    row.  The search runs level by level, every entry being divisible by p^v.

    For d <= D the answer over Z/p^d is the answer over Z/p^D with the
    valuations v >= d dropped, since a Smith form over Z/p^D reduces to one
    over Z/p^d; so one reduction at the highest degree serves every lower one.
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
        if pivots is not None:
            pivots.append(top)
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

_set = object.__setattr__  # sets a field of a Value inside its __init__


class Value:
    """Base of the package's value types: slotted and immutable, equal to an
    instance of the same type with equal fields (``_fields``), hashed by
    those fields, with the hash cached.  Written out by hand: a class
    decorator generating these methods ran at every import and took most
    of the package's import time."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        """Set the fields, in the order of ``_fields``, from ``__init__``."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._key()))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PGroup(Value):
    """A finite abelian p-group (+)_j Z/p^{n_j}, exponents non-increasing."""

    __slots__ = ("p", "exponents", "moduli", "_p_diag")
    _fields = ("p", "exponents")

    def __init__(self, p: int, exponents: tuple[int, ...]):
        exponents = tuple(map(int, exponents))
        _set(self, "p", p)
        _set(self, "exponents", exponents)
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not exponents:
            raise ValueError("need at least one cyclic factor")
        if min(exponents) < 1:
            raise ValueError("exponents must be >= 1")
        if list(exponents) != sorted(exponents, reverse=True):
            raise ValueError("exponents must be non-increasing")
        moduli = tuple([p ** n for n in exponents])
        diag = []
        for i, m in enumerate(moduli):
            row = [0] * len(moduli)
            row[i] = m
            diag.append(tuple(row))
        _set(self, "moduli", moduli)
        _set(self, "_p_diag", tuple(diag))

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(x) % m for x, m in zip(vec, self.moduli))

    def elements(self):
        """Iterate over all elements (tuples of residues)."""
        return itertools.product(*(range(m) for m in self.moduli))

    def contains(self, vec) -> bool:
        return len(vec) == self.rank and all(
            0 <= x < m for x, m in zip(vec, self.moduli)
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


class Subgroup(Value):
    """Subgroup of a PGroup as a canonical full-rank HNF lattice basis."""

    __slots__ = _fields = ("ambient", "basis")

    def __init__(self, ambient: PGroup, basis: tuple[tuple[int, ...], ...]):
        _set(self, "ambient", ambient)
        _set(self, "basis", basis)

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
        if len(vec) != k:
            raise ValueError(f"vector of length {len(vec)} in a group of rank {k}")
        res = list(vec)
        u = []
        for i in range(k):
            q, rem = divmod(res[i], self.basis[i][i])
            if rem:
                return None
            u.append(q)
            if q:  # most digits are 0 on a large lattice
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


class Character(Value):
    """Surjective-capable character A -> Z/p^exponent, a = sum(coeffs*a) map."""

    __slots__ = ("ambient", "exponent", "coeffs", "modulus")
    _fields = ("ambient", "exponent", "coeffs")

    def __init__(self, ambient: PGroup, exponent: int, coeffs: tuple[int, ...]):
        coeffs = tuple(map(int, coeffs))
        _set(self, "ambient", ambient)
        _set(self, "exponent", exponent)
        _set(self, "coeffs", coeffs)
        if len(coeffs) != ambient.rank:
            raise ValueError("coefficient count must match ambient rank")
        if exponent < 1:
            raise ValueError("target exponent must be >= 1")
        modulus = ambient.p ** exponent
        for c, n, m in zip(coeffs, ambient.exponents, ambient.moduli):
            if (c * m) % modulus:
                raise ValueError(
                    f"coefficient {c} does not define a map on Z/p^{n} into Z/p^{exponent}"
                )
        _set(self, "modulus", modulus)

    def value(self, vec) -> int:
        return sum(c * x for c, x in zip(self.coeffs, vec)) % self.modulus

    def is_surjective(self) -> bool:
        return gcd(*self.coeffs, self.ambient.p) == 1

    def image_level(self, gens, kernels=()) -> int:
        """log_p |chi(S cap ker psi_1 cap ...)|, S the span of ``gens`` (all
        of A when None): the rows (psi_1(g), ..., chi(g)) and p^(target) on
        each target's diagonal span the image of S, and the last pivot of
        their echelon form generates chi of the common kernel."""
        chars = (*kernels, self)
        if any(psi.ambient != self.ambient for psi in kernels):
            raise ValueError("ambient mismatch")
        if gens is None:
            rows = [list(col) for col in zip(*(psi.coeffs for psi in chars))]
        else:
            rows = [[psi.value(g) for psi in chars] for g in gens]
        r = len(chars)
        rows += [[psi.modulus * (s == t) for t in range(r)] for s, psi in enumerate(chars)]
        _echelon(rows, r)  # full column rank: row r-1 is (0, ..., 0, pivot)
        return self.exponent - valuation(self.ambient.p, abs(rows[r - 1][r - 1]))
