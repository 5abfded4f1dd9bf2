"""Quartic Kummer configurations over k = Q(i).

Builds the abstract configuration (group, characters, exceptional places)
for K_i = Q(i)(b_i^{1/4}) from integer radicands.  Gaussian integers are
(a, b) tuples; Z[i] is a PID, so valuations and exact division settle
everything.  Local fourth-power membership is decided in the residue field
at odd primes and by a table of fourth powers mod (1+i)^9 at 1+i.
Radicands are factored by Pollard rho under a step budget, with
deterministic Miller-Rabin deciding primality exactly below MR_BOUND.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .abelian import (
    MR_BASES,
    BudgetExceeded,
    Character,
    PGroup,
    Subgroup,
    _is_prime,
    annihilator,
    intersect,
)
from .fields import FieldConfig, ShaInputError
from .places import LocalData, Place

GENERATOR_BUDGET = 4
FACTOR_BUDGET = 2 ** 18  # Pollard rho steps per radicand
RHO_BATCH = 128  # rho steps per gcd
RAMIFIED_PRECISION = 9  # x^4 - a needs valuation >= 9 at 1+i; exact by Hensel


class UnsupportedRadicand(ShaInputError):
    pass


class DependentRadicands(ShaInputError):
    """Two radicands generate the same quartic field."""


# ---------------------------------------------------------------------------
# Gaussian integer helpers.

def _gauss(z) -> tuple[int, int]:
    if isinstance(z, tuple):
        return int(z[0]), int(z[1])
    return int(z), 0


def gnorm(z) -> int:
    a, b = _gauss(z)
    return a * a + b * b


def gmul(z, w) -> tuple[int, int]:
    a, b = _gauss(z)
    c, d = _gauss(w)
    return a * c - b * d, a * d + b * c


def gdiv_exact(z, w) -> tuple[int, int] | None:
    """z / w in Z[i], or None when w does not divide z."""
    a, b = gmul(z, (_gauss(w)[0], -_gauss(w)[1]))
    n = gnorm(w)
    if a % n or b % n:
        return None
    return a // n, b // n


def _v2_norm(z) -> int:
    """Valuation of z at 1+i (normalized v(1+i) = 1)."""
    n = gnorm(z)
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def _classify_prime(pi):
    """('ramified'|'split'|'inert', canonical pi, residue prime q).

    Decided by shape: a Gaussian prime on an axis is an inert rational
    prime q = 3 mod 4; any other has prime norm 2 or 1 mod 4.
    """
    a, b = _gauss(pi)
    if a == 0 or b == 0:
        q = abs(a + b)
        if q % 4 == 3 and _is_prime(q):
            return "inert", (q, 0), q
    else:
        n = a * a + b * b
        if n == 2:
            return "ramified", (1, 1), 2
        if n % 4 == 1 and _is_prime(n):
            return "split", (a, b), n
    raise ValueError(f"{pi} is not a Gaussian prime")


def _reduce_mod_power(z, k: int) -> tuple[int, int]:
    """Canonical representative of z mod (1+i)^k.

    For k = 2t the ideal is 2^t Z[i]; one extra factor of 1+i identifies
    (a, b) with (a + 2^t, b + 2^t), folded into b < 2^t below.
    """
    t, odd = divmod(k, 2)
    m = 2 ** t
    a, b = _gauss(z)
    if not odd:
        return a % m, b % m
    a %= 2 * m
    b %= 2 * m
    if b >= m:
        a = (a - m) % (2 * m)
        b -= m
    return a, b


@lru_cache(maxsize=None)
def _ramified_fourth_powers() -> frozenset:
    """x^4 mod (1+i)^9 for every unit residue x mod (1+i)^9."""
    k = RAMIFIED_PRECISION
    m = 2 ** (k // 2)
    table = set()
    for a in range(2 * m):
        for b in range(m):
            if (a + b) % 2:
                x2 = gmul((a, b), (a, b))
                table.add(_reduce_mod_power(gmul(x2, x2), k))
    return frozenset(table)


def _ramified_unit_is_fourth_power(u) -> bool:
    """u in (Z_2[i]^x)^4 iff u = x^4 mod (1+i)^9 for some unit x, by Hensel
    (v(4 x^3) = 4 for units, so 9 = 2*4 + 1 is exact); _reduce_mod_power
    is canonical, so that is a lookup."""
    return _reduce_mod_power(u, RAMIFIED_PRECISION) in _ramified_fourth_powers()


def _split_residue(z, pi, q: int) -> int:
    """Image of z in the residue field Z[i]/(pi) = F_q."""
    a, b = _gauss(pi)
    iota = (-a * pow(b, -1, q)) % q
    x, y = _gauss(z)
    return (x + y * iota) % q


def _inert_pow(base, e: int, q: int) -> tuple[int, int]:
    """base^e in F_{q^2} = F_q[i]."""
    res = (1, 0)
    b = (_gauss(base)[0] % q, _gauss(base)[1] % q)
    while e:
        if e & 1:
            res = tuple(c % q for c in gmul(res, b))
        b = tuple(c % q for c in gmul(b, b))
        e >>= 1
    return res


def is_fourth_power_local(alpha, pi) -> bool:
    """Whether alpha lies in (k_v^x)^4 for the completion of Q(i) at pi."""
    kind, pi, q = _classify_prime(pi)
    z = _gauss(alpha)
    if z == (0, 0):
        raise ValueError("alpha must be nonzero")
    if kind == "ramified":
        v = _v2_norm(z)
        if v % 4:
            return False
        for _ in range(v):
            z = gdiv_exact(z, (1, 1))
        return _ramified_unit_is_fourth_power(z)
    divisor = pi if kind == "split" else (q, 0)
    v = 0
    while True:
        w = gdiv_exact(z, divisor)
        if w is None:
            break
        z = w
        v += 1
    if v % 4:
        return False
    if kind == "split":
        return pow(_split_residue(z, pi, q), (q - 1) // 4, q) == 1
    return _inert_pow(z, (q * q - 1) // 4, q) == (1, 0)


# ---------------------------------------------------------------------------
# Configuration building.

@dataclass(frozen=True)
class KummerSpec:
    """Radicands b_i defining K_i = Q(i)(b_i^{1/4}); positive odd integers."""

    radicands: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "radicands", tuple(int(b) for b in self.radicands)
        )
        if not self.labels:
            object.__setattr__(
                self,
                "labels",
                tuple(f"Q(i)(4rt{{{b}}})" for b in self.radicands),
            )
        else:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) != len(self.radicands):
            raise ShaInputError("one label per radicand required")


def _factor_odd(n: int) -> dict[int, int]:
    """Prime factorization of an odd n >= 1, keys ascending.

    The Miller-Rabin bases are divided out (rho is unreliable on tiny
    factors), squares go through isqrt, and any other composite is split by
    Pollard rho, at most FACTOR_BUDGET steps for the whole of n.  The key
    order fixes the order of the generators.
    """
    out: dict[int, int] = {}
    for d in MR_BASES:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    steps = [FACTOR_BUDGET]
    pending = [(n, 1)]
    while pending:
        m, mult = pending.pop()
        r = isqrt(m)
        if r * r == m:
            if m > 1:
                pending.append((r, 2 * mult))
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + mult
            continue
        d = _rho_divisor(m, steps)
        pending += [(d, mult), (m // d, mult)]
    return dict(sorted(out.items()))


def _rho_divisor(n: int, steps: list[int]) -> int:
    """A proper divisor of the composite n by Pollard rho with Brent's cycle
    finding and batched gcds; ``steps[0]`` is the number of steps left."""
    for c in itertools.count(1):
        y, q, g, power = 2, 1, 1, 1
        while g == 1:
            x = y
            steps[0] -= 2 * power
            if steps[0] < 0:
                raise BudgetExceeded(
                    f"factoring {n} needs more than {FACTOR_BUDGET} Pollard rho steps"
                )
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                ys = y
                for _ in range(min(RHO_BATCH, power - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += RHO_BATCH
            power *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def split_prime_above(q: int) -> tuple[int, int]:
    """The Gaussian prime a+bi over a split prime q, a odd, b even, both > 0.

    A square root of -1 mod q comes from a quadratic non-residue; Euclid on
    (q, root) stops at the first remainder below sqrt(q), which is a or b.
    """
    if q % 4 != 1 or not _is_prime(q):
        raise ValueError(f"{q} is not a prime = 1 mod 4")
    root = next(
        r for c in itertools.count(2)
        if (r := pow(c, (q - 1) // 4, q)) * r % q == q - 1
    )
    x, y = q, root
    while y * y > q:
        x, y = y, x % y
    z = isqrt(q - y * y)
    return (y, z) if y % 2 else (z, y)


def decomposition_place(
    ambient: PGroup, generators, pi, label: str
) -> Place:
    """Decomposition subgroup at pi by duality: the annihilator of the
    exponent vectors m with prod(gen_j^{m_j}) a local fourth power."""
    g = len(generators)
    members = []
    for m in _exponent_vectors(g):
        value = 1
        for gen, e in zip(generators, m):
            value *= gen ** e
        if is_fourth_power_local(value, pi):
            members.append(m)
    fourth_powers = Subgroup.span(ambient, members)
    return Place(label=label, group=annihilator(ambient, fourth_powers))


def _exponent_vectors(g: int):
    return itertools.product(range(4), repeat=g)


def build_kummer(spec: KummerSpec) -> tuple[FieldConfig, LocalData]:
    """FieldConfig and LocalData for the given quartic radicands.

    The exceptional list carries 1+i and every Gaussian prime over an odd
    prime dividing some radicand; those are exactly the possibly-ramified
    places, which makes the Chebotarev reduction exact here.
    """
    for b in spec.radicands:
        if b <= 1 or b % 2 == 0:
            raise UnsupportedRadicand(
                f"radicand {b} unsupported: need an odd integer > 1 "
                "(units and the even prime would need extra bookkeeping)"
            )
    factored = [_factor_odd(b) for b in spec.radicands]
    generators: list[int] = []
    for fac in factored:
        for prime in fac:
            if prime not in generators:
                generators.append(prime)
    if len(generators) > GENERATOR_BUDGET:
        raise BudgetExceeded(
            f"{len(generators)} independent prime radicand generators "
            f"exceed the budget of {GENERATOR_BUDGET}"
        )
    g = len(generators)
    ambient = PGroup(2, (2,) * g)

    chars = []
    for b, fac in zip(spec.radicands, factored):
        vec = [fac.get(prime, 0) % 4 for prime in generators]
        if all(c % 4 == 0 for c in vec):
            raise UnsupportedRadicand(f"radicand {b} is a fourth power: K = k")
        if all(c % 2 == 0 for c in vec):
            chars.append(Character(ambient, 1, tuple(c // 2 % 2 for c in vec)))
        else:
            chars.append(Character(ambient, 2, tuple(vec)))
    kernels = [chi.kernel() for chi in chars]
    for i in range(len(kernels)):
        for j in range(i + 1, len(kernels)):
            if kernels[i] == kernels[j]:
                raise DependentRadicands(
                    f"radicands {spec.radicands[i]} and {spec.radicands[j]} "
                    "generate the same field"
                )
    separating = kernels[0]
    for ker in kernels[1:]:
        separating = intersect(separating, ker)
    if separating.order != 1:
        raise UnsupportedRadicand(
            "radicand classes do not span the full Kummer group of their "
            "prime support; present this configuration abstractly instead"
        )

    places = [decomposition_place(ambient, generators, (1, 1), "1+i")]
    for q in generators:
        if q % 4 == 1:
            a, b = split_prime_above(q)
            places.append(
                decomposition_place(ambient, generators, (a, b), f"{q}|{a}+{b}i")
            )
            places.append(
                decomposition_place(ambient, generators, (a, -b), f"{q}|{a}-{b}i")
            )
        else:
            places.append(decomposition_place(ambient, generators, (q, 0), f"{q}"))

    cfg = FieldConfig(ambient, tuple(chars), spec.labels)
    return cfg, LocalData(tuple(places))


QUOTED_LOCAL_FACTS = (
    ("17 is not a fourth power in Q_13", 17, (3, 2), False),
    ("17 is a fourth power in Q_409", 17, (3, 20), True),
    ("409 is a fourth power in Q_17", 409, (1, 4), True),
    ("17 is a fourth power in Q_2(i)", 17, (1, 1), True),
)


def verify_quoted_local_facts() -> None:
    """Recompute the quoted local facts; disagreement is a hard error."""
    for text, alpha, pi, expected in QUOTED_LOCAL_FACTS:
        got = is_fourth_power_local(alpha, pi)
        if got is not expected:
            raise AssertionError(f"local arithmetic disagrees with: {text}")
