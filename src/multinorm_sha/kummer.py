"""Quartic Kummer configurations over k = Q(i).

Builds the abstract configuration (group, characters, exceptional places)
for K_i = Q(i)(b_i^{1/4}) from integer radicands.  Gaussian integers are
(a, b) tuples; Z[i] is a PID, so valuations and exact division settle
everything.

The radicands generate a subgroup of k^x/(k^x)^4 with basis the prime
generators gen_1..gen_g; an exponent vector m stands for prod gen_j^{m_j}.
By Kummer duality the decomposition group at v is the annihilator, under
sum(a_j m_j) mod 4, of the vectors m whose product is a local fourth power.

Each place reads one local class per generator, its image in
k_v^x/(k_v^x)^4 = Z/4 x U/U^4 (valuation mod 4, then the unit part):

- at an odd prime the residue field F_Q (Q = q or q^2) has 4 | Q - 1 and
  1 + pi O_v is pro-q, so U/U^4 = mu_4, read by the log c in Z/4 of the
  quartic residue symbol u^{(Q-1)/4}, with the image of i as base;
- at 1+i, U/U^4 = (Z/4)^3: by Hensel u is a fourth power iff it is one
  mod (1+i)^9, and the unit residues there are i^a 3^b (1+2i)^c with
  fourth powers <3^4, (1+2i)^4>, so (a, b mod 4, c mod 4) is the log.

The class is a homomorphism, so with C the g x r matrix of classes the
fourth powers are {m : mC = 0 mod 4}.  The pairing on (Z/4)^g is perfect,
so their annihilator, the decomposition group, is the span of the r
columns of C mod 4; no exponent vector is tested on its own.

Radicands are first split along their pairwise gcds into a coprime base;
each base element is factored once, by Pollard rho under a step budget,
with deterministic Miller-Rabin deciding primality exactly below MR_BOUND.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt

from .abelian import (
    MR_BASES,
    BudgetExceeded,
    Character,
    PGroup,
    Subgroup,
    Value,
    _is_prime,
)
from .fields import FieldConfig, ShaInputError, same_field, separates
from .oracle import InternalCheckError
from .places import LocalData, Place

FACTOR_BUDGET = 2 ** 18  # Pollard rho steps per coprime-base element
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
def _ramified_logs() -> dict:
    """Discrete logs of the unit residues mod (1+i)^9.

    The 256 products i^a 3^b (1+2i)^c, a < 4 and b, c < 8, are the 256 unit
    residues, and 3^4, (1+2i)^4 generate the fourth powers among them; so
    residue -> (a, b mod 4, c mod 4) maps U/U^4 isomorphically onto (Z/4)^3.
    They are built on plain integers: i^a scaled by 3^b, then multiplied
    by 1+2i through the recurrence (x, y) -> (x - 2y, 2x + y).
    """
    k = RAMIFIED_PRECISION
    logs = {}
    for a, (ux, uy) in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)]):
        for b in range(8):
            x, y = ux * 3 ** b, uy * 3 ** b
            for c in range(8):
                logs[_reduce_mod_power((x, y), k)] = (a, b % 4, c % 4)
                x, y = x - 2 * y, 2 * x + y
    return logs


def _split_residue(z, pi, q: int) -> int:
    """Image of z in the residue field Z[i]/(pi) = F_q."""
    a, b = _gauss(pi)
    iota = (-a * pow(b, -1, q)) % q
    x, y = _gauss(z)
    return (x + y * iota) % q


def _inert_pow(base, e: int, q: int) -> tuple[int, int]:
    """base^e in F_{q^2} = F_q[i]."""
    x, y = _gauss(base)
    x, y = x % q, y % q
    rx, ry = 1, 0
    while e:
        if e & 1:
            rx, ry = (rx * x - ry * y) % q, (rx * y + ry * x) % q
        x, y = (x * x - y * y) % q, 2 * x * y % q
        e >>= 1
    return rx, ry


def is_fourth_power_local(alpha, pi) -> bool:
    """Whether alpha lies in (k_v^x)^4 for the completion of Q(i) at pi."""
    return not any(x % 4 for x in _local_class(alpha, *_classify_prime(pi)))


def _local_class(alpha, kind: str, pi, q: int) -> tuple[int, ...]:
    """The class of alpha in k_v^x/(k_v^x)^4, valuation first.

    alpha = pi^v u with u a unit.  At 1+i the class is (v, a, b, c), the
    logs of u mod (1+i)^9 in _ramified_logs; at an odd prime it is (v, c),
    with u^{(Q-1)/4} = i^c in the residue field F_Q, c in Z/4.  Norms gate
    the valuation: pi | alpha implies N(pi) | N(alpha), so v = 0 without a
    division when N(pi) does not divide N(alpha).
    """
    z = _gauss(alpha)
    if z == (0, 0):
        raise ValueError("alpha must be nonzero")
    v = 0
    if gnorm(z) % gnorm(pi) == 0:
        while (w := gdiv_exact(z, pi)) is not None:
            z = w
            v += 1
    if kind == "ramified":
        return (v, *_ramified_logs()[_reduce_mod_power(z, RAMIFIED_PRECISION)])
    if kind == "split":
        iota = _split_residue((0, 1), pi, q)
        symbol = pow(_split_residue(z, pi, q), (q - 1) // 4, q)
        powers_of_i = (1, iota, q - 1, q - iota)
    else:
        symbol = _inert_pow(z, (q * q - 1) // 4, q)
        powers_of_i = ((1, 0), (0, 1), (q - 1, 0), (0, q - 1))
    if symbol not in powers_of_i:
        raise InternalCheckError(
            f"quartic residue symbol {symbol} of {alpha} at {pi} is not in mu_4"
        )
    return v, powers_of_i.index(symbol)


# ---------------------------------------------------------------------------
# Configuration building.

class KummerSpec(Value):
    """Radicands b_i defining K_i = Q(i)(b_i^{1/4}); positive odd integers."""

    __slots__ = _fields = ("radicands", "labels")

    def __init__(self, radicands: tuple[int, ...], labels: tuple[str, ...] = ()):
        radicands = tuple(int(b) for b in radicands)
        if not labels:
            labels = tuple(f"Q(i)(4rt{{{b}}})" for b in radicands)
        else:
            labels = tuple(str(s) for s in labels)
        self._init(radicands, labels)
        if len(labels) != len(radicands):
            raise ShaInputError("one label per radicand required")


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which every number is a product of
    powers: a shared factor d of x and b replaces them by d, x/d and b/d."""
    base: list[int] = []
    for n in numbers:
        pending = [n]
        while pending:
            x = pending.pop()
            if x == 1:
                continue
            for k, b in enumerate(base):
                d = gcd(x, b)
                if d > 1:
                    del base[k]
                    pending += [d, x // d, b // d]
                    break
            else:
                base.append(x)
    return base


def _factor_jointly(radicands) -> list[dict[int, int]]:
    """[_factor_odd(b) for b in radicands], with each element of their
    coprime base factored once, so a shared factor costs one rho run and
    each element has its own FACTOR_BUDGET."""
    primes = sorted(q for n in _coprime_base(radicands) for q in _factor_odd(n))
    out = []
    for b in radicands:
        fac, rest = {}, b
        for q in primes:
            while rest % q == 0:
                fac[q] = fac.get(q, 0) + 1
                rest //= q
        if rest != 1:
            raise InternalCheckError(
                f"coprime-base factorization of {b} leaves the cofactor {rest}"
            )
        out.append(fac)
    return out


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
    """Decomposition subgroup at pi: the span mod 4 of the coordinates of
    the generators' local classes, one vector in (Z/4)^g per coordinate."""
    prime = _classify_prime(pi)  # once per place, not once per generator
    classes = [_local_class(gen, *prime) for gen in generators]
    coords = [tuple(x % 4 for x in coord) for coord in zip(*classes)]
    return Place(label=label, group=Subgroup.span(ambient, coords))


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
    factored = _factor_jointly(spec.radicands)
    generators: list[int] = []
    for fac in factored:
        for prime in fac:
            if prime not in generators:
                generators.append(prime)
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
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            if same_field(chars[i], chars[j]):
                raise DependentRadicands(
                    f"radicands {spec.radicands[i]} and {spec.radicands[j]} "
                    "generate the same field"
                )
    if not separates(ambient, chars):
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
