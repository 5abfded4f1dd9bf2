"""Quartic Kummer configurations over k = Q(i).

Builds the abstract configuration (group, characters, exceptional places)
for K_i = Q(i)(b_i^{1/4}) from integer radicands.  Gaussian integers are
(a, b) tuples; Z[i] is a PID, so valuations and exact division settle
everything.  Local fourth-power membership is decided in the residue field
at odd primes and by a bounded, exact Hensel search at 1+i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .abelian import (
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


def gsub(z, w) -> tuple[int, int]:
    a, b = _gauss(z)
    c, d = _gauss(w)
    return a - c, b - d


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
    """('ramified'|'split'|'inert', canonical pi, residue prime q)."""
    z = _gauss(pi)
    n = gnorm(z)
    if n == 2:
        return "ramified", (1, 1), 2
    if n > 2 and _is_prime(n) and n % 4 == 1:
        return "split", z, n
    a, b = z
    if a == 0:
        a, b = b, 0
    if b == 0 and _is_prime(abs(a)) and abs(a) % 4 == 3:
        return "inert", (abs(a), 0), abs(a)
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


def _ramified_unit_is_fourth_power(u) -> bool:
    """Bounded Hensel search: u in (Z_2[i]^x)^4 iff some unit x mod (1+i)^9
    has v(x^4 - u) >= 9 (v(4 x^3) = 4 for units, so 9 = 2*4 + 1 is exact)."""
    k = RAMIFIED_PRECISION
    m = 2 ** (k // 2)
    target = _reduce_mod_power(u, k)
    for a in range(2 * m):
        for b in range(m):
            if (a + b) % 2 == 0:
                continue
            x2 = gmul((a, b), (a, b))
            z = gsub(gmul(x2, x2), target)
            if z == (0, 0) or _v2_norm(z) >= k:
                return True
    return False


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
    out: dict[int, int] = {}
    d = 3
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def split_prime_above(q: int) -> tuple[int, int]:
    """The Gaussian prime a+bi over a split q with a odd, b even, both > 0."""
    for b in range(2, isqrt(q) + 1, 2):
        a2 = q - b * b
        a = isqrt(a2)
        if a * a == a2:
            return a, b
    raise ValueError(f"{q} is not a sum of two squares")


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
