"""The Kummer build's paths before local classes and joint factoring, kept as
a reference for the tests.

``reference_decomposition_place`` tests each of the 4^g exponent vectors on
its own: the product of the generators, exact division by pi, and a
residue-field power compared with 1 (a tuple square-and-multiply in
F_{q^2} at inert primes, a Hensel search at 1+i), then takes the
annihilator.  kummer.decomposition_place reads the same group off one local
class per generator.  ``reference_factor_each`` factors every radicand by
itself, where kummer._factor_jointly factors a coprime base.
``reference_local_class`` states the local class at an odd prime by its
definition, with the image of i found as a root of -1.  None of this uses
the runtime's table of logs at 1+i.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from multinorm_sha.abelian import PGroup, Subgroup, left_kernel
from multinorm_sha.kummer import (
    _classify_prime,
    _factor_odd,
    _gauss,
    gdiv_exact,
    gmul,
    gnorm,
)
from multinorm_sha.places import Place


def annihilator(ambient: PGroup, s: Subgroup) -> Subgroup:
    """{a : <a, x> = 0 for all x in S} under sum(a_j x_j) mod p^n.

    Requires a homocyclic ambient (all exponents equal), where the pairing
    is perfect.
    """
    if s.ambient != ambient:
        raise ValueError("ambient mismatch")
    if len(set(ambient.exponents)) != 1:
        raise ValueError("annihilator requires a homocyclic ambient group")
    k = ambient.rank
    q = ambient.moduli[0]
    # rows of the constraint system: x-coordinates then slack rows q*I
    transposed = [[s.basis[i][j] for i in range(k)] for j in range(k)]
    slack = [[q if c == i else 0 for c in range(k)] for i in range(k)]
    gens = [w[:k] for w in left_kernel(transposed + slack, k)]
    return Subgroup._span_rows(ambient, gens)


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


def hensel_search_is_fourth_power(u):
    """Whether the unit u is a fourth power in Q_2(i): some unit x mod
    (1+i)^9 with v(x^4 - u) >= 9, which Hensel's lemma makes exact since
    v(4 x^3) = 4.  u mod 32 fixes u mod (1+i)^10, so it keys the cache."""
    a, b = _gauss(u)
    return _hensel_search(a % 32, b % 32)


@lru_cache(maxsize=None)
def _hensel_search(a, b):
    return any(
        x4 == (a, b) or _v2_norm((x4[0] - a, x4[1] - b)) >= 9
        for x4 in _unit_fourth_powers()
    )


@lru_cache(maxsize=None)
def _unit_fourth_powers():
    """x^4 for the 256 units x = a + b i, a < 32, b < 16, a residue system
    mod (1+i)^9 = 16(1+i)."""
    out = []
    for a in range(32):
        for b in range(16):
            if (a + b) % 2:
                x2 = gmul((a, b), (a, b))
                out.append(gmul(x2, x2))
    return tuple(out)


def _split_off(z, divisor):
    """(v, u) with z = divisor^v u and divisor not dividing u."""
    v = 0
    while True:
        w = gdiv_exact(z, divisor)
        if w is None:
            return v, z
        z = w
        v += 1


@lru_cache(maxsize=None)
def _image_of_i(pi, q):
    """The square root of -1 mod q that a + b i = pi sends i to."""
    a, b = pi
    root = next(
        r for c in itertools.count(2)
        if (r := pow(c, (q - 1) // 4, q)) * r % q == q - 1
    )
    return next(t for t in (root, q - root) if (a + b * t) % q == 0)


def _residue_image(z, pi, q):
    """z mod pi as an integer mod q, and the image of i."""
    iota = _image_of_i(pi, q)
    x, y = _gauss(z)
    return (x + y * iota) % q, iota


def _tuple_pow(base, e, q):
    res = (1, 0)
    b = (base[0] % q, base[1] % q)
    while e:
        if e & 1:
            res = tuple(c % q for c in gmul(res, b))
        b = tuple(c % q for c in gmul(b, b))
        e >>= 1
    return res


def reference_is_fourth_power(alpha, pi) -> bool:
    return _fourth_power_at(alpha, *_classify_prime(pi))


def _fourth_power_at(alpha, kind, pi, q) -> bool:
    z = _gauss(alpha)
    if kind == "ramified":
        v = _v2_norm(z)
        if v % 4:
            return False
        for _ in range(v):
            z = gdiv_exact(z, (1, 1))
        return hensel_search_is_fourth_power(z)
    v, u = _split_off(z, pi if kind == "split" else (q, 0))
    if v % 4:
        return False
    if kind == "split":
        return pow(_residue_image(u, pi, q)[0], (q - 1) // 4, q) == 1
    return _tuple_pow(u, (q * q - 1) // 4, q) == (1, 0)


def _power_product(generators, m):
    """prod gen_j^{m_j} for integer or Gaussian generators."""
    z = (1, 0)
    for gen, e in zip(generators, m):
        for _ in range(e):
            z = gmul(z, gen)
    return z


def reference_decomposition_place(
    ambient: PGroup, generators, pi, label: str
) -> Place:
    """The annihilator of the exponent vectors whose product is a local
    fourth power, every vector tested."""
    prime = _classify_prime(pi)
    members = [
        m
        for m in itertools.product(range(4), repeat=len(generators))
        if _fourth_power_at(_power_product(generators, m), *prime)
    ]
    return Place(label, annihilator(ambient, Subgroup.span(ambient, members)))


def reference_local_class(alpha, pi) -> tuple[int, int]:
    """(v, c) at an odd prime pi: v = v_pi(alpha), and i^c is the quartic
    residue symbol of alpha's unit part, i^0..i^3 compared one by one."""
    kind, pi, q = _classify_prime(pi)
    v, u = _split_off(_gauss(alpha), pi if kind == "split" else (q, 0))
    if kind == "split":
        residue, iota = _residue_image(u, pi, q)
        symbol = pow(residue, (q - 1) // 4, q)
        power = 1
        for c in range(4):
            if power == symbol:
                return v, c
            power = power * iota % q
    else:
        symbol = _tuple_pow(u, (q * q - 1) // 4, q)
        power = (1, 0)
        for c in range(4):
            if power == symbol:
                return v, c
            power = gmul(power, (0, 1))
            power = (power[0] % q, power[1] % q)
    raise AssertionError(f"symbol {symbol} outside mu_4")


def reference_factor_each(radicands) -> list[dict[int, int]]:
    return [_factor_odd(b) for b in radicands]
