"""The Kummer build's paths before local classes and joint factoring, kept as
a reference for the tests.

``reference_decomposition_place`` tests each of the 4^g exponent vectors on
its own: the product of the generators, exact division by pi, and a
residue-field power compared with 1 (a tuple square-and-multiply in
F_{q^2} at inert primes).  kummer.decomposition_place reads the same group
off one local class per generator.  ``reference_factor_each`` factors every
radicand by itself, where kummer._factor_jointly factors a coprime base.
``reference_local_class`` states the local class by its definition, with
the image of i found as a root of -1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from multinorm_sha.abelian import PGroup, Subgroup, annihilator
from multinorm_sha.kummer import (
    _classify_prime,
    _factor_odd,
    _gauss,
    _ramified_unit_is_fourth_power,
    _v2_norm,
    gdiv_exact,
    gmul,
)
from multinorm_sha.places import Place


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
        return _ramified_unit_is_fourth_power(z)
    v, u = _split_off(z, pi if kind == "split" else (q, 0))
    if v % 4:
        return False
    if kind == "split":
        return pow(_residue_image(u, pi, q)[0], (q - 1) // 4, q) == 1
    return _tuple_pow(u, (q * q - 1) // 4, q) == (1, 0)


def reference_decomposition_place(
    ambient: PGroup, generators, pi, label: str
) -> Place:
    """The annihilator of the exponent vectors whose product is a local
    fourth power, every vector tested."""
    prime = _classify_prime(pi)
    members = [
        m
        for m in itertools.product(range(4), repeat=len(generators))
        if _fourth_power_at(prod(gen ** e for gen, e in zip(generators, m)), *prime)
    ]
    return Place(label=label, group=annihilator(ambient, Subgroup.span(ambient, members)))


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
