import itertools
import random
import time
from math import prod

import pytest

from multinorm_sha.abelian import BudgetExceeded, PGroup, _is_prime
from multinorm_sha.fields import TooFewFields, validate_and_normalize
from multinorm_sha.kummer import (
    DependentRadicands,
    KummerSpec,
    UnsupportedRadicand,
    build_kummer,
    decomposition_place,
    gdiv_exact,
    gmul,
    gnorm,
    is_fourth_power_local,
    split_prime_above,
    verify_quoted_local_facts,
    _classify_prime,
    _factor_odd,
    _ramified_unit_is_fourth_power,
    _reduce_mod_power,
    _v2_norm,
)
from test_abelian import trial_division_is_prime


def odd_primes(limit):
    sieve = [True] * limit
    for n in range(3, limit, 2):
        if all(n % d for d in range(3, int(n ** 0.5) + 1, 2)):
            yield n


def hensel_search_is_fourth_power(u):
    """Reference 1+i test: some unit x mod (1+i)^9 with v(x^4 - u) >= 9."""
    target = _reduce_mod_power(u, 9)
    for a in range(32):
        for b in range(16):
            if (a + b) % 2 == 0:
                continue
            x2 = gmul((a, b), (a, b))
            x4 = gmul(x2, x2)
            z = (x4[0] - target[0], x4[1] - target[1])
            if z == (0, 0) or _v2_norm(z) >= 9:
                return True
    return False


def reference_classify_prime(pi):
    """Reference classification by trial division on the norm and on |a|."""
    a, b = pi
    n = a * a + b * b
    if n == 2:
        return "ramified", (1, 1), 2
    if n > 2 and trial_division_is_prime(n) and n % 4 == 1:
        return "split", (a, b), n
    if a == 0:
        a, b = b, 0
    if b == 0 and trial_division_is_prime(abs(a)) and abs(a) % 4 == 3:
        return "inert", (abs(a), 0), abs(a)
    return None


def test_gaussian_helpers():
    assert gnorm((3, 2)) == 13
    assert gmul((1, 1), (1, -1)) == (2, 0)
    assert gdiv_exact((13, 0), (3, 2)) == (3, -2)
    assert gdiv_exact((5, 0), (3, 2)) is None
    assert _v2_norm((1, 1)) == 1
    assert _v2_norm((2, 0)) == 2
    assert split_prime_above(13) == (3, 2)
    assert split_prime_above(17) == (1, 4)


def test_prime_classification_errors():
    with pytest.raises(ValueError):
        is_fourth_power_local(3, (5, 0))  # 5 splits, so (5, 0) is not prime
    with pytest.raises(ValueError):
        is_fourth_power_local(3, (3, 1))  # norm 10
    with pytest.raises(ValueError):
        is_fourth_power_local(0, (1, 1))


def test_one_is_always_a_fourth_power():
    for pi in [(1, 1), (3, 2), (3, -2), (3, 0), (7, 0), (1, 4), (3, 20)]:
        assert is_fourth_power_local(1, pi)


def test_quoted_local_facts():
    assert not is_fourth_power_local(17, (3, 2))
    assert is_fourth_power_local(17, (3, 20))
    assert is_fourth_power_local(409, (1, 4))
    assert is_fourth_power_local(17, (1, 1))
    verify_quoted_local_facts()


def test_split_primes_against_exhaustive_residues():
    # complete small-prime oracle: x^4 mod p over all residues, p < 200
    for p in odd_primes(200):
        if p % 4 != 1:
            continue
        pi = split_prime_above(p)
        fourth = {pow(x, 4, p) for x in range(1, p)}
        for u in range(1, p):
            assert is_fourth_power_local(u, pi) == (u in fourth), (p, u)
        # vp(alpha) = 1, 2, 3 mod 4 never; vp = 4 with fourth-power unit part
        assert not is_fourth_power_local(p, pi)
        assert not is_fourth_power_local(p * p, pi)
        assert is_fourth_power_local(p ** 4, pi)


def test_inert_primes_against_exhaustive_residues():
    # all Gaussian unit residues mod p, against x^4 enumeration in F_{p^2}
    for p in [3, 7, 11, 19]:
        fourth = set()
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                x2 = ((a * a - b * b) % p, (2 * a * b) % p)
                x4 = ((x2[0] * x2[0] - x2[1] * x2[1]) % p,
                      (2 * x2[0] * x2[1]) % p)
                fourth.add(x4)
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                got = is_fourth_power_local((a, b), (p, 0))
                assert got == (((a % p), (b % p)) in fourth), (p, a, b)
    # rational units are always fourth powers at inert primes
    for p in [3, 7, 11, 19, 23]:
        for u in range(1, p):
            assert is_fourth_power_local(u, (p, 0))


def test_inert_larger_primes_spot():
    for p in [q for q in odd_primes(200) if q % 4 == 3][-3:]:
        for u in (2, 5, p - 1):
            assert is_fourth_power_local(u, (p, 0))
        assert not is_fourth_power_local(p, (p, 0))
        assert is_fourth_power_local(p ** 4, (p, 0))


def test_ramified_against_exhaustive_search():
    # independent oracle: fourth powers of all units mod 2^8, one extra digit
    fourth13 = set()
    for a in range(256):
        for b in range(256):
            if (a + b) % 2 == 0:
                continue
            x2 = gmul((a, b), (a, b))
            fourth13.add(_reduce_mod_power(gmul(x2, x2), 13))
    fourth9 = {_reduce_mod_power(z, 9) for z in fourth13}
    checked = 0
    for a in range(32):
        for b in range(16):
            if (a + b) % 2 == 0:
                continue
            want = _reduce_mod_power((a, b), 9) in fourth9
            assert is_fourth_power_local((a, b), (1, 1)) == want, (a, b)
            checked += 1
    assert checked == 256


def test_ramified_valuation_handling():
    assert not is_fourth_power_local((1, 1), (1, 1))
    assert not is_fourth_power_local(2, (1, 1))
    assert is_fourth_power_local(16, (1, 1))  # (1+i)^8 = 16, unit part 1
    assert is_fourth_power_local((-4, 0), (1, 1))  # (1+i)^4 = -4


def test_build_17_13_shape():
    cfg_raw, local = build_kummer(KummerSpec((17, 17 * 13, 13)))
    assert cfg_raw.group == PGroup(2, (2, 2))
    assert [chi.coeffs for chi in cfg_raw.chars] == [(1, 0), (1, 1), (0, 1)]
    labels = [pl.label for pl in local.exceptional]
    assert labels == ["1+i", "17|1+4i", "17|1-4i", "13|3+2i", "13|3-2i"]
    by_label = {pl.label: pl for pl in local.exceptional}
    assert by_label["13|3+2i"].group.order == 8
    assert by_label["17|1+4i"].group.order == 4


def test_build_bicyclic_shape():
    cfg_raw, local = build_kummer(KummerSpec((13, 17, 13 * 17 * 17)))
    assert [chi.coeffs for chi in cfg_raw.chars] == [(1, 0), (0, 1), (1, 2)]
    cfg = validate_and_normalize(cfg_raw)
    assert cfg.e0(2) == 1


def test_build_rejections():
    with pytest.raises(TooFewFields):
        validate_and_normalize(build_kummer(KummerSpec((17,)))[0])
    with pytest.raises(UnsupportedRadicand):
        build_kummer(KummerSpec((16, 17, 13)))
    with pytest.raises(UnsupportedRadicand):
        build_kummer(KummerSpec((-17, 13, 221)))
    with pytest.raises(UnsupportedRadicand):
        build_kummer(KummerSpec((13 ** 4, 17, 221)))
    with pytest.raises(DependentRadicands):
        build_kummer(KummerSpec((17, 17 ** 3, 13)))
    with pytest.raises(BudgetExceeded):
        build_kummer(KummerSpec((3, 5, 7, 11, 13)))
    with pytest.raises(UnsupportedRadicand):
        # square classes spanning no full quartic component
        build_kummer(KummerSpec((17 * 17, 13 * 13, (17 * 13) ** 2)))


def test_quadratic_radicand_supported():
    # one square radicand among quartics is fine: it has degree two
    cfg_raw, local = build_kummer(KummerSpec((17, 13, 17 * 13 * 13)))
    assert [chi.exponent for chi in cfg_raw.chars] == [2, 2, 2]
    cfg_raw2, _ = build_kummer(KummerSpec((17 * 17, 13, 17 * 13)))
    assert [chi.exponent for chi in cfg_raw2.chars] == [1, 2, 2]


def test_unramified_place_has_cyclic_frobenius():
    # a manually added odd prime away from the radicands: D_v must be cyclic
    from multinorm_sha.abelian import Subgroup

    ambient = PGroup(2, (2, 2))
    triv = Subgroup.trivial(ambient)
    for pi, label in [((5, 2), "29"), ((2, 1), "5"), ((3, 0), "3"), ((7, 0), "7")]:
        place = decomposition_place(ambient, [17, 13], pi, label)
        assert len(place.group.invariants_mod(triv)) <= 1


def test_decomposition_group_is_annihilator_dual():
    # |K_v| * |D_v| = |A| by the perfect pairing
    ambient = PGroup(2, (2, 2))
    for pi in [(1, 1), (3, 2), (1, 4), (3, 0)]:
        place = decomposition_place(ambient, [17, 13], pi, str(pi))
        members = [
            m
            for m in itertools.product(range(4), repeat=2)
            if is_fourth_power_local(17 ** m[0] * 13 ** m[1], pi)
        ]
        from multinorm_sha.abelian import Subgroup, annihilator

        kv = Subgroup.span(ambient, members)
        assert kv.order == len(members)  # the member set is a subgroup
        assert place.group == annihilator(ambient, kv)
        assert kv.order * place.group.order == ambient.order


def test_ramified_table_matches_hensel_search():
    units = [(a, b) for a in range(32) for b in range(16) if (a + b) % 2]
    assert len(units) == 256
    for u in units:
        assert _ramified_unit_is_fourth_power(u) == hensel_search_is_fourth_power(u), u
    rng = random.Random(4)
    for _ in range(300):
        a, b = rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-10 ** 6, 10 ** 6)
        if (a + b) % 2:
            assert _ramified_unit_is_fourth_power((a, b)) == hensel_search_is_fourth_power((a, b))


def test_classify_prime_matches_reference():
    for a in range(-60, 61):
        for b in range(-60, 61):
            want = reference_classify_prime((a, b))
            if want is None:
                with pytest.raises(ValueError):
                    _classify_prime((a, b))
            else:
                assert _classify_prime((a, b)) == want, (a, b)


def check_factorization(n):
    fac = _factor_odd(n)
    assert prod(q ** e for q, e in fac.items()) == n
    assert all(_is_prime(q) and e >= 1 for q, e in fac.items())
    assert list(fac) == sorted(fac)
    return fac


def test_factor_odd_random():
    rng = random.Random(7)
    for _ in range(2000):
        check_factorization(rng.randrange(1, 10 ** 9, 2))
    # prime powers and products of primes above the divided-out bases
    primes = [q for q in range(43, 3000) if trial_division_is_prime(q)]
    for _ in range(300):
        n = prod(rng.choice(primes) ** rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        if n < 10 ** 20:  # stays below MR_BOUND with the cofactor
            check_factorization(n * rng.choice([1, 3, 3 ** 5 * 41]))
    assert _factor_odd(3 ** 4 * 43 ** 3 * 1000003) == {3: 4, 43: 3, 1000003: 1}
    # a square above MR_BOUND is taken apart by isqrt before any primality test
    assert _factor_odd(10000000000037 ** 2) == {10000000000037: 2}


def test_split_prime_above_large():
    for q in (13, 17, 409, 1000000009, 10 ** 18 + 9):
        a, b = split_prime_above(q)
        assert a * a + b * b == q and a % 2 == 1 and b % 2 == 0 and a > 0 and b > 0
    with pytest.raises(ValueError):
        split_prime_above(21)
    with pytest.raises(ValueError):
        split_prime_above(7)


def test_semiprime_radicand_factors():
    assert _factor_odd(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    cfg, local = build_kummer(KummerSpec((1000000007 * 1000000009, 1000000009, 3)))
    assert len(local.exceptional) == 1 + 1 + 2 + 1


@pytest.mark.parametrize(
    "radicands", [(1000003, 1000033, 3), (1000000007, 1000000009, 3)]
)
def test_build_large_radicand_primes_is_fast(radicands):
    t0 = time.process_time()
    cfg, local = build_kummer(KummerSpec(radicands))
    assert time.process_time() - t0 < 1.0
    assert cfg.group == PGroup(2, (2, 2, 2))
    # 1+i, one inert place, two places over the split prime, one over 3
    assert len(local.exceptional) == 5


def test_factoring_budget_refuses_large_semiprimes():
    p = 1099511627791  # the least prime above 2^40
    q = 1099511627803  # the next one; p * q is below MR_BOUND
    with pytest.raises(BudgetExceeded):
        _factor_odd(p * q)
