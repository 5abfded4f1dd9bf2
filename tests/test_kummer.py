import contextlib
import io
import itertools
import json
import random
import time
from math import gcd, prod

import pytest

from multinorm_sha.abelian import (
    BudgetExceeded,
    PGroup,
    Subgroup,
    _is_prime,
)
from multinorm_sha.cli import EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, main
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
    _factor_jointly,
    _factor_odd,
    _local_class,
    _ramified_logs,
    _reduce_mod_power,
)
from kummer_reference import (
    _v2_norm,
    annihilator,
    hensel_search_is_fourth_power,
    reference_decomposition_place,
    reference_factor_each,
    reference_is_fourth_power,
    reference_local_class,
)
from test_abelian import trial_division_is_prime


def odd_primes(limit):
    sieve = [True] * limit
    for n in range(3, limit, 2):
        if all(n % d for d in range(3, int(n ** 0.5) + 1, 2)):
            yield n


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
    # five prime generators build, and both routes agree on them
    assert main(["kummer", "--radicands", "3,5,7,11,13", "--compute", "--method", "both"]) == EXIT_OK
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
        kv = Subgroup.span(ambient, members)
        assert kv.order == len(members)  # the member set is a subgroup
        assert place.group == annihilator(ambient, kv)
        assert kv.order * place.group.order == ambient.order


UNITS_MOD_2_9 = [(a, b) for a in range(32) for b in range(16) if (a + b) % 2]
ONE_PLUS_I = _classify_prime((1, 1))


def _ramified_class(alpha):
    return _local_class(alpha, *ONE_PLUS_I)


def test_ramified_table_matches_hensel_search():
    # the logs are a bijection of the 256 unit residues onto
    # (Z/4) x (Z/8)^2, read mod 4, and the class is zero exactly on the
    # units the Hensel search finds to be fourth powers
    logs = _ramified_logs()
    assert len(UNITS_MOD_2_9) == len(logs) == 256
    assert {_reduce_mod_power(u, 9) for u in UNITS_MOD_2_9} == set(logs)
    assert sorted(set(logs.values())) == list(itertools.product(range(4), repeat=3))
    for u in UNITS_MOD_2_9:
        assert (_ramified_class(u) == (0, 0, 0, 0)) == hensel_search_is_fourth_power(u), u
    rng = random.Random(4)
    checked = 0
    while checked < 300:
        u = (rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-10 ** 6, 10 ** 6))
        if sum(u) % 2:
            assert is_fourth_power_local(u, (1, 1)) == hensel_search_is_fourth_power(u), u
            checked += 1


def test_ramified_class_is_additive():
    # class(uv) = class(u) + class(v) mod 4, valuation included
    rng = random.Random(14)
    for _ in range(2000):
        z, w = [(rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-10 ** 4, 10 ** 4)) for _ in "zw"]
        if (0, 0) in (z, w):
            continue
        got = _ramified_class(gmul(z, w))
        want = tuple((x + y) % 4 for x, y in zip(_ramified_class(z), _ramified_class(w)))
        assert tuple(x % 4 for x in got) == want, (z, w)


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


# the radicand triples of the kummer benchmark workload, seed 0
BENCH_RADICANDS = [
    (1021, 1410001, 1381), (1039, 1433, 2133575071), (2053, 5565683, 2711),
    (3067, 4007, 49243902283), (4013, 21722369, 5413),
    (6047, 8017, 388654531583), (9001, 108975107, 12107),
    (13043, 17383, 3941186210627), (20113, 536876309, 26693),
    (28099, 37409, 39322675762819), (41081, 2248239887, 54727),
    (60107, 80051, 385175429458307), (86029, 9872429953, 114757),
    (125003, 166669, 3472402780791683), (182057, 44214909191, 242863),
]


def test_decomposition_place_classifies_once(monkeypatch):
    # every place matches is_fourth_power_local test by test, and each
    # place classifies its prime once
    import multinorm_sha.kummer as kummer

    classified = []
    classify_prime = kummer._classify_prime

    def counting(pi):
        classified.append(pi)
        return classify_prime(pi)

    monkeypatch.setattr(kummer, "_classify_prime", counting)
    for radicands in BENCH_RADICANDS:
        classified.clear()
        _raw, local = build_kummer(KummerSpec(radicands))
        assert len(classified) == len(local.exceptional)
        generators = list(dict.fromkeys(q for b in radicands for q in _factor_odd(b)))
        primes = [(1, 1)]
        for q in generators:
            if q % 4 == 1:
                a, b = split_prime_above(q)
                primes += [(a, b), (a, -b)]
            else:
                primes.append((q, 0))
        ambient = PGroup(2, (2,) * len(generators))
        for place, pi in zip(local.exceptional, primes, strict=True):
            members = [
                m for m in itertools.product(range(4), repeat=len(generators))
                if is_fourth_power_local(prod(q ** e for q, e in zip(generators, m)), pi)
            ]
            want = annihilator(ambient, Subgroup.span(ambient, members))
            assert place.group == want, (radicands, place.label)


# ---------------------------------------------------------------------------
# Local classes and joint factoring against the per-vector reference.

SMALL_PRIMES = [q for q in range(3, 400) if trial_division_is_prime(q)]
MEDIUM_PRIMES = [q for q in range(10007, 10400) if trial_division_is_prime(q)]
LARGE_PRIMES = [1000003, 1000033, 1000037, 1000039, 1000000007, 1000000009]
P40 = 1099511627791  # the least prime above 2^40
Q40 = 1099511627803  # the next one
# the per-vector reference enumerates (Z/4)^g, so its draws keep g <= 4
PER_VECTOR_GENERATORS = 4


def _places_over(q, rng):
    """The Gaussian primes over the odd prime q, as random associates."""
    if q % 4 == 1:
        a, b = split_prime_above(q)
        out = [(a, b), (a, -b)]
    else:
        out = [(q, 0)]
    unit = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])
    return [gmul(pi, unit) for pi in out]


def _random_generators(rng, g):
    """g distinct nonzero generators: mostly odd primes, some composite,
    negative or even."""
    gens = []
    while len(gens) < g:
        pool = rng.choice([SMALL_PRIMES, SMALL_PRIMES, MEDIUM_PRIMES, LARGE_PRIMES])
        gen = rng.choice(pool)
        roll = rng.random()
        if roll < 0.1:
            gen *= rng.choice(SMALL_PRIMES)
        elif roll < 0.15:
            gen = -gen
        elif roll < 0.2:
            gen *= 2
        if gen not in gens:
            gens.append(gen)
    return gens


def _odd_part(n):
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    return n


def test_decomposition_place_matches_per_vector_reference():
    rng = random.Random(10)
    counts = {"ramified": 0, "split": 0, "inert": 0, "away": 0}
    while sum(counts.values()) < 2000:
        g = rng.choice([1, 2, 2, 3, 3, 3, PER_VECTOR_GENERATORS])
        gens = _random_generators(rng, g)
        ambient = PGroup(2, (2,) * g)
        support = sorted({q for gen in gens for q in _factor_odd(_odd_part(gen))})
        away = [q for q in SMALL_PRIMES if all(gen % q for gen in gens)]
        primes = [(1, 1)]
        for q in support:
            primes += _places_over(q, rng)
        for q in rng.sample(away, 2):
            primes += _places_over(q, rng)[:1]
        for pi in primes:
            kind, _pi, q = _classify_prime(pi)
            on_support = kind == "ramified" or any(gen % q == 0 for gen in gens)
            counts[kind if on_support else "away"] += 1
            want = reference_decomposition_place(ambient, gens, pi, "v")
            assert decomposition_place(ambient, gens, pi, "v") == want, (gens, pi)
    assert min(counts.values()) >= 100, counts


def test_one_plus_i_place_matches_per_vector_reference():
    # the place 1+i on its own: random associates +-1+-i, g = 1..4, with
    # negative and even generators among the random ones; rational
    # generators have no (1+2i)-coordinate, so some are Gaussian
    rng = random.Random(15)
    negative = even = gaussian = 0
    for _ in range(2000):
        g = rng.randint(1, PER_VECTOR_GENERATORS)
        gens = _random_generators(rng, g)
        negative += any(gen < 0 for gen in gens)
        even += any(gen % 2 == 0 for gen in gens)
        if rng.random() < 0.25:
            gens[rng.randrange(g)] = (rng.randrange(-99, 100), rng.randrange(1, 100))
            gaussian += 1
        ambient = PGroup(2, (2,) * g)
        pi = (rng.choice([1, -1]), rng.choice([1, -1]))
        want = reference_decomposition_place(ambient, gens, pi, "1+i")
        assert decomposition_place(ambient, gens, pi, "1+i") == want, (gens, pi)
    assert min(negative, even, gaussian) >= 100, (negative, even, gaussian)


def test_local_class_matches_definition():
    # the class itself, with i (not -i) as the base of the log
    rng = random.Random(11)
    primes = [q for q in SMALL_PRIMES if q < 120]
    for q in primes:
        for pi in _places_over(q, rng):
            prime = _classify_prime(pi)
            for _ in range(40):
                alpha = (rng.randrange(-500, 500), rng.randrange(-500, 500))
                if alpha == (0, 0):
                    continue
                alpha = gmul(alpha, gmul(pi, pi) if rng.random() < 0.3 else (1, 0))
                # N(pi) divides the norm of alpha times conj(pi) or q; at a
                # split prime conj(pi) is prime to pi, so the division is
                # tried and gives v = 0 there
                for beta in (alpha, gmul(alpha, (pi[0], -pi[1])), gmul(alpha, q)):
                    assert _local_class(beta, *prime) == reference_local_class(beta, pi), (beta, pi)


def test_local_class_of_i_times_unit():
    # q = 5 mod 8: i has class (q-1)/4, odd, so u * i^t is a fourth power for
    # exactly one t, and c(u) = -t (q-1)/4 mod 4; no residue symbol involved
    rng = random.Random(12)
    for q in [p for p in SMALL_PRIMES if p % 8 == 5][:12]:
        k = (q - 1) // 4
        for pi in _places_over(q, rng):
            prime = _classify_prime(pi)
            for u in range(1, 60):
                if u % q == 0:
                    continue
                t = [t for t, unit in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)])
                     if reference_is_fourth_power(gmul(u, unit), pi)]
                assert len(t) == 1
                assert _local_class(u, *prime) == (0, -t[0] * k % 4), (u, pi)


def _random_radicands(rng):
    pool = rng.sample(SMALL_PRIMES[:20] + MEDIUM_PRIMES + LARGE_PRIMES[:4], rng.randint(2, 5))
    out = []
    for _ in range(rng.randint(1, 5)):
        if out and rng.random() < 0.2:
            out.append(rng.choice(out))  # a repeat
            continue
        while True:
            k = rng.randint(1, min(3, len(pool)))
            n = prod(q ** rng.randint(1, 3) for q in rng.sample(pool, k))
            if n < 10 ** 20:  # below MR_BOUND, where primality is exact
                break
        out.append(n)
    return out


def test_factor_jointly_matches_per_radicand_factoring(monkeypatch):
    import multinorm_sha.kummer as kummer

    factored = []
    factor_odd = kummer._factor_odd

    def recording(n):
        factored.append(n)
        return factor_odd(n)

    monkeypatch.setattr(kummer, "_factor_odd", recording)
    rng = random.Random(13)
    shared = 0
    for _ in range(400):
        radicands = _random_radicands(rng)
        factored.clear()
        got = _factor_jointly(radicands)
        want = reference_factor_each(radicands)
        assert [list(f.items()) for f in got] == [list(f.items()) for f in want], radicands
        # rho sees a coprime base only: each shared factor is factored once
        assert all(gcd(a, b) == 1 for a, b in itertools.combinations(factored, 2)), (radicands, factored)
        assert prod(factored) <= prod(set(radicands))
        shared += any(gcd(a, b) > 1 for a, b in itertools.combinations(set(radicands), 2))
    assert shared >= 100


def test_each_place_computes_g_local_classes(monkeypatch):
    # no exponent vector is tested on its own: every place, 1+i included,
    # computes one local class per generator, of the generator itself
    import multinorm_sha.kummer as kummer

    per_place = []
    local_class = kummer._local_class
    place = kummer.decomposition_place

    def recording_class(alpha, *prime):
        per_place[-1].append(alpha)
        return local_class(alpha, *prime)

    def recording_place(ambient, generators, pi, label):
        per_place.append([])
        return place(ambient, generators, pi, label)

    monkeypatch.setattr(kummer, "_local_class", recording_class)
    monkeypatch.setattr(kummer, "decomposition_place", recording_place)
    for radicands in BENCH_RADICANDS + [(3, 5, 7, 11), (1000003, 1000033, 1000037, 1000039)]:
        per_place.clear()
        _cfg, local = build_kummer(KummerSpec(radicands))
        generators = list(dict.fromkeys(q for b in radicands for q in _factor_odd(b)))
        assert len(per_place) == len(local.exceptional), radicands
        assert per_place == [generators] * len(per_place), radicands


def test_shared_factor_is_split_before_rho(capsys):
    # P*Q alone needs more rho steps than the budget; next to P, the gcd
    # splits it, and no rho run is needed
    t0 = time.process_time()
    assert main(["kummer", "--radicands", f"{P40 * Q40},{P40},3", "--compute"]) == EXIT_OK
    assert time.process_time() - t0 < 2.0
    cfg, local = build_kummer(KummerSpec((P40 * Q40, P40, 3)))
    assert [chi.coeffs for chi in cfg.chars] == [(1, 1, 0), (1, 0, 0), (0, 0, 1)]
    assert len(local.exceptional) == 1 + 3  # 1+i, and P40, Q40 and 3 are inert
    capsys.readouterr()
    t0 = time.process_time()
    assert main(["kummer", "--radicands", f"{P40 * Q40},3", "--compute"]) == EXIT_BUDGET
    assert time.process_time() - t0 < 2.0


@pytest.mark.parametrize(
    "name, radicands",
    [("_inert_pow", "3,5,7,11"), ("_split_residue", "13,17,29,37"), ("_factor_odd", "3,5,7,11")],
)
def test_broken_local_arithmetic_exits_internal(name, radicands, monkeypatch, capsys):
    import multinorm_sha.kummer as kummer

    real = getattr(kummer, name)
    broken = {
        # a symbol outside mu_4, at an inert and at a split prime
        "_inert_pow": lambda base, e, q: (2, 3),
        "_split_residue": lambda z, pi, q: real(z, pi, q) if z == (0, 1) else 0,
        # a factorization whose product is not its radicand
        "_factor_odd": lambda n: {3: 1} if n == 5 else real(n),
    }[name]
    monkeypatch.setattr(kummer, name, broken)
    assert main(["kummer", "--radicands", radicands, "--compute"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal check failed")
    assert ("mu_4" if name != "_factor_odd" else "cofactor 5") in err


# ---------------------------------------------------------------------------
# Many generators: no budget on their number, every document answered or
# refused with exit 2.

def _compute_both(radicands):
    """(exit code, JSON report or None) of kummer --compute --method both."""
    out = io.StringIO()
    argv = ["kummer", "--radicands", ",".join(map(str, radicands)),
            "--compute", "--method", "both", "--json", "-"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue()) if code == EXIT_OK else None


def _routes_agree(report):
    keys = ("sha_invariants", "sha_omega_invariants", "quotient_invariants")
    return report["agreement"] and all(
        [comp["methods"]["oracle"][k] for k in keys]
        == [comp["methods"]["formula"][k] for k in keys]
        for comp in report["components"]
    )


def test_thirty_generators_agree_quickly():
    # 30 prime generators, 45 radicands: the 30 primes and 15 products of two
    primes = SMALL_PRIMES[:30]
    radicands = primes + [primes[2 * k] * primes[2 * k + 1] for k in range(15)]
    t0 = time.process_time()
    code, report = _compute_both(radicands)
    assert time.process_time() - t0 < 2.0
    assert code == EXIT_OK
    assert report["components"][0]["group_exponents"] == [2] * 30
    assert _routes_agree(report)


def test_random_documents_answer_or_exit_2():
    # 200 seeded documents on 5-8 prime generators: each prime gets a
    # radicand, with a random cofactor from the pool, and up to three more
    # radicands follow; spanning documents answer and agree, the rest
    # (non-spanning or dependent radicands) exit 2
    rng = random.Random(18)
    codes = {EXIT_OK: 0, 2: 0}
    for _ in range(200):
        pool = rng.sample(SMALL_PRIMES[:45], rng.randint(5, 8))
        radicands = []
        for q in pool:
            r = q ** rng.choice((1, 1, 2, 3))
            for other in rng.sample(pool, rng.randint(0, 2)):
                if other != q:
                    r *= other ** rng.randint(1, 3)
            radicands.append(r)
        for _ in range(rng.randint(0, 3)):
            extra = rng.sample(pool, rng.randint(1, 3))
            radicands.append(prod(q ** rng.randint(1, 3) for q in extra))
        code, report = _compute_both(radicands)
        assert code in codes, (radicands, code)
        codes[code] += 1
        if report is not None:
            assert _routes_agree(report), radicands
    assert min(codes.values()) >= 40, codes
