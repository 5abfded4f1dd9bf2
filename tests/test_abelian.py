import inspect
import random
import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_reference import annihilator
from structure_reference import (
    image_is_cyclic,
    join,
    quotient_invariants,
    reference_kernel_at_level,
)
from multinorm_sha.abelian import (
    MR_BASES,
    MR_BOUND,
    PSI,
    BudgetExceeded,
    Character,
    PGroup,
    Subgroup,
    cyclic_subgroups,
    divisor_valuations,
    hermite_normal_form,
    intersect,
    left_kernel,
    smith_invariants,
    xgcd,
    _is_prime,
    valuation,
)

Z44 = PGroup(2, (2, 2))

ALL_SUBGROUPS_CAP = 256  # exhaustive subgroup enumeration is a test-scale tool


def all_subgroups(ambient: PGroup) -> list[Subgroup]:
    """Every subgroup of A, capped at |A| <= 256."""
    if ambient.order > ALL_SUBGROUPS_CAP:
        raise BudgetExceeded(
            f"exhaustive subgroup enumeration capped at {ALL_SUBGROUPS_CAP}"
        )
    elems = list(ambient.elements())
    frontier = [Subgroup.trivial(ambient)]
    seen = {frontier[0].basis: frontier[0]}
    while frontier:
        nxt = []
        for sub in frontier:
            for g in elems:
                if sub.contains(g):
                    continue
                bigger = Subgroup._span_rows(ambient, list(sub.basis) + [g])
                if bigger.basis not in seen:
                    seen[bigger.basis] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return list(seen.values())


def trial_division_is_prime(n):
    """Reference primality test: trial division by every integer."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True

SMALL_GROUPS = [
    PGroup(2, (2, 2)),
    PGroup(2, (2, 1)),
    PGroup(2, (1, 1, 1)),
    PGroup(2, (3,)),
    PGroup(3, (1, 1)),
    PGroup(3, (2, 1)),
]


def add(group, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, group.moduli))


def brute_span(group, gens):
    """Closure of gens under addition, by fixed-point iteration."""
    elems = {(0,) * group.rank}
    frontier = [(0,) * group.rank]
    gens = [group.reduce(g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add(group, cur, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def test_xgcd():
    for a in range(-30, 30):
        for b in range(-30, 30):
            g, x, y = xgcd(a, b)
            assert g == a * x + b * y
            assert g >= 0
            if a or b:
                assert a % g == 0 and b % g == 0


def test_span_trivial_and_full():
    assert Subgroup.span(Z44, []).order == 1
    assert Subgroup.span(Z44, [(1, 0), (0, 1)]).order == 16


def test_span_cyclic_order_four():
    h = Subgroup.span(Z44, [(2, 1)])
    assert h.order == 4
    assert set(h.elements()) == {(0, 0), (2, 1), (0, 2), (2, 3)}


def test_span_rejects_out_of_range():
    with pytest.raises(ValueError):
        Subgroup.span(Z44, [(4, 0)])
    with pytest.raises(ValueError):
        Subgroup.span(Z44, [(-1, 0)])


def test_span_matches_brute_closure():
    rng = random.Random(7)
    for group in SMALL_GROUPS:
        for _ in range(30):
            gens = [
                tuple(rng.randrange(m) for m in group.moduli)
                for _ in range(rng.randint(0, 3))
            ]
            sub = Subgroup.span(group, gens)
            assert set(sub.elements()) == brute_span(group, gens)


def test_canonicalization_soundness():
    # generator sets with equal enumerated spans canonicalize identically
    rng = random.Random(11)
    for group in SMALL_GROUPS:
        for _ in range(40):
            gens = [
                tuple(rng.randrange(m) for m in group.moduli)
                for _ in range(rng.randint(1, 3))
            ]
            sub = Subgroup.span(group, gens)
            elems = list(sub.elements())
            regen = [rng.choice(elems) for _ in range(4)]
            again = Subgroup.span(group, regen)
            if set(again.elements()) == set(elems):
                assert again == sub


def test_join_intersect_identities():
    h = Subgroup.span(Z44, [(2, 1)])
    triv = Subgroup.trivial(Z44)
    full = Subgroup.full(Z44)
    assert join(h, triv) == h
    assert intersect(h, full) == h


def test_join_intersect_derived_example():
    h1 = Subgroup.span(Z44, [(0, 1)])
    h2 = Subgroup.span(Z44, [(2, 1)])
    assert join(h1, h2).order == 8
    assert set(join(h1, h2).elements()) == {
        (x, y) for x in (0, 2) for y in range(4)
    }
    assert intersect(h1, h2) == Subgroup.span(Z44, [(0, 2)])


def test_lattice_laws_random_pairs():
    rng = random.Random(5)
    for group in SMALL_GROUPS:
        subs = all_subgroups(group)
        for _ in range(100):
            h1, h2 = rng.choice(subs), rng.choice(subs)
            meet, top = intersect(h1, h2), join(h1, h2)
            assert meet.issubset(h1) and h1.issubset(top)
            assert set(meet.elements()) == set(h1.elements()) & set(h2.elements())


def test_modular_law():
    rng = random.Random(13)
    for group in SMALL_GROUPS:
        subs = all_subgroups(group)
        for _ in range(60):
            h1, h2, h3 = (rng.choice(subs) for _ in range(3))
            if h1.issubset(h3):
                assert join(h1, intersect(h2, h3)) == intersect(join(h1, h2), h3)


def test_quotient_invariants_trivial_cases():
    assert quotient_invariants(Z44, Subgroup.full(Z44)) == []
    assert quotient_invariants(Z44, Subgroup.trivial(Z44)) == [2, 2]


def test_quotient_invariants_cyclic_quotient():
    # A/<(2,1)> has order 4 and the coset of (1, 0) has order 4
    h = Subgroup.span(Z44, [(2, 1)])
    assert quotient_invariants(Z44, h) == [2]


def brute_quotient_census(group, sub):
    """(|A/H|, max element order in A/H) by direct coset arithmetic."""
    elems = list(sub.elements())
    eset = set(elems)
    reps = {min(tuple(add(group, g, h)) for h in elems) for g in group.elements()}
    orders = []
    for rep in reps:
        n, cur = 1, rep
        while cur not in eset:
            cur = add(group, cur, rep)
            n += 1
        orders.append(n)
    return len(reps), max(orders)


def test_quotient_invariants_against_census():
    for group in SMALL_GROUPS:
        for sub in all_subgroups(group):
            inv = quotient_invariants(group, sub)
            size, max_order = brute_quotient_census(group, sub)
            assert size == group.p ** sum(inv)
            assert max_order == (group.p ** inv[0] if inv else 1)
            assert inv == sorted(inv, reverse=True)


def test_duality_law_exhaustive():
    for group in SMALL_GROUPS:
        assert group.order <= ALL_SUBGROUPS_CAP
        for sub in all_subgroups(group):
            assert sub.order * group.p ** sum(quotient_invariants(group, sub)) \
                == group.order


def test_image_is_cyclic():
    full = Subgroup.full(Z44)
    triv = Subgroup.trivial(Z44)
    h = Subgroup.span(Z44, [(2, 2)])
    assert image_is_cyclic(triv, h)
    for g in Z44.elements():
        assert image_is_cyclic(Subgroup.span(Z44, [g]), h)
    assert not image_is_cyclic(full, h)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_divisor_valuations_read_off_a_higher_degree(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    top = data.draw(st.integers(0, 12), label="D")
    d = data.draw(st.integers(0, top), label="d")
    width = data.draw(st.integers(1, 4), label="columns")
    entry = st.builds(
        lambda k, u: p ** k * u, st.integers(0, 12), st.integers(-(p ** 2), p ** 2)
    )
    mat = data.draw(
        st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6), label="M"
    )
    assert divisor_valuations(mat, p, d) == [
        v for v in divisor_valuations(mat, p, top) if v < d
    ]


def test_divisor_valuations_match_smith_form():
    # over Z/p^d the matrix M has the elementary divisors p^v, v < d, of the
    # integer matrix [M; p^d I]; zero rows and columns included
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        p, d = rng.choice((2, 3, 5, 7)), rng.randint(1, 6)
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 5)
        zero_rows = {r for r in range(nrows) if rng.random() < 0.15}
        zero_cols = {c for c in range(ncols) if rng.random() < 0.15}
        mat = [
            [
                0 if r in zero_rows or c in zero_cols
                else rng.randrange(-p ** (d + 1), p ** (d + 1)) * p ** rng.choice((0, 0, 1, 2))
                for c in range(ncols)
            ]
            for r in range(nrows)
        ]
        got = divisor_valuations(mat, p, d)
        stacked = mat + [[p ** d if c == j else 0 for c in range(ncols)] for j in range(ncols)]
        diags = smith_invariants(stacked)
        assert len(diags) == ncols
        want = sorted(e for e in (valuation(p, x) for x in diags) if e < d)
        assert got == want, (p, d, mat)
        seen.add(len(got) if len(got) < 3 else "3+")
        seen.add("zeros" if zero_rows or zero_cols else "dense")
        seen.add("mixed" if len(set(got)) > 1 else "flat")
    assert seen >= {0, 1, 2, "3+", "zeros", "dense", "mixed", "flat"}
    assert divisor_valuations([], 3, 2) == []
    assert divisor_valuations([[9, 0], [0, 3]], 3, 2) == [1]
    assert divisor_valuations([[4, 6]], 2, 3) == [1]


def test_cyclic_subgroups_counts():
    assert len(cyclic_subgroups(PGroup(2, (1,)))) == 2
    assert len(cyclic_subgroups(PGroup(2, (1, 1)))) == 4
    # (Z/4)^2: 1 trivial + 3 of order 2 + 6 of order 4
    assert len(cyclic_subgroups(Z44)) == 10


def test_cyclic_subgroups_census():
    for group in SMALL_GROUPS:
        seen = set()
        for g in group.elements():
            seen.add(frozenset(brute_span(group, [g])))
        subs = cyclic_subgroups(group)
        assert len(subs) == len(seen)
        assert {frozenset(s.elements()) for s in subs} == seen


def test_cyclic_subgroups_budget():
    with pytest.raises(BudgetExceeded):
        cyclic_subgroups(PGroup(2, (5, 5)), cap=512)


def test_annihilator_examples():
    full = Subgroup.full(Z44)
    triv = Subgroup.trivial(Z44)
    assert annihilator(Z44, triv) == full
    assert annihilator(Z44, full) == triv
    s = Subgroup.span(Z44, [(2, 0)])
    ann = annihilator(Z44, s)
    assert ann.order == 8
    assert set(ann.elements()) == {
        (x, y) for x in range(4) for y in range(4) if (2 * x) % 4 == 0
    }


def test_annihilator_brute():
    rng = random.Random(3)
    for group in [Z44, PGroup(3, (1, 1)), PGroup(2, (1, 1, 1))]:
        q = group.moduli[0]
        for _ in range(20):
            gens = [
                tuple(rng.randrange(m) for m in group.moduli)
                for _ in range(rng.randint(0, 2))
            ]
            s = Subgroup.span(group, gens)
            ann = annihilator(group, s)
            brute = {
                a
                for a in group.elements()
                if all(
                    sum(x * y for x, y in zip(a, s_el)) % q == 0
                    for s_el in s.elements()
                )
            }
            assert set(ann.elements()) == brute


def test_annihilator_rejects_non_homocyclic():
    with pytest.raises(ValueError):
        annihilator(PGroup(2, (2, 1)), Subgroup.trivial(PGroup(2, (2, 1))))


def test_subgroup_membership_refuses_a_vector_of_another_length():
    trivial = Subgroup.trivial(PGroup(2, (1,)))
    assert trivial.contains((0,)) and trivial.contains((2,))
    assert not trivial.contains((1,))
    for vec in ((0, 5), (), (0, 0, 0)):
        with pytest.raises(ValueError, match="rank 1"):
            trivial.contains(vec)
    with pytest.raises(ValueError):
        trivial.issubset(Subgroup.full(PGroup(2, (1, 1))))


def test_pgroup_validation():
    with pytest.raises(ValueError):
        PGroup(4, (1,))
    with pytest.raises(ValueError):
        PGroup(2, (1, 2))
    with pytest.raises(ValueError):
        PGroup(2, (0,))
    # no cap on the order itself; the enumerations carry their own
    assert PGroup(2, (80, 80)).order == 2 ** 160
    with pytest.raises(BudgetExceeded):
        cyclic_subgroups(PGroup(2, (21,)))


def test_character_validation_and_kernel():
    chi = Character(Z44, 2, (1, 2))
    assert chi.is_surjective()
    assert set(reference_kernel_at_level(chi, 2).elements()) == {
        a for a in Z44.elements() if (a[0] + 2 * a[1]) % 4 == 0
    }
    assert reference_kernel_at_level(chi, 1).order == 8
    assert reference_kernel_at_level(chi, 0) == Subgroup.full(Z44)
    assert not Character(Z44, 2, (2, 2)).is_surjective()
    with pytest.raises(ValueError):
        Character(PGroup(2, (2, 1)), 2, (1, 1))  # 2*1 != 0 mod 4 on the Z/2 factor
    with pytest.raises(ValueError):
        chi.image_level(None, (Character(PGroup(2, (2,)), 2, (1,)),))  # other ambient


def test_smith_invariants_divisibility_chain():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        diags = smith_invariants(mat)
        for a, b in zip(diags, diags[1:]):
            assert b % a == 0
        hnf = hermite_normal_form(mat, k)
        if len(hnf) == k:
            assert prod(diags) == prod(hnf[i][i] for i in range(k))


def test_smith_invariants_cases():
    # alternating row and column passes cycle on this one unless an entry
    # the pivot divides is cleared by plain subtraction
    assert smith_invariants([[0, -2], [1, 1], [1, 1], [-1, -2], [1, -2]]) == [1, 1]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[0, 0], [0, 4]]) == [4]
    assert smith_invariants([]) == []


def test_left_kernel_random():
    rng = random.Random(29)
    for _ in range(400):
        k, r = rng.randint(1, 5), rng.randint(0, 7)
        rows = [[rng.randint(-5, 5) * rng.choice([0, 1, 2]) for _ in range(k)] for _ in range(r)]
        rank = len(hermite_normal_form(rows, k))
        kernel = left_kernel(rows, k)
        assert len(kernel) == r - rank
        for w in kernel:
            assert all(sum(c * row[j] for c, row in zip(w, rows)) == 0 for j in range(k))
        # a basis: the returned vectors are independent
        assert len(hermite_normal_form(kernel, r)) == len(kernel)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4
    )
)
def test_span_idempotent(gens):
    sub = Subgroup.span(Z44, gens)
    assert Subgroup.span(Z44, [Z44.reduce(row) for row in sub.basis]) == sub


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
)
def test_join_commutes_and_absorbs(g1, g2):
    h1 = Subgroup.span(Z44, g1)
    h2 = Subgroup.span(Z44, g2)
    assert join(h1, h2) == join(h2, h1)
    assert intersect(h1, h2) == intersect(h2, h1)
    assert join(h1, intersect(h1, h2)) == h1
    assert intersect(h1, join(h1, h2)) == h1


def test_is_prime_matches_trial_division():
    wrong = [n for n in range(2 * 10 ** 5) if _is_prime(n) != trial_division_is_prime(n)]
    assert wrong == []


def is_strong_probable_prime(n, b):
    """Whether the odd n > 2 passes the Miller-Rabin round to base b."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(b, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_psi_table_pins_the_strong_pseudoprimes():
    assert len(PSI) == len(MR_BASES) and PSI[-1] == MR_BOUND
    assert list(PSI) == sorted(PSI)
    for k, psi in enumerate(PSI):
        # a witness to any base proves psi composite
        assert not all(is_strong_probable_prime(psi, b) for b in range(2, 200)), k
        assert all(is_strong_probable_prime(psi, b) for b in MR_BASES[:k + 1]), k
        if k + 1 < len(PSI) and psi < PSI[k + 1]:
            # a step up in the table: the next base tells psi apart
            assert not all(is_strong_probable_prime(psi, b) for b in MR_BASES[:k + 2]), k
    # base 2 alone is exact below PSI[0]
    assert [n for n in range(3, PSI[0], 2)
            if not trial_division_is_prime(n) and is_strong_probable_prime(n, 2)] == []


def test_prefix_miller_rabin_matches_all_thirteen_bases():
    rng = random.Random(31)
    cases = [n for psi in PSI for n in (psi - 2, psi + 2) if n < MR_BOUND]
    for _ in range(2000):
        bits = rng.randrange(11, 80)
        cases.append(min(rng.randrange(2 ** bits, 2 ** (bits + 1)), 10 ** 24 - 1) | 1)
    assert len(cases) == 2025
    # every case is odd and above 41, so a base dividing it is a witness
    all_bases = {n: all(is_strong_probable_prime(n, b) for b in MR_BASES) for n in cases}
    assert [n for n in cases if _is_prime(n) != all_bases[n]] == []
    assert sum(all_bases.values()) > 100  # primes are among them


def test_is_prime_rejects_strong_pseudoprimes():
    # every distinct least strong pseudoprime to a prefix of the bases
    # (OEIS A014233) below MR_BOUND; 318665857834031151167461 passes every
    # prime base up to 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(1000000007)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 19 - 1))


def test_is_prime_refuses_above_exact_range():
    # the bound is itself a strong pseudoprime to all thirteen bases
    with pytest.raises(BudgetExceeded):
        _is_prime(MR_BOUND)
    with pytest.raises(BudgetExceeded):
        _is_prime(2 ** 89 - 1)
    # a small factor still decides it exactly
    assert not _is_prime(3 * MR_BOUND)
    assert not _is_prime(2 ** 100)


def _value_cases():
    from multinorm_sha.fields import FieldConfig
    from multinorm_sha.kummer import KummerSpec
    from multinorm_sha.oracle import ShaReport
    from multinorm_sha.places import LocalData, Place
    from multinorm_sha.structure import ClassNode, GeneratorCert, PatchingData, StructureResult

    group = PGroup(2, (3, 1))
    chi, psi = Character(group, 3, (1, 0)), Character(group, 1, (0, 1))
    place = Place("v", Subgroup.span(group, [(2, 1)]))
    node = ClassNode((1, 2), 1, 2, 1, ())
    patch, cert = PatchingData(0, 2, 1), GeneratorCert(0, "block", (1, 2), (1, 1), (2, 2), 4, 2)
    return [
        (PGroup, (2, (3, 1))),
        (Subgroup, (group, ((1, 0), (0, 1)))),
        (Character, (group, 3, (1, 4))),
        (FieldConfig, (group, (chi, psi, chi), ("a", "b", "c"))),
        (KummerSpec, ((17, 13, 221), ("x", "y", "z"))),
        (Place, ("v", place.group)),
        (LocalData, ((place,),)),
        (ShaReport, ((1,), (2, 1), (1, 1), "oracle")),
        (ClassNode, ((1, 2), 1, 2, 1, (node,))),
        (PatchingData, (0, 2, 1)),
        (GeneratorCert, (1, "class", (2,), (3,), (4,), 4, 2)),
        (StructureResult, ([patch], {0: node}, [cert], (1,), (2, 1), (1, 1), True)),
    ]


VALUE_CASES = _value_cases()


@pytest.mark.parametrize("cls, args", VALUE_CASES, ids=[cls.__name__ for cls, _ in VALUE_CASES])
def test_value_types_are_immutable_values(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if cls.__name__ == "StructureResult":
        with pytest.raises(TypeError):  # it holds lists and a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != args and a != tuple(getattr(a, n) for n in a._fields)
    assert repr(a).startswith(f"{cls.__name__}(")
    # equality and hashing see every constructor argument: a type with its
    # own constructor names the fields as its parameters, and Value's one
    # constructor takes exactly one value per field
    if "__init__" in cls.__dict__:
        assert a._fields == tuple(inspect.signature(cls).parameters)
    else:
        for wrong in (args[:-1], args + (None,)):
            with pytest.raises(TypeError, match=re.escape(f"({', '.join(a._fields)})")):
                cls(*wrong)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")  # slotted
    assert a == b
