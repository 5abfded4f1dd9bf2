"""Inputs and operations of the four workloads, all made from one seed.

Each workload is a function ``(seed, workdir) -> list[Op]``: it writes the
documents its commands read into ``workdir`` and returns the round's
operations in order.  An operation is one CLI command line plus the checks
its output must pass.  The input generators are pure functions of the seed
(``*_inputs``), so ``digest.py`` can fingerprint them without running
anything.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import verify


@dataclass
class Op:
    """One CLI command line; ``check(stdout)`` returns the problems found."""

    argv: list[str]
    check: object
    # exit code and output of the latest round, for the final-check phase
    rc: int | str | None = None
    stdout: str = field(default="", repr=False)
    stderr: str = field(default="", repr=False)


# ---------------------------------------------------------------------------
# Shared document helpers.

def abstract_doc(p, exponents, chars, places=(), **options):
    """An abstract config document; chars are (target_exponent, coeffs)."""
    doc = {
        "mode": "abstract",
        "p": p,
        "exponents": list(exponents),
        "characters": [
            {"label": f"K{t}", "target_exponent": eps, "coeffs": list(coeffs)}
            for t, (eps, coeffs) in enumerate(chars)
        ],
        "exceptional_places": [
            {"label": f"v{t}", "generators": [list(g) for g in gens]}
            for t, gens in enumerate(places)
        ],
    }
    doc.update(options)
    return doc


def _unit(rng, p, e):
    while True:
        u = rng.randrange(1, p ** e)
        if u % p:
            return u


def _inverse_mod(mat, p, q):
    """Inverse of a square matrix over Z/q (q a power of p), or None."""
    k = len(mat)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [x * inv % q for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % q for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def disguise(rng, p, n, chars, places):
    """An isomorphic copy of a config on the homocyclic group (Z/p^n)^k.

    Applies a random automorphism M of A: characters c -> u * c * M^-1
    (u a unit, which keeps the field) and place generators g -> M g.  The
    obstruction groups are unchanged, and so is the work: the characters
    keep their order, because normalization picks K_0 by position among
    fields of equal degree, and that choice sets the sweep size.
    """
    q = p ** n
    k = len(chars[0][1])
    while True:
        mat = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        inv = _inverse_mod(mat, p, q)
        if inv is not None:
            break
    new_chars = []
    for eps, coeffs in chars:
        u = _unit(rng, p, eps)
        row = [sum(coeffs[i] * inv[i][j] for i in range(k)) for j in range(k)]
        new_chars.append((eps, [u * x % p ** eps for x in row]))
    new_places = [
        [[sum(mat[i][j] * g[j] for j in range(k)) % q for i in range(k)] for g in gens]
        for gens in places
    ]
    return new_chars, new_places


# ---------------------------------------------------------------------------
# oracle-ladder: `compute --method both` on a fixed ladder of configs.

_E2 = [(1, 0), (0, 1), (1, 1), (1, 3)]
_E3 = [(1, 0), (0, 1), (1, 1), (1, 2)]
# Every rung sweeps at most 4,096 vectors, so that a run repeats each one
# often enough to find a repeat the host did not slow down (see README.md).
LADDER = [
    # (name, p, n, character coefficient rows (all of degree p^n), places)
    ("p2-16x16", 2, 4, _E2, []),
    ("p3-9x9", 3, 2, _E3, []),
    ("p2-16x16x16", 2, 4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], []),
    ("p2-16x16-1place", 2, 4, _E2, [[(2, 0), (0, 2)]]),
    ("p2-8x8-2places", 2, 3, _E2, [[(4, 0), (0, 4)], [(1, 0), (0, 4)]]),
    ("p2-8x8-5fields-1place", 2, 3, _E2 + [(1, 2)], [[(2, 0), (0, 2)]]),
    ("p3-9x9-1place", 3, 2, _E3, [[(3, 0), (0, 3)]]),
    ("p5-25x25-1place", 5, 2, [(1, 0), (0, 1), (1, 1)], [[(5, 0), (0, 5)]]),
]


def ladder_inputs(seed):
    """(name, document) per rung: each rung disguised by a seeded automorphism."""
    out = []
    for name, p, n, rows, places in LADDER:
        rng = random.Random(f"oracle-ladder/{seed}/{name}")
        chars, gens = disguise(rng, p, n, [(n, r) for r in rows], places)
        out.append((name, abstract_doc(p, (n,) * len(rows[0]), chars, gens)))
    return out


def oracle_ladder(seed, workdir):
    ops = []
    for name, doc in ladder_inputs(seed):
        path = _write(workdir, f"ladder-{name}.json", doc)
        ops.append(Op(["compute", path, "--method", "both", "--json", "-"],
                      verify.check_compute_both))
    return ops


# ---------------------------------------------------------------------------
# selftest: the shipped randomized suite, 10 commands of 25 configs.
# 250 configs keep a round near 3 s, so a run repeats each command about
# six times and its median time is not left to three noisy repeats.

SELFTEST_COMMANDS = 10
SELFTEST_COUNT = 25


def selftest_inputs(seed):
    """The --seed of each selftest command: 0..9, whatever the benchmark seed.

    The cost of a few hundred random configs moves by about 20% from one set of
    command seeds to the next, more than any bound could absorb, so this
    workload runs one fixed set, as the randomized suite is run by hand.
    """
    return list(range(SELFTEST_COMMANDS))


def selftest(seed, workdir):
    return [
        Op(["selftest", "--seed", str(s), "--count", str(SELFTEST_COUNT)],
           verify.selftest_checker(SELFTEST_COUNT))
        for s in selftest_inputs(seed)
    ]


# ---------------------------------------------------------------------------
# kummer: `examples all`, then `kummer --compute` on radicand triples.

# (target size, residue mod 4 of q1, residue mod 4 of q3, shape)
KUMMER_PLAN = [
    (1_000 * round(1.45 ** k), (1, 3)[k % 2], (1, 3)[k // 2 % 2], k % 2)
    for k in range(15)
]


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_near(target, residue, skip):
    """The skip-th prime >= target that is congruent to residue mod 4."""
    n = target
    while True:
        if n % 4 == residue and _is_prime(n):
            if skip == 0:
                return n
            skip -= 1
        n += 1


def kummer_inputs(seed):
    """(radicands, (q1, q3)) per triple: primes in a narrow seeded window."""
    rng = random.Random(f"kummer/{seed}")
    out = []
    for target, r1, r3, shape in KUMMER_PLAN:
        q1 = _prime_near(target, r1, rng.randrange(6))
        q3 = _prime_near(target + target // 3, r3, rng.randrange(6))
        radicands = (q1, q1 * q3, q3) if shape == 0 else (q1, q3, q1 * q3 * q3)
        out.append((radicands, (q1, q3)))
    return out


def kummer(seed, workdir):
    ops = [Op(["examples", "all", "--json", "-"], verify.check_examples)]
    for radicands, primes in kummer_inputs(seed):
        ops.append(Op(
            ["kummer", "--radicands", ",".join(map(str, radicands)),
             "--compute", "--json", "-"],
            verify.kummer_checker(primes),
        ))
    return ops


# ---------------------------------------------------------------------------
# formula-scale: `compute --method formula` on large generated configs.

FORMULA_DOCS = 500
ORDER_LIMIT = 2 ** 20

# Configs the formula answers with polynomial lattice work, but which
# `PGroup` refuses today because |A| exceeds its order cap.  They do not
# depend on the seed, so every round fails them alike.
OVER_CAP = [
    abstract_doc(2, (11, 11), [(11, (1, 0)), (11, (0, 1)), (11, (1, 1))]),
    abstract_doc(3, (7, 7), [(7, (1, 0)), (7, (0, 1)), (7, (1, 2))]),
    abstract_doc(2, (80, 80), [(80, c) for c in [(1, 0), (0, 1), (1, 1), (1, 3), (1, 5)]]),
]


def _formula_shapes():
    """The fixed shape schedule (p, exponents, fields, places) of the docs."""
    rng = random.Random("formula-scale/shapes")
    shapes = []
    for t in range(FORMULA_DOCS):
        p = rng.choice([2, 2, 3, 5, 7])
        if t % 5 == 0:
            # rank two, high exponents: several blocks, nontrivial answers
            n = max(e for e in range(1, 11) if p ** (2 * e) <= ORDER_LIMIT)
            exps = (n, rng.randint(max(1, n - 2), n))
        else:
            rank = rng.randint(2, 5)
            while True:
                exps = tuple(sorted((rng.randint(1, 6) for _ in range(rank)), reverse=True))
                if p ** sum(exps) <= ORDER_LIMIT:
                    break
        shapes.append((p, exps, rng.randint(5, 10), rng.randint(0, 3)))
    return shapes


def formula_doc(rng, p, exps, nfields, nplaces, debug=False):
    """A valid config of the given shape, valid by construction.

    The coordinate characters e_j keep the characters separating and the
    fields' intersection trivial; every further character has two unit
    coefficients, so it is disjoint from each coordinate field and can
    never make normalization prune one.
    """
    rank = len(exps)
    chars = [
        (n, [_unit(rng, p, n) if l == j else 0 for l in range(rank)])
        for j, n in enumerate(exps)
    ]
    for _ in range(max(nfields - rank, 1 if rank == 2 else 0)):
        eps = rng.randint(1, exps[1])
        pair = rng.sample([l for l in range(rank) if exps[l] >= eps], 2)
        coeffs = []
        for l, n in enumerate(exps):
            if l in pair:
                coeffs.append(_unit(rng, p, eps))
            else:
                x = rng.randrange(p ** eps)
                coeffs.append(x - x % p ** max(0, eps - n))
        chars.append((eps, coeffs))
    rng.shuffle(chars)
    places = [
        [[rng.randrange(p ** n) for n in exps] for _ in range(rng.randint(1, 2))]
        for _ in range(nplaces)
    ]
    options = {"debug_monotonicity": True} if debug else {}
    return abstract_doc(p, exps, chars, places, **options)


def formula_inputs(seed):
    """The round's documents: seeded configs, then the over-cap configs.

    Every tenth config asks for the debug monotonicity check, as the
    selftest does for every tenth trial.
    """
    rng = random.Random(f"formula-scale/{seed}")
    docs = [
        formula_doc(rng, *shape, debug=(t % 10 == 0))
        for t, shape in enumerate(_formula_shapes())
    ]
    return docs + OVER_CAP


def permuted(doc, seed, t):
    """The same config with its character list in another order."""
    rng = random.Random(f"formula-scale/permute/{seed}/{t}")
    out = dict(doc)
    chars = list(doc["characters"])
    while len(chars) > 1 and chars == doc["characters"]:
        rng.shuffle(chars)
    out["characters"] = chars
    return out


def formula_scale(seed, workdir):
    ops = []
    for t, doc in enumerate(formula_inputs(seed)):
        path = _write(workdir, f"formula-{t:03d}.json", doc)
        ops.append(Op(["compute", path, "--method", "formula", "--json", "-"],
                      verify.check_compute))
    return ops


def formula_final_check(seed, workdir, ops, run_op):
    """Untimed: each answered config must keep its answer when permuted."""
    problems = []
    for t, (doc, op) in enumerate(zip(formula_inputs(seed), ops)):
        if op.rc != 0:
            continue
        path = _write(workdir, f"formula-{t:03d}-permuted.json", permuted(doc, seed, t))
        rc, out, _ = run_op(["compute", path, "--method", "formula", "--json", "-"])
        problems += verify.check_permuted(op.stdout, rc, out, Path(path).name)
    return problems


# ---------------------------------------------------------------------------

WORKLOADS = {
    "oracle-ladder": (oracle_ladder, None),
    "selftest": (selftest, None),
    "kummer": (kummer, None),
    "formula-scale": (formula_scale, formula_final_check),
}


def _write(workdir, name, doc) -> str:
    path = Path(workdir) / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)
