"""Randomized cross-validation of the two computation routes.

Generates random configurations (p in {2, 3}, |A| <= 729, 3..5 fields,
up to 3 exceptional places), asserts that the closed-form assembly equals
the definitional oracle, and checks the structural invariants: the subgroup
chain, patching-degree monotonicity between blocks, the degree-of-freedom
chain, the block product decomposition, generator membership, and the
two-valued-approximation properties.  No group is listed: the block
decomposition compares subgroup orders, and the a' test vectors are read
off the Hermite basis of G_omega.  Draws are kept or refused on their rows
(:func:`fields.normalize_rows`); only a kept draw is built into a config.
"""

from __future__ import annotations

import random
from math import gcd, prod

from .abelian import Character, PGroup, Subgroup, span_order
from .fields import FieldConfig, NormalizedConfig, ShaInputError, normalize_rows
from .places import LocalData, Place
from .oracle import (
    InternalCheckError,
    aprime,
    compute_G_and_Gomega,
    oracle_report,
    subtorus_groups,
)
from .structure import StructureResult, assemble

# decides which configurations a seed yields, so changing it changes every
# run; the bounds in the docstring above are outer limits, not a coverage promise
AMBIENT_CAP = 4096


class SelftestFailure(AssertionError):
    """A structural invariant or the agreement of the routes failed."""


class SelftestSummary:
    """The tallies of a run, filled in by :func:`run_selftest` as it goes."""

    def __init__(self, count: int, seed: int):
        self.count = count
        self.seed = seed
        self.agreements = 0
        self.invariant_checks = 0
        self.deep_checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures and self.agreements == self.count


def _generic_characters(rng, p: int, exps, nfields: int):
    """nfields draws (eps, coeffs) of characters on (+) Z/p^{n_l}, n_l in
    ``exps``, or None at the first draw that is not surjective."""
    draws = []
    for _ in range(nfields):
        eps = rng.randint(1, exps[0])
        coeffs = []
        for n in exps:
            c = rng.randrange(p ** eps)
            vmin = max(0, eps - n)
            if vmin:
                c -= c % p ** vmin
            coeffs.append(c)
        if gcd(*coeffs, p) != 1:  # not surjective
            return None
        draws.append((eps, tuple(coeffs)))
    return draws


def _block_characters(rng, p: int, exps, nfields: int):
    """Draws (eps, (a, c)) of characters on a rank-two group: v_p(c) steers
    e_{0,i}, so these configurations tend to split into several blocks U_r."""
    n, s = exps
    draws = [(n, (1, 0))]
    for _ in range(nfields - 1):
        for _ in range(20):
            eps = rng.choice([n, n, max(1, n - 1)])
            a = rng.randrange(p ** eps)
            c = rng.randrange(p ** eps)
            vmin = max(0, eps - s)
            if vmin:
                c -= c % p ** vmin
            if gcd(a, c, p) == 1:  # surjective
                draws.append((eps, (a, c)))
                break
        else:
            return None
    return draws


def random_config(rng: random.Random) -> tuple[NormalizedConfig, LocalData]:
    """One random normalized configuration with exceptional places."""
    while True:
        block_style = rng.random() < 0.35
        if block_style:
            p = rng.choice([2, 2, 3])
            n = rng.choice([2, 3, 3]) if p == 2 else 2
            exps = (n, rng.randint(1, n))
            draws = _block_characters(rng, p, exps, rng.choice([3, 4, 4]))
        else:
            p = rng.choice([2, 2, 3])
            rank = rng.choice([1, 2, 2, 3])
            exps = sorted((rng.randint(1, 3) for _ in range(rank)), reverse=True)
            while p ** sum(exps) > 729:
                exps = sorted((rng.randint(1, 2) for _ in range(rank)), reverse=True)
            draws = _generic_characters(rng, p, exps, rng.choice([3, 3, 3, 4, 4, 5]))
        if draws is None:
            continue
        try:
            order, eij = normalize_rows(p, exps, draws)
        except ShaInputError:
            continue
        e0 = eij[0][1:]  # the e_{0,i}: e_i = eps_0 - e_{0,i}, and U_r for each r in e0
        if p ** sum(eij[0][0] - r for r in e0) > AMBIENT_CAP:
            continue
        if block_style and len(set(e0)) < 2 and rng.random() < 0.8:
            continue  # chase genuinely multi-block instances
        group = PGroup(p, tuple(exps))
        chars = tuple(Character(group, eps, coeffs) for eps, coeffs in draws)
        cfg = NormalizedConfig(FieldConfig(group, chars, ()), order, eij)
        places = []
        for t in range(rng.randint(0, 3)):
            gens = [
                tuple(rng.randrange(m) for m in group.moduli)
                for _ in range(rng.randint(1, 2))
            ]
            places.append(Place(f"v{t}", Subgroup.span(group, gens)))
        return cfg, LocalData(tuple(places))


def _require(condition: bool, message: str):
    if not condition:
        raise SelftestFailure(message)


def _sample_outside_diagonal(rng: random.Random, gw_sub: Subgroup, k: int):
    """k distinct random vectors of G_omega outside the diagonal D.

    D <= G_omega forces the first Hermite pivot of G_omega to 1, so the
    rows h_j after the first, with digits 0 <= u_j < m_j / h_j[j], give each
    member of the slice G_omega cap {a_1 = 0} once, and G_omega is that
    slice (+) D.  Draws from rng as rng.sample would from the
    p^{e_1} (|slice| - 1) vectors c(1,...,1) + s, s a nonzero slice member:
    a draw names its shift c and the digits of s.
    """
    amb = gw_sub.ambient
    nonzero = gw_sub.order // amb.moduli[0] - 1
    n = amb.moduli[0] * nonzero
    out = []
    for j in rng.sample(range(n), min(k, n)):
        c, t = j // nonzero, j % nonzero + 1
        vec = [c] * amb.rank
        for l, h in enumerate(gw_sub.basis[1:], 1):
            t, digit = divmod(t, amb.moduli[l] // h[l])
            vec = [x + digit * y for x, y in zip(vec, h)]
        out.append(amb.reduce(vec))
    return out


def _patchable(group: Subgroup, r: int, k: int) -> int:
    """The vectors x = 0 mod p^k of a block group G_r or G_omega_r over U_r,
    U_0 counting only those with x[0] == 0: |group cap p^k A_r|, over
    p^max(0, e - k) for U_0 (e its first exponent), as group = slice (+) D_r
    and s + c(1,...,1) lies in p^k A_r iff s does and p^min(k, e) divides c.
    No intersection is built: |H cap K| = |H| |K| / |H + K|, and |H + p^k A_r|
    is read off the pivots of one echelon form of the basis of H and the
    rows p^k e_l (abelian.span_order)."""
    amb = group.ambient
    q = amb.p ** k
    rows = [[q if j == l else 0 for j in range(amb.rank)] for l in range(amb.rank)]
    multiples = prod(m // gcd(m, q) for m in amb.moduli)  # |p^k A_r|
    count = group.order * multiples // span_order(amb, list(group.basis) + rows)
    return count // amb.p ** max(0, amb.exponents[0] - k) if r == 0 else count


def check_invariants(
    cfg: NormalizedConfig,
    local: LocalData,
    result: StructureResult,
    rng: random.Random,
) -> None:
    """The structural invariant suite, independent of the equality check."""
    pat = {pd.r: pd for pd in result.patching}
    blocks = list(cfg.R)
    for r, rp in zip(blocks, blocks[1:]):
        _require(pat[r].delta_omega <= pat[rp].delta_omega, "delta_omega not monotone")
        _require(pat[r].delta_omega - r >= pat[rp].delta_omega - rp, "delta_omega - r increases")
        _require(pat[r].delta <= pat[rp].delta, "delta not monotone")
        _require(pat[r].delta - r >= pat[rp].delta - rp, "delta - r increases")
        if r == 0:
            _require(pat[0].delta_omega == pat[rp].delta_omega, "delta_omega(0) != next block")
            _require(pat[0].delta == pat[rp].delta, "delta(0) != next block")

    for r, tree in result.trees.items():
        def walk(node, bound):
            _require(
                r <= node.f <= node.f_omega <= bound <= pat[r].delta_omega,
                f"degree-of-freedom chain broken at r={r}, c={node.members}",
            )
            for child in node.children:
                walk(child, node.f_omega)

        walk(tree, pat[r].delta_omega)

    # product decomposition across blocks, with the patchable-subgroup bounds
    g_sub, gw_sub = compute_G_and_Gomega(cfg, local)
    blocks = {r: subtorus_groups(cfg, local, r) for r in cfg.R}
    p, eps0 = cfg.p, cfg.eps[0]
    prod_g, prod_gw = 1, 1
    for r, (g_r, gw_r) in blocks.items():
        count = _patchable(gw_r, r, eps0 - pat[r].delta_omega)
        prod_gw *= count
        if g_r is not gw_r or pat[r].delta != pat[r].delta_omega:
            count = _patchable(g_r, r, eps0 - pat[r].delta)
        prod_g *= count
    _require(gw_sub.order == p ** eps0 * prod_gw, "G_omega != D (+) sum of patchable blocks")
    _require(g_sub.order == p ** eps0 * prod_g, "G != D (+) sum of patchable blocks")

    for cert in result.generators:
        g_r, gw_r = blocks[cert.r]
        _require(
            gw_r.contains(cert.x_omega),
            f"generator x_omega over U_{cert.r} not in G_omega",
        )
        _require(g_r.contains(cert.x), f"generator x over U_{cert.r} not in G")

    for a in _sample_outside_diagonal(rng, gw_sub, 4):
        ap = aprime(cfg, local, a)  # asserts a' not diagonal, failure set shrinks
        _require(gw_sub.contains(ap), "a' left G_omega")
        if g_sub.contains(a):
            _require(g_sub.contains(ap), "a' left G")


def run_selftest(seed: int, count: int, deep_every: int = 10) -> SelftestSummary:
    """A failed agreement or invariant is recorded and the run goes on; an
    internal check that stops a trial is re-raised with the trial's number
    and configuration appended to its message."""
    rng = random.Random(seed)
    summary = SelftestSummary(count=count, seed=seed)
    for trial in range(count):
        cfg, local = random_config(rng)
        deep = trial % deep_every == 0
        try:
            rep = oracle_report(cfg, local)
            result = assemble(cfg, local, deep)
            formula = result.report()
            _require(
                rep.invariants == formula.invariants,
                f"oracle {rep.invariants} != formula {formula.invariants}",
            )
            summary.agreements += 1
            check_invariants(cfg, local, result, rng)
            summary.invariant_checks += 1
            summary.deep_checks += deep
        except SelftestFailure as exc:
            summary.failures.append(f"trial {trial}: {exc}\n" + describe_config(cfg, local))
        except (InternalCheckError, AssertionError) as exc:
            raise type(exc)(f"{exc}\ntrial {trial}\n" + describe_config(cfg, local)) from exc
    return summary


def describe_config(cfg: NormalizedConfig, local: LocalData) -> str:
    lines = [f"p = {cfg.p}, A = {cfg.group.exponents}"]
    for chi, lab in zip(cfg.chars, cfg.labels):
        lines.append(f"  character {lab}: exponent {chi.exponent}, coeffs {chi.coeffs}")
    for pl in local.exceptional:
        lines.append(f"  place {pl.label}: basis {pl.group.basis}")
    return "\n".join(lines)
