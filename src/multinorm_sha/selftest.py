"""Randomized cross-validation of the two computation routes.

Generates random configurations (p in {2, 3}, |A| <= 729, 3..5 fields,
up to 3 exceptional places), asserts that the closed-form assembly equals
the definitional oracle, and checks the structural invariants: the subgroup
chain, patching-degree monotonicity between blocks, the degree-of-freedom
chain, the block product decomposition, generator membership, and the
two-valued-approximation properties.  No group is listed: the block
decomposition compares subgroup orders, and the a' test vectors are read
off the Hermite basis of G_omega.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod

from .abelian import Character, PGroup, Subgroup, intersect
from .fields import FieldConfig, NormalizedConfig, ShaInputError, validate_and_normalize
from .places import Classification, LocalData, Place
from .oracle import aprime, classify, compute_G_and_Gomega, oracle_report, subtorus_groups
from .structure import StructureResult, assemble, check_monotone_scans

# decides which configurations a seed yields, so changing it changes every
# run; the bounds in the docstring above are outer limits, not a coverage promise
AMBIENT_CAP = 4096


class SelftestFailure(AssertionError):
    def __init__(self, message: str, cfg: NormalizedConfig, local: LocalData):
        super().__init__(message)
        self.cfg = cfg
        self.local = local


@dataclass
class SelftestSummary:
    count: int
    seed: int
    agreements: int = 0
    invariant_checks: int = 0
    deep_checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.agreements == self.count


def _generic_characters(rng, group: PGroup, nfields: int):
    chars = []
    for _ in range(nfields):
        eps = rng.randint(1, group.exponents[0])
        coeffs = []
        for n in group.exponents:
            c = rng.randrange(group.p ** eps)
            vmin = max(0, eps - n)
            if vmin:
                c -= c % group.p ** vmin
            coeffs.append(c)
        chi = Character(group, eps, tuple(coeffs))
        if not chi.is_surjective():
            return None
        chars.append(chi)
    return chars


def _block_characters(rng, group: PGroup, nfields: int):
    """Characters (a, c) on a rank-two group: v_p(c) steers e_{0,i}, so these
    configurations tend to split into several blocks U_r."""
    p, (n, s) = group.p, group.exponents
    chars = [Character(group, n, (1, 0))]
    for _ in range(nfields - 1):
        for _ in range(20):
            eps = rng.choice([n, n, max(1, n - 1)])
            a = rng.randrange(p ** eps)
            c = rng.randrange(p ** eps)
            vmin = max(0, eps - s)
            if vmin:
                c -= c % p ** vmin
            chi = Character(group, eps, (a, c))
            if chi.is_surjective():
                chars.append(chi)
                break
        else:
            return None
    return chars


def random_config(rng: random.Random) -> tuple[NormalizedConfig, LocalData]:
    """One random normalized configuration with exceptional places."""
    while True:
        block_style = rng.random() < 0.35
        if block_style:
            p = rng.choice([2, 2, 3])
            n = rng.choice([2, 3, 3]) if p == 2 else 2
            group = PGroup(p, (n, rng.randint(1, n)))
            chars = _block_characters(rng, group, rng.choice([3, 4, 4]))
        else:
            p = rng.choice([2, 2, 3])
            rank = rng.choice([1, 2, 2, 3])
            exps = sorted((rng.randint(1, 3) for _ in range(rank)), reverse=True)
            while p ** sum(exps) > 729:
                exps = sorted((rng.randint(1, 2) for _ in range(rank)), reverse=True)
            group = PGroup(p, tuple(exps))
            chars = _generic_characters(rng, group, rng.choice([3, 3, 3, 4, 4, 5]))
        if chars is None:
            continue
        try:
            cfg = validate_and_normalize(FieldConfig(group, tuple(chars), ()))
        except ShaInputError:
            continue
        if prod(p ** e for e in cfg.eis) > AMBIENT_CAP:
            continue
        if block_style and len(cfg.R) < 2 and rng.random() < 0.8:
            continue  # chase genuinely multi-block instances
        places = []
        for t in range(rng.randint(0, 3)):
            gens = [
                tuple(rng.randrange(m) for m in group.moduli)
                for _ in range(rng.randint(1, 2))
            ]
            places.append(Place(f"v{t}", Subgroup.span(group, gens)))
        return cfg, LocalData(tuple(places))


def _require(condition: bool, message: str, cfg, local):
    if not condition:
        raise SelftestFailure(message, cfg, local)


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
    and s + c(1,...,1) lies in p^k A_r iff s does and p^min(k, e) divides c."""
    amb = group.ambient
    rows = [amb.reduce(amb.p ** k * x for x in row) for row in Subgroup.full(amb).basis]
    count = intersect(group, Subgroup.span(amb, rows)).order
    return count // amb.p ** max(0, amb.exponents[0] - k) if r == 0 else count


def check_invariants(
    cfg: NormalizedConfig,
    local: LocalData,
    result: StructureResult,
    rng: random.Random,
    deep: bool = False,
) -> None:
    """The structural invariant suite, independent of the equality check."""
    pat = {pd.r: pd for pd in result.patching}
    blocks = list(cfg.R)
    for r, rp in zip(blocks, blocks[1:]):
        _require(pat[r].delta_omega <= pat[rp].delta_omega, "delta_omega not monotone", cfg, local)
        _require(pat[r].delta_omega - r >= pat[rp].delta_omega - rp, "delta_omega - r increases", cfg, local)
        _require(pat[r].delta <= pat[rp].delta, "delta not monotone", cfg, local)
        _require(pat[r].delta - r >= pat[rp].delta - rp, "delta - r increases", cfg, local)
        if r == 0:
            _require(pat[0].delta_omega == pat[rp].delta_omega, "delta_omega(0) != next block", cfg, local)
            _require(pat[0].delta == pat[rp].delta, "delta(0) != next block", cfg, local)

    for r, tree in result.trees.items():
        def walk(node, bound):
            _require(
                r <= node.f <= node.f_omega <= bound <= pat[r].delta_omega,
                f"degree-of-freedom chain broken at r={r}, c={node.members}",
                cfg,
                local,
            )
            for child in node.children:
                walk(child, node.f_omega)

        walk(tree, pat[r].delta_omega)

    # product decomposition across blocks, with the patchable-subgroup bounds
    g_sub, gw_sub = compute_G_and_Gomega(cfg, local)
    p, eps0 = cfg.p, cfg.eps[0]
    prod_g, prod_gw = 1, 1
    for r in cfg.R:
        g_r, gw_r = subtorus_groups(cfg, local, r)
        prod_gw *= _patchable(gw_r, r, eps0 - pat[r].delta_omega)
        prod_g *= _patchable(g_r, r, eps0 - pat[r].delta)
    _require(gw_sub.order == p ** eps0 * prod_gw, "G_omega != D (+) sum of patchable blocks", cfg, local)
    _require(g_sub.order == p ** eps0 * prod_g, "G != D (+) sum of patchable blocks", cfg, local)

    for cert in result.generators:
        indices = cfg.U(cert.r)
        _require(
            classify(cfg, local, cert.x_omega, indices=indices)
            is not Classification.OUTSIDE,
            f"generator x_omega over U_{cert.r} not in G_omega",
            cfg,
            local,
        )
        _require(
            classify(cfg, local, cert.x, indices=indices)
            is Classification.IN_G,
            f"generator x over U_{cert.r} not in G",
            cfg,
            local,
        )

    for a in _sample_outside_diagonal(rng, gw_sub, 4):
        ap = aprime(cfg, local, a)  # asserts a' not diagonal, failure set shrinks
        _require(
            classify(cfg, local, ap) is not Classification.OUTSIDE,
            "a' left G_omega",
            cfg,
            local,
        )
        if classify(cfg, local, a) is Classification.IN_G:
            _require(
                classify(cfg, local, ap) is Classification.IN_G,
                "a' left G",
                cfg,
                local,
            )

    if deep:
        check_monotone_scans(cfg, local)


def run_selftest(seed: int, count: int, deep_every: int = 10) -> SelftestSummary:
    rng = random.Random(seed)
    summary = SelftestSummary(count=count, seed=seed)
    for trial in range(count):
        cfg, local = random_config(rng)
        rep = oracle_report(cfg, local)
        result = assemble(cfg, local)
        if (
            rep.sha_invariants == result.sha_invariants
            and rep.sha_omega_invariants == result.sha_omega_invariants
        ):
            summary.agreements += 1
        else:
            summary.failures.append(
                f"trial {trial}: oracle {rep.sha_invariants}/{rep.sha_omega_invariants} "
                f"!= formula {result.sha_invariants}/{result.sha_omega_invariants}"
                + "\n" + describe_config(cfg, local)
            )
            continue
        try:
            check_invariants(cfg, local, result, rng, deep=(trial % deep_every == 0))
            summary.invariant_checks += 1
            if trial % deep_every == 0:
                summary.deep_checks += 1
        except SelftestFailure as exc:
            summary.failures.append(
                f"trial {trial}: {exc}\n" + describe_config(cfg, local)
            )
    return summary


def describe_config(cfg: NormalizedConfig, local: LocalData) -> str:
    lines = [f"p = {cfg.p}, A = {cfg.group.exponents}"]
    for chi, lab in zip(cfg.chars, cfg.labels):
        lines.append(f"  character {lab}: exponent {chi.exponent}, coeffs {chi.coeffs}")
    for pl in local.exceptional:
        lines.append(f"  place {pl.label}: basis {pl.group.basis}")
    return "\n".join(lines)
