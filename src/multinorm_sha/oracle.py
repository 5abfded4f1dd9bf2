"""Definitional computation of the obstruction groups.

Returns G and G_omega as explicit subgroups of the ambient sum
(+) Z/p^{e_i}, together with the invariant factors of sha = G/D and
sha_omega = G_omega/D, D the diagonal.  This is the trusted route: the
definition rewritten, sharing no logic with the closed-form route, which
must match it.

Pass groups.  A place has a threshold vector t, t_i the least degree d with
the place in Sigma_i^d (places.sigma_threshold).  A vector a passes the
place iff some n in Z/p^{e_1} (e_1 the largest exponent) satisfies
n = a_i mod p^{r_i} for every i, where r_i = min(t_i, e_i).  Each condition
is a ball in the ultrametric space Z/p^{e_1}.  Two balls are nested or
disjoint, so the balls share a point iff every pair of them meets, and the
vectors passing the place form the congruence subgroup

    P_t = {a : a_i = a_j mod p^min(r_i, r_j) for all i < j}.

G_omega is the intersection of P_t over the generic places, and G the
further intersection over the exceptional ones.  With M_ij the largest
min(r_i, r_j) over the generic threshold vectors,

    G_omega = {a : a_i = a_j mod p^{M_ij} for all i < j},

and G is the same with the exceptional vectors folded into M.  Both contain
D, and G/D is isomorphic to the slice G cap {a_1 = 0}.  Nothing is swept.

Levels.  The chi_0 level of a subgroup of A is log_p of the order of its
image under chi_0.  A generic pair level and an exceptional threshold are
chi_0 levels of S cap H_i [cap H_j], H_i = ker chi_i, with S = A for a pair
and S = D for a threshold.  No kernel is built: the rows
(chi_i(g) [, chi_j(g)], chi_0(g)), g over generators of S (for S = A the
coefficient columns), and p^{eps} on each target's diagonal span the image
of S, and the last pivot p^b of their echelon form generates chi_0 of the
common kernel, so the level is eps_0 - b (abelian.Character.image_level).

A place with decomposition group D lies in Sigma_i^d iff D cap H_i lies in
the subgroup of K_0(eps_0 - d), so its threshold t_i is the chi_0 level of
D cap H_i (places.sigma_threshold).  Exceptional places use it as it is,
as their groups need not be cyclic.

Every cyclic subgroup <g> of A is the decomposition group of infinitely
many unramified places, and max_g min(t_i, t_j) is the chi_0 level
eps_0 - b of H_ij, p^b generating chi_0(H_ij).  With s_i = v_p(chi_i(g))
capped at eps_i, <g> cap H_i = <p^{eps_i - s_i} g>, so
t_i = eps_0 - min(eps_0, eps_i - s_i + s_0).  At least: g in H_ij with
v_p(chi_0(g)) = b has s_i = eps_i and s_j = eps_j, so t_i = t_j = eps_0 - b.
At most: if min(t_i, t_j) = L >= 1 and s_0 = a, then
eps_i >= s_i >= a + eps_i - eps_0 + L forces a <= eps_0 - L, and
p^{eps_0 - L - a} g lies in H_ij with chi_0-valuation exactly eps_0 - L.
So M_ij = min(e_i, e_j, eps_0 - b) over the generic places, from one
small echelon form per pair; no element of A is visited.

Spanning trees.  Congruence is transitive, and by the cycle property a pair
off a maximum spanning tree of the levels M_xy has a level no higher than
any edge on its tree path, so the k - 1 tree edges cut out the whole pair
system.  Root the tree at index 0 and let q_v be p^M of v's parent edge
(1 at the root and across a level-0 cut).  a = sum_v c_v q_v 1_{subtree(v)}
with c_root = a_root and c_v = (a_v - a_parent(v)) / q_v, so these vectors
span the group, and without the root's, the diagonal, the slice a_1 = 0
(_tree_group).  Nothing is solved, and no command lists an element: the
listing enumerate_members is the tests' reference.

One engine per index set (_PassLevels) writes G and G_omega down and
checks D <= G <= G_omega when it is built; every caller reads its groups.
Where no exceptional place raises a pair level the two lists are equal:
one group is spanned for both, and oracle_report runs one Smith form.
The config's one memo (NormalizedConfig.memo) keeps the engines and levels.
Membership is read off them: classify, and the generic half of the
post-condition of the two-valued approximation a' (no place fails for a'
that did not fail for a).  Only the exceptional half tests the congruences
of each place's P_t on its own.  The literal sweep of places.fail_set over
every place and every n is the tests' reference, not called here.
"""

from __future__ import annotations

from .abelian import BudgetExceeded, InternalCheckError, PGroup, Subgroup, Value
from .fields import NormalizedConfig
from .places import (
    Classification,
    LocalData,
    delta,
    i_n,
    sigma_threshold,
)

DEFAULT_BUDGET = 2 ** 24


class ShaReport(Value):
    """Invariant factors (p-exponents, non-increasing) of sha, sha_omega and
    sha_omega/sha, as found by one route."""

    __slots__ = _fields = (
        "sha_invariants", "sha_omega_invariants", "quotient_invariants", "method"
    )

    def __init__(self, sha_invariants: tuple[int, ...], sha_omega_invariants: tuple[int, ...],
                 quotient_invariants: tuple[int, ...], method: str):
        Value.__init__(self, sha_invariants, sha_omega_invariants, quotient_invariants, method)
        for seq in (sha_invariants, sha_omega_invariants):
            if any(a < b for a, b in zip(seq, seq[1:])):
                raise InternalCheckError("invariant factors must be non-increasing")
        small, big = sha_invariants, sha_omega_invariants
        # subgroup invariants divide group invariants factor by factor
        if len(small) > len(big) or any(s > b for s, b in zip(small, big)):
            raise InternalCheckError("sha must embed in sha_omega factor by factor")

    @property
    def invariants(self) -> tuple[tuple[int, ...], ...]:
        """(sha, sha_omega, sha_omega/sha): two routes agree iff these match."""
        return self.sha_invariants, self.sha_omega_invariants, self.quotient_invariants


def _pair_levels(cfg: NormalizedConfig) -> dict[tuple[int, int], int]:
    """{(i, j): the chi_0 level of H_ij} for i != j in 1..m, the largest
    min(t_i, t_j) over the generic places: one echelon form of the image of
    A per pair, which _PassLevels keeps in the config's memo for every index set."""
    chars, levels = cfg.chars, {}
    for i in range(1, cfg.m + 1):
        for j in range(i + 1, cfg.m + 1):
            level = chars[0].image_level(None, (chars[i], chars[j]))
            levels[i, j] = levels[j, i] = level
    return levels


def _tree_group(ambient: PGroup, congruences, first_zero=False) -> Subgroup:
    """{a : a_x = a_y mod q for each (x, y, q)}, or with ``first_zero`` its
    slice a_1 = 0: the rows q_v 1_{subtree(v)} of a maximum spanning tree of
    the moduli grown from index 0 (Prim), less the root's for the slice."""
    k = ambient.rank
    modulus = {}
    for x, y, q in congruences:
        modulus[x, y] = modulus[y, x] = q
    # column w of the rows holds q_u at each u on the tree path from 0 to w
    cols = {0: [1] + [0] * (k - 1)}
    best = {v: (modulus.get((0, v), 1), 0) for v in range(1, k)}
    while best:
        v = max(best, key=lambda u: best[u][0])
        q, parent = best.pop(v)
        cols[v] = cols[parent][:]
        cols[v][v] = q
        best = {u: max(b, (modulus.get((u, v), 1), v)) for u, b in best.items()}
    rows = list(zip(*(cols[w] for w in range(k))))
    return Subgroup._span_rows(ambient, rows[first_zero:])


def _meets(a, congruences) -> bool:
    return all((a[x] - a[y]) % q == 0 for x, y, q in congruences)


class _PassLevels:
    """G and G_omega over one (config, places, index set), checked
    D <= G <= G_omega when built, with their congruences and the pass
    group P_t of each exceptional place.  When the congruence lists of G
    and G_omega are equal, one group is spanned and ``groups`` holds it
    twice, the same object."""

    def __init__(self, cfg: NormalizedConfig, localdata: LocalData, indices):
        self.exps = tuple(cfg.e_i(i) for i in indices)
        if any(a < b for a, b in zip(self.exps, self.exps[1:])):
            raise InternalCheckError("index set must have non-increasing e_i")
        self.ambient = PGroup(cfg.p, self.exps)
        k = len(indices)
        pairs = [(x, y) for x in range(k) for y in range(x + 1, k)]
        generic = cfg.memo(("pair_levels",), lambda: _pair_levels(cfg))
        omega = [
            min(self.exps[x], self.exps[y], generic[indices[x], indices[y]])
            for x, y in pairs
        ]
        # per exceptional place: min(r_x, r_y), r_x = min(t_x, e_x)
        exceptional = []
        for pl in localdata.exceptional:
            r = [
                min(sigma_threshold(cfg, pl.group, i), e)
                for i, e in zip(indices, self.exps)
            ]
            exceptional.append([min(r[x], r[y]) for x, y in pairs])

        def congruences(levels):
            return tuple((x, y, cfg.p ** lv) for (x, y), lv in zip(pairs, levels) if lv)

        self.omega = congruences(omega)
        self.g = congruences([max(col) for col in zip(omega, *exceptional)])
        # the pass group P_t of each exceptional place on its own
        self.places = tuple(congruences(lv) for lv in exceptional)
        g_sub = _tree_group(self.ambient, self.g)
        # no exceptional place raises a level: one group is both
        gw_sub = g_sub if self.g == self.omega else _tree_group(self.ambient, self.omega)
        # the chain is verified, not assumed
        if not g_sub.contains((1,) * k):
            raise InternalCheckError("expected D <= G")
        if not g_sub.issubset(gw_sub):
            raise InternalCheckError("expected G <= G_omega")
        self.groups = (g_sub, gw_sub)


def _engine(cfg: NormalizedConfig, localdata: LocalData, indices=None) -> _PassLevels:
    if indices is None:
        indices = range(1, cfg.m + 1)
    indices = tuple(indices)
    return cfg.memo(("engine", localdata, indices), lambda: _PassLevels(cfg, localdata, indices))


def classify(cfg: NormalizedConfig, localdata: LocalData, a, indices=None) -> Classification:
    """Membership of the vector a in G, in G_omega only, or in neither.

    Generic failures (some cyclic subgroup of A fails every n) are infinite
    sets of places, so they exclude a from G_omega; exceptional failures are
    finite and only exclude a from G.  ``indices`` restricts the
    classification to a sub-configuration (default: all fields).
    """
    g_sub, gw_sub = _engine(cfg, localdata, indices).groups
    if not gw_sub.contains(a):
        return Classification.OUTSIDE
    if not g_sub.contains(a):
        return Classification.IN_G_OMEGA_ONLY
    return Classification.IN_G


def enumerate_members(cfg, localdata, indices=None, budget=DEFAULT_BUDGET):
    """The sorted vectors of G and of G_omega whose first coordinate is 0.

    That is one member per coset of the diagonal, over the given index set
    (default: all), once the budget admits the whole ambient sum.  No
    command lists a group: this stays as the tests' listing reference, and
    because the benchmark's span recording wraps it by name."""
    eng = _engine(cfg, localdata, indices)
    ambient = eng.ambient
    if ambient.order > budget:
        raise BudgetExceeded(
            f"listing over {cfg.p}^{sum(eng.exps)} vectors exceeds budget {budget}"
        )
    slices = (_tree_group(ambient, cong, first_zero=True) for cong in (eng.g, eng.omega))
    return tuple(tuple(sorted(s.elements())) for s in slices)


def compute_G_and_Gomega(cfg, localdata) -> tuple[Subgroup, Subgroup]:
    """G and G_omega as canonical subgroups of (+) Z/p^{e_i}."""
    return _engine(cfg, localdata).groups


def subtorus_groups(cfg, localdata, r: int):
    """G and G_omega of the block (K_0, K_{U_r}), as subgroups of (+)_{U_r}."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    return _engine(cfg, localdata, cfg.U(r)).groups


def _diagonal(ambient: PGroup) -> Subgroup:
    """D, written in Hermite form: the row (1, ..., 1), whose entries are
    already reduced below every later pivot p^{e_j}, then p^{e_j} at j >= 2."""
    return Subgroup(ambient, ((1,) * ambient.rank,) + ambient._p_diag[1:])


def quotient_by_D(group: Subgroup) -> list[int]:
    """Invariant factors (p-exponents) of group/D, D the diagonal subgroup."""
    diag = _diagonal(group.ambient)
    if not diag.issubset(group):
        raise InternalCheckError("diagonal subgroup not contained in the group")
    return group.invariants_mod(diag)


def in_diagonal(cfg: NormalizedConfig, a) -> bool:
    return len(i_n(cfg, a, a[0])) == cfg.m


def _no_new_failures(cfg: NormalizedConfig, localdata: LocalData, a, b) -> bool:
    """Whether every place failing for b already fails for a, a in G_omega.

    a passes every generic place, so b must lie in G_omega; and b must lie
    in the pass group P_t of every exceptional place whose P_t holds a.
    """
    eng = _engine(cfg, localdata)
    return eng.groups[1].contains(b) and all(
        _meets(b, place) for place in eng.places if _meets(a, place)
    )


def aprime(cfg: NormalizedConfig, localdata: LocalData, a) -> tuple[int, ...]:
    """The two-valued approximation a' of a with no larger failure set.

    Requires a in G_omega \\ D.  Checks the defining properties, raising
    InternalCheckError: a' is not diagonal, and every place failing for a'
    already failed for a (_no_new_failures, through the pass groups).
    """
    p, exps, a1 = cfg.p, cfg.eis, a[0]
    moduli = [p ** e for e in exps]
    deltas = {
        i: delta(p, a1, exps[0], a[i - 1], exps[i - 1])
        for i in range(1, cfg.m + 1)
        if (a1 - a[i - 1]) % moduli[i - 1]
    }
    if not deltas:
        raise ValueError("a lies in the diagonal subgroup")
    if not _engine(cfg, localdata).groups[1].contains(a):
        raise ValueError("a is not in G_omega")
    dmin = min(deltas.values())
    stratum = {i for i, d in deltas.items() if d == dmin}
    aj = a[min(stratum) - 1]
    res = tuple((aj if i in stratum else a1) % q for i, q in enumerate(moduli, 1))
    if in_diagonal(cfg, res):
        raise InternalCheckError("a' landed in the diagonal subgroup")
    if not _no_new_failures(cfg, localdata, a, res):
        raise InternalCheckError("failure set of a' is not contained in that of a")
    return res


def oracle_report(cfg, localdata) -> ShaReport:
    g_sub, gw_sub = _engine(cfg, localdata).groups
    diag = _diagonal(g_sub.ambient)  # D <= G <= G_omega, checked by the engine
    sha = tuple(g_sub.invariants_mod(diag))
    if gw_sub is g_sub:  # the engine built one group for both
        return ShaReport(sha, sha, (), "oracle")
    return ShaReport(
        sha_invariants=sha,
        sha_omega_invariants=tuple(gw_sub.invariants_mod(diag)),
        quotient_invariants=tuple(gw_sub.invariants_mod(g_sub)),
        method="oracle",
    )
