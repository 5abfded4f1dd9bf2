"""Closed-form computation of the obstruction groups.

Levels and nested equivalence classes of each block U_r, its patching
degrees (one :func:`patching_degrees` call), degrees of freedom, and the
generator certificates: one constant vector per block and one indicator per
child but the last of a class.  The invariant factors are their orders.
Every scan is one _scan: it walks downward from its upper bound
and stops at the first admissible value, which is the stated maximum when
admissibility is downward closed; in the debug mode (assemble(...,
debug=True)) the same scan walks on from its hit down to its floor and
checks that every value there is admissible too (check_monotone_scans).
A class scan starts at most at the last f where K(c, f + L(c) - r) exists,
so neither it nor its walk below the hit asks about a field that does not.

Every field the scans test is a composite K(C, d) of subfields K_i(d),
i in C, and every test reads the elementary divisors of coefficient rows
over Z/p^d: bicyclicity and containment through the duality in
:mod:`fields`, local cyclicity through the image of each decomposition
group (:func:`places.locally_cyclic`).  No subgroup of A is built.  A scan
asks about fixed integer matrices at varying degrees, so each matrix is
reduced once, at the highest degree asked, and every lower degree is read
off that reduction (:meth:`NormalizedConfig.divisors`); a scan and its
debug walk run downward so that the first degree asked is the highest.
A containment test reduces two blocks of rows together; a block with more
rows than rank(A) enters through the pivot rows of its own reduction, so
the rows shared by the tests of one scan (U_gt, or U_r) are reduced once
per config.

The intersection criterion, cap_{i in U_0} K_0 K_i = K_0, reads in the dual
of A as cap_i <chi_0, chi_i> = <chi_0>.  Modulo <chi_0> each chi_i, i in
U_0, generates a cyclic subgroup, nonzero because K_0 cap K_i = k, and
cyclic p-groups meet in 0 exactly when their subgroups of order p are not
all equal.  That of chi_i is generated by psi_i = p^(eps_i - 1) chi_i, the
F_p character with row c_i mod p.  An element psi_i - u psi_j of order p
lies in <chi_0> iff it lies in <psi_0>, so the subgroups are all equal iff
every psi_i lies in the plane of psi_0 and psi_1: the criterion holds iff
the rows c_0 and c_i, i in U_0, taken mod p, have F_p rank at least 3.
"""

from __future__ import annotations

from .abelian import Value, valuation
from .fields import NormalizedConfig
from .places import LocalData, locally_cyclic
from .oracle import ShaReport


class ClassNode(Value):
    """One l-equivalence class of a block U_r, with its degrees of freedom."""

    __slots__ = _fields = ("members", "level", "f_omega", "f", "children")

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class PatchingData(Value):
    __slots__ = _fields = ("r", "delta_omega", "delta")


class GeneratorCert(Value):
    """A generator vector over U_r: entries `entry` on `support`, 0 elsewhere.
    ``kind`` is "block" (the U_r constant vector) or "class"."""

    __slots__ = _fields = ("r", "kind", "support", "x_omega", "x", "order_omega", "order")


class StructureResult(Value):
    __slots__ = _fields = (
        "patching", "trees", "generators", "sha_invariants",
        "sha_omega_invariants", "quotient_annotation", "criterion_trivial",
    )

    def report(self) -> ShaReport:
        return ShaReport(
            sha_invariants=self.sha_invariants,
            sha_omega_invariants=self.sha_omega_invariants,
            # equal to sha_omega/sha: the generator pairs are aligned
            quotient_invariants=self.quotient_annotation,
            method="formula",
        )


# ---------------------------------------------------------------------------
# l-equivalence and levels.

def l_classes(cfg: NormalizedConfig, members, l: int) -> list[tuple[int, ...]]:
    """Partition of `members` under i ~ j iff e_{i,j} >= l.  This is an
    equivalence relation because subfields of a cyclic extension form a
    chain, so each member joins the first class whose first member it meets."""
    classes: list[list[int]] = []
    for i in sorted(members):
        for cls in classes:
            if cfg.eij[cls[0]][i] >= l:
                cls.append(i)
                break
        else:
            classes.append([i])
    return [tuple(cls) for cls in classes]


def level(cfg: NormalizedConfig, members) -> int:
    """Level of a class: last l before it splits; eps_i for a singleton.
    e_ij >= min(e_ia, e_aj) (the chain argument of l_classes), so the least
    e over all pairs is the least over the pairs of any one member a."""
    members = tuple(members)
    if not members:
        raise ValueError("empty index set")
    if len(members) == 1:
        return cfg.eps[members[0]]
    a, *rest = members
    return min(cfg.eij[a][j] for j in rest)


# ---------------------------------------------------------------------------
# Patching degrees.

def _scan(top: int, floor: int, admissible, check: str | None = None) -> int:
    """The first admissible value from top down to floor + 1, else floor.
    Given a message ``check``, the debug mode walks on from that hit down to
    floor (check_monotone_scans)."""
    for hit in range(top, floor, -1):
        if admissible(hit):
            break
    else:
        hit = floor
    if check is not None:
        check_monotone_scans(check, floor, hit, admissible)
    return hit


def check_monotone_scans(message: str, floor: int, hit: int, admissible) -> None:
    """Debug mode: every value below the hit of a scan, down to its floor,
    must be admissible too; AssertionError naming the least that is not.
    The hit itself was tested unless it is the floor.  The walk goes on
    downward, as the scan did, so each matrix is read off the reduction the
    scan made at its highest degree."""
    bad = [v for v in range(max(hit - 1, floor), floor - 1, -1) if not admissible(v)]
    if bad:
        raise AssertionError(f"{message}{bad[-1]}")


def patching_degrees(
    cfg: NormalizedConfig, localdata: LocalData, r: int, debug: bool = False
) -> PatchingData:
    """Patching degrees of U_r: delta_omega scans down from eps_0, and delta,
    its local-cyclicity refinement, scans down from that hit (both eps_0
    when U_r is the only block, as every degree is then admissible)."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    u_r, u_gt, u_lt = cfg.U(r), cfg.U_gt(r), cfg.U_lt(r)
    where = f" scan not monotone at r={r}, d=" if debug else None
    d_om = _scan(cfg.eps[0], r, lambda d: _delta_omega_admissible(cfg, d, u_r, u_gt, u_lt),
                 where and "delta_omega" + where)
    d_ord = _scan(d_om, r, lambda d: _delta_admissible(cfg, localdata, d, u_r, u_gt, u_lt),
                  where and "delta" + where)
    return PatchingData(r, d_om, d_ord)


def _delta_omega_admissible(cfg, d, u_r, u_gt, u_lt) -> bool:
    """K(U_gt, d) <= K_0(d) K_i(d) for each i in U_r, and K(U_r, d) <= K_0(d)
    K_i(d) for each i in U_lt: containment in the intersection of the K_0(d)
    K_i(d), not in their composite K((0,) + U_r, d), so one test per i (one
    merged test gives delta_omega(0) = 4, not 1, on the 448 fields of (Z/16)^3)."""
    if u_gt and not all(cfg.contains((0, i), d, u_gt, d) for i in u_r):
        return False
    return not u_lt or all(cfg.contains((0, i), d, u_r, d) for i in u_lt)


def _delta_admissible(cfg, localdata, d, u_r, u_gt, u_lt) -> bool:
    if u_gt and not locally_cyclic(cfg, localdata, (0,) + u_gt, d):
        return False
    return not u_lt or locally_cyclic(cfg, localdata, (0,) + u_r, d)


# ---------------------------------------------------------------------------
# Degrees of freedom and the class tree.

def _f_omega_admissible(cfg, members, lvl, f, r) -> bool:
    """K(c, deg), deg = f + L(c) - r <= min eps_i (build_class_tree), is
    sub-bicyclic and contains K_0(f).  L(c) >= r, so deg >= f, and both tests
    read the class rows, the second with the row p^(deg - f) c_0 = p^(L(c) -
    r) c_0 added: fixed matrices over the scan."""
    deg = f + lvl - r
    return cfg.is_sub_bicyclic(members, deg) and cfg.contains(members, deg, (0,), f)


def _f_admissible(cfg, localdata, members, lvl, f, r) -> bool:
    return locally_cyclic(cfg, localdata, members, f + lvl - r)


def _split(cfg, members, lvl) -> list[tuple[int, ...]]:
    """A class splits at its own level into the l-classes one level past
    it; a singleton is a leaf."""
    return l_classes(cfg, members, lvl + 1) if len(members) > 1 else []


def build_class_tree(
    cfg: NormalizedConfig, localdata: LocalData, r: int, bound_omega: int, debug: bool = False
) -> ClassNode:
    """Nested l-equivalence classes of U_r with degrees of freedom attached.

    Each node's f_omega scan starts at its parent's f_omega (delta_omega at
    the root) or, if lower, at r - L(c) + min eps_i over c, the last f at
    which K(c, f + L(c) - r) exists: r for a singleton (L(c) = eps_i), which
    scans nothing.  Its f scan starts at its own f_omega; its children are
    the parts of its _split.
    """

    def make(members, bound) -> ClassNode:
        lvl = level(cfg, members)
        top = r if len(members) == 1 else min(bound, r - lvl + min(cfg.eps[i] for i in members))
        where = f" scan not monotone at r={r}, c={members}, f=" if debug else None
        f_om = _scan(top, r, lambda f: _f_omega_admissible(cfg, members, lvl, f, r),
                     where and "f_omega" + where)
        f_ord = _scan(f_om, r, lambda f: _f_admissible(cfg, localdata, members, lvl, f, r),
                      where and "f" + where)
        children = tuple(make(part, f_om) for part in _split(cfg, members, lvl))
        return ClassNode(members, lvl, f_om, f_ord, children)

    return make(cfg.U(r), bound_omega)


# ---------------------------------------------------------------------------
# Generators and assembly.

def _certificate(cfg, r, kind, support, pos, deg_omega, deg) -> GeneratorCert:
    """The generator over U_r that is p^(eps_0 - d) mod p^(eps_0 - r) on
    `support` and 0 elsewhere, of order p^(d - r): x_omega in G_omega with
    d = deg_omega, and x in G with d = deg.  ``pos`` maps each member of U_r
    to its coordinate."""
    p, eps0 = cfg.p, cfg.eps[0]
    entry_omega, entry = (p ** (eps0 - d) % p ** (eps0 - r) for d in (deg_omega, deg))
    x_omega, x = [0] * len(pos), [0] * len(pos)
    for i in support:
        x_omega[pos[i]], x[pos[i]] = entry_omega, entry
    return GeneratorCert(
        r, kind, support, tuple(x_omega), tuple(x), p ** (deg_omega - r), p ** (deg - r)
    )


def criterion_trivial(cfg: NormalizedConfig) -> bool:
    """Intersection criterion: cap of K_0 K_i over i in U_0 equals K_0, iff
    the rows c_0 and c_i, i in U_0, have F_p rank at least 3 (see the module
    docstring).  When it holds both obstruction groups vanish.  That rank is
    at most min(rank(A), |U_0| + 1), so below 3 of either no matrix is built."""
    u0 = cfg.U(0)
    return (cfg.group.rank >= 3 and len(u0) >= 2
            and len(cfg.divisors((((0,) + u0, 0),), 1)) >= 3)


def assemble(cfg: NormalizedConfig, localdata: LocalData, debug: bool = False) -> StructureResult:
    """Both groups as direct sums of their generator certificates, each
    invariant factor the order of one certificate.  U_0's constant vectors
    stand for the diagonal D, which both quotients divide out.  ``debug``
    checks every scan below its hit (check_monotone_scans)."""
    patching, trees, certs = [], {}, []
    for r in cfg.R:
        pd = patching_degrees(cfg, localdata, r, debug)
        patching.append(pd)
        pos = {i: t for t, i in enumerate(cfg.U(r))}
        certs.append(_certificate(cfg, r, "block", cfg.U(r), pos, pd.delta_omega, pd.delta))
        trees[r] = build_class_tree(cfg, localdata, r, pd.delta_omega, debug)
        for node in trees[r].walk():
            for chosen in sorted(node.children, key=lambda c: c.members)[:-1]:
                certs.append(
                    _certificate(cfg, r, "class", chosen.members, pos, node.f_omega, node.f)
                )

    orders = [(c.order, c.order_omega) for c in certs if c.r or c.kind == "class"]
    return StructureResult(
        patching, trees, certs,
        _invariants(valuation(cfg.p, o) for o, _ in orders),  # sha
        _invariants(valuation(cfg.p, w) for _, w in orders),  # sha_omega
        _invariants(valuation(cfg.p, w // o) for o, w in orders),  # sha_omega/sha
        criterion_trivial(cfg),
    )


def _invariants(exps) -> tuple[int, ...]:
    return tuple(sorted((e for e in exps if e > 0), reverse=True))


# ---------------------------------------------------------------------------
# Shortcut formulas for special shapes.

class ShapeMismatch(ValueError):
    """The configuration does not have the special shape of a shortcut."""


def shortcut_linearly_disjoint(
    cfg: NormalizedConfig, localdata: LocalData
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sha, sha_omega) for pairwise linearly disjoint K_0..K_m.

    f is the largest degree at which the composite of all subfields embeds
    in a bicyclic extension; its local-cyclicity refinement f' gives sha.
    Both groups are (Z/p^f)^{m-1}-shaped.
    """
    n = cfg.m + 1
    if any(cfg.eij[i][j] != 0 for i in range(n) for j in range(n) if i < j):
        raise ShapeMismatch("fields are not pairwise linearly disjoint")
    everyone = tuple(range(n))
    f_max = _scan(cfg.eps[0], 0, lambda f: cfg.is_sub_bicyclic(everyone, f))
    f_ord = _scan(f_max, 0, lambda f: locally_cyclic(cfg, localdata, everyone, f))
    sha_omega = _invariants([f_max] * (cfg.m - 1))
    sha = _invariants([f_ord] * (cfg.m - 1))
    return sha, sha_omega


def shortcut_bicyclic_subfields(cfg: NormalizedConfig) -> tuple[int, ...]:
    """sha_omega when all fields are degree-p^n subfields of one bicyclic field."""
    n = cfg.eps[0]
    if any(e != n for e in cfg.eps):
        raise ShapeMismatch("fields do not all have the same degree")
    if not cfg.is_sub_bicyclic(range(cfg.m + 1), n):
        raise ShapeMismatch("compositum does not embed in a bicyclic extension")
    exps = []

    def walk(members):
        lvl = level(cfg, members)
        parts = _split(cfg, members, lvl)
        exps.extend([n - lvl] * (len(parts) - 1))
        for part in parts:
            walk(part)

    for r in cfg.R:
        if r != 0:
            exps.append(n - r)
        walk(cfg.U(r))
    return _invariants(exps)
