"""Closed-form computation of the obstruction groups.

Levels and nested equivalence classes of each block U_r, patching degrees,
degrees of freedom, explicit generator vectors, and the assembled invariant
factors.  Every scan walks downward from its upper bound and stops at the
first admissible value, which is the stated maximum; a debug mode checks
monotonicity below the hit explicitly.

Every field the scans test is a composite K_0(d) K_i(d) ... of subfields,
read from the config's cache of joint character kernels.  The intersection
criterion joins the pairs ker chi_0 cap ker chi_i, i in U_0, and stops as
soon as the join is all of ker chi_0: each pair lies in ker chi_0, so the
join never leaves it, and a join of the same order is ker chi_0 itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import Subgroup, join, joint_kernel, quotient_invariants
from .fields import NormalizedConfig
from .places import LocalData, locally_cyclic
from .oracle import ShaReport


@dataclass(frozen=True)
class ClassNode:
    """One l-equivalence class of a block U_r, with its degrees of freedom."""

    members: tuple[int, ...]
    level: int
    f_omega: int
    f: int
    children: tuple["ClassNode", ...]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class PatchingData:
    r: int
    delta_omega: int
    delta: int


@dataclass(frozen=True)
class GeneratorCert:
    """A generator vector over U_r: entries `entry` on `support`, 0 elsewhere."""

    r: int
    kind: str  # "block" (the U_r constant vector) or "class"
    support: tuple[int, ...]
    x_omega: tuple[int, ...]
    x: tuple[int, ...]
    order_omega: int
    order: int


@dataclass
class StructureResult:
    patching: list[PatchingData]
    trees: dict[int, ClassNode]
    generators: list[GeneratorCert]
    sha_invariants: tuple[int, ...]
    sha_omega_invariants: tuple[int, ...]
    quotient_annotation: tuple[int, ...]
    criterion_trivial: bool = field(default=False)

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
    """Partition of `members` under i ~ j iff e_{i,j} >= l (an equivalence
    relation because subfields of a cyclic extension form a chain)."""
    members = sorted(members)
    parent = {i: i for i in members}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in members:
        for b in members:
            if a < b and cfg.eij[a][b] >= l:
                parent[find(a)] = find(b)
    buckets: dict[int, list[int]] = {}
    for i in members:
        buckets.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in buckets.values())


def level(cfg: NormalizedConfig, members) -> int:
    """Level of a class: last l before it splits; eps_i for a singleton."""
    members = tuple(members)
    if not members:
        raise ValueError("empty index set")
    if len(members) == 1:
        return cfg.eps[members[0]]
    return min(
        cfg.eij[a][b] for a in members for b in members if a < b
    )


# ---------------------------------------------------------------------------
# Patching degrees.

def _contained(cfg, inner: Subgroup, outer: Subgroup) -> bool:
    """Field containment: the field of `inner` sits inside that of `outer`."""
    return outer.issubset(inner)


def delta_omega(cfg: NormalizedConfig, r: int) -> int:
    """Algebraic patching degree of U_r (scan downward, first admissible)."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    u_r, u_gt, u_lt = cfg.U(r), cfg.U_gt(r), cfg.U_lt(r)
    if not u_gt and not u_lt:
        return cfg.eps[0]
    for d in range(cfg.eps[0], r, -1):
        if _delta_omega_admissible(cfg, d, u_r, u_gt, u_lt):
            return d
    return r


def _delta_omega_admissible(cfg, d, u_r, u_gt, u_lt) -> bool:
    if u_gt:
        above = cfg.composite(u_gt, d)
        for i in u_r:
            pair = cfg.composite((0, i), d)
            if not _contained(cfg, above, pair):
                return False
    if u_lt:
        block = cfg.composite(u_r, d)
        for i in u_lt:
            pair = cfg.composite((0, i), d)
            if not _contained(cfg, block, pair):
                return False
    return True


def delta_ordinary(cfg: NormalizedConfig, localdata: LocalData, r: int) -> int:
    """Patching degree of U_r: the local-cyclicity refinement of delta_omega."""
    if r not in cfg.R:
        raise ValueError(f"no fields with e_0i = {r}")
    u_r, u_gt, u_lt = cfg.U(r), cfg.U_gt(r), cfg.U_lt(r)
    if not u_gt and not u_lt:
        return cfg.eps[0]
    top = delta_omega(cfg, r)
    for d in range(top, r, -1):
        if _delta_admissible(cfg, localdata, d, u_r, u_gt, u_lt):
            return d
    return r


def _delta_admissible(cfg, localdata, d, u_r, u_gt, u_lt) -> bool:
    if u_gt:
        h = cfg.composite((0,) + u_gt, d)
        if not locally_cyclic(cfg, localdata, h):
            return False
    if u_lt:
        h = cfg.composite((0,) + u_r, d)
        if not locally_cyclic(cfg, localdata, h):
            return False
    return True


# ---------------------------------------------------------------------------
# Degrees of freedom and the class tree.

def _freedom_field(cfg, members, lvl, f, r) -> Subgroup | None:
    """Subgroup of M_c(f + L(c) - r), or None when the degree is inadmissible."""
    deg = f + lvl - r
    if deg > min(cfg.eps[i] for i in members):
        return None
    return cfg.composite(members, deg)


def _f_omega_admissible(cfg, members, lvl, f, r) -> bool:
    h = _freedom_field(cfg, members, lvl, f, r)
    if h is None:
        return False
    if not cfg.is_sub_bicyclic(h):
        return False
    return _contained(cfg, cfg.subfield(0, f), h)


def f_omega(cfg: NormalizedConfig, members, r: int, bound: int) -> int:
    lvl = level(cfg, members)
    for f in range(bound, r, -1):
        if _f_omega_admissible(cfg, members, lvl, f, r):
            return f
    return r


def f_ordinary(cfg, localdata, members, r: int, bound: int) -> int:
    lvl = level(cfg, members)
    for f in range(bound, r, -1):
        h = _freedom_field(cfg, members, lvl, f, r)
        if h is not None and locally_cyclic(cfg, localdata, h):
            return f
    return r


def build_class_tree(
    cfg: NormalizedConfig, localdata: LocalData, r: int, bound_omega: int
) -> ClassNode:
    """Nested l-equivalence classes of U_r with degrees of freedom attached.

    Each node's f-scan is bounded by its parent's f_omega (the block bound
    delta_omega at the root).  A class only ever splits at its own level, so
    children are the classes one level past it; singletons are leaves.
    """

    def make(members, bound) -> ClassNode:
        lvl = level(cfg, members)
        f_om = f_omega(cfg, members, r, bound)
        f_ord = f_ordinary(cfg, localdata, members, r, f_om)
        if len(members) == 1:
            children = ()
        else:
            children = tuple(
                make(part, f_om) for part in l_classes(cfg, members, lvl + 1)
            )
        return ClassNode(tuple(members), lvl, f_om, f_ord, children)

    return make(tuple(cfg.U(r)), bound_omega)


def check_monotone_scans(cfg: NormalizedConfig, localdata: LocalData) -> None:
    """Debug mode: every value below a scan's hit must also be admissible."""
    for r in cfg.R:
        u_r, u_gt, u_lt = cfg.U(r), cfg.U_gt(r), cfg.U_lt(r)
        if not u_gt and not u_lt:
            continue
        d_om = delta_omega(cfg, r)
        for d in range(r, d_om + 1):
            if not _delta_omega_admissible(cfg, d, u_r, u_gt, u_lt):
                raise AssertionError(f"delta_omega scan not monotone at r={r}, d={d}")
        d_ord = delta_ordinary(cfg, localdata, r)
        for d in range(r, d_ord + 1):
            if not _delta_admissible(cfg, localdata, d, u_r, u_gt, u_lt):
                raise AssertionError(f"delta scan not monotone at r={r}, d={d}")
        for node in build_class_tree(cfg, localdata, r, d_om).walk():
            lvl = level(cfg, node.members)
            for f in range(r, node.f_omega + 1):
                if not _f_omega_admissible(cfg, node.members, lvl, f, r):
                    raise AssertionError(
                        f"f_omega scan not monotone at r={r}, c={node.members}, f={f}"
                    )
            for f in range(r, node.f + 1):
                h = _freedom_field(cfg, node.members, lvl, f, r)
                if h is None or not locally_cyclic(cfg, localdata, h):
                    raise AssertionError(
                        f"f scan not monotone at r={r}, c={node.members}, f={f}"
                    )


# ---------------------------------------------------------------------------
# Generators and assembly.

def _class_generators(cfg, r, node: ClassNode):
    """Indicator generators on chosen subclasses: one per child but the last."""
    out = []
    p, eps0 = cfg.p, cfg.eps[0]
    width = len(cfg.U(r))
    pos = {i: t for t, i in enumerate(cfg.U(r))}
    for chosen in sorted(node.children, key=lambda c: c.members)[:-1]:
        xw = [0] * width
        x = [0] * width
        for i in chosen.members:
            xw[pos[i]] = p ** (eps0 - node.f_omega) % p ** (eps0 - r)
            x[pos[i]] = p ** (eps0 - node.f) % p ** (eps0 - r)
        out.append(
            GeneratorCert(
                r=r,
                kind="class",
                support=chosen.members,
                x_omega=tuple(xw),
                x=tuple(x),
                order_omega=p ** (node.f_omega - r),
                order=p ** (node.f - r),
            )
        )
    return out


def criterion_trivial(cfg: NormalizedConfig) -> bool:
    """Intersection criterion: cap of K_0 K_i over i in U_0 equals K_0.

    When it holds both obstruction groups vanish.  Exits at the first join
    of the order of ker chi_0 (see the module docstring).
    """
    chi0 = cfg.chars[0]
    target = cfg.kernel(0).order
    acc = None
    for i in cfg.U(0):
        chi = cfg.chars[i]
        pair = joint_kernel(cfg.group, [(chi0, chi0.exponent), (chi, chi.exponent)])
        acc = pair if acc is None else join(acc, pair)
        if acc.order == target:
            return True
    return False


def assemble(cfg: NormalizedConfig, localdata: LocalData) -> StructureResult:
    """Invariant factors of both groups from patching data and class trees."""
    patching = []
    trees = {}
    certs = []
    omega_exps: list[int] = []
    ordinary_exps: list[int] = []
    quotient_exps: list[int] = []
    p, eps0 = cfg.p, cfg.eps[0]

    for r in cfg.R:
        d_om = delta_omega(cfg, r)
        d_ord = delta_ordinary(cfg, localdata, r)
        patching.append(PatchingData(r, d_om, d_ord))
        width = len(cfg.U(r))
        certs.append(
            GeneratorCert(
                r=r,
                kind="block",
                support=cfg.U(r),
                x_omega=(p ** (eps0 - d_om) % p ** (eps0 - r),) * width,
                x=(p ** (eps0 - d_ord) % p ** (eps0 - r),) * width,
                order_omega=p ** (d_om - r),
                order=p ** (d_ord - r),
            )
        )
        if r != 0:
            if d_om - r:
                omega_exps.append(d_om - r)
            if d_ord - r:
                ordinary_exps.append(d_ord - r)
            if d_om - d_ord:
                quotient_exps.append(d_om - d_ord)

        tree = build_class_tree(cfg, localdata, r, d_om)
        trees[r] = tree
        for node in tree.walk():
            n_next = len(node.children)
            if n_next <= 1:
                continue
            certs.extend(_class_generators(cfg, r, node))
            omega_exps.extend([node.f_omega - r] * (n_next - 1))
            ordinary_exps.extend([node.f - r] * (n_next - 1))
            quotient_exps.extend([node.f_omega - node.f] * (n_next - 1))

    return StructureResult(
        patching=patching,
        trees=trees,
        generators=certs,
        sha_invariants=_invariants(ordinary_exps),
        sha_omega_invariants=_invariants(omega_exps),
        quotient_annotation=_invariants(quotient_exps),
        criterion_trivial=criterion_trivial(cfg),
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
    f_max = 0
    for f in range(cfg.eps[0], 0, -1):
        if cfg.is_sub_bicyclic(cfg.composite(everyone, f)):
            f_max = f
            break
    f_ord = 0
    for f in range(f_max, 0, -1):
        if locally_cyclic(cfg, localdata, cfg.composite(everyone, f)):
            f_ord = f
            break
    sha_omega = _invariants([f_max] * (cfg.m - 1))
    sha = _invariants([f_ord] * (cfg.m - 1))
    return sha, sha_omega


def shortcut_bicyclic_subfields(cfg: NormalizedConfig) -> tuple[int, ...]:
    """sha_omega when all fields are degree-p^n subfields of one bicyclic field."""
    n = cfg.eps[0]
    if any(e != n for e in cfg.eps):
        raise ShapeMismatch("fields do not all have the same degree")
    compositum = cfg.composite(range(cfg.m + 1), n)
    if len(quotient_invariants(cfg.group, compositum)) > 2:
        raise ShapeMismatch("compositum does not embed in a bicyclic extension")
    exps = []
    for r in cfg.R:
        if r != 0:
            exps.append(n - r)
        root = _levels_only_tree(cfg, cfg.U(r))
        for members, lvl, n_next in root:
            if n_next > 1:
                exps.extend([n - lvl] * (n_next - 1))
    return _invariants(exps)


def _levels_only_tree(cfg, members):
    """(members, level, child count) over all nested classes of the block."""
    out = []

    def walk(mem):
        lvl = level(cfg, mem)
        children = l_classes(cfg, mem, lvl + 1) if len(mem) > 1 else []
        out.append((tuple(mem), lvl, len(children)))
        for part in children:
            walk(part)

    walk(tuple(members))
    return out
