"""Simplicial equivariant rings built over a finite simplicial G-set.

Each level is a tensor product of norms, one block per orbit of the level,
slots tagged (orbit position, coset).  A structure map of the underlying
G-set induces, orbit by orbit, the coset-collapse routes of the norms; the
routes landing in one target slot are multiplied in a canonical order:

    plain routes keep their source-slot order; a route twisted by an
    anti-automorphism is placed mirror-image, reflected through the
    position of the target block's own pass-through factor.

For commutative coefficients any order works.  For an associative ring
with anti-involution this reflection is exactly what makes the two vertex
blocks of a polygon act as a left and a right module through the
involution (a(x)b patterns), and together with the order reversal that
composition applies under an anti twist it makes every simplicial
identity hold literally, with no commutations.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .coeffs import Coefficient
from .exactalg import IntMatrix, SparseMatrix
from .fingroup import FiniteGroup, make_cyclic
from .gring import (DENSE_BUDGET, IDENTITY_TWIST, GTensorRing, NormRing,
                    PresentedRing, RingWithAction, StructuredHom,
                    equivariance_defect, tensor_induce, tensor_of_actions)
from .simpgset import EqMap, FinSimpGSet


# ---------------------------------------------------------------------------
# the simplicial object


class SimplicialGRing:
    """Levels with faces and degeneracies, all exact and equivariant."""

    def __init__(self, group: FiniteGroup, levels: Sequence[GTensorRing],
                 faces: Sequence[Sequence[StructuredHom]],
                 degens: Sequence[Sequence[StructuredHom]],
                 tags: Sequence[Sequence], label: str = ""):
        self.group = group
        self.levels = list(levels)
        self.faces = [list(f) for f in faces]
        self.degens = [list(d) for d in degens]
        self.tags = [list(t) for t in tags]
        self.label = label
        self._expanded: dict[tuple, SparseMatrix] = {}

    def top(self) -> int:
        return len(self.levels) - 1

    def face(self, n: int, i: int) -> StructuredHom:
        if not (1 <= n <= self.top() and 0 <= i <= n):
            raise ValueError("face d_%d out of range at level %d" % (i, n))
        return self.faces[n - 1][i]

    def degeneracy(self, n: int, j: int) -> StructuredHom:
        if not (0 <= n < self.top() and 0 <= j <= n):
            raise ValueError("degeneracy s_%d out of range at level %d"
                             % (j, n))
        return self.degens[n][j]

    def expanded_face(self, n: int, i: int,
                      budget: int = DENSE_BUDGET) -> SparseMatrix:
        """``face(n, i).sparse()``, expanded once and kept."""
        return self._expand(("face", n, i), self.face(n, i), budget)

    def expanded_act(self, n: int, g: int,
                     budget: int = DENSE_BUDGET) -> SparseMatrix:
        """``levels[n].act(g).sparse()``, expanded once and kept."""
        return self._expand(("act", n, g), self.levels[n].act(g), budget)

    def _expand(self, key: tuple, hom: StructuredHom,
                budget: int) -> SparseMatrix:
        hom.src.dense_rank(budget)
        hom.dst.dense_rank(budget)
        if key not in self._expanded:
            self._expanded[key] = hom.sparse(budget)
        return self._expanded[key]

    def expansion_key(self, top: int) -> tuple:
        """Everything a fixed-point complex reads through this ring up to
        level ``top``, as one hashable value.

        That is the group; per level the base ring, the slot count and the
        targets of every action; and the targets of every face.  Slot
        labels, ``tags``, ``label`` and degeneracies are left out on purpose.
        Invariant: equal keys imply equal ``expanded_face``,
        ``expanded_act`` and ``dense_group`` at every level up to ``top``.
        Expansion reads only the base ring, the slot counts and the targets,
        and equal ``PresentedRing`` values share one ``TwistTable``, so a
        twist id names the same matrix in both rings.
        """
        levels = tuple((lv.tensor.base, lv.tensor.nslots,
                        tuple(f.targets for f in lv.action))
                       for lv in self.levels[:top + 1])
        faces = tuple(tuple(f.targets for f in fs) for fs in self.faces[:top])
        return self.group, levels, faces

    def level_rank(self, n: int) -> int:
        base = self.levels[n].tensor.base
        return base.ngens ** self.levels[n].tensor.nslots

    # -- validation ----------------------------------------------------------

    def validate(self, equivariance: bool = True) -> list[str]:
        out: list[str] = []
        top = self.top()
        ident = {n: StructuredHom.identity(self.levels[n].tensor)
                 for n in range(top + 1)}
        for n in range(2, top + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i).compose(self.face(n, j))
                    rhs = self.face(n - 1, j - 1).compose(self.face(n, i))
                    if lhs != rhs:
                        out.append("%s: d_%d d_%d != d_%d d_%d at level %d"
                                   % (self.label, i, j, j - 1, i, n))
        for n in range(0, top - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = self.degeneracy(n + 1, j + 1).compose(
                        self.degeneracy(n, i))
                    rhs = self.degeneracy(n + 1, i).compose(
                        self.degeneracy(n, j))
                    if lhs != rhs:
                        out.append("%s: s_%d s_%d != s_%d s_%d at level %d"
                                   % (self.label, j + 1, i, i, j, n))
        for n in range(0, top):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.face(n + 1, i).compose(self.degeneracy(n, j))
                    if i in (j, j + 1):
                        if lhs != ident[n]:
                            out.append("%s: d_%d s_%d != id at level %d"
                                       % (self.label, i, j, n))
                    elif i < j:
                        rhs = self.degeneracy(n - 1, j - 1).compose(
                            self.face(n, i))
                        if lhs != rhs:
                            out.append("%s: d_%d s_%d != s_%d d_%d at level "
                                       "%d" % (self.label, i, j, j - 1, i, n))
                    else:
                        rhs = self.degeneracy(n - 1, j).compose(
                            self.face(n, i - 1))
                        if lhs != rhs:
                            out.append("%s: d_%d s_%d != s_%d d_%d at level "
                                       "%d" % (self.label, i, j, j, i - 1, n))
        if equivariance:
            for n in range(1, top + 1):
                for i in range(n + 1):
                    bad = equivariance_defect(self.face(n, i),
                                              self.levels[n],
                                              self.levels[n - 1])
                    if bad:
                        out.append("%s: face d_%d at level %d not "
                                   "equivariant at %r" % (self.label, i, n,
                                                          bad[:3]))
            for n in range(0, top):
                for j in range(n + 1):
                    bad = equivariance_defect(self.degeneracy(n, j),
                                              self.levels[n],
                                              self.levels[n + 1])
                    if bad:
                        out.append("%s: degeneracy s_%d at level %d not "
                                   "equivariant at %r" % (self.label, j, n,
                                                          bad[:3]))
        return out



# ---------------------------------------------------------------------------
# fold ordering


def _ordered_fold(contribs: list[tuple[int, int, bool]],
                  pass_pos: Optional[int]) -> list[tuple[int, int, bool]]:
    """Order one target slot's contributions by the reflection rule."""
    if any(a for (_, _, a) in contribs) and pass_pos is None:
        raise ValueError("twisted fold without a pass-through factor")

    def key(entry):
        p, _, a = entry
        return (2 * pass_pos - p if a else p, a, p)

    return sorted(contribs, key=key)


def _induced_hom(space: FinSimpGSet, norms: Sequence[NormRing],
                 src_ring: GTensorRing, dst_ring: GTensorRing,
                 eq: EqMap) -> StructuredHom:
    """Level map induced by an equivariant map of the underlying levels."""
    g = space.group
    src_tr, dst_tr = src_ring.tensor, dst_ring.tensor
    contribs: list[list[tuple[int, int, bool]]] = \
        [[] for _ in range(dst_tr.nslots)]
    pass_pos: list[Optional[int]] = [None] * dst_tr.nslots
    hit = [False] * dst_tr.nslots
    for o in range(len(eq.src.orbits)):
        t, u = eq.entries[o]
        s_norm = norms[eq.src.orbits[o].cell]
        t_norm = norms[eq.dst.orbits[t].cell]
        same_cell = eq.src.orbits[o].cell == eq.dst.orbits[t].cell
        for c in range(len(s_norm.cosets)):
            rep = s_norm.transversal[c]
            tc = t_norm.coset_of[g.mul(rep, u)]
            d = g.mul(g.inv(t_norm.transversal[tc]), g.mul(rep, u))
            m, a = t_norm.act_of(d)
            p = src_tr.slot_index((o, c))
            q = dst_tr.slot_index((t, tc))
            contribs[q].append((p, m, a))
            hit[q] = True
            if same_cell:
                pass_pos[q] = p
    targets = [_ordered_fold(lst, pass_pos[q])
               for q, lst in enumerate(contribs)]
    return StructuredHom(src_tr, dst_tr, targets, check=False)


# ---------------------------------------------------------------------------
# norm assignments per isotropy mode


def _trivial_norm(group: FiniteGroup, ring: PresentedRing) -> NormRing:
    one = make_cyclic(1)
    rwa = RingWithAction(one, ring, [(IDENTITY_TWIST, False)])
    return tensor_induce(group, (0,), rwa)


def _subgroup_rwa(group: FiniteGroup, sub: Sequence[int],
                  act_of: Callable[[int], tuple[int, bool]],
                  ring: PresentedRing) -> RingWithAction:
    """Coefficient action over a subgroup given elementwise, local order."""
    from .fingroup import subgroup_as_group
    local, emb = subgroup_as_group(group, sub)
    return RingWithAction(local, ring, [act_of(x) for x in emb])


def _check_assignment(space: FinSimpGSet, norms: Sequence[NormRing]):
    g = space.group
    if len(norms) != len(space.cells):
        raise ValueError("one norm per cell required")
    base = norms[0].rwa.ring
    for cell, norm in zip(space.cells, norms):
        if norm.sub != cell.isotropy:
            raise ValueError("norm for cell %s has the wrong isotropy"
                             % cell.label)
        if norm.rwa.ring != base:
            raise ValueError("all norms must share one base ring")
    for ci, cell in enumerate(space.cells):
        for (c2, _, u) in cell.faces:
            s_norm = norms[ci]
            t_norm = norms[c2]
            uinv = g.inv(u)
            for k in cell.isotropy:
                k2 = g.conj(uinv, k)
                m1, a1 = s_norm.act_of(k)
                m2, a2 = t_norm.act_of(k2)
                if a1 != a2 or not base.twists.same(m1, m2):
                    raise ValueError(
                        "coefficient actions of cells %s -> %s do not match "
                        "along the face" % (cell.label, space.cells[c2].label))


def loday(space: FinSimpGSet, norms: Sequence[NormRing],
          label: str = "loday") -> SimplicialGRing:
    """The simplicial ring with one norm block per orbit of each level."""
    _check_assignment(space, norms)
    g = space.group
    levels = []
    tags = []
    for n in range(space.truncation + 1):
        lv = space.levels[n]
        parts = [(o, norms[lv.orbits[o].cell].gt)
                 for o in range(len(lv.orbits))]
        levels.append(tensor_of_actions(g, parts))
        tags.append([(lv.label(o), lv.isotropy(o), lv.transversal(o))
                     for o in range(len(lv.orbits))])
    faces = []
    for n in range(1, space.truncation + 1):
        faces.append([_induced_hom(space, norms, levels[n], levels[n - 1],
                                   space.face(n, i))
                      for i in range(n + 1)])
    degens = []
    for n in range(space.truncation):
        degens.append([_induced_hom(space, norms, levels[n], levels[n + 1],
                                    space.degeneracy(n, j))
                       for j in range(n + 1)])
    out = SimplicialGRing(g, levels, faces, degens, tags, label=label)
    out.space = space
    out.norms = list(norms)
    return out


def loday_free(space: FinSimpGSet, rwa: RingWithAction,
               inner: str = "flip") -> SimplicialGRing:
    """Loday construction over a free G-set; flip or diagonal inner action."""
    if space.mode[0] != "free":
        raise ValueError("space is not in free mode")
    if rwa.group.order != space.group.order:
        raise ValueError("coefficient action is over the wrong group")
    if inner not in ("flip", "diagonal"):
        raise ValueError("inner action must be flip or diagonal")
    norm = _trivial_norm(space.group, rwa.ring)
    norms = [norm] * len(space.cells)
    s = loday(space, norms, label="loday-free-flip")
    if inner == "flip":
        return s
    return transport_to_diagonal(s, rwa)


def loday_one_isotropy(space: FinSimpGSet, rwa: RingWithAction
                       ) -> SimplicialGRing:
    """Isotropy in one conjugacy class H: conjugate stabilizers pull the
    coefficient action back along the conjugation."""
    if space.mode[0] != "one_isotropy":
        raise ValueError("space is not in one-isotropy mode")
    g = space.group
    h = tuple(space.mode[1])
    if rwa.group.order != len(h):
        raise ValueError("coefficient group does not match the isotropy")
    hpos = {x: i for i, x in enumerate(h)}
    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == (0,):
                cache[iso] = _trivial_norm(g, rwa.ring)
            elif iso == h:
                cache[iso] = tensor_induce(g, h, rwa)
            else:
                gamma = g.are_conjugate_subgroups(iso, h)
                if gamma is None:
                    raise ValueError("isotropy %r not conjugate to %r"
                                     % (iso, h))
                sub = _subgroup_rwa(
                    g, iso,
                    lambda k: rwa.acts[hpos[g.conj(gamma, k)]],
                    rwa.ring)
                cache[iso] = tensor_induce(g, iso, sub)
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    return loday(space, norms, label="loday-one-isotropy")


def loday_two_isotropy(space: FinSimpGSet, coeff: Coefficient
                       ) -> SimplicialGRing:
    """Two stabilizer subgroups matched by an isomorphism; the coefficient
    involution acts through both."""
    if space.mode[0] != "two_isotropy":
        raise ValueError("space is not in two-isotropy mode")
    if coeff.involution is None:
        raise ValueError("coefficient carries no involution")
    g = space.group
    h = tuple(space.mode[1])
    h2 = tuple(space.mode[2])
    phi = dict(space.mode[3])
    if len(h) != 2 or len(h2) != 2:
        raise ValueError("vertex stabilizers must have order two")
    ring = coeff.ring
    mtx, anti = coeff.involution
    invol = (ring.twists.intern(mtx), anti)

    def order_two_rwa(sub: tuple[int, ...]) -> RingWithAction:
        return _subgroup_rwa(
            g, sub,
            lambda k: (IDENTITY_TWIST, False) if k == 0 else invol,
            ring)

    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == (0,):
                cache[iso] = _trivial_norm(g, ring)
            elif iso in (h, h2):
                cache[iso] = tensor_induce(g, iso, order_two_rwa(iso))
            else:
                raise ValueError("isotropy %r outside the two subgroups"
                                 % (iso,))
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    # the matching map must respect the involution placement
    for a in h:
        if a and phi[a] == 0:
            raise ValueError("matching map collapses the stabilizer")
    return loday(space, norms, label="loday-two-isotropy")


def loday_normal_sub(space: FinSimpGSet, rwa: RingWithAction
                     ) -> SimplicialGRing:
    """Isotropy inside one normal subgroup H: each smaller stabilizer K gets
    the norm of the restricted coefficient action."""
    if space.mode[0] != "normal_with_subgroups":
        raise ValueError("space is not in normal-subgroup mode")
    g = space.group
    h = tuple(space.mode[1])
    if rwa.group.order != len(h):
        raise ValueError("coefficient group does not match the subgroup")
    hpos = {x: i for i, x in enumerate(h)}
    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == h:
                cache[iso] = tensor_induce(g, h, rwa)
            elif iso == (0,):
                cache[iso] = _trivial_norm(g, rwa.ring)
            else:
                sub = _subgroup_rwa(g, iso, lambda k: rwa.acts[hpos[k]],
                                    rwa.ring)
                cache[iso] = tensor_induce(g, iso, sub)
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    return loday(space, norms, label="loday-normal")


# ---------------------------------------------------------------------------
# flip <-> diagonal transport


def psi_level(level: GTensorRing, norms: Sequence[NormRing],
              rwa: RingWithAction, invert: bool = False) -> StructuredHom:
    """Slotwise twist by the ambient action of each slot's coset
    representative: the interleaving between flip and diagonal models."""
    tr = level.tensor
    targets = []
    for (o, c) in tr.slots:
        rep = norms[o].transversal[c]
        g = rwa.group.inv(rep) if invert else rep
        m, a = rwa.acts[g]
        targets.append([(tr.slot_index((o, c)), m, a)])
    return StructuredHom(tr, tr, targets, check=False)


def transport_to_diagonal(s: SimplicialGRing, rwa: RingWithAction
                          ) -> SimplicialGRing:
    """Conjugate a flip-model simplicial ring into the diagonal model."""
    space: FinSimpGSet = s.space
    norms = s.norms
    per_level_norms = []
    for n in range(s.top() + 1):
        lv = space.levels[n]
        per_level_norms.append([norms[lv.orbits[o].cell]
                                for o in range(len(lv.orbits))])
    psis = [psi_level(s.levels[n], per_level_norms[n], rwa)
            for n in range(s.top() + 1)]
    psis_inv = [psi_level(s.levels[n], per_level_norms[n], rwa, invert=True)
                for n in range(s.top() + 1)]
    new_levels = []
    for n, lv in enumerate(s.levels):
        action = [psis[n].compose(lv.act(g)).compose(psis_inv[n])
                  for g in range(s.group.order)]
        new_levels.append(GTensorRing(s.group, lv.tensor, action,
                                      check=False))
    faces = [[psis[n - 1].compose(s.face(n, i)).compose(psis_inv[n])
              for i in range(n + 1)]
             for n in range(1, s.top() + 1)]
    degens = [[psis[n + 1].compose(s.degeneracy(n, j)).compose(psis_inv[n])
               for j in range(n + 1)]
              for n in range(s.top())]
    out = SimplicialGRing(s.group, new_levels, faces, degens, s.tags,
                          label=s.label.replace("flip", "diagonal"))
    out.space = space
    out.norms = norms
    return out


# ---------------------------------------------------------------------------
# the two-sided bar construction (independent of the G-set machinery)


def bar(m_norm: NormRing, a_norm: NormRing, n_norm: NormRing,
        left_map: StructuredHom, right_map: StructuredHom,
        truncation: int = 4, label: str = "bar") -> SimplicialGRing:
    """Two-sided bar construction B(M, A, N) with A folding into M on the
    left and into N on the right through the given structure maps."""
    g = m_norm.group
    ring = a_norm.rwa.ring
    if m_norm.rwa.ring != ring or n_norm.rwa.ring != ring:
        raise ValueError("blocks must share one base ring")
    if left_map.src != a_norm.tensor or left_map.dst != m_norm.tensor:
        raise ValueError("left structure map has the wrong shape")
    if right_map.src != a_norm.tensor or right_map.dst != n_norm.tensor:
        raise ValueError("right structure map has the wrong shape")
    for f, dst in ((left_map, m_norm), (right_map, n_norm)):
        bad = equivariance_defect(f, a_norm.gt, dst.gt)
        if bad:
            raise ValueError("structure map is not equivariant at %r"
                             % (bad[:3],))

    def parts(n):
        blocks = [("left", m_norm.gt)]
        blocks += [(("mid", k), a_norm.gt) for k in range(1, n + 1)]
        blocks.append(("right", n_norm.gt))
        return blocks

    levels = [tensor_of_actions(g, parts(n)) for n in range(truncation + 1)]
    tags = []
    for n in range(truncation + 1):
        t = [("left", m_norm.sub, m_norm.transversal)]
        t += [("mid%d" % k, a_norm.sub, a_norm.transversal)
              for k in range(1, n + 1)]
        t.append(("right", n_norm.sub, n_norm.transversal))
        tags.append(t)

    def block_len(tag) -> int:
        """Coset count of the norm block carrying ``tag``."""
        if tag == "left":
            return len(m_norm.cosets)
        if tag == "right":
            return len(n_norm.cosets)
        return len(a_norm.cosets)

    def assemble(n: int, i: int) -> StructuredHom:
        src_tr = levels[n].tensor
        dst_tr = levels[n - 1].tensor
        contribs: list[list[tuple[int, int, bool]]] = \
            [[] for _ in range(dst_tr.nslots)]
        pass_pos: list[Optional[int]] = [None] * dst_tr.nslots

        def route(src_tag, dst_tag, hom: Optional[StructuredHom],
                  passthrough: bool = False):
            if hom is None:
                for c in range(block_len(src_tag)):
                    p = src_tr.slot_index((src_tag, c))
                    q = dst_tr.slot_index((dst_tag, c))
                    contribs[q].append((p, IDENTITY_TWIST, False))
                    if passthrough:
                        pass_pos[q] = p
            else:
                for q_local, lst in enumerate(hom.targets):
                    q = dst_tr.slot_index((dst_tag, q_local))
                    for (c, mtx, anti) in lst:
                        contribs[q].append(
                            (src_tr.slot_index((src_tag, c)), mtx, anti))

        if i == 0:
            route("left", "left", None)
            for k in range(1, n):
                route(("mid", k), ("mid", k), None)
            route("right", "right", None, passthrough=True)
            route(("mid", n), "right", right_map)
        elif i == n:
            route("left", "left", None, passthrough=True)
            route(("mid", 1), "left", left_map)
            for k in range(2, n + 1):
                route(("mid", k), ("mid", k - 1), None)
            route("right", "right", None)
        else:
            route("left", "left", None)
            for k in range(1, n - i):
                route(("mid", k), ("mid", k), None)
            route(("mid", n - i), ("mid", n - i), None)
            route(("mid", n - i + 1), ("mid", n - i), None)
            for k in range(n - i + 2, n + 1):
                route(("mid", k), ("mid", k - 1), None)
            route("right", "right", None)
        targets = [_ordered_fold(lst, pass_pos[q])
                   for q, lst in enumerate(contribs)]
        return StructuredHom(src_tr, dst_tr, targets, check=False)

    def assemble_deg(n: int, j: int) -> StructuredHom:
        src_tr = levels[n].tensor
        dst_tr = levels[n + 1].tensor
        targets: list[list[tuple[int, int, bool]]] = \
            [[] for _ in range(dst_tr.nslots)]

        def wire(src_tag, dst_tag):
            for c in range(block_len(src_tag)):
                p = src_tr.slot_index((src_tag, c))
                q = dst_tr.slot_index((dst_tag, c))
                targets[q].append((p, IDENTITY_TWIST, False))

        wire("left", "left")
        new_block = n + 1 - j
        for k in range(1, n + 1):
            wire(("mid", k), ("mid", k if k < new_block else k + 1))
        wire("right", "right")
        return StructuredHom(src_tr, dst_tr, targets, check=False)

    faces = [[assemble(n, i) for i in range(n + 1)]
             for n in range(1, truncation + 1)]
    degens = [[assemble_deg(n, j) for j in range(n + 1)]
              for n in range(truncation)]
    return SimplicialGRing(g, levels, faces, degens, tags, label=label)


# ---------------------------------------------------------------------------
# the polygon pipeline


@dataclass
class RealHochschild:
    loday_side: SimplicialGRing
    bar_side: SimplicialGRing
    isos: list[StructuredHom]

    def iso_commutes(self) -> list[str]:
        out = []
        L, B = self.loday_side, self.bar_side
        for n in range(1, L.top() + 1):
            for i in range(n + 1):
                lhs = B.face(n, i).compose(self.isos[n])
                rhs = self.isos[n - 1].compose(L.face(n, i))
                if lhs != rhs:
                    out.append("iso does not commute with d_%d at level %d"
                               % (i, n))
        for n in range(L.top()):
            for j in range(n + 1):
                lhs = B.degeneracy(n, j).compose(self.isos[n])
                rhs = self.isos[n + 1].compose(L.degeneracy(n, j))
                if lhs != rhs:
                    out.append("iso does not commute with s_%d at level %d"
                               % (j, n))
        return out


def real_hochschild(m: int, coeff: Coefficient,
                    truncation: int = 4) -> RealHochschild:
    """Loday construction over the 2m-gon against the two-sided bar of the
    three induced norms, with the levelwise matching isomorphism."""
    from .simpgset import build_polygon
    from .gring import norm_projection
    if coeff.involution is None:
        raise ValueError("coefficient carries no involution")
    space = build_polygon(m, truncation)
    L = loday_two_isotropy(space, coeff)
    norms = L.norms
    m_norm, a_norm, n_norm = norms[0], norms[1], norms[2]
    left = norm_projection(a_norm, m_norm, 0)
    right = norm_projection(a_norm, n_norm, 0)
    B = bar(m_norm, a_norm, n_norm, left, right, truncation,
            label="bar-2m-gon")
    isos = []
    for n in range(truncation + 1):
        src_tr = L.levels[n].tensor
        dst_tr = B.levels[n].tensor
        targets = [None] * dst_tr.nslots
        for p, (o, c) in enumerate(src_tr.slots):
            if o == 0:
                tag = "left"
            elif o == len(space.levels[n].orbits) - 1:
                tag = "right"
            else:
                tag = ("mid", o)
            q = dst_tr.slot_index((tag, c))
            targets[q] = [(p, IDENTITY_TWIST, False)]
        isos.append(StructuredHom(src_tr, dst_tr, targets, check=False))
    return RealHochschild(L, B, isos)


# ---------------------------------------------------------------------------
# ring-with-anti-involution certification


def esigma_check(ring: PresentedRing, involution: tuple[IntMatrix, bool],
                 fixed_unit: Optional[Sequence[int]] = None) -> dict:
    """Certify the data needed to run the polygon pipeline without
    commutativity: associativity is already enforced by the ring, the
    involution must reverse multiplication and square to the identity, and
    the designated fixed element must be the unit."""
    mtx, anti = involution
    report = {"associative": True, "passes": True, "items": []}

    def item(name, ok, witness=None):
        report["items"].append({"check": name, "ok": ok, "witness": witness})
        if not ok:
            report["passes"] = False

    if not anti:
        # an unflagged involution is fine only when reversing products is
        # invisible, i.e. the ring is commutative
        item("involution-reverses-products", ring.commutative,
             None if ring.commutative else _reversal_witness(ring, mtx))
    else:
        item("involution-reverses-products",
             ring.matrix_is_morphism(mtx, True),
             None if ring.matrix_is_morphism(mtx, True)
             else _reversal_witness(ring, mtx))
    item("involution-squares-to-identity",
         ring.twists.same(ring.twists.intern(mtx @ mtx), IDENTITY_TWIST))
    unit = list(fixed_unit) if fixed_unit is not None else ring.unit_vec()
    item("fixed-element-is-unit",
         ring.reduce_vec(unit) == ring.reduce_vec(ring.unit_vec()))
    item("fixed-element-is-fixed",
         ring.reduce_vec(mtx.apply(unit)) == ring.reduce_vec(unit))
    report["commutative"] = ring.commutative
    report["noncommutative_allowed"] = True
    report["bimodule"] = {
        "left": "block pair (a, b) sends v to a * v * invol(b)",
        "right": "block pair (a, b) sends x to invol(b) * x * a",
    }
    return report


def _reversal_witness(ring: PresentedRing, mtx: IntMatrix):
    for i in range(ring.ngens):
        for j in range(ring.ngens):
            ei = [1 if k == i else 0 for k in range(ring.ngens)]
            ej = [1 if k == j else 0 for k in range(ring.ngens)]
            lhs = ring.reduce_vec(mtx.apply(ring.vec_mul(ei, ej)))
            rhs = ring.reduce_vec(ring.vec_mul(mtx.apply(ej), mtx.apply(ei)))
            if lhs != rhs:
                return {"pair": [i, j], "image_of_product": list(lhs),
                        "product_of_images": list(rhs)}
    return None
