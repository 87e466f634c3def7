"""Simplicial equivariant rings built over a finite simplicial G-set.

Each level is a tensor product of norms, one block per orbit of the level,
slots tagged (orbit position, coset).  Every structure map here - faces and
degeneracies of the Loday and bar constructions, and the level isomorphisms
between the two - is routed block by block by ``norms._block_map``.  A map
of the underlying G-set induces, orbit by orbit, the coset collapse of the
norms (``norms._collapse``); the routes landing in one target slot are
multiplied in a canonical order (``norms._ordered_fold``):

    plain routes keep their source-slot order; a route twisted by an
    anti-automorphism is placed mirror-image, reflected through the
    position of the target block's own pass-through factor.

For commutative coefficients any order works.  For an associative ring
with anti-involution this reflection is exactly what makes the two vertex
blocks of a polygon act as a left and a right module through the
involution (a(x)b patterns), and together with the order reversal that
composition applies under an anti twist it makes every simplicial
identity hold literally, with no commutations.

Every pipeline assigns norms by one rule (``norms._norms_by_isotropy``): a cell
with isotropy K gets N_K^G of the coefficient's K-action, and the trivial
group gets the trivial action.  The isotropy mode only decides where the
K-actions come from:

    free            every cell is free, so no K-action is needed;
    one-isotropy    K conjugate to H pulls H's action back along the
                    conjugation;
    normal          K inside the normal subgroup H restricts H's action;
    two-isotropy    K is H or H2, of order two, and its non-identity
                    element acts by the coefficient involution.
"""

from typing import NamedTuple, Sequence

from .coeffs import Coefficient
from .exactalg import SparseMatrix
from .fingroup import FiniteGroup
from .gring import GTensorRing, StructuredHom, equivariance_defect
from .norms import (NormRing, _block_map, _check_assignment, _induced_hom,
                    _norms_by_isotropy, _subgroup_rwa, norm_projection, psi_level,
                    tensor_of_actions)
from .rings import IDENTITY_TWIST, RingWithAction
from .simpgset import FinSimpGSet, build_polygon, simplicial_identity_failures


# ---------------------------------------------------------------------------
# the simplicial object


class SimplicialGRing:
    """Levels with faces and degeneracies, all exact and equivariant."""

    def __init__(self, group: FiniteGroup, levels: Sequence[GTensorRing],
                 faces: Sequence[Sequence[StructuredHom]],
                 degens: Sequence[Sequence[StructuredHom]],
                 label: str = ""):
        self.group = group
        self.levels = list(levels)
        self.faces = [list(f) for f in faces]
        self.degens = [list(d) for d in degens]
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

    def expanded_boundary(self, n: int) -> SparseMatrix:
        """The alternating face sum sum_i (-1)^i d_i out of level n, expanded
        once and kept.  The faces are expanded and added in one at a time,
        so at most one face expansion is alive at once."""
        key = ("boundary", n)
        if key not in self._expanded:
            cols = [{} for _ in range(self.level_rank(n))]
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                for acc, col in zip(cols, self.face(n, i).sparse().data):
                    for r, v in col:
                        acc[r] = acc.get(r, 0) + sign * v
            for j, acc in enumerate(cols):  # in place: each dict goes as its list comes
                cols[j] = sorted((r, v) for r, v in acc.items() if v)
            self._expanded[key] = SparseMatrix(self.level_rank(n - 1), cols)
        return self._expanded[key]

    def expanded_act(self, n: int, g: int) -> SparseMatrix:
        """``levels[n].act(g).sparse()``, expanded once and kept."""
        key = ("act", n, g)
        if key not in self._expanded:
            self._expanded[key] = self.levels[n].act(g).sparse()
        return self._expanded[key]

    def expansion_key(self, top: int) -> tuple:
        """Everything a fixed-point complex reads through this ring up to
        level ``top``, as one hashable value.

        That is the group; per level the base ring, the slot count and the
        targets of every action; and the targets of every face and every
        degeneracy.  The degeneracies give the degenerate part the normalized
        complex divides out, through their expansions.  Slot labels and
        ``label`` are left out on purpose.  Invariant: equal keys imply equal
        ``expanded_boundary``, ``expanded_act`` and ``dense_group`` at every
        level up to ``top``, and equal ``degeneracy(n, j).sparse()`` from
        every level below it.  Expansion reads only the base ring, the slot
        counts and the targets, and equal ``PresentedRing`` values share one
        ``TwistTable``, so a twist id names the same matrix in both rings.
        """
        levels = tuple((lv.tensor.base, lv.tensor.nslots,
                        tuple(f.targets for f in lv.action))
                       for lv in self.levels[:top + 1])
        faces = tuple(tuple(f.targets for f in fs) for fs in self.faces[:top])
        degens = tuple(tuple(d.targets for d in ds) for ds in self.degens[:top])
        return self.group, levels, faces, degens

    def level_rank(self, n: int) -> int:
        base = self.levels[n].tensor.base
        return base.ngens ** self.levels[n].tensor.nslots

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        top = self.top()
        ident = [StructuredHom.identity(lv.tensor) for lv in self.levels]
        out = ["%s: %s" % (self.label, msg) for msg in
               simplicial_identity_failures(top, self.face, self.degeneracy,
                                            ident)]
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
# the Loday construction, one norm assignment per isotropy mode


def loday(space: FinSimpGSet, norms: Sequence[NormRing],
          label: str = "loday") -> SimplicialGRing:
    """The simplicial ring with one norm block per orbit of each level."""
    _check_assignment(space, norms)
    g = space.group
    levels = []
    for n in range(space.truncation + 1):
        lv = space.levels[n]
        parts = [(o, norms[lv.orbits[o].cell].gt)
                 for o in range(len(lv.orbits))]
        levels.append(tensor_of_actions(g, parts))
    faces = []
    for n in range(1, space.truncation + 1):
        faces.append([_induced_hom(norms, levels[n].tensor, levels[n - 1].tensor,
                                   space.face(n, i))
                      for i in range(n + 1)])
    degens = []
    for n in range(space.truncation):
        degens.append([_induced_hom(norms, levels[n].tensor, levels[n + 1].tensor,
                                    space.degeneracy(n, j))
                       for j in range(n + 1)])
    out = SimplicialGRing(g, levels, faces, degens, label=label)
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
    s = loday(space, _norms_by_isotropy(space, rwa.ring),
              label="loday-free-flip")
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

    def pulled_back(iso: tuple[int, ...]) -> RingWithAction:
        if iso == h:
            return rwa
        gamma = g.are_conjugate_subgroups(iso, h)
        if gamma is None:
            raise ValueError("isotropy %r not conjugate to %r" % (iso, h))
        return _subgroup_rwa(g, iso,
                             lambda k: rwa.acts[hpos[g.conj(gamma, k)]],
                             rwa.ring)

    return loday(space, _norms_by_isotropy(space, rwa.ring, pulled_back),
                 label="loday-one-isotropy")


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

    def involution_on(iso: tuple[int, ...]) -> RingWithAction:
        if iso not in (h, h2):
            raise ValueError("isotropy %r outside the two subgroups" % (iso,))
        return _subgroup_rwa(
            g, iso,
            lambda k: (IDENTITY_TWIST, False) if k == 0 else invol,
            ring)

    norms = _norms_by_isotropy(space, ring, involution_on)
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

    def restricted(iso: tuple[int, ...]) -> RingWithAction:
        if iso == h:
            return rwa
        return _subgroup_rwa(g, iso, lambda k: rwa.acts[hpos[k]], rwa.ring)

    return loday(space, _norms_by_isotropy(space, rwa.ring, restricted),
                 label="loday-normal")


# ---------------------------------------------------------------------------
# flip <-> diagonal transport


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
    out = SimplicialGRing(s.group, new_levels, faces, degens,
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

    def parts(n: int) -> list[tuple[object, NormRing]]:
        """(tag, norm) of the blocks at positions 0..n+1 of level n: left,
        mid 1..n, right."""
        return ([("left", m_norm)] + [(("mid", k), a_norm) for k in range(1, n + 1)]
                + [("right", n_norm)])

    levels = [tensor_of_actions(g, [(tag, nm.gt) for tag, nm in parts(n)])
              for n in range(truncation + 1)]

    def face(n: int, i: int) -> StructuredHom:
        """d_i multiplies the blocks at positions j = n - i and j + 1.  A
        middle block folds into left through ``left_map`` or into right
        through ``right_map``, and the outer block passes through; two
        middle blocks multiply as they are."""
        j = n - i
        folds = {1: left_map} if j == 0 else {n: right_map} if j == n else {}
        outer = 0 if j == 0 else n + 1 if j == n else None
        dst = parts(n - 1)
        return _block_map(levels[n].tensor, levels[n - 1].tensor, [
            (tag, dst[k if k <= j else k - 1][0],
             (folds.get(k) or StructuredHom.identity(nm.tensor)).targets, k == outer)
            for k, (tag, nm) in enumerate(parts(n))])

    def degeneracy(n: int, j: int) -> StructuredHom:
        """s_j inserts a unit block at position n + 1 - j, shifting every
        block from there on up by one."""
        dst = parts(n + 1)
        return _block_map(levels[n].tensor, levels[n + 1].tensor, [
            (tag, dst[k if k < n + 1 - j else k + 1][0],
             StructuredHom.identity(nm.tensor).targets, False)
            for k, (tag, nm) in enumerate(parts(n))])

    faces = [[face(n, i) for i in range(n + 1)]
             for n in range(1, truncation + 1)]
    degens = [[degeneracy(n, j) for j in range(n + 1)]
              for n in range(truncation)]
    return SimplicialGRing(g, levels, faces, degens, label=label)


# ---------------------------------------------------------------------------
# the polygon pipeline


class RealHochschild(NamedTuple):
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
    if coeff.involution is None:
        raise ValueError("coefficient carries no involution")
    space = build_polygon(m, truncation)
    L = loday_two_isotropy(space, coeff)
    norms = L.norms
    m_norm, a_norm, n_norm = norms[0], norms[1], norms[2]
    left = norm_projection(a_norm, m_norm)
    right = norm_projection(a_norm, n_norm)
    B = bar(m_norm, a_norm, n_norm, left, right, truncation,
            label="bar-2m-gon")
    # the polygon's level n has n + 2 orbits, in the order of the bar's blocks
    isos = []
    for n in range(truncation + 1):
        orbits = space.levels[n].orbits
        tags = ["left"] + [("mid", o) for o in range(1, len(orbits) - 1)] + ["right"]
        isos.append(_block_map(L.levels[n].tensor, B.levels[n].tensor, [
            (o, tags[o], StructuredHom.identity(norms[orbit.cell].tensor).targets, False)
            for o, orbit in enumerate(orbits)]))
    return RealHochschild(L, B, isos)
