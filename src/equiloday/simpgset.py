"""Finite simplicial sets with a group action, truncated at a degree bound.

A space is stored as a flat list of nondegenerate cells.  Each cell is one
orbit: a subgroup (the stabilizer of the chosen representative) plus, for
positive-dimensional cells, one face record per face index.  A face record
(cell, sigma, u) says: the face is the sigma-degeneracy of that cell, and
the representative maps to the u-translate of its representative.

Level n then enumerates pairs (cell, sigma) with sigma a monotone
surjection onto the cell's dimension, cell-major with sigma in ascending
lexicographic order.  Face and degeneracy maps between levels are computed
by the usual operator calculus: precompose sigma with the coface; if the
result is no longer surjective, peel off one face of the cell and continue.

All structure maps are equivariant by construction (an orbit map is just a
target orbit plus a group element); the validator still replays them on
every element to catch bookkeeping mistakes, and checks every simplicial
identity that fits under the truncation.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .fingroup import (FiniteGroup, make_cyclic, make_dihedral,
                       make_symmetric, symmetric_one_line)


# ---------------------------------------------------------------------------
# monotone surjections


def surjections(n: int, m: int) -> list[tuple[int, ...]]:
    """Monotone surjections [n] ->> [m] as value tuples, lex ascending."""
    if m > n or m < 0:
        return []
    out = []
    # determined by the m positions where the value steps up
    for steps in combinations(range(n), m):
        vals = []
        v = 0
        stepset = set(steps)
        for i in range(n + 1):
            vals.append(v)
            if i in stepset:
                v += 1
        out.append(tuple(vals))
    out.sort()
    return out


def face_precompose(sigma: tuple[int, ...], i: int):
    """sigma o delta_i.  Either ("deg", sigma') with sigma' still surjective,
    or ("face", j, pi) with sigma o delta_i = delta_j o pi."""
    dropped = sigma[:i] + sigma[i + 1:]
    m = sigma[-1]
    seen = set(dropped)
    missing = [v for v in range(m + 1) if v not in seen]
    if not missing:
        return ("deg", dropped)
    j = missing[0]
    pi = tuple(v - 1 if v > j else v for v in dropped)
    return ("face", j, pi)


def degeneracy_precompose(sigma: tuple[int, ...], j: int) -> tuple[int, ...]:
    """sigma o sigma_j: repeat position j."""
    return sigma[:j + 1] + sigma[j:]


# ---------------------------------------------------------------------------
# cells and levels


@dataclass(frozen=True)
class Cell:
    label: str
    dim: int
    isotropy: tuple[int, ...]
    faces: tuple = ()  # per face index: (cell, sigma, u)


@dataclass(frozen=True)
class Simplex:
    cell: int
    sigma: tuple[int, ...]


class OrbitLevel:
    """One simplicial level: an ordered list of orbits with their cosets."""

    def __init__(self, group: FiniteGroup, cells: Sequence[Cell], n: int):
        self.group = group
        self.cells = cells
        self.n = n
        self.orbits: list[Simplex] = []
        for ci, cell in enumerate(cells):
            for sig in surjections(n, cell.dim):
                self.orbits.append(Simplex(ci, sig))
        self._trans = [group.transversal(cells[s.cell].isotropy)
                       for s in self.orbits]
        self._cidx = [group.coset_index(cells[s.cell].isotropy)
                      for s in self.orbits]

    def isotropy(self, o: int) -> tuple[int, ...]:
        return self.cells[self.orbits[o].cell].isotropy

    def label(self, o: int) -> str:
        s = self.orbits[o]
        cell = self.cells[s.cell]
        base = cell.label
        if cell.dim == 0 or len(s.sigma) == cell.dim + 1:
            return base
        return base + "|" + "".join(map(str, s.sigma))

    def transversal(self, o: int) -> tuple[int, ...]:
        return self._trans[o]

    def coset_of(self, o: int, g: int) -> int:
        return self._cidx[o][g]

    def elements(self) -> list[tuple[int, int]]:
        return [(o, c) for o in range(len(self.orbits))
                for c in range(len(self._trans[o]))]

    def orbit_index(self, s: Simplex) -> int:
        return self.orbits.index(s)


class EqMap:
    """Equivariant map of orbit levels: per source orbit, a target orbit and
    the element carrying the representative coset."""

    def __init__(self, src: OrbitLevel, dst: OrbitLevel,
                 entries: Sequence[tuple[int, int]]):
        if len(entries) != len(src.orbits):
            raise ValueError("one entry per source orbit required")
        g = src.group
        for o, (t, u) in enumerate(entries):
            ks = src.isotropy(o)
            kt = dst.isotropy(t)
            uinv = g.inv(u)
            for k in ks:
                if g.mul(g.mul(uinv, k), u) not in kt:
                    raise ValueError(
                        "orbit map not well defined: source isotropy %r does "
                        "not land in %r under u=%d" % (ks, kt, u))
        self.src = src
        self.dst = dst
        self.entries = tuple((t, u) for t, u in entries)

    def apply_element(self, el: tuple[int, int]) -> tuple[int, int]:
        o, c = el
        w = self.src.transversal(o)[c]
        t, u = self.entries[o]
        return (t, self.dst.coset_of(t, self.src.group.mul(w, u)))

    def compose(self, inner: "EqMap") -> "EqMap":
        if inner.dst is not self.src:
            raise ValueError("levels do not match")
        g = self.src.group
        ent = []
        for o in range(len(inner.src.orbits)):
            t1, u1 = inner.entries[o]
            t2, u2 = self.entries[t1]
            ent.append((t2, g.mul(u1, u2)))
        return EqMap(inner.src, self.dst, ent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqMap):
            return NotImplemented
        if self.src is not other.src or self.dst is not other.dst:
            return False
        g = self.src.group
        for (t1, u1), (t2, u2) in zip(self.entries, other.entries):
            if t1 != t2:
                return False
            if g.mul(g.inv(u2), u1) not in self.dst.isotropy(t1):
                return False
        return True

    def __hash__(self):
        # equality reads u only modulo the target isotropy: leave it out
        return hash((id(self.src), id(self.dst), tuple(t for t, _ in self.entries)))


# ---------------------------------------------------------------------------
# the space


class FinSimpGSet:
    """Truncated simplicial G-set given by nondegenerate cells."""

    def __init__(self, group: FiniteGroup, cells: Sequence[Cell],
                 truncation: int, mode: tuple):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        self.group = group
        self.cells = tuple(cells)
        self.truncation = truncation
        self.mode = mode
        for cell in self.cells:
            if not group.is_subgroup(cell.isotropy):
                raise ValueError("cell %s isotropy is not a subgroup"
                                 % cell.label)
            if len(cell.faces) != (cell.dim + 1 if cell.dim > 0 else 0):
                raise ValueError("cell %s has the wrong number of faces"
                                 % cell.label)
            for (c2, sig, u) in cell.faces:
                if not (0 <= c2 < len(self.cells)):
                    raise ValueError("face cell index out of range")
                target = self.cells[c2]
                if len(sig) != cell.dim or (sig and sig[-1] != target.dim) \
                        or sig not in surjections(cell.dim - 1, target.dim):
                    raise ValueError("cell %s face carries a bad surjection"
                                     % cell.label)
        self.levels = [OrbitLevel(group, self.cells, n)
                       for n in range(truncation + 1)]
        self._face_cache: dict[tuple[int, int], EqMap] = {}
        self._deg_cache: dict[tuple[int, int], EqMap] = {}

    def _resolve_face(self, s: Simplex, i: int) -> tuple[Simplex, int]:
        """d_i of the orbit (cell, sigma): a simplex one level down plus u."""
        kind = face_precompose(s.sigma, i)
        if kind[0] == "deg":
            return Simplex(s.cell, kind[1]), 0
        _, j, pi = kind
        c2, tau, u = self.cells[s.cell].faces[j]
        # the face of the cell is itself a degenerate simplex (tau-degenerate
        # on cell c2); precomposing with pi keeps it one
        comp = tuple(tau[v] for v in pi)
        return Simplex(c2, comp), u

    def face(self, n: int, i: int) -> EqMap:
        if not (1 <= n <= self.truncation and 0 <= i <= n):
            raise ValueError("face d_%d out of range at level %d" % (i, n))
        key = (n, i)
        if key not in self._face_cache:
            src, dst = self.levels[n], self.levels[n - 1]
            entries = []
            for s in src.orbits:
                t, u = self._resolve_face(s, i)
                entries.append((dst.orbit_index(t), u))
            self._face_cache[key] = EqMap(src, dst, entries)
        return self._face_cache[key]

    def degeneracy(self, n: int, j: int) -> EqMap:
        if not (0 <= n < self.truncation and 0 <= j <= n):
            raise ValueError("degeneracy s_%d out of range at level %d"
                             % (j, n))
        key = (n, j)
        if key not in self._deg_cache:
            src, dst = self.levels[n], self.levels[n + 1]
            entries = []
            for s in src.orbits:
                t = Simplex(s.cell, degeneracy_precompose(s.sigma, j))
                entries.append((dst.orbit_index(t), 0))
            self._deg_cache[key] = EqMap(src, dst, entries)
        return self._deg_cache[key]

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        out: list[str] = []
        try:
            out.extend(self._check_identities())
            out.extend(self._check_elements())
        except ValueError as exc:
            out.append("structure map construction failed: %s" % exc)
        out.extend(self._check_mode())
        return out

    def _check_identities(self) -> list[str]:
        out = []
        n_max = self.truncation
        for n in range(2, n_max + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i).compose(self.face(n, j))
                    rhs = self.face(n - 1, j - 1).compose(self.face(n, i))
                    if lhs != rhs:
                        out.append("d_%d d_%d != d_%d d_%d at level %d"
                                   % (i, j, j - 1, i, n))
        for n in range(0, n_max - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = self.degeneracy(n + 1, j + 1).compose(
                        self.degeneracy(n, i))
                    rhs = self.degeneracy(n + 1, i).compose(
                        self.degeneracy(n, j))
                    if lhs != rhs:
                        out.append("s_%d s_%d != s_%d s_%d at level %d"
                                   % (j + 1, i, i, j, n))
        for n in range(0, n_max):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.face(n + 1, i).compose(self.degeneracy(n, j))
                    if i == j or i == j + 1:
                        ident = EqMap(self.levels[n], self.levels[n],
                                      [(o, 0) for o in
                                       range(len(self.levels[n].orbits))])
                        if lhs != ident:
                            out.append("d_%d s_%d != id at level %d"
                                       % (i, j, n))
                    elif i < j:
                        rhs = self.degeneracy(n - 1, j - 1).compose(
                            self.face(n, i)) if n >= 1 else None
                        if rhs is None or lhs != rhs:
                            out.append("d_%d s_%d != s_%d d_%d at level %d"
                                       % (i, j, j - 1, i, n))
                    else:
                        rhs = self.degeneracy(n - 1, j).compose(
                            self.face(n, i - 1)) if n >= 1 else None
                        if rhs is None or lhs != rhs:
                            out.append("d_%d s_%d != s_%d d_%d at level %d"
                                       % (i, j, j, i - 1, n))
        return out

    def _check_elements(self) -> list[str]:
        out = []
        g = self.group
        maps = []
        for n in range(1, self.truncation + 1):
            maps.extend(self.face(n, i) for i in range(n + 1))
        for n in range(self.truncation):
            maps.extend(self.degeneracy(n, j) for j in range(n + 1))
        for f in maps:
            for el in f.src.elements():
                o, c = el
                w = f.src.transversal(o)[c]
                fx = f.apply_element(el)
                for gamma in range(g.order):
                    gx = (o, f.src.coset_of(o, g.mul(gamma, w)))
                    t, tc = fx
                    gfx = (t, f.dst.coset_of(t, g.mul(
                        gamma, f.dst.transversal(t)[tc])))
                    if f.apply_element(gx) != gfx:
                        out.append("equivariance bookkeeping broken at "
                                   "orbit %d element %d" % (o, w))
                        break
        return out

    def _check_mode(self) -> list[str]:
        out = []
        g = self.group
        kind = self.mode[0]
        isotropies = [c.isotropy for c in self.cells]
        trivial = (0,)
        if kind == "free":
            for c in self.cells:
                if c.isotropy != trivial and len(c.isotropy) != 1:
                    out.append("free mode but cell %s has isotropy %r"
                               % (c.label, c.isotropy))
        elif kind == "one_isotropy":
            h = tuple(self.mode[1])
            for c in self.cells:
                if c.isotropy in (trivial, h):
                    continue
                if g.are_conjugate_subgroups(c.isotropy, h) is None:
                    out.append("cell %s isotropy %r is neither trivial nor "
                               "conjugate to %r" % (c.label, c.isotropy, h))
        elif kind == "two_isotropy":
            h = tuple(self.mode[1])
            h2 = tuple(self.mode[2])
            phi = dict(self.mode[3])
            if set(phi) != set(h) or set(phi.values()) != set(h2):
                out.append("subgroup matching map has the wrong domain")
            else:
                for a in h:
                    for b in h:
                        if phi[g.mul(a, b)] != g.mul(phi[a], phi[b]):
                            out.append("subgroup matching map is not "
                                       "multiplicative")
                            break
            for c in self.cells:
                if c.isotropy not in (trivial, h, h2):
                    out.append("cell %s isotropy %r outside the two allowed "
                               "subgroups" % (c.label, c.isotropy))
            if h != h2:
                sides = {i: (1 if iso == h else 2 if iso == h2 else 0)
                         for i, iso in enumerate(isotropies)}
                for ci, c in enumerate(self.cells):
                    for (c2, _, _) in c.faces:
                        if sides[ci] and sides[c2] and sides[ci] != sides[c2]:
                            out.append("face of cell %s crosses between the "
                                       "two subgroup sides" % c.label)
        elif kind == "normal_with_subgroups":
            h = tuple(self.mode[1])
            ks = [tuple(k) for k in self.mode[2]]
            if not g.is_normal(h):
                out.append("distinguished subgroup is not normal")
            for k in ks:
                if not set(k) <= set(h) or k == h:
                    out.append("listed subgroup %r is not proper in %r"
                               % (k, h))
            for c in self.cells:
                if c.isotropy != h and c.isotropy not in ks:
                    out.append("cell %s isotropy %r not in the allowed list"
                               % (c.label, c.isotropy))
        else:
            out.append("unknown isotropy mode %r" % (kind,))
        return out

    # -- counting and serialization ------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "group": self.group.to_json_obj(),
            "truncation": self.truncation,
            "mode": [list(x) if isinstance(x, tuple) else x
                     for x in self.mode],
            "cells": [{
                "label": c.label,
                "dim": c.dim,
                "isotropy": list(c.isotropy),
                "faces": [[c2, list(sig), u] for (c2, sig, u) in c.faces],
            } for c in self.cells],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "FinSimpGSet":
        g = FiniteGroup.from_json_obj(obj["group"])
        cells = [Cell(c["label"], c["dim"], tuple(c["isotropy"]),
                      tuple((c2, tuple(sig), u)
                            for (c2, sig, u) in c["faces"]))
                 for c in obj["cells"]]
        raw = obj["mode"]
        mode = tuple(tuple(tuple(y) if isinstance(y, list) else y for y in x)
                     if isinstance(x, list) else x for x in raw)
        if mode[0] == "two_isotropy":
            mode = (mode[0], mode[1], mode[2],
                    tuple(tuple(p) for p in mode[3]))
        return FinSimpGSet(g, cells, obj["truncation"], mode)


# ---------------------------------------------------------------------------
# builders


def _two_mode(g: FiniteGroup, h: tuple[int, ...], h2: tuple[int, ...],
              pairs: tuple[tuple[int, int], ...]) -> tuple:
    return ("two_isotropy", h, h2, pairs)


def dihedral_vertex_subgroups(m: int) -> tuple[tuple[int, ...],
                                               tuple[int, ...]]:
    """The two reflection subgroups fixing the polygon's two vertex types."""
    s = m
    rs = m + 1 if m >= 2 else 1
    return (0, s), tuple(sorted((0, rs)))


def dihedral_phi(m: int) -> tuple[tuple[int, int], ...]:
    """Matching isomorphism between the two vertex subgroups: s -> rs."""
    h, h2 = dihedral_vertex_subgroups(m)
    return ((0, 0), (h[1], h2[1]))


def build_polygon(m: int, truncation: int = 4) -> FinSimpGSet:
    """1-skeleton of the regular 2m-gon with the full dihedral action.

    Vertices split into two reflection-stabilized orbits x and x'; the edges
    form one free orbit y with d_0 into x' and d_1 into x.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    g = make_dihedral(2 * m)
    h, h2 = dihedral_vertex_subgroups(m)
    cells = [
        Cell("x", 0, h),
        Cell("y", 1, (0,), ((2, (0,), 0), (0, (0,), 0))),
        Cell("x'", 0, h2),
    ]
    return FinSimpGSet(g, cells, truncation,
                       _two_mode(g, h, h2, dihedral_phi(m)))


def build_sigma_circle(truncation: int = 4) -> FinSimpGSet:
    """Two fixed vertices joined by a free pair of edges, over C_2.

    The one-point compactification of the sign line: same shape as the
    2-gon, with the order-two group acting by the flip.
    """
    g = make_cyclic(2)
    full = (0, 1)
    cells = [
        Cell("x", 0, full),
        Cell("y", 1, (0,), ((2, (0,), 0), (0, (0,), 0))),
        Cell("x'", 0, full),
    ]
    return FinSimpGSet(g, cells, truncation,
                       _two_mode(g, full, full, ((0, 0), (1, 1))))


def build_cayley(group: FiniteGroup, gens: Sequence[int],
                 truncation: int = 4) -> FinSimpGSet:
    """Cayley graph: free vertices, one free edge orbit per generator.

    Loops coming from involutions are kept as genuine edge orbits.  The
    edge for generator gamma runs from each vertex v to v*gamma; the
    translated end sits at face index 1, so in any complex built on top
    the twist shows up in the last face of each level.
    """
    gens = tuple(gens)
    if 0 in gens:
        raise ValueError("the identity is not allowed as a generator")
    if len(set(gens)) != len(gens):
        raise ValueError("repeated generator")
    if group.subgroup_generated(gens) != tuple(range(group.order)):
        raise ValueError("generators do not generate the group")
    cells = [Cell("v", 0, (0,))]
    for gamma in gens:
        cells.append(Cell("y%d" % gamma, 1, (0,),
                          ((0, (0,), 0), (0, (0,), gamma))))
    return FinSimpGSet(group, cells, truncation, ("free",))


def build_rot_circle(n: int, truncation: int = 4) -> FinSimpGSet:
    """Circle with n vertices rotated by the cyclic group of order n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    g = make_cyclic(n)
    if n == 1:
        cells = [Cell("v", 0, (0,)),
                 Cell("y1", 1, (0,), ((0, (0,), 0), (0, (0,), 0)))]
        return FinSimpGSet(g, cells, truncation, ("free",))
    return build_cayley(g, (1,), truncation)


def build_coset_cayley(group: FiniteGroup, sub: Sequence[int],
                       gens: Sequence[int], truncation: int = 4,
                       mode: Optional[tuple] = None) -> FinSimpGSet:
    """Cayley-style graph on a coset space: vertices G/H, free edges.

    The edge for gamma runs from gH to g*gamma*H.  Useful as a test bed for
    the norm projections between nontrivial isotropy levels.
    """
    sub = tuple(sorted(sub))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    gens = tuple(gens)
    cells = [Cell("v", 0, sub)]
    for gamma in gens:
        if gamma == 0:
            raise ValueError("the identity is not allowed as a generator")
        cells.append(Cell("y%d" % gamma, 1, (0,),
                          ((0, (0,), 0), (0, (0,), gamma))))
    if mode is None:
        mode = ("one_isotropy", sub)
    return FinSimpGSet(group, cells, truncation, mode)


def build_permutohedron_skeleton(n: int, truncation: int = 4) -> FinSimpGSet:
    """Barycentric model of the permutohedron 1-skeleton, n in {2, 3, 4}.

    Vertices form a free orbit; the midpoint of the edge that swaps the
    values k and k+1 is stabilized by the transposition (k, k+1); the
    half-edges from vertices to midpoints are free, one orbit per k.
    Cells are laid out mid_{n-1}, h_{n-1}, ..., mid_2, h_2, v, h_1, mid_1
    so that the level decomposition reads like a chain of bar constructions
    glued at the vertex factor.
    """
    if n not in (2, 3, 4):
        raise ValueError("only n = 2, 3, 4 are supported")
    g = make_symmetric(n)
    perms = {p: i for i, p in enumerate(symmetric_one_line(n))}

    def transposition(k: int) -> int:
        one_line = list(range(n))
        one_line[k - 1], one_line[k] = one_line[k], one_line[k - 1]
        return perms[tuple(one_line)]

    mids = {k: tuple(sorted((0, transposition(k)))) for k in range(1, n)}
    cells: list[Cell] = []
    mid_pos: dict[int, int] = {}
    half_specs: list[tuple[int, int]] = []  # (k, position of its cell)
    for k in range(n - 1, 1, -1):
        mid_pos[k] = len(cells)
        cells.append(Cell("mid%d" % k, 0, mids[k]))
        half_specs.append((k, len(cells)))
        cells.append(Cell("h%d" % k, 1, (0,)))
    vpos = len(cells)
    cells.append(Cell("v", 0, (0,)))
    half_specs.append((1, len(cells)))
    cells.append(Cell("h1", 1, (0,)))
    mid_pos[1] = len(cells)
    cells.append(Cell("mid1", 0, mids[1]))
    done = []
    for cell in cells:
        if cell.dim == 0:
            done.append(cell)
        else:
            k = int(cell.label[1:])
            done.append(Cell(cell.label, 1, (0,),
                             ((mid_pos[k], (0,), 0), (vpos, (0,), 0))))
    return FinSimpGSet(g, done, truncation, ("one_isotropy", mids[1]))
