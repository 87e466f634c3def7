"""Fixed-point homology of simplicial tensor rings, over the integers.

Everything here works one subgroup at a time: carve the levelwise fixed
points of a simplicial ring out of the expanded additive groups, restrict
the face maps, and read homology off the resulting complex of finitely
generated abelian groups.  Two complexes are kept side by side:

* the normalized one, whose degree-n part is the intersection of the
  kernels of every face but the zeroth (the boundary is face 0 restricted),
* the unnormalized one, on the full fixed levels, with the alternating sum
  of all faces as boundary.

They compute the same homology; holding both turns that into an executable
cross-check rather than a fact we silently rely on.  The unnormalized
complex is built on first read (``LevelComplex.unnormalized``), so only the
cross-check pays for it.  The test suite keeps a third, still more
independent route at degree zero, the bare coequalizer of the two faces
(``tests/oracles.py``, ``oracle_h0``).

On top of the per-subgroup tables, ``mackey_homology`` assembles the
restriction, transfer, and conjugation maps between the fixed-point
homologies of all subgroups at once, so identities among them (transfer
followed by restriction, double-coset decompositions, conjugation acting
invertibly) can be checked by exhaustion on small groups.

Sizes are guarded the same way as everywhere else: any level whose expanded
rank would exceed the dense budget raises ``SizeBudgetExceeded``, which
callers are expected to report as a skip rather than swallow.  Expanded face
and action maps are column-sparse (``SparseMatrix``) and cached per
simplicial ring, so every subgroup reuses them; across rings,
``homology_tables`` builds one complex per distinct
``SimplicialGRing.expansion_key``, so rings that are one simplicial module
up to slot labels (the two sides of ``real_hochschild``) share a single
expansion, carving and Smith form.  A carving is one of two
kinds, each with a ``SparseMatrix`` lift: on free levels whose actions are
signed permutations (and on whole levels) the fixed points are orbit sums
(``_OrbitFixed``); elsewhere they are carved by Smith form
(``SubQuotient``).  The fixed carving happens once per level and the
normalized part is carved inside the fixed coordinates rather than back at
ambient size.  Sparse columns in, sparse columns out: the level relations
(``TensorRing.dense_group``, built once per level) and every carved
presentation are ``SparseMatrix``, the carving conditions reach the
Smith-form engine as sparse rows (``kernel_columns``), and the restricted
boundaries and chain maps are ``SparseMatrix`` all the way to
``ChainComplex`` and ``induced_map``.  Only maps between homology groups
(``induced_map``, ``MackeyH``) are dense ``IntMatrix``.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

from .exactalg import (ChainComplex, FgAbelianGroup, IntMatrix, PresentedAb,
                       SparseMatrix, SubQuotient, _condition_rows, induced_map,
                       kernel_columns)
from .fingroup import FiniteGroup
from .gring import DENSE_BUDGET


# ---------------------------------------------------------------------------
# carving subgroups out of presented levels


class _OrbitFixed:
    """Joint fixed points of signed-permutation actions on a free level.

    When every action matrix has exactly one entry, +-1, per column and the
    level carries no additive relations, the fixed subgroup has a basis of
    signed orbit sums; an orbit whose sign monodromy is -1 dies (2x = 0 has
    no free solutions).  That makes carving and expressing linear-time,
    bypassing the Smith-form machinery the general carving needs.  With no
    actions at all every orbit is a single point: the carving is the whole
    level ``pres``, relations included.
    """

    def __init__(self, pres: PresentedAb, perms: list[list[tuple[int, int]]]):
        rank = pres.ngens
        parent = list(range(rank))
        sign = [1] * rank  # sign relative to parent
        dead_roots: set[int] = set()

        def find(i: int) -> tuple[int, int]:
            path = []
            while parent[i] != i:
                path.append(i)
                i = parent[i]
            s = 1
            for j in reversed(path):
                s *= sign[j]
                parent[j] = i
                sign[j] = s
            return i, 1 if not path else sign[path[0]]

        for cols in perms:
            for j, (i, s) in enumerate(cols):
                # x_i = s * x_j must hold on fixed vectors
                ri, si = find(i)
                rj, sj = find(j)
                if ri == rj:
                    if si != s * sj:
                        dead_roots.add(ri)
                else:
                    parent[ri] = rj
                    sign[ri] = s * sj * si  # si is +-1, so this solves for ri
                    if ri in dead_roots:
                        dead_roots.discard(ri)
                        dead_roots.add(rj)

        orbits: dict[int, list[int]] = {}
        pot = [0] * rank
        for i in range(rank):
            r, s = find(i)
            orbits.setdefault(r, []).append(i)
            pot[i] = s
        cols = []
        self._head: dict[int, int] = {}  # head of a live orbit -> its column
        for r in sorted(orbits):
            if r in dead_roots:
                continue
            members = orbits[r]
            head = min(members)
            base = pot[head]
            cols.append([(m, pot[m] * base) for m in members])
            self._head[head] = len(self._head)
        self.lift = SparseMatrix(rank, cols)
        self.pres = pres if not perms else PresentedAb(len(cols))

    def express(self, col: list[tuple[int, int]]) -> Optional[list[tuple[int, int]]]:
        """Orbit-sum coordinates (each sum is 1 at its head), or None."""
        out = sorted((k, v) for i, v in col if (k := self._head.get(i)) is not None)
        back = self.lift @ SparseMatrix(self.lift.cols, [out])
        return out if back.data[0] == list(col) else None


Carved = Union[SubQuotient, _OrbitFixed]


def _joint_solution_span(rank: int, conds: list[tuple[SparseMatrix, SparseMatrix]]
                         ) -> Optional[list[list[tuple[int, int]]]]:
    """Sparse columns spanning all x in Z^rank with A @ x in the lattice of B, per (A, B).

    The solution set of each condition is the projection to the first
    ``rank`` coordinates of the kernel of ``[A | -B]``; stacking the
    conditions block-diagonally in the padding columns solves them jointly.
    ``None`` means no conditions survived (everything solves them).
    """
    conds = [(a, b) for (a, b) in conds if a.rows and any(a.data)]
    if not conds:
        return None
    width = rank + sum(b.cols for _, b in conds)
    return kernel_columns(_condition_rows(rank, conds), width, rank)


def _conditions_subquotient(rank: int, rels: SparseMatrix,
                            conds: list[tuple[SparseMatrix, SparseMatrix]]) -> Carved:
    """The joint solution set packaged as a subgroup of Z^rank / rels."""
    span = _joint_solution_span(rank, conds)
    if span is None:
        return _OrbitFixed(PresentedAb(rank, rels), [])
    return SubQuotient(rank, span + rels.data, rels.data)


def _restricted(dst: Carved, cols: SparseMatrix,
                dst_inner: Optional[Carved] = None) -> SparseMatrix:
    """The ambient columns ``cols`` written in the basis of a carved subgroup.

    Callers compose the map with the source lifts first, e.g.
    ``face @ fixed.lift @ reduced.lift``.  Given ``dst_inner``, a carving
    inside the fixed coordinates of ``dst``, the columns are written in its
    basis instead.
    """
    out = []
    for col in cols.data:
        coords = dst.express(col)
        if coords is not None and dst_inner is not None:
            coords = dst_inner.express(coords)
        if coords is None:
            raise ValueError("map does not carry the source subgroup into the target")
        out.append(coords)
    return SparseMatrix((dst if dst_inner is None else dst_inner).pres.ngens, out)


def _generating_subset(g: FiniteGroup, sub: Sequence[int]) -> list[int]:
    """A small generating set for sub; fixity only needs to be imposed there."""
    gens: list[int] = []
    have = (0,)
    for k in sorted(set(sub)):
        if k not in have:
            gens.append(k)
            have = g.subgroup_generated(gens)
    return gens


def _fixed_level(s, n: int, gens: Sequence[int], budget: int) -> Carved:
    pres = s.levels[n].tensor.dense_group(budget)
    mats = [s.expanded_act(n, k, budget) for k in gens]
    if not pres.relations.cols and all(len(col) == 1 and col[0][1] in (1, -1)
                                       for m in mats for col in m.data):
        return _OrbitFixed(pres, [[col[0] for col in m.data] for m in mats])
    ident = SparseMatrix.identity(pres.ngens)
    conds = [(m - ident, pres.relations) for m in mats]
    return _conditions_subquotient(pres.ngens, pres.relations, conds)


# ---------------------------------------------------------------------------
# the two complexes of one subgroup


class LevelComplex:
    """Fixed points of a simplicial ring under one subgroup, as complexes.

    ``fixed[n]`` carves the fixed part out of the expanded level;
    ``reduced[n]``, for n below the top, carves the intersection of the
    kernels of faces 1..n out of the *fixed coordinates* (so its lift
    composes with ``fixed[n].lift`` to reach ambient vectors).  The top level
    only ever contributes its boundary image, since homology there is out of
    range, so ``top_span`` keeps just spanning columns of that intersection
    (then the relation columns), with free generators on them in the
    normalized complex: an image is insensitive to redundancy among its
    spanning columns.  ``normalized`` and ``unnormalized`` are the
    corresponding chain complexes; ``max_level`` trims how far up the
    truncation is materialized.
    """

    def __init__(self, s, sub: Sequence[int], max_level: Optional[int] = None,
                 budget: int = DENSE_BUDGET):
        g: FiniteGroup = s.group
        sub = tuple(sorted(set(sub) | {0}))
        if not g.is_subgroup(sub):
            raise ValueError(f"{sub} is not a subgroup")
        top = s.top() if max_level is None else max_level
        if not 0 <= top <= s.top():
            raise ValueError("max_level outside the truncation")
        self.s = s
        self.sub = sub
        self.top = top
        self.budget = budget

        gens = _generating_subset(g, sub)
        self._rels = [s.levels[n].tensor.dense_group(budget).relations
                      for n in range(top)]  # where the faces land
        self.fixed: list[Carved] = [_fixed_level(s, n, gens, budget)
                                    for n in range(top + 1)]

        # level 0 has no faces to kill, so its carving is the whole level
        self.reduced: list[Carved] = [
            _conditions_subquotient(f.pres.ngens, f.pres.relations,
                                    self._face_conditions(n))
            for n, f in enumerate(self.fixed[:top])]
        rank = self.fixed[top].pres.ngens
        span = _joint_solution_span(rank, self._face_conditions(top))
        if span is None:
            span = SparseMatrix.identity(rank).data
        self.top_span = SparseMatrix(rank, span + self.fixed[top].pres.relations.data)

        norm = []
        inner = [r.lift for r in self.reduced] + [self.top_span]
        for n in range(1, top + 1):
            norm.append(_restricted(self.fixed[n - 1],
                                    self.face(n, 0) @ self.fixed[n].lift @ inner[n],
                                    self.reduced[n - 1]))
        self.normalized = ChainComplex(
            [r.pres for r in self.reduced] + [PresentedAb(self.top_span.cols)],
            norm)

    @cached_property
    def unnormalized(self) -> ChainComplex:
        """The alternating-sum complex on the full fixed levels, built (and
        checked, as ``normalized`` was) on first read: only the cross-check
        against the normalized complex reads it."""
        unnorm = []
        for n in range(1, self.top + 1):
            total = self.face(n, 0)
            for i in range(1, n + 1):
                term = self.face(n, i)
                total = total + term if i % 2 == 0 else total - term
            unnorm.append(_restricted(self.fixed[n - 1], total @ self.fixed[n].lift))
        return ChainComplex([f.pres for f in self.fixed], unnorm)

    def face(self, n: int, i: int) -> SparseMatrix:
        return self.s.expanded_face(n, i, self.budget)

    def _face_conditions(self, n: int) -> list[tuple[SparseMatrix, SparseMatrix]]:
        """Faces 1..n on the fixed coordinates of level n, each to vanish
        modulo the relations of level n - 1."""
        return [(self.face(n, i) @ self.fixed[n].lift, self._rels[n - 1])
                for i in range(1, n + 1)]

    def homology(self, k: int) -> FgAbelianGroup:
        self._check_degree(k)
        return self.normalized.homology(k)

    def homology_data(self, k: int) -> SubQuotient:
        self._check_degree(k)
        return self.normalized.homology_data(k)

    def unnormalized_homology(self, k: int) -> FgAbelianGroup:
        self._check_degree(k)
        return self.unnormalized.homology(k)

    def _check_degree(self, k: int) -> None:
        # degree ``top`` would be missing the boundary coming in from above
        if not 0 <= k <= self.top - 1:
            raise ValueError(f"degree {k} not below the materialized top {self.top}")


def feasible_degree(s, want: int, budget: int) -> int:
    """Largest degree <= want whose homology fits the dense budget; -1 when
    even degree zero does not fit."""
    k = -1
    for d in range(want + 1):
        if d + 1 > s.top():
            break
        if all(s.level_rank(l) <= budget for l in range(d + 2)):
            k = d
        else:
            break
    return k


def homology_tables(rings: Sequence, sub: Sequence[int], max_k: int,
                    budget: int = DENSE_BUDGET) -> list[list[FgAbelianGroup]]:
    """``homology_table`` of each ring, one complex per distinct module.

    Rings with equal ``expansion_key`` up to level max_k + 1 expand to the
    same faces, actions and levels, so they share one ``LevelComplex``;
    only the first of them is ever expanded.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    for s in rings:
        if max_k > s.top() - 1:
            raise ValueError(
                f"degree {max_k} needs level {max_k + 1}, beyond truncation {s.top()}")
    tables: dict[tuple, list[FgAbelianGroup]] = {}
    out = []
    for s in rings:
        key = s.expansion_key(max_k + 1)
        if key not in tables:
            lc = LevelComplex(s, sub, max_level=max_k + 1, budget=budget)
            tables[key] = [lc.homology(k) for k in range(max_k + 1)]
        out.append(list(tables[key]))
    return out


def homology_table(s, sub: Sequence[int], max_k: int,
                   budget: int = DENSE_BUDGET) -> list[FgAbelianGroup]:
    """Fixed-point homology in degrees 0..max_k.

    Requires max_k + 1 levels, so max_k must stay below the truncation.
    """
    return homology_tables([s], sub, max_k, budget)[0]


# ---------------------------------------------------------------------------
# all subgroups at once, with restriction / transfer / conjugation


def _relative_transversal(g: FiniteGroup, big: Sequence[int],
                          small: Sequence[int]) -> list[int]:
    """Coset representatives of small inside big, smallest element first."""
    reps = []
    covered: set[int] = set()
    for l in sorted(big):
        if l not in covered:
            reps.append(l)
            covered.update(g.mul(l, k) for k in small)
    return reps


def _double_coset_reps(g: FiniteGroup, left: Sequence[int], amb: Sequence[int],
                       right: Sequence[int]) -> list[int]:
    reps = []
    covered: set[int] = set()
    for l in sorted(amb):
        if l not in covered:
            reps.append(l)
            covered.update(g.mul(a, g.mul(l, b)) for a in left for b in right)
    return reps


@dataclass
class MackeyH:
    """Fixed-point homology of every requested subgroup in one degree.

    ``values`` maps each subgroup (as a sorted element tuple) to its
    homology; ``classes`` groups the subgroups by conjugacy.  The three
    structure maps are returned as integer matrices between the homology
    presentations; use ``maps_equal`` to compare them modulo relations.
    """

    degree: int
    group: FiniteGroup
    subgroups: list[tuple[int, ...]]
    classes: list[list[tuple[int, ...]]]
    values: dict[tuple[int, ...], FgAbelianGroup]
    _lc: dict[tuple[int, ...], "LevelComplex"] = field(repr=False, default_factory=dict)
    _hd: dict[tuple[int, ...], SubQuotient] = field(repr=False, default_factory=dict)

    def _key(self, sub: Sequence[int]) -> tuple[int, ...]:
        key = tuple(sorted(set(sub) | {0}))
        if key not in self._lc:
            raise ValueError(f"subgroup {key} was not included in this table")
        return key

    def _chain_matrix(self, src: tuple[int, ...], dst: tuple[int, ...],
                      level_map: Optional[SparseMatrix]) -> SparseMatrix:
        k = self.degree
        a, b = self._lc[src], self._lc[dst]
        cols = a.fixed[k].lift @ a.reduced[k].lift
        if level_map is not None:
            cols = level_map @ cols
        return _restricted(b.fixed[k], cols, b.reduced[k])

    def _act(self, sub: tuple[int, ...], elem: int) -> SparseMatrix:
        lc = self._lc[sub]
        return lc.s.expanded_act(self.degree, elem, lc.budget)

    def res(self, big: Sequence[int], small: Sequence[int]) -> IntMatrix:
        """Induced by the inclusion of fixed points, bigger subgroup to smaller."""
        big, small = self._key(big), self._key(small)
        if not set(small) <= set(big):
            raise ValueError("restriction goes from a subgroup to one contained in it")
        chain = self._chain_matrix(big, small, None)
        return induced_map(self._hd[big], self._hd[small], chain)

    def transfer(self, small: Sequence[int], big: Sequence[int]) -> IntMatrix:
        """Sum over coset translates, smaller subgroup to bigger."""
        small, big = self._key(small), self._key(big)
        if not set(small) <= set(big):
            raise ValueError("transfer goes from a subgroup to one containing it")
        reps = _relative_transversal(self.group, big, small)
        total = self._act(small, reps[0])
        for l in reps[1:]:
            total = total + self._act(small, l)
        chain = self._chain_matrix(small, big, total)
        return induced_map(self._hd[small], self._hd[big], chain)

    def conj(self, elem: int, sub: Sequence[int]) -> tuple[IntMatrix, tuple[int, ...]]:
        """Action of one group element, sub-fixed points to their conjugate's."""
        sub = self._key(sub)
        target = self._key(self.group.conjugate_subgroup(elem, sub))
        chain = self._chain_matrix(sub, target, self._act(sub, elem))
        return induced_map(self._hd[sub], self._hd[target], chain), target

    def maps_equal(self, target: Sequence[int], a: IntMatrix, b: IntMatrix) -> bool:
        pres = self._hd[self._key(target)].pres
        return all(pres.is_zero_element(c) for c in (a - b).columns())

    def double_coset_defects(self) -> list[str]:
        """Every failure of res(tr) = sum of tr(conj(res)) over double cosets.

        Exhausts all triples small <= amb >= other among the stored
        subgroups; empty means the identities all hold.
        """
        g = self.group
        bad = []
        for amb in self.subgroups:
            downs = [h for h in self.subgroups if set(h) <= set(amb)]
            for small in downs:
                for other in downs:
                    lhs = self.res(amb, small) @ self.transfer(other, amb)
                    rhs = None
                    for l in _double_coset_reps(g, small, amb, other):
                        meet_src = tuple(sorted(set(other)
                                                & set(g.conjugate_subgroup(g.inv(l), small))))
                        down = self.res(other, meet_src)
                        across, meet_dst = self.conj(l, meet_src)
                        up = self.transfer(meet_dst, small)
                        term = up @ across @ down
                        rhs = term if rhs is None else rhs + term
                    if not self.maps_equal(small, lhs, rhs):
                        bad.append(f"double coset identity fails: {small} <= {amb} >= {other}")
        return bad


def mackey_homology(s, k: int, subgroups: Optional[Sequence[Sequence[int]]] = None,
                    budget: int = DENSE_BUDGET) -> MackeyH:
    """Homology of every subgroup's fixed points in degree k, with maps.

    ``subgroups`` defaults to all of them; intersections of listed subgroups
    should be listed too if ``double_coset_defects`` is going to be called.
    """
    g: FiniteGroup = s.group
    if subgroups is None:
        subs = g.all_subgroups()
    else:
        subs = sorted({tuple(sorted(set(h) | {0})) for h in subgroups},
                      key=lambda h: (len(h), h))
        for h in subs:
            if not g.is_subgroup(h):
                raise ValueError(f"{h} is not a subgroup")
    wanted = set(subs)
    classes = [c for c in ([h for h in cls if h in wanted]
                           for cls in g.subgroup_classes()) if c]
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    lcs = {h: LevelComplex(s, h, max_level=k + 1, budget=budget) for h in subs}
    hds = {h: lc.homology_data(k) for h, lc in lcs.items()}
    values = {h: hd.pres.canonical() for h, hd in hds.items()}
    return MackeyH(degree=k, group=g, subgroups=list(subs), classes=classes,
                   values=values, _lc=lcs, _hd=hds)
