"""Fixed-point homology of simplicial tensor rings, over the integers.

Everything here works one subgroup at a time: carve the levelwise fixed
points of a simplicial ring out of the expanded additive groups, restrict
the face maps, and read homology off the resulting complex of finitely
generated abelian groups.  Two complexes are kept side by side:

* the normalized one, C^H / D(C^H), the quotient by the degenerate
  elements, on every level (see ``LevelComplex``), with the alternating sum
  of all faces as boundary: a free level with orbit-sum fixed points, whose
  expanded degeneracies are signed injections of basis vectors, drops the
  degenerate orbit sums, so no Smith form is spent on carving it; any other
  level keeps the fixed coordinates and takes the degenerate images as
  extra relations;
* the unnormalized one, on the full fixed levels, with the alternating sum
  of all faces as boundary.

They compute the same homology; holding both turns that into an executable
cross-check rather than a fact we silently rely on.  The unnormalized
complex is built on first read (``LevelComplex.unnormalized``), so only the
cross-check pays for it.  The test suite keeps a third, still more
independent route at degree zero, the bare coequalizer of the two faces
(``tests/oracles.py``, ``oracle_h0``), runs the Moore complex (there too) as
the quotient's oracle, and checks the H = e rows against the closed
form of HH_*(R[x]/(f)).

On top of the per-subgroup tables, ``mackey_homology`` assembles the
restriction, transfer, and conjugation maps between the fixed-point
homologies of all subgroups at once, so identities among them (transfer
followed by restriction, double-coset decompositions, conjugation acting
invertibly) can be checked by exhaustion on small groups.

Sizes are guarded here alone: ``LevelComplex`` raises ``SizeBudgetExceeded``
before expanding anything when a level's rank exceeds its budget, and
callers ask ``feasible_degree`` the same question first, reporting the
degrees past it as skips (``budget_skip``).  Expanded boundary, degeneracy
and action maps are column-sparse (``SparseMatrix``).  Boundaries and
actions are cached per simplicial ring, so every subgroup reuses them: one
alternating face sum per level (``SimplicialGRing.expanded_boundary``),
never its n + 1 faces, which are expanded and added in one at a time.  A
level's degeneracies are read once per complex and expanded there, one at
a time, so they are not held while higher levels are built.  Across rings,
``homology_tables`` builds one complex per distinct
``SimplicialGRing.expansion_key``, so rings that are one simplicial module
up to slot labels (the two sides of ``real_hochschild``) share a single
expansion, carving and Smith form.  A fixed carving is one of two kinds,
each with a ``SparseMatrix`` lift: on free levels whose actions are signed
permutations (and on whole levels) the fixed points are orbit sums
(``_OrbitFixed``); elsewhere they are carved by Smith form
(``SubQuotient``).  Either way fixity is imposed at H's generators alone,
``FiniteGroup.generating_sequence`` of H as a group (``subgroup_as_group``)
carried into G.  The fixed carving happens once per level, and the
normalized level (``_Normalized``) reuses its lift columns and its
``express`` rather than carving again at ambient size.  Sparse columns in,
sparse columns out: the level relations (``TensorRing.dense_group``, built
once per level) and every carved presentation are ``SparseMatrix``, the
carving conditions reach the Smith-form engine as sparse rows
(``smith.kernel_columns``), and the restricted boundaries and chain maps are
``SparseMatrix`` all the way to ``ChainComplex`` and ``induced_map``.  Only
maps between homology groups
(``induced_map``, ``MackeyH``) are dense ``IntMatrix``.  No whole product
of a map with a lift is held: ``_restricted`` expresses each column of
``map @ lift`` as soon as it is formed (``SparseMatrix.product_columns``),
for the boundaries of both complexes, the degenerate images and the
``MackeyH`` chain maps, and keeps only the coordinates.
"""

from functools import cached_property
from typing import Optional, Sequence, Union

from .exactalg import (ChainComplex, FgAbelianGroup, IntMatrix, PresentedAb,
                       SizeBudgetExceeded, SparseMatrix, SubQuotient,
                       _dedup_cols, induced_map)
from .fingroup import FiniteGroup, subgroup_as_group
from .gring import DENSE_BUDGET
from .smith import _condition_rows, kernel_columns


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
        # orbits are disjoint, so the named orbit columns rebuild col exactly
        back = sorted((m, s * v) for k, v in out for m, s in self.lift.data[k])
        return out if back == list(col) else None


Fixed = Union[SubQuotient, _OrbitFixed]


def _one_sign_per_column(mats: Sequence[SparseMatrix]) -> bool:
    """Does every column of every matrix hold exactly one entry, +-1?"""
    return all(len(col) == 1 and col[0][1] in (1, -1) for m in mats for col in m.data)


class _Normalized:
    """C^H_n / D(C^H)_n, the normalized level n, carved on ambient columns.

    ``lift`` holds the ambient columns of the fixed generators it keeps;
    ``express`` runs the fixed carving's ``express`` and drops the other
    coordinates.  Either ``dropped``, fixed coordinates spanning D(C^H)_n on
    a free level, leaves ``pres`` free on the rest, or ``degenerate``, the
    degenerate images in the fixed coordinates, joins the fixed relations.
    """

    def __init__(self, fixed: Fixed, dropped: set[int] = frozenset(),
                 degenerate: Sequence[list[tuple[int, int]]] = ()):
        self._fixed = fixed
        keep = [c for c in range(fixed.pres.ngens) if c not in dropped]
        self._pos = {c: i for i, c in enumerate(keep)} if dropped else None
        self.lift = SparseMatrix(fixed.lift.rows, [fixed.lift.data[c] for c in keep])
        self.pres = PresentedAb(len(keep), SparseMatrix(len(keep), _dedup_cols(
            fixed.pres.relations.data + list(degenerate))))

    def express(self, col: list[tuple[int, int]]) -> Optional[list[tuple[int, int]]]:
        coords = self._fixed.express(col)
        if coords is None or self._pos is None:
            return coords
        return [(i, v) for c, v in coords if (i := self._pos.get(c)) is not None]


Carved = Union[Fixed, _Normalized]


def _restricted(dst: Carved, m: SparseMatrix,
                lift: Optional[SparseMatrix] = None) -> SparseMatrix:
    """The ambient columns of ``m @ lift`` (of ``m`` without a lift) written
    in the basis of a carved subgroup.

    Each column of the product is expressed as soon as it is formed, and
    only the coordinates are kept: the whole ambient product, as large as
    the source lift times the map's fill, is never held.
    """
    out = []
    for col in m.data if lift is None else m.product_columns(lift):
        coords = dst.express(col)
        if coords is None:
            raise ValueError("map does not carry the source subgroup into the target")
        out.append(coords)
    return SparseMatrix(dst.pres.ngens, out)


def _fixed_level(s, n: int, gens: Sequence[int]) -> Fixed:
    pres = s.levels[n].tensor.dense_group()
    rank, rels = pres.ngens, pres.relations
    mats = [s.expanded_act(n, k) for k in gens]
    if not rels.cols and _one_sign_per_column(mats):
        return _OrbitFixed(pres, [[col[0] for col in m.data] for m in mats])
    ident = SparseMatrix.identity(rank)
    conds = [(a, rels) for m in mats if any((a := m - ident).data)]
    if not conds:
        return _OrbitFixed(pres, [])
    # x is fixed modulo the relations iff every (g - 1) x lies in their
    # lattice: the kernel of the stacked [g - 1 | -rels] rows, cut to Z^rank
    span = kernel_columns(_condition_rows(rank, conds),
                          rank + len(conds) * rels.cols, rank)
    return SubQuotient(rank, span + rels.data, rels.data)


# ---------------------------------------------------------------------------
# the two complexes of one subgroup


class LevelComplex:
    """Fixed points of a simplicial ring under one subgroup, as complexes.

    ``fixed[n]`` carves the fixed part C^H_n out of the expanded level.  The
    faces and degeneracies are equivariant, so C^H is a simplicial abelian
    group, and by Dold-Kan its normalized complex is the quotient
    C^H / D(C^H) by the degenerate part D(C^H)_n = sum_j s_j(C^H_(n-1)),
    with the alternating sum of all faces as boundary (Goerss-Jardine III.2,
    Loday 1.6); relations do not change this.  ``normalized`` is that
    complex on every level, and ``reduced[n]`` (a ``_Normalized``) carves
    its level n on ambient columns, choosing per level from the expanded
    degeneracies s_j into it:

    * A free level with orbit-sum fixed points (``_OrbitFixed``), where
      every s_j has exactly one entry, +-1, per column, drops the orbits
      whose heads the s_j hit.  Each im s_j is then spanned by basis
      vectors and H-stable (s_j is equivariant), so the live orbit sums
      inside it span (im s_j)^H, which is s_j(C^H) because s_j is
      injective; the dropped orbit sums span D(C^H)_n, and the kept ones
      are a basis of the quotient.  No Smith form is spent on carving.
    * Any other level (relations, as in zmod4 or group_ring_c2_mod2, keep
      the fixed points from being orbit sums; a unit that is not a basis
      vector, as in rotation_z3, keeps im s_j from being spanned by basis
      vectors) keeps the fixed coordinates and divides out the images of
      the s_j as relations.

    ``unnormalized`` is the alternating-sum complex on the full fixed
    levels; ``max_level`` trims how far up the truncation is materialized,
    and every level up to there must have rank at most ``budget``.
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
        over = _over_budget(s, top, budget)
        if over is not None:
            t = s.levels[over].tensor
            raise SizeBudgetExceeded(
                f"expanded rank {t.base.ngens}^{t.nslots} exceeds budget {budget}")
        self.s = s
        self.sub = sub
        self.top = top

        # fixity need only be imposed at generators: H's own generating
        # sequence, carried into G by its embedding
        local, emb = subgroup_as_group(g, sub)
        gens = [emb[k] for k in local.generating_sequence()]
        self.fixed: list[Fixed] = [_fixed_level(s, n, gens)
                                   for n in range(top + 1)]
        self.reduced = [self._normalized_level(n) for n in range(top + 1)]
        self.normalized = ChainComplex(
            [r.pres for r in self.reduced],
            [_restricted(self.reduced[n - 1], s.expanded_boundary(n), self.reduced[n].lift)
             for n in range(1, top + 1)])

    def _normalized_level(self, n: int) -> _Normalized:
        fixed = self.fixed[n]
        if isinstance(fixed, _OrbitFixed) and not fixed.pres.relations.cols:
            # one expanded degeneracy alive at a time, only its hits kept
            hit: set[int] = set()
            for d in self._degeneracies(n):
                if not _one_sign_per_column((d,)):
                    break
                hit.update(col[0][0] for col in d.data)
            else:
                return _Normalized(fixed, dropped={c for head, c in fixed._head.items()
                                                   if head in hit})
        return _Normalized(fixed, degenerate=[
            col for d in self._degeneracies(n)
            for col in _restricted(fixed, d, self.fixed[n - 1].lift).data])

    def _degeneracies(self, n: int):
        """The expanded degeneracies s_j into level n, each expanded only
        when it is read."""
        return (self.s.degeneracy(n - 1, j).sparse() for j in range(n))

    @cached_property
    def unnormalized(self) -> ChainComplex:
        """The alternating-sum complex on the full fixed levels, built (and
        checked, as ``normalized`` was) on first read: only the cross-check
        against the normalized complex reads it."""
        return ChainComplex(
            [f.pres for f in self.fixed],
            [_restricted(self.fixed[n - 1], self.s.expanded_boundary(n), self.fixed[n].lift)
             for n in range(1, self.top + 1)])

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


def _over_budget(s, top: int, budget: int) -> Optional[int]:
    """The lowest level <= top whose expanded rank exceeds the budget, or
    None when every one fits."""
    return next((n for n in range(top + 1) if s.level_rank(n) > budget), None)


def feasible_degree(s, want: int, budget: int) -> int:
    """Largest degree <= want whose complex, levels up to degree + 1, lies
    in the truncation and fits the budget; -1 when degree zero does not."""
    top = min(want + 1, s.top())
    over = _over_budget(s, top, budget)
    return (top if over is None else max(over - 1, 0)) - 1


def budget_skip(s, k: int, budget: int) -> str:
    """Why degree k, past ``feasible_degree``, is skipped."""
    return f"level rank {s.level_rank(k + 1)} exceeds the dense budget {budget}"


def homology_tables(rings: Sequence, sub: Sequence[int], max_k: int,
                    budget: int = DENSE_BUDGET) -> list[list[FgAbelianGroup]]:
    """``homology_table`` of each ring, one complex per distinct module.

    Rings with equal ``expansion_key`` up to level max_k + 1 expand to the
    same boundaries, actions and levels, so they share one ``LevelComplex``;
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
            # only the complex is kept: the carved lifts go before the Smith forms
            chains = LevelComplex(s, sub, max_level=max_k + 1, budget=budget).normalized
            tables[key] = [chains.homology(k) for k in range(max_k + 1)]
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


def _double_coset_reps(g: FiniteGroup, left: Sequence[int], amb: Sequence[int],
                       right: Sequence[int]) -> list[int]:
    reps = []
    covered: set[int] = set()
    for l in sorted(amb):
        if l not in covered:
            reps.append(l)
            covered.update(g.mul(a, g.mul(l, b)) for a in left for b in right)
    return reps


class MackeyH:
    """Fixed-point homology of every requested subgroup in one degree.

    ``values`` maps each subgroup (as a sorted element tuple) to its
    homology; ``classes`` groups the subgroups by conjugacy.  The three
    structure maps are returned as integer matrices between the homology
    presentations; use ``maps_equal`` to compare them modulo relations.
    Compared by value and unhashable, like a mutable record.
    """

    def __init__(self, degree: int, group: FiniteGroup, subgroups: list,
                 classes: list, values: dict[tuple[int, ...], FgAbelianGroup],
                 _lc: Optional[dict[tuple[int, ...], LevelComplex]] = None,
                 _hd: Optional[dict[tuple[int, ...], SubQuotient]] = None):
        self.degree, self.group, self.subgroups = degree, group, subgroups
        self.classes, self.values = classes, values
        self._lc, self._hd = _lc or {}, _hd or {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def _key(self, sub: Sequence[int]) -> tuple[int, ...]:
        key = tuple(sorted(set(sub) | {0}))
        if key not in self._lc:
            raise ValueError(f"subgroup {key} was not included in this table")
        return key

    def _chain_matrix(self, src: tuple[int, ...], dst: tuple[int, ...],
                      level_map: Optional[SparseMatrix]) -> SparseMatrix:
        k = self.degree
        a, b = self._lc[src], self._lc[dst]
        lift = a.reduced[k].lift
        if level_map is None:
            return _restricted(b.reduced[k], lift)
        return _restricted(b.reduced[k], level_map, lift)

    def _act(self, sub: tuple[int, ...], elem: int) -> SparseMatrix:
        return self._lc[sub].s.expanded_act(self.degree, elem)

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
        reps = _double_coset_reps(self.group, (0,), big, small)
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
