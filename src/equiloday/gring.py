"""Rings with finite group action and structured maps of their tensor powers.

The whole package runs on one representation trick.  Every ring that appears
in a norm, a group tensor power, or a simplicial level is a tensor power of a
single small presented ring R, with slots labeled by group data (elements,
cosets, coset pairs).  Every map that appears - group actions, counits,
coset-blocking, Weyl relabelings, conjugation switches, face and degeneracy
maps - sends each source tensor factor through a twist (an additive map of R)
into one target slot, where factors are multiplied in a recorded order.  A
``StructuredHom`` stores that routing verbatim, so maps compose and compare
exactly, with no dependence on the size of the expanded tensor power.  Maps
are expanded only on demand, with no size check of their own (the caller,
``homology.LevelComplex``, checks ranks first), into column-sparse matrices
(``StructuredHom.sparse``); the dense form (``StructuredHom.dense``) is a
conversion for the per-layer tracer and the test oracles.

A twist is a small integer id into the ``TwistTable`` of the base ring
(``PresentedRing.twists``), which holds its matrix exactly as given, the id
of its class modulo relations, and memoized products and inverses.  So
composing two maps is table lookups, and comparing them is comparing
``(slot, class id)`` tuples.  Rings that are equal by value share one table.

A twist carries an ``anti`` flag recording whether its matrix is a ring
homomorphism or an anti-homomorphism.  Composition through an anti twist
reverses the multiplication order it wraps; that is the whole content of the
flag.  Equality of maps ignores flags (equal matrices give equal additive
maps) but respects factor order unless the base ring is commutative, and a
module-level counter records every time a comparison actually had to invoke
commutativity, so pipelines meant to be order-safe can assert they never did.

Group actions (``RingWithAction``, ``GTensorRing``) are checked to be
multiplicative on generators only; see ``FiniteGroup.generator_pairs``.
A norm's action (``NormRing``) is multiplicative by construction whenever
its coefficient action is, so it is not checked again.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from .exactalg import (
    IntMatrix,
    PresentedAb,
    SmithSolver,
    SparseMatrix,
    hom_is_well_defined,
)
from .fingroup import FiniteGroup, GroupHom, subgroup_as_group

DENSE_BUDGET = 5000  # the default rank bound of homology.LevelComplex

IDENTITY_TWIST = 0  # the id of the identity matrix in every twist table

_commutativity_uses = 0


def reset_commutativity_uses():
    global _commutativity_uses
    _commutativity_uses = 0


def commutativity_uses() -> int:
    return _commutativity_uses


def _bump_commutativity():
    global _commutativity_uses
    _commutativity_uses += 1


# ---------------------------------------------------------------------------
# presented rings


def _basis(n: int) -> list[list[int]]:
    """The standard basis vectors of Z^n."""
    return [[int(k == i) for k in range(n)] for i in range(n)]


class PresentedRing:
    """Ring on finitely many additive generators over Z.

    Additively this is Z^ngens modulo the columns of ``relations``, a
    ``SparseMatrix``; the product is the bilinear extension of
    ``mult[i][j]``, a vector giving e_i * e_j in generator coordinates.
    """

    def __init__(self, ngens: int, relations: Optional[SparseMatrix],
                 mult: Sequence[Sequence[Sequence[int]]],
                 unit: Sequence[int],
                 gen_names: Optional[Sequence[str]] = None,
                 label: str = "R"):
        self.ab = PresentedAb(ngens, relations)
        self.ngens = ngens
        self.mult = tuple(tuple(tuple(int(v) for v in cell) for cell in row) for row in mult)
        self.unit = tuple(int(v) for v in unit)
        self.label = label
        self.gen_names = tuple(gen_names) if gen_names else tuple(f"x{i}" for i in range(ngens))
        if len(self.mult) != ngens or any(len(r) != ngens for r in self.mult):
            raise ValueError("mult table must be ngens x ngens")
        if any(len(c) != ngens for r in self.mult for c in r):
            raise ValueError("mult entries must be generator vectors")
        if len(self.unit) != ngens:
            raise ValueError("unit has wrong length")
        # the nonzero structure constants: _terms[i][j] lists (k, mult[i][j][k])
        self._terms = tuple(tuple(tuple((k, v) for k, v in enumerate(cell) if v)
                                  for cell in row) for row in self.mult)
        self._validate()
        self.commutative = all(self._same(self.mult[i][j], self.mult[j][i])
                               for i in range(ngens) for j in range(i))
        table = _TWIST_TABLES.get(self)
        if table is None:
            table = _TWIST_TABLES[self] = TwistTable(self.ab)
        self.twists = table

    def _same(self, x: Sequence[int], y: Sequence[int]) -> bool:
        """Do two generator vectors agree modulo the relations?"""
        return self.ab.is_zero_element([a - b for a, b in zip(x, y)])

    def _validate(self):
        mul, zero = self.vec_mul, self.ab.is_zero_element
        basis, unit = _basis(self.ngens), list(self.unit)
        # multiplication must descend to the quotient
        for rel in map(dict, self.ab.relations.data):
            col = [rel.get(i, 0) for i in range(self.ngens)]
            if not all(zero(mul(col, e)) and zero(mul(e, col)) for e in basis):
                raise ValueError("multiplication does not respect relations")
        for e in basis:
            if not self._same(mul(unit, e), e):
                raise ValueError("unit fails on the left")
            if not self._same(mul(e, unit), e):
                raise ValueError("unit fails on the right")
        for ei, ej, ek in product(basis, repeat=3):
            if not self._same(mul(mul(ei, ej), ek), mul(ei, mul(ej, ek))):
                raise ValueError("multiplication is not associative")

    def vec_mul(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """The reduced product; without relations reducing is the identity."""
        out = [0] * self.ngens
        v_nz = [(j, vj) for j, vj in enumerate(v) if vj]
        for ui, row in zip(u, self._terms):
            if ui:
                for j, vj in v_nz:
                    c = ui * vj
                    for k, w in row[j]:
                        out[k] += c * w
        return list(self.ab.reduce(out)) if self.ab.relations.data else out

    def reduce_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        return self.ab.reduce(v)

    def unit_vec(self) -> list[int]:
        return list(self.unit)

    def matrix_is_morphism(self, m: IntMatrix, anti: bool) -> bool:
        """Does the matrix define a ring (anti)homomorphism on the quotient?"""
        if m.rows != self.ngens or m.cols != self.ngens:
            return False
        if not hom_is_well_defined(self.ab, self.ab, m):
            return False
        if not self._same(m.apply(list(self.unit)), self.unit):
            return False
        for ei, ej in product(_basis(self.ngens), repeat=2):
            a, b = (ej, ei) if anti else (ei, ej)
            if not self._same(m.apply(self.vec_mul(ei, ej)),
                              self.vec_mul(m.apply(a), m.apply(b))):
                return False
        return True

    def __eq__(self, other):
        return self is other or (isinstance(other, PresentedRing)
                                 and self.ngens == other.ngens
                                 and self.ab.relations == other.ab.relations
                                 and self.mult == other.mult
                                 and self.unit == other.unit)

    def __hash__(self):
        return hash((self.ngens, self.mult, self.unit))

    def __repr__(self):
        return f"PresentedRing({self.label}, ngens={self.ngens})"


class TwistTable:
    """The twists of one presented ring, as small integer ids.

    ``matrices[t]`` is twist t's matrix exactly as it was first given, so
    anything printed from it (``--emit-complex``) keeps its bytes, and
    ``columns[t]`` holds its columns as tuples, built once for expansion.
    ``classes[t]`` is the id of its column-reduced form: two twists are
    the same additive map of the ring iff their classes agree (``same``).
    ``product`` memoizes per ordered pair of ids and interns the exact
    ``matrices[a] @ matrices[b]``; ``inverse`` is memoized too.  Id 0 is
    the identity (``IDENTITY_TWIST``).  Ids and class ids only ever name
    matrices: their numeric order decides nothing.
    """

    def __init__(self, ab: PresentedAb):
        self._ab = ab
        self.matrices: list[IntMatrix] = []
        self.columns: list[tuple] = []
        self.classes: list[int] = []
        self._ids: dict[tuple, int] = {}
        self._class_ids: dict[tuple, int] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._inverses: dict[int, Optional[int]] = {}
        self.intern(IntMatrix.identity(ab.ngens))

    def intern(self, m: IntMatrix) -> int:
        """The twist id of an r x r matrix."""
        key = tuple(map(tuple, m.data))
        t = self._ids.get(key)
        if t is None:
            r = self._ab.ngens
            if m.rows != r or m.cols != r:
                raise ValueError("twist matrix has wrong shape")
            reduced = tuple(self._ab.reduce(m.column(j)) for j in range(r))
            t = self._ids[key] = len(self.matrices)
            self.matrices.append(m)
            self.columns.append(tuple(zip(*m.data)))
            self.classes.append(self._class_ids.setdefault(reduced, len(self._class_ids)))
        return t

    def check(self, t: int):
        if not (isinstance(t, int) and 0 <= t < len(self.matrices)):
            raise ValueError(f"{t!r} is not a twist id of this ring")

    def same(self, a: int, b: int) -> bool:
        """Do the two twists agree modulo relations?"""
        return self.classes[a] == self.classes[b]

    def product(self, a: int, b: int) -> int:
        """The twist ``matrices[a] @ matrices[b]``."""
        t = self._products.get((a, b))
        if t is None:
            t = self._products[(a, b)] = self.intern(self.matrices[a] @ self.matrices[b])
        return t

    def inverse(self, t: int) -> int:
        """An inverse of an additively invertible twist, modulo relations:
        column i solves ``m x = e_i`` modulo them, all n through one Smith
        form of the sparse ``[m | relations]``."""
        if t not in self._inverses:
            n = self._ab.ngens
            m = self.matrices[t]
            solver = SmithSolver(SparseMatrix(n, SparseMatrix.from_cols(
                m.columns(), n).data + self._ab.relations.data))
            cols = [solver([(i, 1)]) for i in range(n)]
            self._inverses[t] = None if None in cols else self.intern(SparseMatrix(
                n, [[(k, v) for k, v in x if k < n] for x in cols]).to_dense())
        inv = self._inverses[t]
        if inv is None:
            raise ValueError("twist is not invertible modulo relations")
        return inv


# one table per presented ring value, so maps over equal rings share ids
_TWIST_TABLES: dict[PresentedRing, TwistTable] = {}


# ---------------------------------------------------------------------------
# rings with group action


class RingWithAction:
    """A presented ring together with a group acting by ring automorphisms
    and/or anti-automorphisms: one (twist id, anti flag) per element."""

    def __init__(self, group: FiniteGroup, ring: PresentedRing,
                 acts: Sequence[tuple[int, bool]], check: bool = True):
        if len(acts) != group.order:
            raise ValueError("need one action entry per group element")
        self.group = group
        self.ring = ring
        self.acts = [(t, bool(a)) for t, a in acts]
        if check:
            self._validate()

    def _validate(self):
        tw = self.ring.twists
        for t, _ in self.acts:
            tw.check(t)
        t0, a0 = self.acts[0]
        if a0 or not tw.same(t0, IDENTITY_TWIST):
            raise ValueError("identity element must act as the identity map")
        for g, (t, anti) in enumerate(self.acts):
            if not self.ring.matrix_is_morphism(tw.matrices[t], anti):
                raise ValueError(f"element {self.group.names[g]} does not act by a ring "
                                 f"{'anti-' if anti else ''}automorphism")
        # enough on generators (FiniteGroup.generator_pairs): matrix products
        # are associative, and agreeing mod relations is a congruence for
        # them because every action matrix was just checked to preserve the
        # relations
        for g, h in self.group.generator_pairs():
            tg, ag = self.acts[g]
            th, ah = self.acts[h]
            tgh, agh = self.acts[self.group.mul(g, h)]
            if (ag != ah) != agh:
                raise ValueError("anti flags are not multiplicative")
            if not tw.same(tw.product(tg, th), tgh):
                raise ValueError("action matrices are not multiplicative")

    def act_matrix(self, g: int) -> IntMatrix:
        return self.ring.twists.matrices[self.acts[g][0]]

    @staticmethod
    def trivial(group: FiniteGroup, ring: PresentedRing) -> "RingWithAction":
        return RingWithAction(group, ring, [(IDENTITY_TWIST, False)] * group.order,
                              check=False)

    def restrict(self, elems: Sequence[int]) -> tuple["RingWithAction", tuple[int, ...]]:
        """Restriction to a subgroup; returns the sub-action and the ambient
        indices of the subgroup's elements in its local order."""
        sub, emb = subgroup_as_group(self.group, elems)
        acts = [self.acts[x] for x in emb]
        return RingWithAction(sub, self.ring, acts, check=False), emb

    def pullback(self, phi: GroupHom) -> "RingWithAction":
        """Action of phi's source through phi: g acts as phi(g) did."""
        if phi.dst.order != self.group.order or phi.dst.table != self.group.table:
            raise ValueError("pullback along a map into a different group")
        acts = [self.acts[phi(g)] for g in range(phi.src.order)]
        return RingWithAction(phi.src, self.ring, acts, check=False)


# ---------------------------------------------------------------------------
# tensor powers with labeled slots


class TensorRing:
    """Tensor power of a base ring, slots labeled by hashable tags.

    Maps are expanded per map in StructuredHom.sparse.  The expanded
    additive group (``dense_group``) is built on first request and cached:
    every later call gets the same ``PresentedAb``, with its lattice and
    canonical form.
    """

    def __init__(self, base: PresentedRing, slots: Sequence):
        self.base = base
        self.slots = tuple(slots)
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("slot labels must be distinct")
        self._index = {s: i for i, s in enumerate(self.slots)}
        self._group: Optional[PresentedAb] = None

    @property
    def nslots(self) -> int:
        return len(self.slots)

    def slot_index(self, label) -> int:
        return self._index[label]

    def dense_group(self) -> PresentedAb:
        """The expanded additive group, relations included: each base
        relation in each slot, against every basis tuple of the others."""
        if self._group is None:
            n = self.base.ngens
            rank = n ** self.nslots
            cols = []
            for pos in range(self.nslots):
                outer = n ** pos
                inner = n ** (self.nslots - pos - 1)
                cols += [[((o * n + k) * inner + i, v) for k, v in rc]
                         for rc in self.base.ab.relations.data
                         for o in range(outer) for i in range(inner)]
            self._group = PresentedAb(rank, SparseMatrix(rank, cols))
        return self._group

    def basis_tuples(self):
        return product(range(self.base.ngens), repeat=self.nslots)

    def __eq__(self, other):
        return self is other or (isinstance(other, TensorRing) and self.base == other.base
                                 and self.slots == other.slots)

    def __hash__(self):
        return hash((self.base, self.slots))

    def __repr__(self):
        return f"TensorRing({self.base.label}^(x){self.nslots})"


# ---------------------------------------------------------------------------
# structured homomorphisms


class StructuredHom:
    """Additive map between tensor powers of one base ring.

    ``targets[t]`` is the ordered list of (source slot index, twist id,
    anti flag) whose twisted factors are multiplied, left to right, to fill
    target slot t.  Twist ids index ``src.base.twists``.  Every source slot
    appears exactly once across all target lists; an empty list inserts the
    unit.

    ``check=True`` normalizes every entry to ``(int, int, bool)`` and
    validates the routing.  ``check=False`` is for builders that already
    meet that contract: one list per target slot, each source slot used
    once, every entry a ``(slot, twist id, anti)`` tuple of an int, a twist
    id of the base ring and a bool.  The entries are then stored as given.
    """

    __slots__ = ("src", "dst", "targets", "_reduced")

    def __init__(self, src: TensorRing, dst: TensorRing,
                 targets: Sequence[Sequence[tuple[int, int, bool]]],
                 check: bool = True):
        if src.base is not dst.base and src.base != dst.base:
            raise ValueError("source and target must share a base ring")
        self.src = src
        self.dst = dst
        self._reduced = None
        if not check:
            self.targets = tuple(map(tuple, targets))
            return
        self.targets = tuple(tuple((int(s), t, bool(a)) for s, t, a in lst)
                             for lst in targets)
        if len(self.targets) != dst.nslots:
            raise ValueError("one target list per target slot required")
        used = [s for lst in self.targets for (s, _, _) in lst]
        if sorted(used) != list(range(src.nslots)):
            raise ValueError("each source slot must be used exactly once")
        for lst in self.targets:
            for _, t, _ in lst:
                src.base.twists.check(t)

    @staticmethod
    def identity(tr: TensorRing) -> "StructuredHom":
        return StructuredHom(tr, tr, [[(i, IDENTITY_TWIST, False)] for i in range(tr.nslots)],
                             check=False)

    @staticmethod
    def from_routes(src: TensorRing, dst: TensorRing,
                    routes: Sequence[tuple[object, object, int, bool]],
                    check: bool = True) -> "StructuredHom":
        """Build from (source label, target label, twist id, anti) tuples.

        Routes landing in one target slot are multiplied in listed order.
        """
        lists: list[list[tuple[int, int, bool]]] = [[] for _ in dst.slots]
        for s_label, t_label, t, a in routes:
            lists[dst.slot_index(t_label)].append((src.slot_index(s_label), t, a))
        return StructuredHom(src, dst, lists, check=check)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "StructuredHom") -> "StructuredHom":
        """self after inner."""
        if inner.dst != self.src:
            raise ValueError("composition mismatch")
        product = self.src.base.twists.product
        new_targets = []
        for lst in self.targets:
            out: list[tuple[int, int, bool]] = []
            for s_mid, m, a in lst:
                spliced = [(s0, product(m, n), a != b) for (s0, n, b) in inner.targets[s_mid]]
                if a:
                    spliced.reverse()
                out.extend(spliced)
            new_targets.append(out)
        return StructuredHom(inner.src, self.dst, new_targets, check=False)

    # -- comparison ------------------------------------------------------------

    def reduced_form(self):
        """Targets as (source slot, twist class) pairs.  Flags are dropped:
        they never change the additive map."""
        if self._reduced is None:
            classes = self.src.base.twists.classes
            self._reduced = tuple(tuple((s, classes[t]) for s, t, _ in lst)
                                  for lst in self.targets)
        return self._reduced

    def __eq__(self, other):
        if not isinstance(other, StructuredHom):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        a = self.reduced_form()
        b = other.reduced_form()
        if a == b:
            return True
        if not self.src.base.commutative:
            return False
        a_sorted = tuple(tuple(sorted(lst)) for lst in a)
        b_sorted = tuple(tuple(sorted(lst)) for lst in b)
        if a_sorted == b_sorted:
            _bump_commutativity()
            return True
        return False

    __hash__ = None  # type: ignore[assignment]

    # -- structure certificates -------------------------------------------------

    def is_slotwise(self) -> bool:
        """Every target receives exactly one source factor."""
        return all(len(lst) == 1 for lst in self.targets)

    def slot_permutation(self) -> Optional[dict]:
        """Source label -> target label map when the hom is slotwise."""
        if not self.is_slotwise():
            return None
        return {self.src.slots[lst[0][0]]: self.dst.slots[t]
                for t, lst in enumerate(self.targets)}

    def is_relabeling_iso(self) -> bool:
        """Slotwise with every twist additively invertible mod relations."""
        if not self.is_slotwise():
            return False
        twists = self.src.base.twists
        for lst in self.targets:
            try:
                twists.inverse(lst[0][1])
            except ValueError:
                return False
        return True

    def inverse(self) -> "StructuredHom":
        if not self.is_slotwise():
            raise ValueError("only slotwise maps invert structurally")
        twists = self.src.base.twists
        targets: list[Optional[tuple[int, int, bool]]] = [None] * self.src.nslots
        for t, lst in enumerate(self.targets):
            s, m, a = lst[0]
            targets[s] = (t, twists.inverse(m), a)
        return StructuredHom(self.dst, self.src, [[e] for e in targets], check=False)

    # -- dense expansion ---------------------------------------------------------

    def apply_basis(self, idx: Sequence[int]) -> list[int]:
        """Dense image of one source basis tuple, without building the matrix."""
        base = self.src.base
        columns = base.twists.columns
        col = [1]
        for lst in self.targets:
            if not lst:
                vec = base.unit_vec()
            else:
                vec = None
                for s, t, _ in lst:
                    w = columns[t][idx[s]]
                    vec = w if vec is None else base.vec_mul(vec, w)
                vec = list(base.reduce_vec(vec))
            col = [c * vj for c in col for vj in vec]
        return col

    def sparse(self) -> SparseMatrix:
        """Matrix on expanded tensor bases (slot 0 most significant).

        Column ``idx`` is the Kronecker product, over target slots, of the
        reduced product of the twisted factors routed there.  It is built
        one target slot at a time, for every column at once.  For each
        combination of the source indices routed to a slot, the product is
        computed once; its nonzeros become terms ``(column offset, row
        digit, value)``, the offset being that combination's share of the
        column index.  Every partial entry ``(column, row, value)`` is
        extended by every term of the slot, in that loop order, so each
        column's entries stay in increasing row order.  After the last slot
        the intermediate list holds one 3-tuple per final nonzero, and the
        entries are dealt into their columns.
        """
        base = self.src.base
        columns = base.twists.columns
        r = base.ngens
        nrows = r ** self.dst.nslots
        ncols = r ** self.src.nslots
        entries = [(0, 0, 1)]
        for lst in self.targets:
            twist_cols = [columns[t] for _, t, _ in lst]
            places = [r ** (self.src.nslots - 1 - s) for s, _, _ in lst]
            terms = []
            for key in product(range(r), repeat=len(lst)):
                dense = None
                for tw, j in zip(twist_cols, key):
                    dense = tw[j] if dense is None else base.vec_mul(dense, tw[j])
                dense = base.unit_vec() if dense is None else base.reduce_vec(dense)
                offset = sum(j * p for j, p in zip(key, places))
                terms += [(offset, k, v) for k, v in enumerate(dense) if v]
            entries = [(col + p, row * r + k, c * v)
                       for col, row, c in entries for p, k, v in terms]
        cols = [[] for _ in range(ncols)]
        for col, row, v in entries:
            cols[col].append((row, v))
        return SparseMatrix(nrows, cols)

    def dense(self) -> IntMatrix:
        """``sparse`` converted to a dense matrix.

        The homology code works on the sparse form.  This conversion is the
        dense expansion the per-layer tracer (``perfbench/tracer.py``) wraps,
        and the test oracles compare maps through it.
        """
        return self.sparse().to_dense()


# ---------------------------------------------------------------------------
# group-equivariant tensor rings


class GTensorRing:
    """A tensor ring together with a group acting by structured maps."""

    def __init__(self, group: FiniteGroup, tensor: TensorRing,
                 action: Sequence[StructuredHom], check: bool = True):
        if len(action) != group.order:
            raise ValueError("need one structured map per group element")
        self.group = group
        self.tensor = tensor
        self.action = list(action)
        if check:
            ident = StructuredHom.identity(tensor)
            if self.action[0] != ident:
                raise ValueError("identity must act as the identity map")
            for f in self.action:
                if f.src != tensor or f.dst != tensor:
                    raise ValueError("action maps must be endomorphisms of the tensor ring")
            # enough on generators (FiniteGroup.generator_pairs): compose is
            # associative, and structural equality is a congruence for it
            # since equal twist classes stay equal under products with
            # relation-preserving twists, and a commutative reordering within
            # a slot is carried along by splicing
            for g, h in group.generator_pairs():
                if self.action[g].compose(self.action[h]) != self.action[group.mul(g, h)]:
                    raise ValueError(
                        f"action not multiplicative at "
                        f"({group.names[g]}, {group.names[h]})")

    def act(self, g: int) -> StructuredHom:
        return self.action[g]


def is_equivariant(f: StructuredHom, src: GTensorRing, dst: GTensorRing) -> bool:
    return not equivariance_defect(f, src, dst)


def equivariance_defect(f: StructuredHom, src: GTensorRing,
                        dst: GTensorRing) -> list[int]:
    """Group elements on which f fails to intertwine the two actions."""
    if src.group.table != dst.group.table:
        raise ValueError("actions live over different groups")
    bad = []
    for g in range(src.group.order):
        if f.compose(src.act(g)) != dst.act(g).compose(f):
            bad.append(g)
    return bad


# ---------------------------------------------------------------------------
# builders: group tensor powers


def group_power_ring(group: FiniteGroup, base: PresentedRing) -> TensorRing:
    """Tensor power with one slot per group element, labeled by index."""
    return TensorRing(base, tuple(range(group.order)))


def flip_power(group: FiniteGroup, base: PresentedRing) -> GTensorRing:
    """Group permuting its own tensor coordinates by left translation: the
    diagonal power of the trivial action."""
    return diagonal_power(RingWithAction.trivial(group, base))


def diagonal_power(rwa: RingWithAction) -> GTensorRing:
    """Left translation on slots combined with the coefficient action."""
    group = rwa.group
    tr = group_power_ring(group, rwa.ring)
    action = []
    for g in range(group.order):
        ginv = group.inv(g)
        m, a = rwa.acts[g]
        targets = [[(group.mul(ginv, t), m, a)] for t in range(group.order)]
        action.append(StructuredHom(tr, tr, targets, check=False))
    return GTensorRing(group, tr, action)


def flip_to_diagonal(rwa: RingWithAction) -> StructuredHom:
    """The untwisting isomorphism from the flip power to the diagonal power:
    the factor in slot g goes through the action of g."""
    tr = group_power_ring(rwa.group, rwa.ring)
    targets = [[(g, *rwa.acts[g])] for g in range(rwa.group.order)]
    return StructuredHom(tr, tr, targets, check=False)


def single_slot_ring(rwa: RingWithAction) -> GTensorRing:
    """The coefficient itself, as a one-slot tensor ring with its action."""
    tr = TensorRing(rwa.ring, ("*",))
    action = [StructuredHom(tr, tr, [[(0, m, a)]], check=False) for m, a in rwa.acts]
    return GTensorRing(rwa.group, tr, action)


def multiply_out_diagonal(rwa: RingWithAction) -> StructuredHom:
    """Multiply all coordinates of the group power, in element-index order:
    the twisted multiplication out of the flip power at the trivial action.

    Descends to an equivariant map out of the diagonal power.  Demands a
    commutative base: the product forgets the coordinate order.
    """
    return multiply_out_flip(RingWithAction.trivial(rwa.group, rwa.ring))


def multiply_out_flip(rwa: RingWithAction) -> StructuredHom:
    """Twisted total multiplication out of the flip power: the slot-g factor
    goes through the action of g before multiplying, in element-index order."""
    if not rwa.ring.commutative:
        raise ValueError("total multiplication needs a commutative base ring")
    tr = group_power_ring(rwa.group, rwa.ring)
    one = TensorRing(rwa.ring, ("*",))
    targets = [[(g, *rwa.acts[g]) for g in range(rwa.group.order)]]
    return StructuredHom(tr, one, targets, check=False)


# ---------------------------------------------------------------------------
# builders: norms (tensor induction)


class NormRing:
    """Tensor induction of a subgroup ring to the full group.

    Slots are indexed by left cosets of the subgroup, in minimal-element
    order.  The ambient group acts by permuting cosets, twisting each factor
    by the subgroup action of the transversal defect
    c(gC)^-1 g c(C), which lies in the subgroup.
    """

    def __init__(self, group: FiniteGroup, sub_elems: Sequence[int],
                 rwa: RingWithAction):
        self.group = group
        self.sub = tuple(sorted(set(sub_elems)))
        if not group.is_subgroup(self.sub):
            raise ValueError("not a subgroup")
        if rwa.group.order != len(self.sub):
            raise ValueError("coefficient action is over a group of the wrong order")
        self.rwa = rwa
        self._pos = {x: i for i, x in enumerate(self.sub)}
        self.cosets = group.left_cosets(self.sub)
        self.transversal = group.transversal(self.sub)
        self.coset_of = group.coset_index(self.sub)
        self.tensor = TensorRing(rwa.ring, tuple(range(len(self.cosets))))
        action = []
        mul, inv, tr = group.mul, group.inv, self.transversal
        for g in range(group.order):
            targets = []
            for c in tr:
                s = self.coset_of[mul(inv(g), c)]
                m, a = rwa.acts[self._pos[mul(mul(inv(c), g), tr[s])]]
                targets.append([(s, m, a)])
            action.append(StructuredHom(self.tensor, self.tensor, targets, check=False))
        # Valid by construction when the coefficient action is multiplicative
        # on the subgroup itself, so then not re-validated.  RingWithAction
        # checked it on rwa.group's table, which is the subgroup's when the
        # two agree in ascending ambient order (the numbering _pos reads).
        # Write c_t for transversal[t] and act(h) for the coefficient action.
        # Element g fills target slot t from slot s = [g^-1 c_t], twisted by
        # act(c_t^-1 g c_s).  Composing g after g' fills slot t from
        # s' = [g'^-1 c_s] = [(g g')^-1 c_t], twisted by
        # act(c_t^-1 g c_s) act(c_s^-1 g' c_s') = act(c_t^-1 (g g') c_s')
        # (anti flags multiply with the action): exactly what g g' does.
        # At g = e, s = t and the twist is act(e), the identity.  A table
        # that differs (an order-4 cyclic action on a Klein four isotropy,
        # say) proves nothing, and the induced action is checked in full.
        table = tuple(tuple(self._pos[group.mul(a, b)] for b in self.sub)
                      for a in self.sub)
        self.gt = GTensorRing(group, self.tensor, action,
                              check=rwa.group.table != table)

    def act_of(self, h: int) -> tuple[int, bool]:
        """Coefficient action (twist id, anti) at a subgroup element given by
        ambient index."""
        return self.rwa.acts[self._pos[h]]

    def __repr__(self):
        return (f"NormRing({self.group.label}, |H|={len(self.sub)}, "
                f"{len(self.cosets)} cosets)")


def tensor_induce(group: FiniteGroup, sub_elems: Sequence[int],
                  rwa: RingWithAction) -> NormRing:
    return NormRing(group, sub_elems, rwa)


# ---------------------------------------------------------------------------
# builders: coset blocking


def blocked_ring(group: FiniteGroup, sub_elems: Sequence[int],
                 base: PresentedRing) -> TensorRing:
    """Group power re-indexed by (coset index, subgroup element) pairs."""
    sub = tuple(sorted(set(sub_elems)))
    k = group.order // len(sub)
    return TensorRing(base, tuple((c, h) for c in range(k) for h in sub))


def coset_blocking(group: FiniteGroup, sub_elems: Sequence[int],
                   base: PresentedRing) -> StructuredHom:
    """Relabeling of the group power along g = c(gH) * h: slot g goes to
    (coset of g, c(gH)^-1 g), with no twist."""
    sub = tuple(sorted(set(sub_elems)))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    src = group_power_ring(group, base)
    dst = blocked_ring(group, sub, base)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    routes = []
    for g in range(group.order):
        c = coset_of[g]
        h = group.mul(group.inv(transversal[c]), g)
        routes.append((g, (c, h), IDENTITY_TWIST, False))
    return StructuredHom.from_routes(src, dst, routes)


def blocked_flip(group: FiniteGroup, sub_elems: Sequence[int],
                 base: PresentedRing) -> GTensorRing:
    """Induced action on the blocked power when the inner blocks carry the
    flip action, (C, h) -> (gC, kh) with k the transversal defect: the
    blocked diagonal of the trivial action."""
    return blocked_diagonal(group, sub_elems, RingWithAction.trivial(group, base))


def blocked_diagonal(group: FiniteGroup, sub_elems: Sequence[int],
                     rwa_full: RingWithAction) -> GTensorRing:
    """Induced action when the inner blocks carry the diagonal action of the
    subgroup: same slot shuffle, each block twisted by its defect's action."""
    sub = tuple(sorted(set(sub_elems)))
    sub_rwa, _ = rwa_full.restrict(sub)
    pos = {x: i for i, x in enumerate(sub)}
    tr = blocked_ring(group, sub, rwa_full.ring)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    action = []
    for g in range(group.order):
        routes = []
        for c in range(len(transversal)):
            t = coset_of[group.mul(g, transversal[c])]
            k = group.mul(group.mul(group.inv(transversal[t]), g), transversal[c])
            m, a = sub_rwa.acts[pos[k]]
            for h in sub:
                routes.append(((c, h), (t, group.mul(k, h)), m, a))
        action.append(StructuredHom.from_routes(tr, tr, routes, check=False))
    return GTensorRing(group, tr, action)


def blocking_diagonal_certificate(group: FiniteGroup, sub_elems: Sequence[int],
                                  rwa: RingWithAction):
    """Compare the two diagonal-side composites around the blocking map.

    For each group element g the composite through the source diagonal twists
    every factor by act(g); the composite through the blocked diagonal twists
    the factors of block C by act(k_C) with k_C = c(gC)^-1 g c(C).  Both have
    the same slot shuffle.  Returns (defect, witness) where defect lists the
    g with any mismatched block and witness maps (g, coset) -> k_C.
    """
    sub = tuple(sorted(set(sub_elems)))
    xi = coset_blocking(group, sub, rwa.ring)
    src = diagonal_power(rwa)
    dst = blocked_diagonal(group, sub, rwa)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    twists = rwa.ring.twists
    defect = []
    witness = {}
    for g in range(group.order):
        left = xi.compose(src.act(g))
        right = dst.act(g).compose(xi)
        assert left.slot_permutation() == right.slot_permutation(), \
            "blocking changed the slot shuffle"
        mism = False
        for c in range(len(transversal)):
            t = coset_of[group.mul(g, transversal[c])]
            k = group.mul(group.mul(group.inv(transversal[t]), g), transversal[c])
            witness[(g, c)] = k
            if not twists.same(rwa.acts[k][0], rwa.acts[g][0]):
                mism = True
        if mism:
            assert left != right, "twist mismatch did not break the comparison"
            defect.append(g)
        else:
            assert left == right, "matching twists failed to agree"
    return defect, witness


# ---------------------------------------------------------------------------
# builders: Weyl relabeling, conjugation switch


def weyl_relabeling(norm: NormRing, gamma: int) -> StructuredHom:
    """Weyl self-map of a norm: coset translation C -> C gamma^-1, each
    factor twisted by the transversal defect gamma^-1 c(C gamma^-1)^-1 c(C),
    an honest subgroup element.

    Requires gamma to normalize the subgroup and conjugation by gamma to
    fix the coefficient action pointwise, so the translated norm is the
    same norm and the map is a self-map (otherwise the conjugate switch is
    the only option).  The defect twists are forced: the bare untwisted
    translation fails to commute with the ambient action already for an
    index-2 subgroup of the rotation four-group acting by conjugation on
    the Gaussian integers.  On trivially-acting coefficients the twists
    vanish and subgroup elements give the identity, so the map depends on
    gamma only through its coset; in general a subgroup element h acts by
    the inner twist act(h^-1) in every slot.  gamma -> [gamma] is
    multiplicative and each [gamma] commutes with the ambient action and
    with every coefficient morphism.
    """
    g = norm.group
    sub = norm.sub
    if g.conjugate_subgroup(gamma, sub) != sub:
        raise ValueError("element does not normalize the subgroup")
    twists = norm.rwa.ring.twists
    for h in sub:
        hh = g.conj(gamma, h)
        m1, a1 = norm.act_of(hh)
        m2, a2 = norm.act_of(h)
        if a1 != a2 or not twists.same(m1, m2):
            raise ValueError(
                "conjugation by the element moves the coefficient action; "
                "the relabeling would land on a different norm")
    ginv = g.inv(gamma)
    routes = []
    for c in range(len(norm.cosets)):
        rep = norm.transversal[c]
        t = norm.coset_of[g.mul(rep, ginv)]
        h = g.mul(ginv, g.mul(g.inv(norm.transversal[t]), rep))
        m, a = norm.act_of(h)
        routes.append((c, t, m, a))
    return StructuredHom.from_routes(norm.tensor, norm.tensor, routes, check=False)


def conjugate_switch(norm: NormRing, gamma: int) -> tuple[NormRing, StructuredHom]:
    """Move a norm to the conjugate subgroup gamma H gamma^-1.

    The coefficient is pulled back along x -> gamma^-1 x gamma and each coset
    C goes to C gamma^-1 with the twist act(gamma^-1 c'(C gamma^-1)^-1 c(C)),
    an honest subgroup element.  Equivariant for every gamma and H.
    """
    g = norm.group
    sub = norm.sub
    new_sub = g.conjugate_subgroup(gamma, sub)
    new_local, new_emb = subgroup_as_group(g, new_sub)
    old_local, old_emb = subgroup_as_group(g, sub)
    old_pos = {x: i for i, x in enumerate(old_emb)}
    ginv = g.inv(gamma)
    conj_down = GroupHom(new_local, old_local,
                         [old_pos[g.conj(ginv, new_emb[i])] for i in range(new_local.order)],
                         check=False)
    new_rwa = norm.rwa.pullback(conj_down)
    new_norm = NormRing(g, new_sub, new_rwa)
    routes = []
    for c in range(len(norm.cosets)):
        rep = norm.transversal[c]
        t = new_norm.coset_of[g.mul(rep, ginv)]
        cprime = new_norm.transversal[t]
        h = g.mul(ginv, g.mul(g.inv(cprime), rep))
        m, a = norm.act_of(h)
        routes.append((c, t, m, a))
    f = StructuredHom.from_routes(norm.tensor, new_norm.tensor, routes, check=False)
    return new_norm, f


# ---------------------------------------------------------------------------
# builders: projections


def norm_projection(src: NormRing, dst: NormRing, u: int = 0) -> StructuredHom:
    """Induced map of norms along the coset collapse gK -> guL, for K inside
    the u-conjugate of L.

    The fiber over a target coset T consists of the source cosets C with
    c(C) u in T; each contributes its factor twisted by the target action of
    d = c(T)^-1 c(C) u, and the fiber multiplies in increasing d order.
    Demands matching coefficients: the source action at k must equal the
    target action at u^-1 k u.
    """
    g = src.group
    if g.table != dst.group.table:
        raise ValueError("norms live over different groups")
    uinv = g.inv(u)
    for k in src.sub:
        if g.conj(uinv, k) not in dst.sub:
            raise ValueError("source isotropy does not land in the target isotropy")
    ring = src.rwa.ring
    if ring != dst.rwa.ring:
        raise ValueError("norms have different base rings")
    for k in src.sub:
        m1, a1 = src.act_of(k)
        m2, a2 = dst.act_of(g.conj(uinv, k))
        if a1 != a2 or not ring.twists.same(m1, m2):
            raise ValueError("coefficient actions do not match along the collapse")
    entries: list[list[tuple[int, int, int, bool]]] = [[] for _ in dst.cosets]
    for c in range(len(src.cosets)):
        rep = src.transversal[c]
        t = dst.coset_of[g.mul(rep, u)]
        d = g.mul(g.inv(dst.transversal[t]), g.mul(rep, u))
        m, a = dst.act_of(d)
        entries[t].append((d, c, m, a))
    targets = []
    for lst in entries:
        lst.sort(key=lambda e: e[0])
        targets.append([(c, m, a) for (_, c, m, a) in lst])
    return StructuredHom(src.tensor, dst.tensor, targets, check=False)


def tensor_of_actions(group: FiniteGroup,
                      parts: Sequence[tuple[object, GTensorRing]]) -> GTensorRing:
    """Tensor product of equivariant tensor rings over one group.

    Slots become (tag, original label); the action routes each block through
    its own action with twists kept.  Tags must be distinct.
    """
    if not parts:
        raise ValueError("empty tensor product")
    base = parts[0][1].tensor.base
    slots = []
    for tag, gt in parts:
        if gt.group.table != group.table:
            raise ValueError("parts live over different groups")
        if gt.tensor.base != base:
            raise ValueError("parts have different base rings")
        slots.extend((tag, s) for s in gt.tensor.slots)
    tr = TensorRing(base, slots)
    action = []
    for g in range(group.order):
        targets = []
        for tag, gt in parts:
            offset = {s: tr.slot_index((tag, s)) for s in gt.tensor.slots}
            part_map = gt.act(g)
            for t_local, lst in enumerate(part_map.targets):
                tlabel = gt.tensor.slots[t_local]
                targets.append((offset[tlabel],
                                [(offset[gt.tensor.slots[s]], m, a) for s, m, a in lst]))
        ordered = [None] * tr.nslots
        for pos, lst in targets:
            ordered[pos] = lst
        action.append(StructuredHom(tr, tr, ordered, check=False))
    return GTensorRing(group, tr, action, check=False)
