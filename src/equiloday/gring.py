"""Rings with finite group action and structured maps of their tensor powers.

The whole package runs on one representation trick.  Every ring that appears
in a norm, a group tensor power, or a simplicial level is a tensor power of a
single small presented ring R, with slots labeled by group data (elements,
cosets, coset pairs).  Every map that appears - group actions, counits,
coset-blocking, Weyl relabelings, conjugation switches, face and degeneracy
maps - sends each source tensor factor through a twist (an additive map of R
recorded as a matrix) into one target slot, where factors are multiplied in a
recorded order.  A ``StructuredHom`` stores that routing verbatim, so maps
compose and compare exactly, with no dependence on the size of the expanded
tensor power.  Maps are expanded only on demand, under a budget, into
column-sparse matrices (``StructuredHom.sparse``); the dense form
(``StructuredHom.dense``) is a conversion kept for oracles and tests.

A twist carries an ``anti`` flag recording whether its matrix is a ring
homomorphism or an anti-homomorphism.  Composition through an anti twist
reverses the multiplication order it wraps; that is the whole content of the
flag.  Equality of maps ignores flags (equal matrices give equal additive
maps) but respects factor order unless the base ring is commutative, and a
module-level counter records every time a comparison actually had to invoke
commutativity, so pipelines meant to be order-safe can assert they never did.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from .exactalg import (
    IntMatrix,
    PresentedAb,
    SizeBudgetExceeded,
    SparseMatrix,
    hom_is_well_defined,
)
from .fingroup import FiniteGroup, GroupHom, subgroup_as_group

DENSE_BUDGET = 5000

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


class PresentedRing:
    """Ring on finitely many additive generators over Z.

    Additively this is Z^ngens modulo the columns of ``relations``; the
    product is the bilinear extension of ``mult[i][j]``, a vector giving
    e_i * e_j in generator coordinates.
    """

    def __init__(self, ngens: int, relations: Optional[IntMatrix],
                 mult: Sequence[Sequence[Sequence[int]]],
                 unit: Sequence[int],
                 gen_names: Optional[Sequence[str]] = None,
                 label: str = "R", check: bool = True):
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
        if check:
            self._validate()
        self.commutative = all(
            self.ab.is_zero_element([a - b for a, b in zip(self.mult[i][j], self.mult[j][i])])
            for i in range(ngens) for j in range(i))

    def _validate(self):
        n = self.ngens
        red = self.ab.is_zero_element
        # multiplication must descend to the quotient
        for col in self.ab.relations.columns():
            for j in range(n):
                ej = [0] * n
                ej[j] = 1
                if not red(self.vec_mul(col, ej)) or not red(self.vec_mul(ej, col)):
                    raise ValueError("multiplication does not respect relations")
        for i in range(n):
            ei = [0] * n
            ei[i] = 1
            u_left = self.vec_mul(list(self.unit), ei)
            u_right = self.vec_mul(ei, list(self.unit))
            if not red([a - b for a, b in zip(u_left, ei)]):
                raise ValueError("unit fails on the left")
            if not red([a - b for a, b in zip(u_right, ei)]):
                raise ValueError("unit fails on the right")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei = [0] * n; ei[i] = 1
                    ej = [0] * n; ej[j] = 1
                    ek = [0] * n; ek[k] = 1
                    left = self.vec_mul(self.vec_mul(ei, ej), ek)
                    right = self.vec_mul(ei, self.vec_mul(ej, ek))
                    if not red([a - b for a, b in zip(left, right)]):
                        raise ValueError("multiplication is not associative")

    def vec_mul(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        n = self.ngens
        out = [0] * n
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                cell = self.mult[i][j]
                c = ui * vj
                for k in range(n):
                    if cell[k]:
                        out[k] += c * cell[k]
        return list(self.ab.reduce(out))

    def reduce_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        return self.ab.reduce(v)

    def reduce_matrix(self, m: IntMatrix) -> tuple[tuple[int, ...], ...]:
        """Column-reduced form of a twist matrix, for exact map comparison."""
        return tuple(self.ab.reduce(m.column(j)) for j in range(m.cols))

    def unit_vec(self) -> list[int]:
        return list(self.unit)

    def identity_matrix(self) -> IntMatrix:
        return IntMatrix.identity(self.ngens)

    def matrix_is_morphism(self, m: IntMatrix, anti: bool) -> bool:
        """Does the matrix define a ring (anti)homomorphism on the quotient?"""
        if m.rows != self.ngens or m.cols != self.ngens:
            return False
        if not hom_is_well_defined(self.ab, self.ab, m):
            return False
        if not self.ab.is_zero_element(
                [a - b for a, b in zip(m.apply(list(self.unit)), self.unit)]):
            return False
        n = self.ngens
        for i in range(n):
            for j in range(n):
                ei = [0] * n; ei[i] = 1
                ej = [0] * n; ej[j] = 1
                lhs = m.apply(self.vec_mul(ei, ej))
                a, b = (ej, ei) if anti else (ei, ej)
                rhs = self.vec_mul(m.apply(a), m.apply(b))
                if not self.ab.is_zero_element([x - y for x, y in zip(lhs, rhs)]):
                    return False
        return True

    def matrix_inverse(self, m: IntMatrix) -> IntMatrix:
        """Inverse of an additively invertible twist, modulo relations."""
        from .exactalg import solve
        n = self.ngens
        rels = self.ab.relations
        stacked = m.hstack(rels) if rels.cols else m
        cols = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            sol = solve(stacked, e)
            if sol is None:
                raise ValueError("twist is not invertible modulo relations")
            cols.append(sol[:n])
        return IntMatrix.from_cols(cols, n)

    def __eq__(self, other):
        return (isinstance(other, PresentedRing)
                and self.ngens == other.ngens
                and self.ab.relations == other.ab.relations
                and self.mult == other.mult
                and self.unit == other.unit)

    def __hash__(self):
        return hash((self.ngens, self.mult, self.unit))

    def __repr__(self):
        return f"PresentedRing({self.label}, ngens={self.ngens})"


# ---------------------------------------------------------------------------
# rings with group action


class RingWithAction:
    """A presented ring together with a group acting by ring automorphisms
    and/or anti-automorphisms (one matrix and one anti flag per element)."""

    def __init__(self, group: FiniteGroup, ring: PresentedRing,
                 acts: Sequence[tuple[IntMatrix, bool]], check: bool = True):
        if len(acts) != group.order:
            raise ValueError("need one action entry per group element")
        self.group = group
        self.ring = ring
        self.acts = [(m, bool(a)) for m, a in acts]
        if check:
            self._validate()

    def _validate(self):
        ident = self.ring.identity_matrix()
        m0, a0 = self.acts[0]
        if a0 or self.ring.reduce_matrix(m0) != self.ring.reduce_matrix(ident):
            raise ValueError("identity element must act as the identity map")
        for g, (m, anti) in enumerate(self.acts):
            if not self.ring.matrix_is_morphism(m, anti):
                raise ValueError(f"element {self.group.names[g]} does not act by a ring "
                                 f"{'anti-' if anti else ''}automorphism")
        for g in range(self.group.order):
            for h in range(self.group.order):
                mg, ag = self.acts[g]
                mh, ah = self.acts[h]
                mgh, agh = self.acts[self.group.mul(g, h)]
                if (ag != ah) != agh:
                    raise ValueError("anti flags are not multiplicative")
                if self.ring.reduce_matrix(mg @ mh) != self.ring.reduce_matrix(mgh):
                    raise ValueError("action matrices are not multiplicative")

    def act_matrix(self, g: int) -> IntMatrix:
        return self.acts[g][0]

    def act_anti(self, g: int) -> bool:
        return self.acts[g][1]

    @staticmethod
    def trivial(group: FiniteGroup, ring: PresentedRing) -> "RingWithAction":
        ident = ring.identity_matrix()
        return RingWithAction(group, ring, [(ident, False)] * group.order, check=False)

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

    The additive group is never materialized here; expansion happens per
    map in StructuredHom.sparse under a budget.
    """

    def __init__(self, base: PresentedRing, slots: Sequence):
        self.base = base
        self.slots = tuple(slots)
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("slot labels must be distinct")
        self._index = {s: i for i, s in enumerate(self.slots)}

    @property
    def nslots(self) -> int:
        return len(self.slots)

    def slot_index(self, label) -> int:
        return self._index[label]

    def dense_rank(self, budget: int = DENSE_BUDGET) -> int:
        r = self.base.ngens ** self.nslots
        if r > budget:
            raise SizeBudgetExceeded(
                f"expanded rank {self.base.ngens}^{self.nslots} exceeds budget {budget}")
        return r

    def dense_group(self, budget: int = DENSE_BUDGET) -> PresentedAb:
        """The expanded additive group, relations included."""
        rank = self.dense_rank(budget)
        n = self.base.ngens
        rels = self.base.ab.relations
        cols = []
        for pos in range(self.nslots):
            outer = n ** pos
            inner = n ** (self.nslots - pos - 1)
            for rc in rels.columns():
                for o in range(outer):
                    for i in range(inner):
                        col = [0] * rank
                        for k, v in enumerate(rc):
                            if v:
                                col[(o * n + k) * inner + i] = v
                        cols.append(col)
        return PresentedAb(rank, IntMatrix.from_cols(cols, rank))

    def basis_tuples(self, budget: int = DENSE_BUDGET):
        self.dense_rank(budget)
        return product(range(self.base.ngens), repeat=self.nslots)

    def __eq__(self, other):
        return (isinstance(other, TensorRing) and self.base == other.base
                and self.slots == other.slots)

    def __hash__(self):
        return hash((self.base, self.slots))

    def __repr__(self):
        return f"TensorRing({self.base.label}^(x){self.nslots})"


# ---------------------------------------------------------------------------
# structured homomorphisms


class StructuredHom:
    """Additive map between tensor powers of one base ring.

    ``targets[t]`` is the ordered list of (source slot index, twist matrix,
    anti flag) whose twisted factors are multiplied, left to right, to fill
    target slot t.  Every source slot appears exactly once across all target
    lists; an empty list inserts the unit.
    """

    __slots__ = ("src", "dst", "targets", "_reduced")

    def __init__(self, src: TensorRing, dst: TensorRing,
                 targets: Sequence[Sequence[tuple[int, IntMatrix, bool]]],
                 check: bool = True):
        if src.base != dst.base:
            raise ValueError("source and target must share a base ring")
        self.src = src
        self.dst = dst
        self.targets = tuple(tuple((int(s), m, bool(a)) for s, m, a in lst)
                             for lst in targets)
        self._reduced = None
        if check:
            if len(self.targets) != dst.nslots:
                raise ValueError("one target list per target slot required")
            used = [s for lst in self.targets for (s, _, _) in lst]
            if sorted(used) != list(range(src.nslots)):
                raise ValueError("each source slot must be used exactly once")
            r = src.base.ngens
            for lst in self.targets:
                for _, m, _ in lst:
                    if m.rows != r or m.cols != r:
                        raise ValueError("twist matrix has wrong shape")

    @staticmethod
    def identity(tr: TensorRing) -> "StructuredHom":
        ident = tr.base.identity_matrix()
        return StructuredHom(tr, tr, [[(i, ident, False)] for i in range(tr.nslots)],
                             check=False)

    @staticmethod
    def from_routes(src: TensorRing, dst: TensorRing,
                    routes: Sequence[tuple[object, object, IntMatrix, bool]],
                    check: bool = True) -> "StructuredHom":
        """Build from (source label, target label, twist, anti) tuples.

        Routes landing in one target slot are multiplied in listed order.
        """
        lists: list[list[tuple[int, IntMatrix, bool]]] = [[] for _ in dst.slots]
        for s_label, t_label, m, a in routes:
            lists[dst.slot_index(t_label)].append((src.slot_index(s_label), m, a))
        return StructuredHom(src, dst, lists, check=check)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "StructuredHom") -> "StructuredHom":
        """self after inner."""
        if inner.dst != self.src:
            raise ValueError("composition mismatch")
        new_targets = []
        for lst in self.targets:
            out: list[tuple[int, IntMatrix, bool]] = []
            for s_mid, m, a in lst:
                spliced = [(s0, m @ n, a != b) for (s0, n, b) in inner.targets[s_mid]]
                if a:
                    spliced.reverse()
                out.extend(spliced)
            new_targets.append(out)
        return StructuredHom(inner.src, self.dst, new_targets, check=False)

    # -- comparison ------------------------------------------------------------

    def reduced_form(self):
        """Targets with twist matrices column-reduced; flags kept separately."""
        if self._reduced is None:
            base = self.src.base
            self._reduced = tuple(
                tuple((s, base.reduce_matrix(m), a) for s, m, a in lst)
                for lst in self.targets)
        return self._reduced

    def __eq__(self, other):
        if not isinstance(other, StructuredHom):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        a = self.reduced_form()
        b = other.reduced_form()
        # flags never change the additive map; drop them for comparison
        a_flat = tuple(tuple((s, m) for s, m, _ in lst) for lst in a)
        b_flat = tuple(tuple((s, m) for s, m, _ in lst) for lst in b)
        if a_flat == b_flat:
            return True
        if not self.src.base.commutative:
            return False
        a_sorted = tuple(tuple(sorted(lst)) for lst in a_flat)
        b_sorted = tuple(tuple(sorted(lst)) for lst in b_flat)
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
        for lst in self.targets:
            _, m, _ = lst[0]
            try:
                self.src.base.matrix_inverse(m)
            except ValueError:
                return False
        return True

    def inverse(self) -> "StructuredHom":
        if not self.is_slotwise():
            raise ValueError("only slotwise maps invert structurally")
        base = self.src.base
        targets: list[Optional[tuple[int, IntMatrix, bool]]] = [None] * self.src.nslots
        for t, lst in enumerate(self.targets):
            s, m, a = lst[0]
            targets[s] = (t, base.matrix_inverse(m), a)
        return StructuredHom(self.dst, self.src, [[e] for e in targets], check=False)

    # -- dense expansion ---------------------------------------------------------

    def apply_basis(self, idx: Sequence[int]) -> list[int]:
        """Dense image of one source basis tuple, without building the matrix."""
        base = self.src.base
        col = [1]
        for lst in self.targets:
            if not lst:
                vec = base.unit_vec()
            else:
                vec = None
                for s, m, _ in lst:
                    w = m.column(idx[s])
                    vec = w if vec is None else base.vec_mul(vec, w)
                vec = list(base.reduce_vec(vec))
            col = [c * vj for c in col for vj in vec]
        return col

    def sparse(self, budget: int = DENSE_BUDGET) -> SparseMatrix:
        """Matrix on expanded tensor bases (slot 0 most significant).

        Column ``idx`` is the Kronecker product, over target slots, of the
        reduced product of the twisted factors routed there.  Each slot
        vector is computed once per combination of the source indices it
        reads, and kept sparse.
        """
        base = self.src.base
        r = base.ngens
        nrows = self.dst.dense_rank(budget)
        self.src.dense_rank(budget)
        twist_cols = [[[m.column(j) for j in range(r)] for _, m, _ in lst]
                      for lst in self.targets]
        slots = [tuple(s for s, _, _ in lst) for lst in self.targets]
        memo: list[dict] = [{} for _ in self.targets]
        cols = []
        for idx in product(range(r), repeat=self.src.nslots):
            col = [(0, 1)]
            for t, srcs in enumerate(slots):
                key = tuple(idx[s] for s in srcs)
                vec = memo[t].get(key)
                if vec is None:
                    if not srcs:
                        dense = base.unit_vec()
                    else:
                        dense = None
                        for tw, j in zip(twist_cols[t], key):
                            w = tw[j]
                            dense = w if dense is None else base.vec_mul(dense, w)
                        dense = base.reduce_vec(dense)
                    vec = memo[t][key] = [(k, v) for k, v in enumerate(dense) if v]
                col = [(row * r + k, c * v) for row, c in col for k, v in vec]
            cols.append(col)
        return SparseMatrix(nrows, cols)

    def dense(self, budget: int = DENSE_BUDGET) -> IntMatrix:
        """``sparse`` converted to a dense matrix.

        A conversion kept for oracles (``hom_equal_dense``) and tests; the
        homology code works on the sparse form.
        """
        return self.sparse(budget).to_dense()


def hom_equal_dense(f: StructuredHom, g: StructuredHom,
                    budget: int = DENSE_BUDGET) -> bool:
    """Numeric equality of two maps on the expanded presentation.

    Entry-wise difference must die in the expanded target group.  Used as an
    independent cross-check of structural equality on small instances.
    """
    if f.src != g.src or f.dst != g.dst:
        return False
    target = f.dst.dense_group(budget)
    diff = f.dense(budget) - g.dense(budget)
    return all(target.is_zero_element(c) for c in diff.columns())


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
            for g in range(group.order):
                for h in range(group.order):
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
    """Group permuting its own tensor coordinates by left translation."""
    tr = group_power_ring(group, base)
    ident = base.identity_matrix()
    action = []
    for g in range(group.order):
        ginv = group.inv(g)
        targets = [[(group.mul(ginv, t), ident, False)] for t in range(group.order)]
        action.append(StructuredHom(tr, tr, targets, check=False))
    return GTensorRing(group, tr, action)


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
    targets = [[(g, rwa.act_matrix(g), rwa.act_anti(g))] for g in range(rwa.group.order)]
    return StructuredHom(tr, tr, targets, check=False)


def single_slot_ring(rwa: RingWithAction) -> GTensorRing:
    """The coefficient itself, as a one-slot tensor ring with its action."""
    tr = TensorRing(rwa.ring, ("*",))
    action = [StructuredHom(tr, tr, [[(0, m, a)]], check=False) for m, a in rwa.acts]
    return GTensorRing(rwa.group, tr, action)


def multiply_out_diagonal(rwa: RingWithAction) -> StructuredHom:
    """Multiply all coordinates of the group power, in element-index order.

    Descends to an equivariant map out of the diagonal power.  Demands a
    commutative base: the product forgets the coordinate order.
    """
    if not rwa.ring.commutative:
        raise ValueError("total multiplication needs a commutative base ring")
    tr = group_power_ring(rwa.group, rwa.ring)
    one = TensorRing(rwa.ring, ("*",))
    ident = rwa.ring.identity_matrix()
    targets = [[(g, ident, False) for g in range(rwa.group.order)]]
    return StructuredHom(tr, one, targets, check=False)


def multiply_out_flip(rwa: RingWithAction) -> StructuredHom:
    """Twisted total multiplication out of the flip power: the slot-g factor
    goes through the action of g before multiplying, in element-index order."""
    if not rwa.ring.commutative:
        raise ValueError("total multiplication needs a commutative base ring")
    tr = group_power_ring(rwa.group, rwa.ring)
    one = TensorRing(rwa.ring, ("*",))
    targets = [[(g, rwa.act_matrix(g), rwa.act_anti(g))
                for g in range(rwa.group.order)]]
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
                 rwa: RingWithAction, emb: Optional[Sequence[int]] = None):
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
        for g in range(group.order):
            targets = []
            for t in range(len(self.cosets)):
                s = self.coset_of[group.mul(group.inv(g), self.transversal[t])]
                h = group.mul(group.mul(group.inv(self.transversal[t]), g),
                              self.transversal[s])
                m, a = self.rwa.acts[self._pos[h]]
                targets.append([(s, m, a)])
            action.append(StructuredHom(self.tensor, self.tensor, targets, check=False))
        self.gt = GTensorRing(group, self.tensor, action)

    def act_of(self, h: int) -> tuple[IntMatrix, bool]:
        """Coefficient action at a subgroup element given by ambient index."""
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
    ident = base.identity_matrix()
    routes = []
    for g in range(group.order):
        c = coset_of[g]
        h = group.mul(group.inv(transversal[c]), g)
        routes.append((g, (c, h), ident, False))
    return StructuredHom.from_routes(src, dst, routes)


def blocked_flip(group: FiniteGroup, sub_elems: Sequence[int],
                 base: PresentedRing) -> GTensorRing:
    """Induced action on the blocked power when the inner blocks carry the
    flip action: (C, h) -> (gC, kh) with k the transversal defect, untwisted."""
    sub = tuple(sorted(set(sub_elems)))
    tr = blocked_ring(group, sub, base)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    ident = base.identity_matrix()
    action = []
    for g in range(group.order):
        routes = []
        for c in range(len(transversal)):
            t = coset_of[group.mul(g, transversal[c])]
            k = group.mul(group.mul(group.inv(transversal[t]), g), transversal[c])
            for h in sub:
                routes.append(((c, h), (t, group.mul(k, h)), ident, False))
        action.append(StructuredHom.from_routes(tr, tr, routes, check=False))
    return GTensorRing(group, tr, action)


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
    ring = rwa.ring
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
            if ring.reduce_matrix(rwa.act_matrix(k)) != ring.reduce_matrix(rwa.act_matrix(g)):
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
    ring = norm.rwa.ring
    for h in sub:
        hh = g.conj(gamma, h)
        m1, a1 = norm.act_of(hh)
        m2, a2 = norm.act_of(h)
        if a1 != a2 or ring.reduce_matrix(m1) != ring.reduce_matrix(m2):
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
# builders: projections and free-orbit translations


def project_power_to_norm(norm: NormRing, u: int = 0) -> StructuredHom:
    """The multiply-down map from the full group power onto a norm.

    Slot g lands in the coset of g*u, twisted by the subgroup action of
    h = c(guH)^-1 g u; the factors arriving in one coset multiply in the
    order of their h values.  This is the map the one-point projection of
    orbits induces on coefficients.
    """
    g = norm.group
    src = group_power_ring(g, norm.rwa.ring)
    entries: list[list[tuple[int, int, IntMatrix, bool]]] = [[] for _ in norm.cosets]
    for x in range(g.order):
        xu = g.mul(x, u)
        c = norm.coset_of[xu]
        h = g.mul(g.inv(norm.transversal[c]), xu)
        m, a = norm.act_of(h)
        entries[c].append((h, x, m, a))
    targets = []
    for lst in entries:
        lst.sort(key=lambda e: e[0])
        targets.append([(x, m, a) for (_, x, m, a) in lst])
    return StructuredHom(src, norm.tensor, targets, check=False)


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
        if a1 != a2 or ring.reduce_matrix(m1) != ring.reduce_matrix(m2):
            raise ValueError("coefficient actions do not match along the collapse")
    entries: list[list[tuple[int, int, IntMatrix, bool]]] = [[] for _ in dst.cosets]
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


def power_translation(group: FiniteGroup, base: PresentedRing, u: int,
                      rwa: Optional[RingWithAction] = None) -> StructuredHom:
    """Right translation slot g -> slot g*u on the group power.

    Untwisted (the flip-side form) when no action is supplied; with an
    action the diagonal-side form twists slot g by act(g u g^-1), which is
    the flip form conjugated through the untwisting isomorphism.
    """
    tr = group_power_ring(group, base)
    routes = []
    for x in range(group.order):
        t = group.mul(x, u)
        if rwa is None:
            m, a = base.identity_matrix(), False
        else:
            m, a = rwa.acts[group.conj(x, u)]
        routes.append((x, t, m, a))
    return StructuredHom.from_routes(tr, tr, routes, check=False)
