"""Structured maps of tensor powers of one presented ring.

The whole package runs on one representation trick.  Every ring that appears
in a norm, a group tensor power, or a simplicial level is a tensor power of a
single small presented ring R (``rings.PresentedRing``), with slots labeled
by group data (elements, cosets, coset pairs).  Every map that appears - group
actions, counits, coset-blocking, Weyl relabelings, conjugation switches, face
and degeneracy maps - sends each source tensor factor through a twist (an
additive map of R, an id into ``rings.TwistTable``) into one target slot,
where factors are multiplied in a recorded order.  A ``StructuredHom`` stores
that routing verbatim, so maps compose and compare exactly, with no
dependence on the size of the expanded tensor power.  Maps are expanded only
on demand, with no size check of their own (the caller,
``homology.LevelComplex``, checks ranks first), into column-sparse matrices
(``StructuredHom.sparse``); the dense form (``StructuredHom.dense``) is a
conversion for the per-layer tracer and the test oracles.

A twist carries an ``anti`` flag recording whether its matrix is a ring
homomorphism or an anti-homomorphism.  Composition through an anti twist
reverses the multiplication order it wraps; that is the whole content of the
flag.  Equality of maps ignores flags (equal matrices give equal additive
maps) but respects factor order unless the base ring is commutative, and a
module-level counter records every time a comparison actually had to invoke
commutativity, so pipelines meant to be order-safe can assert they never did.

A group acting by structured maps (``GTensorRing``) is checked to be
multiplicative on generators only; see ``FiniteGroup.generator_pairs``.  The
builders of group powers, norms and the maps between them live in ``norms``.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from .exactalg import IntMatrix, PresentedAb, SparseMatrix
from .fingroup import FiniteGroup
from .rings import IDENTITY_TWIST, PresentedRing

DENSE_BUDGET = 5000  # the default rank bound of homology.LevelComplex

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
