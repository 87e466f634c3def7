"""Presented rings, their twists, and finite groups acting on them.

Every ring in the package is a tensor power of one small presented ring R
(``PresentedRing``): Z^n modulo relation columns, with bilinear structure
constants.  A twist is an additive map of R, named by a small integer id
into the ``TwistTable`` of R (``PresentedRing.twists``), which holds its
matrix exactly as given, the id of its class modulo relations, and memoized
products and inverses.  So composing two maps of tensor powers
(``gring.StructuredHom``) is table lookups, and comparing them is comparing
``(slot, class id)`` tuples.  Rings that are equal by value share one table.

A group acts on R (``RingWithAction``) by one ``(twist id, anti flag)`` per
element; the flag records whether the twist is a ring homomorphism or an
anti-homomorphism.  Actions are checked to be multiplicative on generators
only; see ``FiniteGroup.generator_pairs``.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from .exactalg import IntMatrix, PresentedAb, SparseMatrix, hom_is_well_defined
from .fingroup import FiniteGroup
from .smith import SmithSolver

IDENTITY_TWIST = 0  # the id of the identity matrix in every twist table


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
