"""Exact integer linear algebra: integer matrices, finitely presented
abelian groups, and homology of bounded chain complexes.

Everything here is plain Python ``int`` arithmetic.  Pivots in Smith normal
form reductions routinely overflow 64-bit words even on modest inputs, so no
fixed-width path exists anywhere in this module or in ``smith``, which holds
the one Smith-form engine and its three readers, ``invariant_factors``,
``kernel_columns`` and ``SmithSolver``, that everything here calls.

Conventions
-----------
* ``IntMatrix`` stores ``data[i][j]`` = row ``i``, column ``j``.  It holds
  only r x r twists, maps between homology groups (``induced_map``,
  ``MackeyH``) and the two dense front doors the per-layer tracer wraps
  (``kernel_basis``, ``StructuredHom.dense``); the dense oracles live in
  the test suite.
* ``SparseMatrix`` holds every matrix of expanded or carved size: the
  expanded face sums, degeneracies and actions, carved lifts, restricted
  boundaries, chain maps and every relation matrix.  Its columns, lists of
  ``(row, value)`` over the nonzeros, are what ``smith.SmithSolver``,
  ``express``, ``Lattice`` and ``ChainComplex`` take and return.
* Homomorphisms act on column vectors: ``x -> M @ x``.
* A ``PresentedAb`` is ``Z^ngens / (integer span of the columns of
  ``relations``)``, a ``SparseMatrix``.  Elements are integer coordinate
  vectors of length ``ngens``; two vectors represent the same element iff
  their difference is in the relation lattice.

>>> G = PresentedAb(2, SparseMatrix(2, [[(0, 2)], [(0, 3), (1, 6)]]))
>>> str(G.canonical())
'Z/12'
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from typing import Iterable, Iterator, Optional, Sequence

from .smith import SmithSolver, _condition_rows, invariant_factors, kernel_columns


class SizeBudgetExceeded(Exception):
    """Raised when an exact computation would exceed the configured budget."""


# ---------------------------------------------------------------------------
# matrices


class IntMatrix:
    """Dense exact integer matrix with the handful of operations we need."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[int]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("shape mismatch")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = [list(map(int, r)) for r in rows]
        ncols = len(data[0]) if data else 0
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], nrows: Optional[int] = None) -> "IntMatrix":
        if not cols:
            return IntMatrix(nrows or 0, 0, [[] for _ in range(nrows or 0)])
        nrows = len(cols[0]) if nrows is None else nrows
        data = [[int(c[i]) for c in cols] for i in range(nrows)]
        return IntMatrix(nrows, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def sparse_rows(self) -> list[dict[int, int]]:
        """Row i as ``{column: value}`` over its nonzeros, columns increasing."""
        return [{j: v for j, v in enumerate(r) if v} for r in self.data]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # row i of the product is the sum of self[i][k] * other row k over
        # the nonzero self[i][k], each over the nonzeros of that row only:
        # both factors are mostly zeros on the permutation-like matrices this
        # package produces.
        orows = [[(j, w) for j, w in enumerate(r) if w] for r in other.data]
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, v in enumerate(row):
                if v:
                    for j, w in orows[k]:
                        acc[j] += v * w
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        pairs = [(j, v) for j, v in enumerate(vec) if v]
        return [sum(row[j] * v for j, v in pairs) for row in self.data]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [[-v for v in row] for row in self.data])

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """Column-sparse exact integer matrix: ``data[j]`` lists the nonzero
    ``(row, value)`` pairs of column ``j`` in increasing row order.

    Expanded structured maps and the lifts of carved subgroups are stored
    this way: on free levels a map has one nonzero per column.  No explicit
    zero is ever stored, so ``sparse_rows`` hands the Smith-form engine the
    same rows ``IntMatrix.sparse_rows`` gives for the dense matrix.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, data: list[list[tuple[int, int]]]):
        self.rows = rows
        self.cols = len(data)
        self.data = data

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], nrows: int) -> "SparseMatrix":
        return SparseMatrix(nrows, [[(i, v) for i, v in enumerate(c) if v]
                                    for c in cols])

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, [[(j, 1)] for j in range(n)])

    def sparse_rows(self) -> list[dict[int, int]]:
        """Row i as ``{column: value}`` over its nonzeros, columns increasing."""
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, v in col:
                rows[i][j] = v
        return rows

    def _times_column(self, col: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """``self`` applied to one sparse column, as a sparse column."""
        acc: dict[int, int] = {}
        for k, w in col:
            for i, v in self.data[k]:
                acc[i] = acc.get(i, 0) + v * w
        return sorted((i, v) for i, v in acc.items() if v)

    def product_columns(self, other: "SparseMatrix") -> Iterator[list[tuple[int, int]]]:
        """The columns of ``self @ other``, each formed only when it is read,
        so a reader that takes one column at a time never holds the whole
        product."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return map(self._times_column, other.data)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        return SparseMatrix(self.rows, list(self.product_columns(other)))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self.data, other.data):
            acc = dict(a)
            for i, v in b:
                acc[i] = acc.get(i, 0) + v
            cols.append(sorted((i, v) for i, v in acc.items() if v))
        return SparseMatrix(self.rows, cols)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.rows, [[(i, -v) for i, v in col] for col in self.data])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and list(map(list, self.data)) == list(map(list, other.data)))

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def to_dense(self) -> IntMatrix:
        data = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, v in col:
                data[i][j] = v
        return IntMatrix(self.rows, self.cols, data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Smith-form front doors


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns form a basis of ``{x : M x = 0}`` (a saturated sublattice)."""
    return SparseMatrix(M.cols, kernel_columns(M.sparse_rows(), M.cols,
                                               M.cols)).to_dense()


def column_space_basis(M: SparseMatrix) -> tuple[SparseMatrix, SmithSolver]:
    """A basis (as columns) of the column span of M, and a solver for
    coordinates in it: with ``U M V = D``, zero but at the pivots, the
    basis is the columns of ``M V = U^-1 D`` at the pivots, in pivot
    order, so ``b = basis @ y`` iff ``U b = D y``."""
    solver = SmithSolver(M)
    basis = M @ SparseMatrix(M.cols, [sorted(solver.VT[j].items())
                                      for _, j, _ in solver.pivots])
    solver.VT = None
    return basis, solver


class Lattice:
    """Integer span of the columns of a ``SparseMatrix``: membership, reduction."""

    def __init__(self, gens: SparseMatrix):
        # column-style Hermite form: lower staircase, positive pivots,
        # entries right of a pivot reduced into [0, pivot)
        self._hnf_cols, self._pivots = self._hermite(gens)

    @staticmethod
    def _hermite(M: SparseMatrix):
        cols = [dict(c) for c in M.data if c]
        hnf: list[dict[int, int]] = []
        pivots: list[int] = []
        for i in range(M.rows):
            live = [c for c in cols if i in c]
            rest = [c for c in cols if i not in c]
            if not live:
                cols = rest
                continue
            # gcd out the pivot column by repeated exact combination
            while len(live) > 1:
                live.sort(key=lambda c: abs(c[i]))
                a, b = live[0], live[1]
                q = b[i] // a[i]
                for k, v in a.items():
                    nv = b.get(k, 0) - q * v
                    if nv:
                        b[k] = nv
                    elif k in b:
                        del b[k]
                if i not in b:
                    rest.append(b)
                    live.remove(b)
            c = live[0]
            if c[i] < 0:
                for k in list(c):
                    c[k] = -c[k]
            # reduce earlier pivot columns? classical HNF reduces later rows;
            # for representative reduction we only need the staircase itself.
            hnf.append(c)
            pivots.append(i)
            cols = rest
        return hnf, pivots

    def _reduce(self, v):
        """Reduce ``v`` in place: a dense list, or a ``defaultdict(int)``
        holding a sparse column."""
        for c, i in zip(self._hnf_cols, self._pivots):
            q = v[i] // c[i]
            if q:
                for k, cv in c.items():
                    v[k] -= q * cv
        return v

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of ``vec`` modulo the lattice."""
        return tuple(self._reduce(list(vec)))

    def member(self, col: Iterable[tuple[int, int]]) -> bool:
        """Does the lattice hold the sparse column ``col``?"""
        return not any(self._reduce(defaultdict(int, col)).values())


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FgAbelianGroup(namedtuple("FgAbelianGroup", "free_rank torsion")):
    """Canonical form: free rank plus a divisibility chain of torsion.

    A named tuple: an immutable value, compared and hashed by its fields,
    that keeps ``dataclasses`` (and the ``inspect`` it loads) out of the
    start-up of commands that never build a simplicial ring."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class PresentedAb:
    """Finitely presented abelian group Z^ngens / span(relation columns)."""

    def __init__(self, ngens: int, relations: Optional[SparseMatrix] = None):
        if relations is None:
            relations = SparseMatrix(ngens, [])
        if not isinstance(relations, SparseMatrix):
            raise TypeError("relations must be a SparseMatrix")
        if relations.rows != ngens:
            raise ValueError("relation rows must equal ngens")
        self.ngens = ngens
        self.relations = relations
        self._lattice: Optional[Lattice] = None
        self._canonical: Optional[FgAbelianGroup] = None

    @property
    def lattice(self) -> Lattice:
        if self._lattice is None:
            self._lattice = Lattice(self.relations)
        return self._lattice

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.lattice.reduce(vec)

    def is_zero_element(self, vec: Sequence[int]) -> bool:
        return not any(self.lattice.reduce(vec))

    def is_zero_column(self, col: Iterable[tuple[int, int]]) -> bool:
        return self.lattice.member(col)

    def canonical(self) -> FgAbelianGroup:
        if self._canonical is None:
            facs = invariant_factors(self.relations)
            tors = tuple(d for d in facs if d >= 2)
            self._canonical = FgAbelianGroup(self.ngens - len(facs), tors)
        return self._canonical

    def __repr__(self):
        return f"PresentedAb(ngens={self.ngens}, nrels={self.relations.cols})"


def hom_is_well_defined(domain: PresentedAb, codomain: PresentedAb,
                        matrix: "IntMatrix | SparseMatrix") -> bool:
    """Does ``matrix`` (dense or sparse) send every relation of ``domain``
    into the relation lattice of ``codomain``?"""
    rels = domain.relations
    if rels.cols and isinstance(matrix, IntMatrix):
        matrix = SparseMatrix.from_cols(matrix.columns(), matrix.rows)
    return not rels.cols or all(map(codomain.is_zero_column, (matrix @ rels).data))


# ---------------------------------------------------------------------------
# subquotients: (span K) / (span S) inside Z^n, with lifts


class SubQuotient:
    """A subgroup-of-a-quotient presented on a basis of its lift.

    ``span_cols`` and ``sub_cols`` are ``SparseMatrix`` columns of length
    ``ambient`` spanning the subgroup and the part divided out.  ``pres`` is
    the presented group; ``lift`` (a ``SparseMatrix``) maps its generators
    to ambient vectors; ``express`` writes a sparse ambient column in those
    generators, as a sparse column, or gives None off the subgroup's lift.
    One Smith form of the span gives both ``lift`` and ``express``.
    """

    def __init__(self, ambient: int, span_cols: list[list[tuple[int, int]]],
                 sub_cols: list[list[tuple[int, int]]]):
        self.lift, self.express = column_space_basis(
            SparseMatrix(ambient, _dedup_cols(span_cols)))
        r = self.lift.cols
        rel_in_coords = [self.express(col) for col in _dedup_cols(sub_cols)]
        if None in rel_in_coords:
            raise ValueError("relation column not inside the subgroup")
        self.pres = PresentedAb(r, SparseMatrix(r, _dedup_cols(rel_in_coords)))


def _dedup_cols(cols: Iterable[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """The nonzero sparse columns, each first occurrence once."""
    return [list(c) for c in dict.fromkeys(tuple(c) for c in cols if c)]


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Bounded complex ... -> C_1 -> C_0 of presented groups.

    ``boundaries[k]`` is the ``SparseMatrix`` of the map C_k -> C_{k-1}; the
    list is indexed from k = 1.  Sparse columns in, sparse columns out: the
    cycles are the kernel of the sparse ``[d | -relations]`` rows, and the
    homology generators lift to sparse columns.  Validation checks that
    composites vanish modulo the target relations.
    """

    def __init__(self, levels: list[PresentedAb], boundaries: list[SparseMatrix]):
        if len(boundaries) != max(0, len(levels) - 1):
            raise ValueError("need exactly len(levels) - 1 boundaries")
        self.levels = levels
        self.boundaries = boundaries
        self._factors: dict[int, list[int]] = {}
        for k in range(1, len(boundaries)):
            # each column of the composite is checked as it is formed
            square = boundaries[k - 1].product_columns(boundaries[k])
            if not all(map(levels[k - 1].is_zero_column, square)):
                raise ValueError(f"boundary composite at degree {k + 1} is nonzero")
        for k, b in enumerate(boundaries, start=1):
            if not hom_is_well_defined(levels[k], levels[k - 1], b):
                raise ValueError(f"boundary at degree {k} not well defined")

    def top(self) -> int:
        return len(self.levels) - 1

    def homology(self, k: int) -> FgAbelianGroup:
        """H_k in canonical form.

        On free levels k and k - 1 no generator lifts are needed: Z_k, a
        kernel, is saturated, so C_k / B_k is H_k plus a free summand, and
        two Smith forms without transforms give H_k.  Its rank is
        n_k - rank d_k - rank d_(k+1); its torsion is the invariant factors
        of d_(k+1) above 1.
        """
        if not (0 <= k <= self.top()):
            raise ValueError("degree out of range")
        if any(lv.relations.cols for lv in self.levels[max(k - 1, 0):k + 1]):
            return self.homology_data(k).pres.canonical()
        rank_in = len(self._invariant_factors(k - 1)) if k else 0
        factors = self._invariant_factors(k) if k < self.top() else []
        return FgAbelianGroup(self.levels[k].ngens - rank_in - len(factors),
                              tuple(f for f in factors if f > 1))

    def _invariant_factors(self, k: int) -> list[int]:
        """Invariant factors of ``boundaries[k]``, computed once: H_k and
        H_(k+1) both read them."""
        if k not in self._factors:
            self._factors[k] = invariant_factors(self.boundaries[k])
        return self._factors[k]

    def homology_data(self, k: int) -> SubQuotient:
        """Homology at degree k with generator lifts, for induced maps."""
        if not (0 <= k <= self.top()):
            raise ValueError("degree out of range")
        nk = self.levels[k].ngens
        if k == 0:
            cycles = SparseMatrix.identity(nk).data
        else:
            rel_prev = self.levels[k - 1].relations
            rows = _condition_rows(nk, [(self.boundaries[k - 1], rel_prev)])
            cycles = kernel_columns(rows, nk + rel_prev.cols, nk)
        sub = self.levels[k].relations.data
        if k < self.top():
            sub = sub + self.boundaries[k].data
        return SubQuotient(nk, cycles, sub)


def induced_map(h_dom: SubQuotient, h_cod: SubQuotient, chain_map: SparseMatrix) -> IntMatrix:
    """Matrix of the map induced on homology by a sparse chain map."""
    cols = [h_cod.express(col) for col in (chain_map @ h_dom.lift).data]
    if None in cols:
        raise ValueError("chain map does not send cycles to cycles")
    return SparseMatrix(h_cod.pres.ngens, cols).to_dense()
