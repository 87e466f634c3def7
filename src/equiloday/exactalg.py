"""Exact integer linear algebra: Smith normal form, finitely presented
abelian groups, and homology of bounded chain complexes.

Everything here is plain Python ``int`` arithmetic.  Pivots in Smith normal
form reductions routinely overflow 64-bit words even on modest inputs, so no
fixed-width path exists anywhere in this module.

Conventions
-----------
* ``IntMatrix`` stores ``data[i][j]`` = row ``i``, column ``j``.  It holds
  only r x r twists, maps between homology groups (``induced_map``,
  ``MackeyH``) and the two dense front doors the per-layer tracer wraps
  (``kernel_basis``, ``StructuredHom.dense``); the dense oracles live in
  the test suite.
* ``SparseMatrix`` holds every matrix of expanded or carved size: face and
  action maps, carved lifts, boundaries, chain maps and every relation
  matrix.  Its columns, lists of ``(row, value)`` over the nonzeros, are
  what ``SmithSolver``, ``express``, ``Lattice`` and ``ChainComplex`` take
  and return.
* Homomorphisms act on column vectors: ``x -> M @ x``.
* A ``PresentedAb`` is ``Z^ngens / (integer span of the columns of
  ``relations``)``, a ``SparseMatrix``.  Elements are integer coordinate
  vectors of length ``ngens``; two vectors represent the same element iff
  their difference is in the relation lattice.

>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> invariant_factors(M)
[2, 4]
>>> SmithSolver(M)([(0, 2), (1, 2)])   # x with M x = (2, 2), sparse
[(0, -1), (1, 1)]
>>> SmithSolver(M)([(0, 1)]) is None     # (1, 0) is off the lattice
True
>>> G = PresentedAb(2, SparseMatrix(2, [[(0, 2)], [(0, 3), (1, 6)]]))
>>> str(G.canonical())
'Z/12'
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, namedtuple
from typing import Iterable, Optional, Sequence


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

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        cols = []
        for col in other.data:
            acc: dict[int, int] = {}
            for k, w in col:
                for i, v in self.data[k]:
                    acc[i] = acc.get(i, 0) + v * w
            cols.append(sorted((i, v) for i, v in acc.items() if v))
        return SparseMatrix(self.rows, cols)

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
# Smith normal form
#
# Sparse dictionary-of-rows storage, but the algorithm and its output are the
# plain classical reduction: at each step pick the remaining entry of minimal
# absolute value (ties broken by row-major position), move it to the pivot
# slot, clear its row and column by exact division steps, and absorb any
# remaining entry the pivot does not divide.  That local divisibility sweep
# makes the diagonal a divisibility chain with no separate pass.
#
# Only A, the matrix being reduced, keeps a column index (``colidx``): the
# engine walks column t through it, and ``add_col``/``swap_cols`` find their
# rows there.  U and VT change a row at a time and are ``_Rows``, without
# one; ``SmithSolver`` indexes the columns of U once, after the engine.


class _SparseWork:
    """Row-dict matrix with a column index, supporting the SNF row/col ops."""

    __slots__ = ("m", "n", "row", "colidx")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.row: dict[int, dict[int, int]] = {}
        self.colidx: dict[int, set[int]] = {}

    @staticmethod
    def from_rows(rows: list[dict[int, int]], n: int) -> "_SparseWork":
        """Work matrix whose row i is ``rows[i]``, taken over, not copied.

        Each dict must hold nonzero values under increasing column keys.
        Insertion order fixes how ``row`` and the ``colidx`` sets iterate,
        and with it which row operations the engine performs, so every
        matrix reaches the engine through here in the same order.
        """
        w = _SparseWork(len(rows), n)
        for i, d in enumerate(rows):
            if d:
                w.row[i] = d
                for j in d:
                    w.colidx.setdefault(j, set()).add(i)
        return w

    def get(self, i: int, j: int) -> int:
        return self.row.get(i, {}).get(j, 0)

    def swap_rows(self, a: int, b: int):
        if a == b:
            return
        ra, rb = self.row.get(a), self.row.get(b)
        for j in set(ra or ()) | set(rb or ()):
            s = self.colidx[j]
            has_a, has_b = a in s, b in s
            if has_a != has_b:
                if has_a:
                    s.discard(a); s.add(b)
                else:
                    s.discard(b); s.add(a)
        if ra is None and rb is None:
            return
        if ra is None:
            self.row[a] = rb; del self.row[b]
        elif rb is None:
            self.row[b] = ra; del self.row[a]
        else:
            self.row[a], self.row[b] = rb, ra

    def swap_cols(self, a: int, b: int):
        if a == b:
            return
        rows = set(self.colidx.get(a, ())) | set(self.colidx.get(b, ()))
        for i in rows:
            r = self.row[i]
            va, vb = r.get(a, 0), r.get(b, 0)
            for j, v in ((a, vb), (b, va)):
                if v:
                    r[j] = v
                    self.colidx.setdefault(j, set()).add(i)
                elif j in r:
                    del r[j]
                    self.colidx[j].discard(i)
        for j in (a, b):
            if j in self.colidx and not self.colidx[j]:
                del self.colidx[j]

    def add_row(self, src: int, dst: int, mult: int):
        # row[dst] += mult * row[src]
        if mult == 0:
            return
        rs = self.row.get(src)
        if not rs:
            return
        rd = self.row.setdefault(dst, {})
        colidx = self.colidx
        # the column index changes only where an entry appears or vanishes:
        # an entry already held keeps dst in its column's set
        for j, v in rs.items():
            old = rd.get(j)
            if old is None:
                rd[j] = mult * v  # nonzero: so are mult and every stored v
                colidx.setdefault(j, set()).add(dst)
            elif nv := old + mult * v:
                rd[j] = nv
            else:
                del rd[j]
                s = colidx[j]
                s.discard(dst)
                if not s:
                    del colidx[j]
        if not rd:
            del self.row[dst]

    def add_col(self, src: int, dst: int, mult: int):
        # col[dst] += mult * col[src]
        if mult == 0:
            return
        for i in list(self.colidx.get(src, ())):
            v = self.row[i][src]
            r = self.row[i]
            nv = r.get(dst, 0) + mult * v
            if nv:
                r[dst] = nv
                self.colidx.setdefault(dst, set()).add(i)
            elif dst in r:
                del r[dst]
                self.colidx[dst].discard(i)
                if not self.colidx[dst]:
                    del self.colidx[dst]

    def negate_row(self, i: int):
        r = self.row.get(i)
        if r:
            for j in r:
                r[j] = -r[j]


class _Rows:
    """U or VT of the engine, rows only: the identity at the start, then
    only unimodular row operations, so no row ever empties, the keys of
    ``row`` stay 0, 1, 2, ... and a row swap swaps two pointers."""

    __slots__ = ("row",)

    def __init__(self, n: int):
        self.row = {i: {i: 1} for i in range(n)}

    def swap_rows(self, a: int, b: int):
        r = self.row
        r[a], r[b] = r[b], r[a]

    def add_row(self, src: int, dst: int, mult: int):
        # row[dst] += mult * row[src], mult nonzero
        rd = self.row[dst]
        for j, v in self.row[src].items():
            nv = rd.get(j, 0) + mult * v
            if nv:
                rd[j] = nv
            else:
                del rd[j]

    def negate_row(self, i: int):
        r = self.row[i]
        for j in r:
            r[j] = -r[j]


def _snf_engine(A: _SparseWork, want_u: bool, want_v: bool):
    """Reduce A in place to Smith form; return ``(A, U, VT, rank)``.

    A keeps its column index (see above); U and VT, the rows of VT being
    the columns of V, are ``_Rows``, or None when not wanted.

    Pivot rule: the remaining entry (row and column >= t) of smallest
    absolute value, ties going to the first in row-major order.  It is found
    as the smallest ``(|v|, column)`` of rows t, t + 1, ... in turn (no row
    past t holds anything left of column t), stopping at the first row that
    holds a unit.  Every carved basis and ``--emit-complex`` byte depends on
    this exact pivot sequence.

    At a unit pivot p each quotient ``v // p`` is exactly ``v * p``, so the
    general loop would clear column t in one pass with nothing to promote,
    then clear row t by ``add_col`` steps that touch row t alone (column t
    is clear but for (t, t)) and zero its entries, and its divisibility
    sweep would find nothing (``v % p == 0``).  The unit branch does those
    same row operations on A and U and column operations on VT, and deletes
    row t's other entries from A as those ``add_col`` steps would.
    """
    m, n = A.m, A.n
    U = _Rows(m) if want_u else None
    VT = _Rows(n) if want_v else None
    rows, colidx = A.row, A.colidx
    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            r = rows.get(i)
            if r:
                a, j = min(zip(map(abs, r.values()), r))
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            break
        _, pi, pj = best
        A.swap_rows(t, pi)
        A.swap_cols(t, pj)
        if U is not None:
            U.swap_rows(t, pi)
        if VT is not None:
            VT.swap_rows(t, pj)

        pivot = rows[t][t]
        if pivot == 1 or pivot == -1:
            # clear column t, then row t, in one pass each
            for i in list(colidx[t]):
                if i > t:
                    q = rows[i][t] * pivot
                    A.add_row(t, i, -q)
                    if U is not None:
                        U.add_row(t, i, -q)
            rt = rows[t]
            for j in [j for j in rt if j != t]:
                if VT is not None:
                    VT.add_row(t, j, -rt[j] * pivot)
                del rt[j]
                s = colidx[j]
                s.discard(t)
                if not s:
                    del colidx[j]
        else:
            while True:
                # clear column t
                changed = True
                while changed:
                    changed = False
                    pivot = A.get(t, t)
                    for i in list(A.colidx.get(t, ())):
                        if i == t or i < t:
                            continue
                        q = A.row[i][t] // pivot
                        if q:
                            A.add_row(t, i, -q)
                            if U is not None:
                                U.add_row(t, i, -q)
                        if A.get(i, t):
                            # remainder smaller than pivot: promote it
                            A.swap_rows(t, i)
                            if U is not None:
                                U.swap_rows(t, i)
                            changed = True
                            break
                # clear row t
                pivot = A.get(t, t)
                dirty = False
                for j in sorted(A.row.get(t, {})):
                    if j <= t:
                        continue
                    q = A.row[t][j] // pivot
                    if q:
                        A.add_col(t, j, -q)
                        if VT is not None:
                            VT.add_row(t, j, -q)
                    if A.get(t, j):
                        A.swap_cols(t, j)
                        if VT is not None:
                            VT.swap_rows(t, j)
                        dirty = True
                        break
                if dirty:
                    continue
                # column may have been dirtied by col ops? col ops only touch
                # rows that had entries in col t or j; row t alone here.
                if any(i > t for i in A.colidx.get(t, ())):
                    continue
                # divisibility sweep: pivot must divide the remaining submatrix
                pivot = A.get(t, t)
                if pivot in (1, -1):
                    break
                keys = sorted(A.row)
                offender = next((i for i in keys[bisect_right(keys, t):]
                                 if any(v % pivot for j, v in A.row[i].items() if j > t)),
                                None)
                if offender is None:
                    break
                A.add_row(offender, t, 1)
                if U is not None:
                    U.add_row(offender, t, 1)
        if A.get(t, t) < 0:
            A.negate_row(t)
            if U is not None:
                U.negate_row(t)
        t += 1
    return A, U, VT, t


def invariant_factors(M: "IntMatrix | SparseMatrix") -> list[int]:
    """Nonzero diagonal of the Smith form, cheapest path (no U or V)."""
    A, _, _, rank = _snf_engine(_SparseWork.from_rows(M.sparse_rows(), M.cols),
                                False, False)
    return [A.get(i, i) for i in range(rank)]


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns form a basis of ``{x : M x = 0}`` (a saturated sublattice)."""
    return SparseMatrix(M.cols, kernel_columns(M.sparse_rows(), M.cols,
                                               M.cols)).to_dense()


def kernel_columns(rows: list[dict[int, int]], n: int,
                   keep: int) -> list[list[tuple[int, int]]]:
    """The first ``keep`` coordinates of the ``kernel_basis`` columns of the
    matrix with ``n`` columns and sparse rows ``rows`` (as ``from_rows``
    takes them, and consumes them), as ``SparseMatrix`` columns."""
    _, _, VT, rank = _snf_engine(_SparseWork.from_rows(rows, n), False, True)
    return [sorted((i, v) for i, v in VT.row[j].items() if i < keep)
            for j in range(rank, n)]


def _condition_rows(rank: int,
                    conds: list[tuple[SparseMatrix, SparseMatrix]]) -> list[dict[int, int]]:
    """The stacked ``[A | -B]`` blocks as sparse rows, columns increasing,
    as ``IntMatrix.sparse_rows`` gives them for the dense matrix.  Its kernel
    cut to Z^rank is all x with ``A @ x`` in the lattice of B, per (A, B)."""
    rows: list[dict[int, int]] = []
    pad = rank
    for a, b in conds:
        if a.cols != rank:
            raise ValueError("condition matrix has the wrong number of columns")
        block: list[dict[int, int]] = [{} for _ in range(a.rows)]
        for j, col in enumerate(a.data):
            for i, v in col:
                block[i][j] = v
        for k, col in enumerate(b.data, start=pad):
            for i, v in col:
                block[i][k] = -v
        rows += block
        pad += b.cols
    return rows


class SmithSolver:
    """Integer solutions of ``M x = b`` from one cached Smith form of M.

    With ``U M V = D``, ``M x = b`` has an integer solution exactly when
    ``U b`` vanishes past the rank and each entry before it is divisible by
    the matching diagonal entry; then ``x = V y`` with ``y = D^-1 U b``.
    ``M`` is an ``IntMatrix`` or a ``SparseMatrix``.  Sparse columns in,
    sparse columns out.  ``VT`` is None when ``y`` itself is the answer.

    ``U b`` is read through the nonzeros of ``b`` (mostly zeros on the
    levels this package carves; U is not), from ``ucols``, the columns of U
    as ``(row, value)`` lists, built once.  U is unimodular, so every row of
    M has its column there, and a row of ``b`` without one is out of range:
    ``ValueError``, not a zero.
    """

    __slots__ = ("A", "U", "VT", "rank", "cols", "ucols")

    def __init__(self, M: "IntMatrix | SparseMatrix"):
        self.A, self.U, self.VT, self.rank = _snf_engine(
            _SparseWork.from_rows(M.sparse_rows(), M.cols), True, True)
        self.cols = M.cols
        ucols: dict[int, list[tuple[int, int]]] = {}
        for i, r in self.U.row.items():
            for j, v in r.items():
                ucols.setdefault(j, []).append((i, v))
        self.ucols = ucols

    def __call__(self, b: Iterable[tuple[int, int]]) -> Optional[list[tuple[int, int]]]:
        """One solution of ``M x = b``, or None; ``b`` is a sparse column."""
        ucols, VT = self.ucols, self.VT
        ub: dict[int, int] = {}
        for j, bv in b:
            col = ucols.get(j)
            if col is None:
                raise ValueError(f"right-hand side row {j} is out of range")
            for i, u in col:
                ub[i] = ub.get(i, 0) + u * bv
        x: dict[int, int] = {}
        for i, v in ub.items():
            if not v:
                continue
            if i >= self.rank:
                return None
            q, rem = divmod(v, self.A.get(i, i))
            if rem:
                return None
            for k, w in VT.row[i].items() if VT is not None else ((i, 1),):
                x[k] = x.get(k, 0) + q * w
        return sorted((k, v) for k, v in x.items() if v)


def column_space_basis(M: SparseMatrix) -> tuple[SparseMatrix, SmithSolver]:
    """A basis (as columns) of the column span of M, and a solver for
    coordinates in it: with ``U M V = D`` the basis is the first ``rank``
    columns of ``M V = U^-1 D``, so ``b = basis @ y`` iff ``U b = D y``."""
    solver = SmithSolver(M)
    basis = M @ SparseMatrix(M.cols, [sorted(solver.VT.row[j].items())
                                      for j in range(solver.rank)])
    solver.VT, solver.cols = None, solver.rank
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
            square = boundaries[k - 1] @ boundaries[k]
            if not all(map(levels[k - 1].is_zero_column, square.data)):
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
