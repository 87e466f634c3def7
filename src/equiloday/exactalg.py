"""Exact integer linear algebra: Smith normal form, finitely presented
abelian groups, and homology of bounded chain complexes.

Everything here is plain Python ``int`` arithmetic.  Pivots in Smith normal
form reductions routinely overflow 64-bit words even on modest inputs, so no
fixed-width path exists anywhere in this module.

Conventions
-----------
* ``IntMatrix`` stores ``data[i][j]`` = row ``i``, column ``j``.
* Homomorphisms act on column vectors: ``x -> M @ x``.
* A ``PresentedAb`` is ``Z^ngens / (integer span of the columns of
  ``relations``)``.  Elements are integer coordinate vectors of length
  ``ngens``; two vectors represent the same element iff their difference is
  in the relation lattice.

>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> U, D, V = smith_normal_form(M)
>>> D.diagonal()
[2, 4]
>>> (U @ M @ V) == D
True
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        # transpose the right factor once; skips zero terms, which dominates
        # on the permutation-like matrices this package produces.
        ot = other.transpose().data
        out = []
        for row in self.data:
            nz = [(j, v) for j, v in enumerate(row) if v]
            out.append([sum(v * ocol[j] for j, v in nz) for ocol in ot])
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

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return IntMatrix(self.rows, self.cols + other.cols,
                         [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols,
                         [row[:] for row in self.data] + [row[:] for row in other.data])

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """Column-sparse exact integer matrix: ``data[j]`` lists the nonzero
    ``(row, value)`` pairs of column ``j`` in increasing row order.

    Expanded structured maps are stored this way: on free levels they have
    one nonzero per column.  ``to_dense`` converts for the Smith-form code.
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

    def column(self, j: int) -> list[int]:
        col = [0] * self.rows
        for i, v in self.data[j]:
            col[i] = v
        return col

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        data = self.data
        for j, x in enumerate(vec):
            if x:
                for i, v in data[j]:
                    out[i] += v * x
        return out

    def __matmul__(self, other: "SparseMatrix | IntMatrix") -> "SparseMatrix":
        """Product with a sparse or dense right factor."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        if isinstance(other, IntMatrix):
            other = SparseMatrix.from_cols(other.columns(), other.rows)
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


def bareiss_det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [row[:] for row in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
#
# Sparse dictionary-of-rows storage, but the algorithm and its output are the
# plain classical reduction: at each step pick the remaining entry of minimal
# absolute value (ties broken by row-major position), move it to the pivot
# slot, clear its row and column by exact division steps, and absorb any
# remaining entry the pivot does not divide.  That local divisibility sweep
# makes the diagonal a divisibility chain with no separate pass.


class _SparseWork:
    """Row-dict matrix with a column index, supporting the SNF row/col ops."""

    __slots__ = ("m", "n", "row", "colidx")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.row: dict[int, dict[int, int]] = {}
        self.colidx: dict[int, set[int]] = {}

    @staticmethod
    def from_dense(M: IntMatrix) -> "_SparseWork":
        w = _SparseWork(M.rows, M.cols)
        for i, r in enumerate(M.data):
            d = {j: v for j, v in enumerate(r) if v}
            if d:
                w.row[i] = d
                for j in d:
                    w.colidx.setdefault(j, set()).add(i)
        return w

    @staticmethod
    def eye(n: int) -> "_SparseWork":
        w = _SparseWork(n, n)
        for i in range(n):
            w.row[i] = {i: 1}
            w.colidx[i] = {i}
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
        for j, v in list(rs.items()):
            nv = rd.get(j, 0) + mult * v
            if nv:
                rd[j] = nv
                self.colidx.setdefault(j, set()).add(dst)
            elif j in rd:
                del rd[j]
                self.colidx[j].discard(dst)
                if not self.colidx[j]:
                    del self.colidx[j]
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

    def to_dense(self) -> IntMatrix:
        out = [[0] * self.n for _ in range(self.m)]
        for i, r in self.row.items():
            for j, v in r.items():
                out[i][j] = v
        return IntMatrix(self.m, self.n, out)


def _snf_engine(A: _SparseWork, want_u: bool, want_v: bool):
    m, n = A.m, A.n
    U = _SparseWork.eye(m) if want_u else None
    VT = _SparseWork.eye(n) if want_v else None  # rows of VT are columns of V
    t = 0
    limit = min(m, n)
    while t < limit:
        # deterministic pivot search: minimal |value|, ties row-major
        best = None
        for i in sorted(A.row):
            if i < t:
                continue
            row = A.row[i]
            for j in sorted(row):
                if j < t:
                    continue
                a = abs(row[j])
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
            if best is not None and best[0] == 1:
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
            offender = None
            for i in sorted(A.row):
                if i <= t:
                    continue
                for j, v in sorted(A.row[i].items()):
                    if j > t and v % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
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


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(U, D, V)`` with ``U @ M @ V == D`` diagonal and
    each diagonal entry dividing the next."""
    A, U, VT, _ = _snf_engine(_SparseWork.from_dense(M), True, True)
    return U.to_dense(), A.to_dense(), VT.to_dense().transpose()


def invariant_factors(M: IntMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form, cheapest path (no U or V)."""
    A, _, _, rank = _snf_engine(_SparseWork.from_dense(M), False, False)
    return [A.get(i, i) for i in range(rank)]


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns form a basis of ``{x : M x = 0}`` (a saturated sublattice)."""
    A, _, VT, rank = _snf_engine(_SparseWork.from_dense(M), False, True)
    cols = []
    for j in range(rank, M.cols):
        r = VT.row.get(j, {})
        cols.append([r.get(i, 0) for i in range(M.cols)])
    return IntMatrix.from_cols(cols, M.cols)


class SmithSolver:
    """Integer solutions of ``M x = b`` from one cached Smith form of M.

    With ``U M V = D``, ``M x = b`` has an integer solution exactly when
    ``U b`` vanishes past the rank and each entry before it is divisible by
    the matching diagonal entry; then ``x = V y`` with ``y = D^-1 U b``.
    """

    __slots__ = ("A", "U", "VT", "rank", "cols")

    def __init__(self, M: IntMatrix):
        self.A, self.U, self.VT, self.rank = _snf_engine(
            _SparseWork.from_dense(M), True, True)
        self.cols = M.cols

    def __call__(self, b: Sequence[int]) -> Optional[list[int]]:
        """One solution of ``M x = b``, or None."""
        A, rank = self.A, self.rank
        y = [0] * self.cols
        for i, r in self.U.row.items():
            ub = 0
            for j, v in r.items():
                bv = b[j]  # b is mostly zeros on the levels this package carves
                if bv:
                    ub += v * bv
            if not ub:
                continue
            if i >= rank:
                return None
            q, rem = divmod(ub, A.get(i, i))
            if rem:
                return None
            y[i] = q
        x = [0] * self.cols
        for j, yv in enumerate(y):
            if yv:
                for i, v in self.VT.row.get(j, {}).items():
                    x[i] += yv * v
        return x


def solve(M: IntMatrix, b: Sequence[int]) -> Optional[list[int]]:
    """One integer solution of ``M x = b``, or None."""
    return SmithSolver(M)(b)


def column_space_basis(M: IntMatrix) -> IntMatrix:
    """A basis (as columns) of the column span of M."""
    A, _, VT, rank = _snf_engine(_SparseWork.from_dense(M), False, True)
    if rank == 0:
        return IntMatrix(M.rows, 0, [[] for _ in range(M.rows)])
    vcols = []
    for j in range(rank):
        r = VT.row.get(j, {})
        vcols.append({i: v for i, v in r.items()})
    out = []
    for col in vcols:
        acc = [0] * M.rows
        for jj, v in col.items():
            if v:
                for i in range(M.rows):
                    mv = M.data[i][jj]
                    if mv:
                        acc[i] += v * mv
        out.append(acc)
    return IntMatrix.from_cols(out, M.rows)


class Lattice:
    """Integer column lattice with membership test and canonical reduction."""

    def __init__(self, gens: IntMatrix):
        self.ambient = gens.rows
        self.gens = gens
        # column-style Hermite form: lower staircase, positive pivots,
        # entries right of a pivot reduced into [0, pivot)
        self._hnf_cols, self._pivots = self._hermite(gens)

    @staticmethod
    def _hermite(M: IntMatrix):
        cols = [dict((i, v) for i, v in enumerate(c) if v) for c in M.columns()]
        cols = [c for c in cols if c]
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

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of ``vec`` modulo the lattice."""
        v = list(vec)
        for c, i in zip(self._hnf_cols, self._pivots):
            q = v[i] // c[i]
            if q:
                for k, cv in c.items():
                    v[k] -= q * cv
        return tuple(v)

    def member(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(vec))


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form: free rank plus a divisibility chain of torsion."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")

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

    def __init__(self, ngens: int, relations: Optional[IntMatrix] = None):
        if relations is None:
            relations = IntMatrix(ngens, 0, [[] for _ in range(ngens)])
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
        return self.lattice.member(vec)

    def canonical(self) -> FgAbelianGroup:
        if self._canonical is None:
            facs = invariant_factors(self.relations)
            tors = tuple(d for d in facs if d >= 2)
            self._canonical = FgAbelianGroup(self.ngens - len(facs), tors)
        return self._canonical

    def __repr__(self):
        return f"PresentedAb(ngens={self.ngens}, nrels={self.relations.cols})"


def direct_sum(a: PresentedAb, b: PresentedAb) -> PresentedAb:
    n = a.ngens + b.ngens
    cols = ([c + [0] * b.ngens for c in a.relations.columns()]
            + [[0] * a.ngens + c for c in b.relations.columns()])
    return PresentedAb(n, IntMatrix.from_cols(cols, n))


def tensor(a: PresentedAb, b: PresentedAb) -> PresentedAb:
    """Tensor product; generators are pairs (i, j) ordered lexicographically."""
    n = a.ngens * b.ngens
    cols = []
    for rc in a.relations.columns():
        for j in range(b.ngens):
            col = [0] * n
            for i, v in enumerate(rc):
                if v:
                    col[i * b.ngens + j] = v
            cols.append(col)
    for rc in b.relations.columns():
        for i in range(a.ngens):
            col = [0] * n
            for j, v in enumerate(rc):
                if v:
                    col[i * b.ngens + j] = v
            cols.append(col)
    return PresentedAb(n, IntMatrix.from_cols(cols, n))


class AbHom:
    """Homomorphism of presented groups, given by a matrix on generators."""

    def __init__(self, domain: PresentedAb, codomain: PresentedAb,
                 matrix: IntMatrix, check: bool = True):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError("hom matrix shape mismatch")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        if check and not hom_is_well_defined(domain, codomain, matrix):
            raise ValueError("map does not kill a domain relation")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbHom):
            return NotImplemented
        if self.matrix.cols != other.matrix.cols or self.matrix.rows != other.matrix.rows:
            return False
        diff = self.matrix - other.matrix
        return all(self.codomain.is_zero_element(c) for c in diff.columns())

    __hash__ = None  # type: ignore[assignment]

    def is_isomorphism(self) -> bool:
        # surjective: image + relations span the full ambient lattice
        span = self.matrix.hstack(self.codomain.relations)
        facs = invariant_factors(span)
        if len(facs) < self.codomain.ngens or any(d != 1 for d in facs):
            return False
        # injective: anything mapping into the codomain lattice lies in the
        # domain lattice
        stacked = self.matrix.hstack(-self.codomain.relations)
        ker = kernel_basis(stacked)
        for col in ker.columns():
            if not self.domain.is_zero_element(col[:self.domain.ngens]):
                return False
        return True


def hom_is_well_defined(domain: PresentedAb, codomain: PresentedAb, matrix: IntMatrix) -> bool:
    return all(codomain.is_zero_element(matrix.apply(rc))
               for rc in domain.relations.columns())


# ---------------------------------------------------------------------------
# subquotients: (span K) / (span S) inside Z^n, with lifts


class SubQuotient:
    """A subgroup-of-a-quotient presented on a basis of its lift.

    ``pres`` is the presented group; ``lift`` maps its generators to ambient
    vectors; ``express`` writes an ambient vector (known to lie in the
    subgroup's lift) in those generators.
    """

    def __init__(self, ambient: int, span_cols: list[list[int]], sub_cols: list[list[int]]):
        self.ambient = ambient
        span = IntMatrix.from_cols(_dedup_cols(span_cols), ambient)
        self.lift = column_space_basis(span)
        r = self.lift.cols
        self.express = SmithSolver(self.lift)
        if self.express.rank != r:
            raise RuntimeError("column basis was not a basis")
        rel_in_coords = []
        for c in _dedup_cols(sub_cols):
            coords = self.express(c)
            if coords is None:
                raise ValueError("relation column not inside the subgroup")
            rel_in_coords.append(coords)
        self.pres = PresentedAb(r, IntMatrix.from_cols(_dedup_cols(rel_in_coords), r))


def _dedup_cols(cols: Iterable[Sequence[int]]) -> list[list[int]]:
    seen = set()
    out = []
    for c in cols:
        t = tuple(c)
        if any(t) and t not in seen:
            seen.add(t)
            out.append(list(c))
    return out


def fixed_subgroup(group: PresentedAb, endos: Sequence[IntMatrix]) -> tuple[PresentedAb, AbHom]:
    """Largest subgroup on which every listed endomorphism acts as identity.

    Returns the fixed group together with its inclusion.  Each endomorphism
    must be well defined on ``group`` (it must preserve the relation lattice).
    """
    n = group.ngens
    for e in endos:
        if not hom_is_well_defined(group, group, e):
            raise ValueError("endomorphism does not preserve relations")
    rels = group.relations
    nr = rels.cols
    endos = [e for e in endos if e != IntMatrix.identity(n)]
    if not endos:
        sq = SubQuotient(n, [list(c) for c in IntMatrix.identity(n).columns()],
                         [list(c) for c in rels.columns()])
    else:
        # x is fixed iff (e - 1) x lies in the relation lattice, for every e
        blocks = []
        for k, e in enumerate(endos):
            diff = e - IntMatrix.identity(n)
            row_block = diff
            for k2 in range(len(endos)):
                pad = -rels if k2 == k else IntMatrix.zeros(n, nr)
                row_block = row_block.hstack(pad)
            blocks.append(row_block)
        big = blocks[0]
        for b in blocks[1:]:
            big = big.vstack(b)
        ker = kernel_basis(big)
        xs = [col[:n] for col in ker.columns()]
        sq = SubQuotient(n, xs + [list(c) for c in rels.columns()],
                         [list(c) for c in rels.columns()])
    incl = AbHom(sq.pres, group, sq.lift, check=False)
    return sq.pres, incl


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Bounded complex ... -> C_1 -> C_0 of presented groups.

    ``boundaries[k]`` is the matrix of the map C_k -> C_{k-1}; the list is
    indexed from k = 1.  Validation checks that composites vanish modulo the
    target relations.
    """

    def __init__(self, levels: list[PresentedAb], boundaries: list[IntMatrix],
                 check: bool = True):
        if len(boundaries) != max(0, len(levels) - 1):
            raise ValueError("need exactly len(levels) - 1 boundaries")
        self.levels = levels
        self.boundaries = boundaries
        if check:
            for k in range(1, len(boundaries)):
                square = boundaries[k - 1] @ boundaries[k]
                for col in square.columns():
                    if not levels[k - 1].is_zero_element(col):
                        raise ValueError(f"boundary composite at degree {k + 1} is nonzero")
            for k, b in enumerate(boundaries, start=1):
                if not hom_is_well_defined(levels[k], levels[k - 1], b):
                    raise ValueError(f"boundary at degree {k} not well defined")

    def top(self) -> int:
        return len(self.levels) - 1

    def homology(self, k: int) -> FgAbelianGroup:
        return self.homology_data(k).pres.canonical()

    def homology_data(self, k: int) -> SubQuotient:
        """Homology at degree k with generator lifts, for induced maps."""
        if not (0 <= k <= self.top()):
            raise ValueError("degree out of range")
        nk = self.levels[k].ngens
        relk = self.levels[k].relations
        if k == 0:
            cycles = [list(c) for c in IntMatrix.identity(nk).columns()]
        else:
            d = self.boundaries[k - 1]
            rel_prev = self.levels[k - 1].relations
            stacked = d.hstack(-rel_prev) if rel_prev.cols else d
            ker = kernel_basis(stacked)
            cycles = [col[:nk] for col in ker.columns()]
        sub = [list(c) for c in relk.columns()]
        if k < self.top():
            sub += [list(c) for c in self.boundaries[k].columns()]
        return SubQuotient(nk, cycles + sub, sub)


def induced_map(h_dom: SubQuotient, h_cod: SubQuotient, chain_map: IntMatrix) -> IntMatrix:
    """Matrix of the map induced on homology by a chain map."""
    cols = []
    for j in range(h_dom.lift.cols):
        img = chain_map.apply(h_dom.lift.column(j))
        coords = h_cod.express(img)
        if coords is None:
            raise ValueError("chain map does not send cycles to cycles")
        cols.append(coords)
    return IntMatrix.from_cols(cols, h_cod.pres.ngens)
