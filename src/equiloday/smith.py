"""Smith normal form of sparse integer matrices, and what is read off it.

Sparse dictionary-of-rows storage, but the algorithm and its output are the
plain classical reduction: at each step pick the remaining entry of minimal
absolute value (ties broken by row-major position), move it to the pivot
slot, clear its row and column by exact division steps, and absorb any
remaining entry the pivot does not divide.  That local divisibility sweep
makes the diagonal a divisibility chain with no separate pass.

Only A, the matrix being reduced, keeps a column index (``colidx``): the
engine walks column t through it, and ``add_col``/``swap_cols`` find their
rows there.  U and VT change a row at a time and are ``_Rows``, without
one; ``SmithSolver`` indexes the columns of U once, after the engine.

Three readers take the reduction: ``invariant_factors`` the diagonal alone,
``kernel_columns`` the kernel off V, and ``SmithSolver`` solutions of
``M x = b`` off U, D and V.  Inputs are sparse rows (``sparse_rows`` of an
``exactalg.IntMatrix`` or ``exactalg.SparseMatrix``, or ``_condition_rows``);
the dense front doors ``exactalg.kernel_basis`` and
``exactalg.column_space_basis`` are built on these.

Only the transform readers, ``kernel_columns`` and ``SmithSolver`` (and
through them every carved basis, generator lift and ``--emit-complex``
byte), read the engine's pivot order.  Invariant factors do not depend on
it, so ``invariant_factors`` first takes the unit pivots in a fill-aware
order (``_drop_unit_pivots``) and runs the engine on the unit-free rest
alone.

>>> from equiloday.exactalg import IntMatrix
>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> invariant_factors(M)
[2, 4]
>>> SmithSolver(M)([(0, 2), (1, 2)])   # x with M x = (2, 2), sparse
[(0, -1), (1, 1)]
>>> SmithSolver(M)([(0, 1)]) is None     # (1, 0) is off the lattice
True
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .exactalg import IntMatrix, SparseMatrix


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


def _drop_unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]], int]:
    """Eliminate unit pivots from the matrix with sparse rows ``rows``
    (consumed).  Returns the number of pivots taken, and the rest as sparse
    rows, columns increasing, on its nonzero columns compacted to
    0, 1, 2, ..., with that number of columns: no entry of it is +-1.

    The order is fill-aware, a greedy form of Markowitz's rule: a +-1 entry
    of the shortest row left, in that row's unit column with the fewest
    entries.  No transform is kept, so once the pivot's column is cleared
    its row touches no other column, and the row and the column are
    dropped, each a factor 1.

    >>> _drop_unit_pivots([{0: 2, 1: 1}, {0: 4, 1: 3}])   # [[2, 1], [4, 3]]
    (1, [{0: -2}], 1)

    Rows wait in buckets by length, and the shortest bucket goes first.  A
    row is queued again whenever it changes, and a queued length that is
    stale is skipped, so every row left was looked at, and held no unit,
    after its last change.  (A bucket queue: ``heapq`` would add a module
    to the start-up of every command.)
    The column index holds lists, not sets: a column has few entries, and
    a set's table costs several times a short list's memory.
    """
    colidx: dict[int, list[int]] = {}
    queue: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            colidx.setdefault(j, []).append(i)
        if r:
            queue.setdefault(len(r), []).append(i)
    units = 0
    while queue:
        size = min(queue)
        waiting = queue[size]
        i = waiting.pop()
        if not waiting:
            del queue[size]
        r = rows[i]
        if len(r) != size:
            continue
        cands = [j for j, v in r.items() if v == 1 or v == -1]
        if not cands:
            continue
        pj = min(cands, key=lambda j: len(colidx[j]))
        p = r.pop(pj)
        rows[i] = {}
        for j in r:
            colidx[j].remove(i)
        colidx[pj].remove(i)
        # clear column pj: row k -= (its entry times p) * row i; the
        # entry in column pj itself is dropped with the column
        for k in colidx.pop(pj):
            rk = rows[k]
            mult = -rk.pop(pj) * p
            for j, v in r.items():
                old = rk.get(j)
                if old is None:
                    rk[j] = mult * v
                    colidx[j].append(k)
                elif nv := old + mult * v:
                    rk[j] = nv
                else:
                    del rk[j]
                    colidx[j].remove(k)
            if rk:
                queue.setdefault(len(rk), []).append(k)
        units += 1
    cmap = {j: c for c, j in enumerate(sorted(j for j, s in colidx.items() if s))}
    rest = [{cmap[j]: v for j, v in sorted(r.items())} for r in rows if r]
    return units, rest, len(cmap)


def invariant_factors(M: IntMatrix | SparseMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form, cheapest path (no U or V): the
    unit pivots in ``_drop_unit_pivots``'s order, then the engine on the
    unit-free rest."""
    units, rows, ncols = _drop_unit_pivots(M.sparse_rows())
    A, _, _, rank = _snf_engine(_SparseWork.from_rows(rows, ncols), False, False)
    return [1] * units + [A.get(i, i) for i in range(rank)]


def kernel_columns(rows: list[dict[int, int]], n: int,
                   keep: int) -> list[list[tuple[int, int]]]:
    """The first ``keep`` coordinates of the ``exactalg.kernel_basis``
    columns of the matrix with ``n`` columns and sparse rows ``rows`` (as
    ``from_rows`` takes them, and consumes them), as ``SparseMatrix``
    columns."""
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

    def __init__(self, M: IntMatrix | SparseMatrix):
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
