"""Smith normal form of sparse integer matrices, and what is read off it.

One engine, ``_eliminate``, reduces a matrix held as sparse rows with one
pivot rule, and every reader runs it:

* ``invariant_factors`` reads the pivot values alone, and asks for no
  transform;
* ``kernel_columns`` reads V at the columns that hold no pivot, and asks
  for V alone;
* ``SmithSolver`` reads U, the pivots and V, and solves ``M x = b``.

Through them it serves ``exactalg.kernel_basis``,
``exactalg.column_space_basis``, ``exactalg.SubQuotient`` and
``rings.TwistTable.inverse``.  Inputs are sparse rows (``sparse_rows`` of
an ``exactalg.IntMatrix`` or ``exactalg.SparseMatrix``, or
``_condition_rows``).

The rule takes the unit pivots first, in a fill-aware order (a greedy form
of Markowitz's rule), and then the entry of least absolute value of what is
left.  No row or column is ever swapped: the engine returns its pivots as
``(row, column, value)``, each row and each column holding at most one, and
``U M V`` holds exactly those entries.  There is no divisibility sweep:
any pivot order gives the same diagonal up to gcd/lcm steps on its entries
(Dumas-Saunders-Villard, J. Symb. Comput. 2001), which change neither the
rank, nor V's kernel columns, nor which ``b`` are solvable, so only
``invariant_factors`` forms the divisibility chain, and it does so on the
pivot values.

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

from math import gcd
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .exactalg import IntMatrix, SparseMatrix


def _add_row(dst: dict[int, int], src: dict[int, int], mult: int):
    """``dst += mult * src`` on sparse rows of U or VT; ``mult`` nonzero."""
    for j, v in src.items():
        if nv := dst.get(j, 0) + mult * v:
            dst[j] = nv
        else:
            del dst[j]


def _eliminate(rows: list[dict[int, int]], n: int, want_u: bool, want_v: bool):
    """Reduce the matrix with ``n`` columns and sparse rows ``rows``
    (consumed); return ``(pivots, U, VT)``.

    ``pivots`` lists ``(row, column, value)`` in the order taken.  U and
    VT, the rows of VT being the columns of V, are lists of sparse rows, or
    None when not wanted; ``U M V`` is zero but at the pivots.

    Pivot rule.  First the unit pivots, a +-1 entry of the shortest row
    left, in that row's unit column with the fewest entries.  Rows wait in
    buckets by length, and the shortest bucket goes first.  A row is queued
    again whenever it changes, and a queued length that is stale is
    skipped, so every row left was looked at, and held no unit, after its
    last change.  (A bucket queue: ``heapq`` would add a module to the
    start-up of every command.)  Then, on the unit-free rest, the entry of
    least absolute value, the lowest row holding one and its lowest such
    column winning ties, found by a scan of every row.

    At a pivot p in row i and column j, row i leaves the column index and
    each other row k of column j takes ``-(v // p)`` times row i.  When
    that leaves remainders, which are smaller than p, row i goes back and
    the next pick takes one of them.  Otherwise column operations with
    column j, which now touch row i alone, reduce row i the same way; when
    they clear it, row i and column j retire, and row i becomes a fresh
    empty dict, and when they leave remainders, row i goes back holding
    them.  At a unit every remainder is zero.  The column index holds
    lists, not sets: a column has few entries, and a set's table costs
    several times a short list's memory.
    """
    U = [{i: 1} for i in range(len(rows))] if want_u else None
    VT = [{j: 1} for j in range(n)] if want_v else None
    colidx: dict[int, list[int]] = {}
    queue: Optional[dict[int, list[int]]] = {}
    for i, r in enumerate(rows):
        for j in r:
            colidx.setdefault(j, []).append(i)
        if r:
            queue.setdefault(len(r), []).append(i)
    pivots: list[tuple[int, int, int]] = []

    def pivot(i: int, j: int):
        r = rows[i]
        p = r.pop(j)
        for c in r:
            colidx[c].remove(i)
        kept = []
        for k in colidx.pop(j):
            if k == i:
                continue
            rk = rows[k]
            v = rk.pop(j)
            q = v // p
            if q:
                for c, w in r.items():
                    old = rk.get(c)
                    if old is None:
                        rk[c] = -q * w
                        colidx[c].append(k)
                    elif nv := old - q * w:
                        rk[c] = nv
                    else:
                        del rk[c]
                        colidx[c].remove(k)
                if U is not None:
                    _add_row(U[k], U[i], -q)
            if v := v - q * p:
                rk[j] = v
                kept.append(k)
            if queue is not None and rk:
                queue.setdefault(len(rk), []).append(k)
        if not kept:
            left = {}
            for c, v in r.items():
                q = v // p
                if q and VT is not None:
                    _add_row(VT[c], VT[j], -q)
                if v := v - q * p:
                    left[c] = v
            if not left:
                rows[i] = {}
                pivots.append((i, j, p))
                return
            r = rows[i] = left
        for c in r:
            colidx[c].append(i)
        r[j] = p
        colidx[j] = kept + [i]

    while queue:
        size = min(queue)
        waiting = queue[size]
        i = waiting.pop()
        if not waiting:
            del queue[size]
        r = rows[i]
        if len(r) == size:
            units = [j for j, v in r.items() if v == 1 or v == -1]
            if units:
                pivot(i, min(units, key=lambda j: len(colidx[j])))
    queue = None
    while True:
        best = None
        for i, r in enumerate(rows):
            if r:
                a, j = min(zip(map(abs, r.values()), r))
                if best is None or a < best[0]:
                    best = (a, i, j)
        if best is None:
            return pivots, U, VT
        pivot(best[1], best[2])


def invariant_factors(M: IntMatrix | SparseMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form: the pivot values, no transform
    kept, made a divisibility chain by gcd/lcm steps.

    Each value d goes into the chain from the top: while the entry below
    d's place does not divide d, that entry becomes their lcm and d their
    gcd.  Per prime this inserts the exponent of d into a sorted list, so
    the chain stays sorted; the values come in increasing order, so the top
    entry mostly divides d at once."""
    pivots, _, _ = _eliminate(M.sparse_rows(), M.cols, False, False)
    units = 0
    chain: list[int] = []
    for d in sorted(abs(p) for _, _, p in pivots):
        if d == 1:
            units += 1
            continue
        k = len(chain)
        while k and d % chain[k - 1]:
            c = chain[k - 1]
            g = gcd(c, d)
            chain[k - 1] = c // g * d
            d = g
            k -= 1
        chain.insert(k, d)
    return [1] * units + chain


def kernel_columns(rows: list[dict[int, int]], n: int,
                   keep: int) -> list[list[tuple[int, int]]]:
    """The first ``keep`` coordinates of the ``exactalg.kernel_basis``
    columns of the matrix with ``n`` columns and sparse rows ``rows``
    (consumed), as ``SparseMatrix`` columns: the columns of V at the
    columns that hold no pivot, in increasing order."""
    pivots, _, VT = _eliminate(rows, n, False, True)
    taken = {j for _, j, _ in pivots}
    return [sorted((i, v) for i, v in VT[j].items() if i < keep)
            for j in range(n) if j not in taken]


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
    """Integer solutions of ``M x = b`` from one reduction of M.

    ``U M V`` is zero but at the pivots, so ``M x = b`` has an integer
    solution exactly when ``U b`` vanishes off the pivot rows and each
    entry on one is divisible by its pivot; then ``x = V y``, where ``y``
    holds each quotient at its pivot's column.  ``M`` is an ``IntMatrix``
    or a ``SparseMatrix``.  Sparse columns in, sparse columns out.  ``VT``
    is None when ``y`` itself is the answer, indexed by pivot instead.

    ``U b`` is read through the nonzeros of ``b`` (mostly zeros on the
    levels this package carves; U is not), from ``ucols``, the columns of U
    as ``(row, value)`` lists, built once.  U is unimodular, so every row of
    M has its column there, and a row of ``b`` without one is out of range:
    ``ValueError``, not a zero.
    """

    __slots__ = ("pivots", "at_row", "VT", "ucols")

    def __init__(self, M: IntMatrix | SparseMatrix):
        self.pivots, U, self.VT = _eliminate(M.sparse_rows(), M.cols, True, True)
        self.at_row = {i: k for k, (i, _, _) in enumerate(self.pivots)}
        ucols: dict[int, list[tuple[int, int]]] = {}
        for i, r in enumerate(U):
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
            k = self.at_row.get(i)
            if k is None:
                return None
            _, j, p = self.pivots[k]
            q, rem = divmod(v, p)
            if rem:
                return None
            for c, w in VT[j].items() if VT is not None else ((k, 1),):
                x[c] = x.get(c, 0) + q * w
        return sorted((c, v) for c, v in x.items() if v)
