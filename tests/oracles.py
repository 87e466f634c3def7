"""Independent reference computations used only by the test suite.

Most of this is deliberately built from raw multiplication tables and
plain integer matrices, bypassing the structured-homomorphism machinery,
so that agreement between the two is evidence rather than tautology.  The
rest are the dense front doors and second routes that only tests read
(``smith_normal_form``, ``solve``, ``AbHom``, ``isomorphisms_to``,
``project_power_to_norm``, ``hom_equal_dense``, ``oracle_h0``): the
package itself keeps only what its pipeline calls.
"""

from itertools import product
from typing import Optional, Sequence

from equiloday import exactalg, gring
from equiloday.exactalg import (ChainComplex, FgAbelianGroup, IntMatrix,
                                PresentedAb, SmithSolver, SparseMatrix,
                                SubQuotient, _condition_rows,
                                hom_is_well_defined, invariant_factors,
                                kernel_basis, kernel_columns)
from equiloday.fingroup import FiniteGroup
from equiloday.gring import (DENSE_BUDGET, NormRing, PresentedRing,
                             RingWithAction, StructuredHom, group_power_ring)
from equiloday.homology import _fixed_level, _generating_subset, _restricted


# ---------------------------------------------------------------------------
# graph Betti numbers by union-find


def graph_betti(nverts: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(b0, b1) of a multigraph: components by union-find, then
    b1 = E - V + b0.  Loops and parallel edges count."""
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = len({find(v) for v in range(nverts)})
    return comps, len(edges) - nverts + comps


def space_graph_betti(space) -> tuple[int, int]:
    """Betti numbers of the 1-skeleton of a cell space, counted elementwise."""
    g = space.group
    verts = []
    vindex = {}
    for ci, cell in enumerate(space.cells):
        if cell.dim == 0:
            for rep in g.transversal(cell.isotropy):
                vindex[(ci, g.coset_index(cell.isotropy)[rep])] = len(verts)
                verts.append((ci, rep))
    edges = []
    for ci, cell in enumerate(space.cells):
        if cell.dim != 1:
            continue
        c0, _, u0 = cell.faces[0]
        c1, _, u1 = cell.faces[1]
        cidx0 = g.coset_index(space.cells[c0].isotropy)
        cidx1 = g.coset_index(space.cells[c1].isotropy)
        for rep in g.transversal(cell.isotropy):
            a = vindex[(c1, cidx1[g.mul(rep, u1)])]
            b = vindex[(c0, cidx0[g.mul(rep, u0)])]
            edges.append((a, b))
    return graph_betti(len(verts), edges)


# ---------------------------------------------------------------------------
# the cyclic bar complex, by raw table multiplication


def _tuples(rank: int, n: int):
    return product(range(rank), repeat=n)


def _tuple_index(rank: int, t: tuple[int, ...]) -> int:
    out = 0
    for v in t:
        out = out * rank + v
    return out


def cyclic_bar_face(ring: PresentedRing, vec: dict, i: int) -> dict:
    """One face of the cyclic bar complex on a sparse vector of tuples.

    Slots 0..N; for i < N multiply slot i by slot i+1, for i = N wrap the
    last slot around into slot 0 from the left by a_N * a_0."""
    rank = ring.ngens
    out: dict = {}
    for t, coef in vec.items():
        n = len(t) - 1
        if i < n:
            prod = ring.vec_mul(
                [1 if k == t[i] else 0 for k in range(rank)],
                [1 if k == t[i + 1] else 0 for k in range(rank)])
            prod = ring.reduce_vec(prod)
            rest = t[:i] + (None,) + t[i + 2:]
            for v, c in enumerate(prod):
                if c:
                    key = tuple(v if x is None else x for x in rest)
                    out[key] = out.get(key, 0) + coef * c
        else:
            prod = ring.vec_mul(
                [1 if k == t[n] else 0 for k in range(rank)],
                [1 if k == t[0] else 0 for k in range(rank)])
            prod = ring.reduce_vec(prod)
            rest = (None,) + t[1:n]
            for v, c in enumerate(prod):
                if c:
                    key = tuple(v if x is None else x for x in rest)
                    out[key] = out.get(key, 0) + coef * c
    return {k: v for k, v in out.items() if v}


def cyclic_bar_face_matrix(ring: PresentedRing, n: int, i: int) -> IntMatrix:
    """Dense face matrix A^(n+1) -> A^n of the cyclic bar complex."""
    rank = ring.ngens
    cols = []
    for t in _tuples(rank, n + 1):
        img = cyclic_bar_face(ring, {t: 1}, i)
        col = [0] * rank ** n
        for key, c in img.items():
            col[_tuple_index(rank, key)] = c
        cols.append(col)
    return IntMatrix.from_cols(cols, rank ** n)


def _sparse(m: IntMatrix) -> SparseMatrix:
    return SparseMatrix.from_cols(m.columns(), m.rows)


def _hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix(a.rows, a.cols + b.cols, [r + s for r, s in zip(a.data, b.data)])


def _spread_relations(ring: PresentedRing, nslots: int) -> IntMatrix:
    """Additive relations of a tensor power: each ring relation in each slot,
    against every basis combination in the remaining slots."""
    rank = ring.ngens
    total = rank ** nslots
    cols = []
    for pos in range(nslots):
        outer = rank ** pos
        inner = rank ** (nslots - pos - 1)
        for rc in ring.ab.relations.to_dense().columns():
            for o in range(outer):
                for i in range(inner):
                    col = [0] * total
                    for k, v in enumerate(rc):
                        if v:
                            col[(o * rank + k) * inner + i] = v
                    cols.append(col)
    return IntMatrix.from_cols(cols, total)


def cyclic_bar_homology(ring: PresentedRing, max_k: int) -> list:
    """Hochschild homology of the ring in degrees 0..max_k, canonical form."""
    rank = ring.ngens
    levels = [PresentedAb(rank ** (n + 1), _sparse(_spread_relations(ring, n + 1)))
              for n in range(max_k + 2)]
    bounds = []
    for n in range(1, max_k + 2):
        total = None
        for i in range(n + 1):
            m = cyclic_bar_face_matrix(ring, n, i)
            signed = m if i % 2 == 0 else -m
            total = signed if total is None else total + signed
        bounds.append(_sparse(total))
    cx = ChainComplex(levels, bounds)
    return [cx.homology(k) for k in range(max_k + 1)]


# ---------------------------------------------------------------------------
# edgewise subdivision of the cyclic bar complex


def sd_level(r: int, k: int) -> int:
    """Level of the big complex seen in degree k after r-fold subdivision."""
    return r * (k + 1) - 1


def sd_face(ring: PresentedRing, r: int, k: int, i: int,
            t: tuple[int, ...]) -> dict:
    """Face d_i of the r-fold edgewise subdivision on one basis tuple of
    length r*(k+1): the big faces at positions i, i+(k+1), ..., applied
    from the largest position down."""
    positions = [i + j * (k + 1) for j in range(r)]
    vec = {t: 1}
    for p in sorted(positions, reverse=True):
        vec = cyclic_bar_face(ring, vec, p)
    return vec


def sd_face_column(ring: PresentedRing, r: int, k: int, i: int,
                   t: tuple[int, ...]) -> list[int]:
    rank = ring.ngens
    out_len = rank ** (r * k)
    img = sd_face(ring, r, k, i, t)
    col = [0] * out_len
    for key, c in img.items():
        col[_tuple_index(rank, key)] = c
    return col


# ---------------------------------------------------------------------------
# degree-zero homology of a simplicial abelian level pair, from scratch


def coequalizer_h0(d0: IntMatrix, d1: IntMatrix):
    """Cokernel of d0 - d1 in canonical form."""
    return PresentedAb(d0.rows, _sparse(d0 + (-d1))).canonical()


# ---------------------------------------------------------------------------
# the Smith-form engine as it was before its pivot search went sparse, on
# its own copy of the work matrix as it was then


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

    @staticmethod
    def eye(n: int) -> "_SparseWork":
        # U and VT as the reference engine in the tests keeps them
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


def reference_snf_engine(A, want_u: bool, want_v: bool):
    """Smith reduction with a full sorted scan per pivot and per sweep.

    Kept verbatim as the reference: ``exactalg._snf_engine`` must pick the
    same pivots and so return the same ``A``, ``U``, ``VT`` and rank.  The
    input, a work matrix fresh from ``exactalg._SparseWork.from_rows``, is
    rebuilt row by row as the ``_SparseWork`` above, in the same order, so
    the two engines share no row or column operation.
    """
    A = _SparseWork.from_rows([dict(A.row.get(i, ())) for i in range(A.m)], A.n)
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


def engine_layout(A, U, VT, rank):
    """What a Smith-form engine returns, in iteration order: A's rows and
    column index, U's and VT's rows (None when not wanted) and the rank.
    Only A carries a column index in ``exactalg._snf_engine``."""
    def rows(w):
        return None if w is None else [(i, list(r.items())) for i, r in w.row.items()]
    return rows(A), [(j, list(s)) for j, s in A.colidx.items()], rows(U), rows(VT), rank


# ---------------------------------------------------------------------------
# the Smith-form solve as it was before it read right-hand sides sparsely


def reference_smith_solve(solver, b):
    """``SmithSolver.__call__`` with a walk over every row of ``U``.

    Kept verbatim as the reference: ``exactalg.SmithSolver`` reads ``U b``
    through the nonzeros of ``b`` and must return the same solution or None.
    """
    self = solver
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


# ---------------------------------------------------------------------------
# structured maps with twist matrices in their targets (before twist ids):
# compose multiplies matrices, equality column-reduces them, and group
# actions are checked on every pair of elements


def matrix_targets(f) -> tuple:
    """``f.targets`` with every twist id replaced by its matrix."""
    matrices = f.src.base.twists.matrices
    return tuple(tuple((s, matrices[t], a) for s, t, a in lst)
                 for lst in f.targets)


def reduce_matrix(ring: PresentedRing, m: IntMatrix) -> tuple:
    """Column-reduced form of a twist matrix, for exact map comparison."""
    return tuple(ring.ab.reduce(m.column(j)) for j in range(m.cols))


def reference_twist_inverse(ring: PresentedRing, m: IntMatrix):
    """Inverse of a twist modulo relations, one dense ``solve`` per unit
    vector on ``[m | relations]``, as ``TwistTable.inverse`` did before it
    kept one Smith form for all of them; None if there is none."""
    n = ring.ngens
    rels = ring.ab.relations.to_dense()
    stacked = _hstack(m, rels)
    cols = []
    for i in range(n):
        sol = solve(stacked, [int(k == i) for k in range(n)])
        if sol is None:
            return None
        cols.append(sol[:n])
    return IntMatrix.from_cols(cols, n)


def reference_compose(outer: tuple, inner: tuple) -> tuple:
    """Matrix targets of ``outer`` after ``inner``."""
    new_targets = []
    for lst in outer:
        out = []
        for s_mid, m, a in lst:
            spliced = [(s0, m @ n, a != b) for (s0, n, b) in inner[s_mid]]
            if a:
                spliced.reverse()
            out.extend(spliced)
        new_targets.append(tuple(out))
    return tuple(new_targets)


def reference_eq(ring: PresentedRing, a_targets: tuple, b_targets: tuple) -> bool:
    """Structural equality of two maps between the same tensor rings,
    bumping the commutativity counter exactly when the old ``__eq__`` did."""
    a = tuple(tuple((s, reduce_matrix(ring, m), a) for s, m, a in lst)
              for lst in a_targets)
    b = tuple(tuple((s, reduce_matrix(ring, m), a) for s, m, a in lst)
              for lst in b_targets)
    # flags never change the additive map; drop them for comparison
    a_flat = tuple(tuple((s, m) for s, m, _ in lst) for lst in a)
    b_flat = tuple(tuple((s, m) for s, m, _ in lst) for lst in b)
    if a_flat == b_flat:
        return True
    if not ring.commutative:
        return False
    a_sorted = tuple(tuple(sorted(lst)) for lst in a_flat)
    b_sorted = tuple(tuple(sorted(lst)) for lst in b_flat)
    if a_sorted == b_sorted:
        gring._bump_commutativity()
        return True
    return False


def reference_sparse(base: PresentedRing, targets: tuple, src_nslots: int,
                     dst_nslots: int) -> SparseMatrix:
    """The expanded matrix of a map given by matrix targets."""
    r = base.ngens
    twist_cols = [[[m.column(j) for j in range(r)] for _, m, _ in lst]
                  for lst in targets]
    slots = [tuple(s for s, _, _ in lst) for lst in targets]
    memo = [{} for _ in targets]
    cols = []
    for idx in product(range(r), repeat=src_nslots):
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
    return SparseMatrix(r ** dst_nslots, cols)


def full_gtensor_check(group, tensor, action):
    """Every-pair multiplicativity check of a structured group action;
    raises ValueError where ``GTensorRing`` must."""
    ident = gring.StructuredHom.identity(tensor)
    if action[0] != ident:
        raise ValueError("identity must act as the identity map")
    for f in action:
        if f.src != tensor or f.dst != tensor:
            raise ValueError("action maps must be endomorphisms of the tensor ring")
    for g in range(group.order):
        for h in range(group.order):
            if action[g].compose(action[h]) != action[group.mul(g, h)]:
                raise ValueError(
                    f"action not multiplicative at "
                    f"({group.names[g]}, {group.names[h]})")


def full_ring_action_check(group, ring: PresentedRing, acts):
    """Every-pair check of a coefficient action given as (twist id, anti)
    pairs, on matrices; raises ValueError where ``RingWithAction`` must."""
    matrices = ring.twists.matrices
    acts = [(matrices[t], a) for t, a in acts]
    ident = IntMatrix.identity(ring.ngens)
    m0, a0 = acts[0]
    if a0 or reduce_matrix(ring, m0) != reduce_matrix(ring, ident):
        raise ValueError("identity element must act as the identity map")
    for g, (m, anti) in enumerate(acts):
        if not ring.matrix_is_morphism(m, anti):
            raise ValueError(f"element {group.names[g]} does not act by a ring "
                             f"{'anti-' if anti else ''}automorphism")
    for g in range(group.order):
        for h in range(group.order):
            mg, ag = acts[g]
            mh, ah = acts[h]
            mgh, agh = acts[group.mul(g, h)]
            if (ag != ah) != agh:
                raise ValueError("anti flags are not multiplicative")
            if reduce_matrix(ring, mg @ mh) != reduce_matrix(ring, mgh):
                raise ValueError("action matrices are not multiplicative")


def full_grouphom_check(src, dst, images):
    """Every-pair homomorphism check; raises ValueError where ``GroupHom``
    must."""
    if images[0] != 0:
        raise ValueError("identity must map to identity")
    for a in range(src.order):
        for b in range(src.order):
            if images[src.table[a][b]] != dst.table[images[a]][images[b]]:
                raise ValueError("not a homomorphism")


# ---------------------------------------------------------------------------
# homology of a complex with dense boundaries, as it was before the sparse path


def dense_homology_data(levels, boundaries, k):
    """``ChainComplex.homology_data`` on ``IntMatrix`` boundaries.

    Kept verbatim as the reference: the cycles are ``kernel_basis`` of the
    dense ``[d | -relations]`` stack.  ``ChainComplex`` reads the same rows
    sparsely and must give the same lifts and presentations.
    """
    if not (0 <= k <= len(levels) - 1):
        raise ValueError("degree out of range")
    nk = levels[k].ngens
    if k == 0:
        cycles = SparseMatrix.identity(nk).data
    else:
        d = boundaries[k - 1]
        rel_prev = levels[k - 1].relations.to_dense()
        stacked = _hstack(d, -rel_prev)
        ker = kernel_basis(stacked)
        cycles = SparseMatrix.from_cols([c[:nk] for c in ker.columns()], nk).data
    sub = levels[k].relations.to_dense().columns()
    if k < len(levels) - 1:
        sub += boundaries[k].columns()
    sub = SparseMatrix.from_cols(sub, nk).data
    return SubQuotient(nk, cycles + sub, sub)


# ---------------------------------------------------------------------------
# dense front doors of the Smith-form engine, and dense linear algebra


def transpose(M: IntMatrix) -> IntMatrix:
    return IntMatrix(M.cols, M.rows,
                     [[M.data[i][j] for i in range(M.rows)] for j in range(M.cols)])


def _dense_rows(row: dict, m: int, n: int) -> IntMatrix:
    """An engine matrix (``row[i]`` = ``{column: value}``) as ``IntMatrix``."""
    out = [[0] * n for _ in range(m)]
    for i, r in row.items():
        for j, v in r.items():
            out[i][j] = v
    return IntMatrix(m, n, out)


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(U, D, V)`` with ``U @ M @ V == D`` diagonal and
    each diagonal entry dividing the next."""
    A, U, VT, _ = exactalg._snf_engine(
        exactalg._SparseWork.from_rows(M.sparse_rows(), M.cols), True, True)
    return (_dense_rows(U.row, M.rows, M.rows), _dense_rows(A.row, M.rows, M.cols),
            transpose(_dense_rows(VT.row, M.cols, M.cols)))


def solve(M: IntMatrix, b: Sequence[int]) -> Optional[list[int]]:
    """One integer solution of ``M x = b``, or None (dense ``b`` and ``x``)."""
    if len(b) != M.rows:
        raise ValueError("vector length mismatch")
    x = SmithSolver(M)([(j, v) for j, v in enumerate(b) if v])
    return None if x is None else SparseMatrix(M.cols, [x]).to_dense().column(0)


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
# homomorphisms of presented groups, for isomorphism checks on homology


class AbHom:
    """Homomorphism of presented groups, given by a matrix on generators."""

    def __init__(self, domain: PresentedAb, codomain: PresentedAb,
                 matrix: IntMatrix):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError("hom matrix shape mismatch")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        if not hom_is_well_defined(domain, codomain, matrix):
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
        img = SparseMatrix.from_cols(self.matrix.columns(), self.matrix.rows).data
        rels = self.codomain.relations
        # surjective: image + relations span the full ambient lattice
        facs = invariant_factors(SparseMatrix(rels.rows, img + rels.data))
        if len(facs) < self.codomain.ngens or any(d != 1 for d in facs):
            return False
        # injective: anything mapping into the codomain lattice lies in the
        # domain lattice
        rows = _condition_rows(len(img), [(SparseMatrix(rels.rows, img), rels)])
        return all(self.domain.is_zero_column(col) for col in kernel_columns(
            rows, len(img) + rels.cols, self.domain.ngens))


# ---------------------------------------------------------------------------
# group isomorphisms by backtracking, to check the group builders


def element_order(g: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = g.table[x][a]
        k += 1
    return k


def isomorphisms_to(g: FiniteGroup, other: FiniteGroup,
                    first_only: bool = True) -> list[tuple[int, ...]]:
    """Isomorphisms g -> other as image tuples, by backtracking on a
    generating sequence with element-order pruning."""
    if g.order != other.order:
        return []
    my_orders = [element_order(g, a) for a in range(g.order)]
    their_orders = [element_order(other, a) for a in range(other.order)]
    if sorted(my_orders) != sorted(their_orders):
        return []
    gens = g.generating_sequence()
    # words expressing every element as a product over gens, via BFS
    word: dict[int, tuple[int, ...]] = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.table[x][s]
                if y not in word:
                    word[y] = word[x] + (s,)
                    nxt.append(y)
        frontier = nxt
    results: list[tuple[int, ...]] = []

    def evaluate(images: dict[int, int]) -> Optional[list[int]]:
        out = [0] * g.order
        for x, w in word.items():
            acc = 0
            for s in w:
                acc = other.table[acc][images[s]]
            out[x] = acc
        if len(set(out)) != g.order:
            return None
        for a in range(g.order):
            for b in range(g.order):
                if out[g.table[a][b]] != other.table[out[a]][out[b]]:
                    return None
        return out

    def extend(k: int, images: dict[int, int]):
        if results and first_only:
            return
        if k == len(gens):
            out = evaluate(images)
            if out is not None:
                results.append(tuple(out))
            return
        s = gens[k]
        for cand in range(other.order):
            if their_orders[cand] == my_orders[s]:
                images[s] = cand
                extend(k + 1, images)
                del images[s]

    extend(0, {})
    return results


def is_isomorphic_to(g: FiniteGroup, other: FiniteGroup) -> bool:
    return bool(isomorphisms_to(g, other))


# ---------------------------------------------------------------------------
# coordinate rings with a permutation action


def coordinate_ring(n: int) -> PresentedRing:
    """Z^n with coordinatewise multiplication; unit is all-ones."""
    mult = [[[1 if (k == i and i == j) else 0 for k in range(n)]
             for j in range(n)] for i in range(n)]
    return PresentedRing(n, None, mult, [1] * n, label=f"Z^{n}")


def permutation_matrix(p, n: int) -> IntMatrix:
    """Coordinate permutation e_j -> e_{p[j]} as a matrix."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[p[j]][j] = 1
    return IntMatrix.from_rows(m)


def coordinate_permutation_action(group: FiniteGroup, perms) -> RingWithAction:
    """A group acting on a coordinate ring by the given one-line tuples."""
    n = len(perms[0])
    ring = coordinate_ring(n)
    return RingWithAction(group, ring,
                          [(ring.twists.intern(permutation_matrix(p, n)), False) for p in perms])


# ---------------------------------------------------------------------------
# structured maps: the direct multiply-down map, and dense equality


def project_power_to_norm(norm: NormRing, u: int = 0) -> StructuredHom:
    """The multiply-down map from the full group power onto a norm.

    Slot g lands in the coset of g*u, twisted by the subgroup action of
    h = c(guH)^-1 g u; the factors arriving in one coset multiply in the
    order of their h values.  This is the map the one-point projection of
    orbits induces on coefficients, built directly, so that it checks
    ``gring.norm_projection`` out of the free norm.
    """
    g = norm.group
    src = group_power_ring(g, norm.rwa.ring)
    entries: list[list[tuple[int, int, int, bool]]] = [[] for _ in norm.cosets]
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
# degree-zero fixed-point homology as a bare coequalizer


def oracle_h0(s, sub: Sequence[int], budget: int = DENSE_BUDGET) -> FgAbelianGroup:
    """Degree-zero homology as a bare coequalizer: coker(d0 - d1) on fixed points.

    Deliberately avoids the normalized complex so the two can check each other.
    """
    g: FiniteGroup = s.group
    subt = tuple(sorted(set(sub) | {0}))
    if not g.is_subgroup(subt):
        raise ValueError(f"{subt} is not a subgroup")
    gens = _generating_subset(g, subt)
    sq = [_fixed_level(s, n, gens, budget) for n in (0, 1)]
    diff = s.expanded_face(1, 0, budget) - s.expanded_face(1, 1, budget)
    rels = sq[0].pres.relations
    rels = SparseMatrix(rels.rows, rels.data + _restricted(sq[0], diff @ sq[1].lift).data)
    return PresentedAb(rels.rows, rels).canonical()
