"""Independent reference computations used only by the test suite.

Everything here is deliberately built from raw multiplication tables and
plain integer matrices, bypassing the structured-homomorphism machinery,
so that agreement between the two is evidence rather than tautology.
"""

from itertools import product

from equiloday.exactalg import (ChainComplex, IntMatrix, PresentedAb,
                                _SparseWork, kernel_basis)
from equiloday.gring import PresentedRing


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


def _spread_relations(ring: PresentedRing, nslots: int) -> IntMatrix:
    """Additive relations of a tensor power: each ring relation in each slot,
    against every basis combination in the remaining slots."""
    rank = ring.ngens
    total = rank ** nslots
    cols = []
    for pos in range(nslots):
        outer = rank ** pos
        inner = rank ** (nslots - pos - 1)
        for rc in ring.ab.relations.columns():
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
    levels = [PresentedAb(rank ** (n + 1), _spread_relations(ring, n + 1))
              for n in range(max_k + 2)]
    bounds = []
    for n in range(1, max_k + 2):
        total = None
        for i in range(n + 1):
            m = cyclic_bar_face_matrix(ring, n, i)
            signed = m if i % 2 == 0 else -m
            total = signed if total is None else total + signed
        bounds.append(total)
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
    return PresentedAb(d0.rows, d0 + (-d1)).canonical()


# ---------------------------------------------------------------------------
# the Smith-form engine as it was before its pivot search went sparse


def reference_snf_engine(A: _SparseWork, want_u: bool, want_v: bool):
    """Smith reduction with a full sorted scan per pivot and per sweep.

    Kept verbatim as the reference: ``exactalg._snf_engine`` must pick the
    same pivots and so return the same ``A``, ``U``, ``VT`` and rank.
    """
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
