"""Independent reference computations used only by the test suite.

Everything here is deliberately built from raw multiplication tables and
plain integer matrices, bypassing the structured-homomorphism machinery,
so that agreement between the two is evidence rather than tautology.
"""

from itertools import product

from equiloday.exactalg import (ChainComplex, IntMatrix, PresentedAb,
                                SparseMatrix, SubQuotient, _SparseWork,
                                kernel_basis, solve)
from equiloday import gring
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
