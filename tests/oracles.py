"""Independent reference computations used only by the test suite.

Most of this is deliberately built from raw multiplication tables and
plain integer matrices, bypassing the structured-homomorphism machinery,
so that agreement between the two is evidence rather than tautology.  The
rest are the dense front doors, constructors and second routes that only
tests read (``integers``, ``smith_normal_form``, ``check_engine``,
``solve``, ``sparse_apply``, ``tensor``, ``AbHom``, ``isomorphisms_to``,
``project_power_to_norm``, ``hom_equal_dense``, ``oracle_h0``,
``_moore_complex``) and the code a
rewrite replaced, kept as the reference it is compared against: the package
itself keeps only what its pipeline calls.  The oracles that read single
faces expand them here (``StructuredHom.sparse``), since the pipeline keeps
only their alternating sum.  ``reference_induced_hom``,
``reference_bar`` and ``reference_level_isos`` are the Loday-layer routings
``norms._block_map`` replaced, each written out by hand.  The norm constructions
from ``reference_norm_action`` to ``reference_norm_projection`` each work
out the transversal defect by hand, as ``norms`` did before it read them all
from ``FiniteGroup.coset_split``.
"""

from itertools import product
from math import gcd
from typing import Optional, Sequence

from equiloday import gring, smith
from equiloday.coeffs import Coefficient, load_bundled
from equiloday.exactalg import (ChainComplex, FgAbelianGroup, IntMatrix, Lattice,
                                PresentedAb, SparseMatrix, SubQuotient,
                                hom_is_well_defined, kernel_basis)
from equiloday.fingroup import FiniteGroup, make_cyclic, subgroup_as_group
from equiloday.gring import GTensorRing, StructuredHom, TensorRing, equivariance_defect
from equiloday.homology import (Fixed, LevelComplex, _Normalized, _OrbitFixed,
                                _fixed_level, _one_sign_per_column, _restricted)
from equiloday.loday import SimplicialGRing, loday, transport_to_diagonal
from equiloday.norms import (NormRing, _actions_agree, _ordered_fold, _subgroup_rwa,
                             blocked_diagonal, blocked_ring, coset_blocking,
                             diagonal_power, group_power_ring, tensor_induce,
                             tensor_of_actions)
from equiloday.rings import IDENTITY_TWIST, PresentedRing, RingWithAction
from equiloday.simpgset import EqMap, FinSimpGSet
from equiloday.smith import (SmithSolver, _condition_rows, invariant_factors,
                             kernel_columns)


def integers() -> Coefficient:
    """The integers, the bundled "z" coefficient: only tests build it."""
    return load_bundled("z")


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
# Hochschild homology of R[x]/(f) in closed form


def _times_x(f: Sequence[int], v: list[int]) -> list[int]:
    """x * v in R[x]/(f), on the basis 1, x, ..., x^(d-1); f monic, listed
    from the constant term up."""
    top = v[-1]
    return [a - top * c for a, c in zip([0] + v[:-1], f[:-1])]


def polynomial_mult(f: Sequence[int]) -> list[list[list[int]]]:
    """The multiplication table of R[x]/(f): entry [i][j] is x^(i+j)."""
    d = len(f) - 1
    powers = [[1 if k == 0 else 0 for k in range(d)]]
    for _ in range(2 * d - 2):
        powers.append(_times_x(f, powers[-1]))
    return [[powers[i + j] for j in range(d)] for i in range(d)]


def polynomial_hh(f: Sequence[int], n: int, max_k: int) -> list[FgAbelianGroup]:
    """HH_0..HH_max_k of A = R[x]/(f), with R = Z (n = 0) or Z/n and f monic.

    The closed form (Loday, *Cyclic Homology*; Larsen-Lindenstrauss,
    "Cyclic homology of Dedekind domains", 1992): HH_0 = A, HH_odd =
    A/(f'), HH_even = Ann_A(f') from degree 2 on.  A is Z^d modulo n on the
    basis 1, x, ..., x^(d-1), and f' acts on it by the matrix M; Ann_A(f')
    is {a : M a in nZ^d} modulo nZ^d.
    """
    if f[-1] != 1:
        raise ValueError("f must be monic")
    d = len(f) - 1
    cols = [[(i + 1) * f[i + 1] for i in range(d)]]  # f', then x^j f'
    for _ in range(d - 1):
        cols.append(_times_x(f, cols[-1]))
    mod = [[(i, n)] for i in range(d)] if n else []
    whole = PresentedAb(d, SparseMatrix(d, mod)).canonical()
    odd = PresentedAb(d, SparseMatrix(d, SparseMatrix.from_cols(cols, d).data + mod)).canonical()
    rows = [[cols[j][i] for j in range(d)] + [n if k == i else 0 for k in range(d)]
            for i in range(d)]
    kernel = kernel_basis(IntMatrix.from_rows(rows))
    lattice = [[(i, v) for i, v in enumerate(c[:d]) if v] for c in kernel.columns()]
    even = SubQuotient(d, lattice + mod, mod).pres.canonical()
    return [whole if k == 0 else odd if k % 2 else even for k in range(max_k + 1)]


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
# the Smith-form engine as it was before one fill-aware engine replaced it
# (pivots swapped onto the diagonal, a divisibility sweep), on its own copy
# of the work matrix as it was then


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


def reference_snf_engine(rows: list[dict[int, int]], n: int, want_u: bool, want_v: bool):
    """Smith reduction of the matrix with sparse rows ``rows`` (copied) and
    ``n`` columns, with a full sorted scan per pivot and per sweep, row and
    column swaps and a divisibility sweep: the pivot order the package
    used before ``smith._eliminate``.  Returns ``(A, U, VT, rank)``, the
    ``_SparseWork`` above, with the Smith form on A's diagonal.

    Kept as the reference: the engine must give the same invariant factors
    and a kernel spanning the same lattice, and it shares no row or column
    operation with this one.
    """
    A = _SparseWork.from_rows([dict(r) for r in rows], n)
    m = A.m
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


def reference_factors(rows: list[dict[int, int]], n: int) -> list[int]:
    """The invariant factors on the diagonal ``reference_snf_engine`` leaves."""
    A, _, _, rank = reference_snf_engine(rows, n, False, False)
    return [A.get(i, i) for i in range(rank)]


def _from_rows(rows: list[dict[int, int]], n: int) -> SparseMatrix:
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            cols[j].append((i, v))
    return SparseMatrix(len(rows), cols)


def _spans(a: SparseMatrix, cols: list[list[tuple[int, int]]]) -> bool:
    """Is each of ``cols`` ``a @ x`` for an integer x?  ``SmithSolver``
    finds the x, and each is multiplied back, so a True proves it."""
    solve = SmithSolver(a)
    for col in cols:
        x = solve(col)
        if x is None or (a @ SparseMatrix(a.cols, [x])).data[0] != col:
            return False
    return True


def _unimodular(rows: list[dict[int, int]]) -> bool:
    """Has the square matrix with sparse rows ``rows`` an integer inverse?"""
    n = len(rows)
    return _spans(_from_rows(rows, n), [[(i, 1)] for i in range(n)])


def check_engine(rows: list[dict[int, int]], n: int) -> None:
    """Assert, on the matrix M with ``n`` columns and sparse rows ``rows``
    (not consumed), what the readers of ``smith._eliminate`` rely on:

    * ``U M V`` holds exactly the returned pivots, at most one per row and
      per column, and U and V are unimodular;
    * the invariant factors are ``reference_snf_engine``'s;
    * ``kernel_columns`` are killed by M and span the lattice of the
      reference's kernel columns, each set inside the other's span;
    * ``SmithSolver`` answers None exactly when ``Lattice.member`` rejects
      b, and otherwise solves ``M x = b``, for columns of M, columns of M
      divided by their gcd, columns nudged by a unit vector, and unit
      vectors.  Past 1,000 columns, where ``Lattice``'s Hermite form costs
      seconds, the reference's ``U b`` and diagonal decide membership.
    """
    M = _from_rows(rows, n)
    pivots, U, VT = smith._eliminate([dict(r) for r in rows], n, True, True)
    assert len({i for i, _, _ in pivots}) == len({j for _, j, _ in pivots}) == len(pivots)
    vrows: list[dict[int, int]] = [{} for _ in range(n)]
    for j, r in enumerate(VT):
        for k, v in r.items():
            vrows[k][j] = v
    umv = {}
    for i, u in enumerate(U):
        um: dict[int, int] = {}
        for k, c in u.items():
            for j, v in rows[k].items():
                um[j] = um.get(j, 0) + c * v
        row: dict[int, int] = {}
        for k, v in um.items():
            for j, w in vrows[k].items():
                row[j] = row.get(j, 0) + v * w
        umv.update(((i, j), v) for j, v in row.items() if v)
    assert umv == {(i, j): p for i, j, p in pivots}
    assert _unimodular(U) and _unimodular(VT)

    A, RU, RVT, rank = reference_snf_engine(rows, n, True, True)
    assert invariant_factors(M) == [A.get(i, i) for i in range(rank)]

    kernel = SparseMatrix(n, kernel_columns([dict(r) for r in rows], n, n))
    ref_kernel = SparseMatrix(n, [sorted(RVT.row[j].items()) for j in range(rank, n)])
    assert kernel.cols == ref_kernel.cols == n - len(pivots)
    assert not any((M @ kernel).data)
    assert _spans(kernel, ref_kernel.data) and _spans(ref_kernel, kernel.data)

    def member(b: list[tuple[int, int]]) -> bool:
        bd = dict(b)
        ub = {i: sum(v * bd.get(j, 0) for j, v in r.items()) for i, r in RU.row.items()}
        return all(v % A.get(i, i) == 0 if i < rank else not v for i, v in ub.items() if v)

    solver = SmithSolver(M)
    in_span = Lattice(M).member if n <= 1000 else member
    cases = [[(i, 1)] for i in range(min(len(rows), 4))]
    for col in M.data[:6]:
        if col:
            g = gcd(*(v for _, v in col))
            nudged = dict(col)
            nudged[0] = nudged.get(0, 0) + 1
            cases += [col, [(i, v // g) for i, v in col], sorted(nudged.items())]
    for b in cases:
        b = [(i, v) for i, v in b if v]
        x = solver(b)
        assert (x is None) == (not in_span(b)), b
        if x is not None:
            assert (M @ SparseMatrix(n, [x])).data[0] == b


# ---------------------------------------------------------------------------
# the Smith-form solve as it was before it read right-hand sides sparsely


def reference_smith_solve(solver, b, cols: int):
    """``SmithSolver.__call__`` with a walk over every row of ``U``, for a
    matrix with ``cols`` columns.

    Kept as the reference: ``smith.SmithSolver`` reads ``U b`` through the
    nonzeros of ``b`` and must return the same solution or None.  Here U's
    rows are gathered back from the solver's columns of U.
    """
    urows: dict[int, dict[int, int]] = {}
    for j, col in solver.ucols.items():
        for i, u in col:
            urows.setdefault(i, {})[j] = u
    at_row = {i: (j, p) for i, j, p in solver.pivots}
    y = [0] * cols
    for i, r in sorted(urows.items()):
        ub = 0
        for j, v in r.items():
            bv = b[j]  # b is mostly zeros on the levels this package carves
            if bv:
                ub += v * bv
        if not ub:
            continue
        if i not in at_row:
            return None
        j, p = at_row[i]
        q, rem = divmod(ub, p)
        if rem:
            return None
        y[j] = q
    x = [0] * cols
    for j, yv in enumerate(y):
        if yv:
            for i, v in solver.VT[j].items():
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
    return SubQuotient(nk, cycles, sub)


# ---------------------------------------------------------------------------
# dense front doors of the Smith-form engine, and dense linear algebra


def sparse_apply(M: SparseMatrix, vec: Sequence[int]) -> list[int]:
    """``M`` times a dense vector, walking the sparse columns."""
    if len(vec) != M.cols:
        raise ValueError("vector length mismatch")
    out = [0] * M.rows
    for j, x in enumerate(vec):
        if x:
            for i, v in M.data[j]:
                out[i] += v * x
    return out


def tensor(a: PresentedAb, b: PresentedAb) -> PresentedAb:
    """Tensor product; generators are pairs (i, j) ordered lexicographically."""
    n, m = a.ngens * b.ngens, b.ngens
    cols = [[(i * m + j, v) for i, v in rc]
            for rc in a.relations.data for j in range(m)]
    cols += [[(i * m + j, v) for j, v in rc]
             for rc in b.relations.data for i in range(a.ngens)]
    return PresentedAb(n, SparseMatrix(n, cols))


def transpose(M: IntMatrix) -> IntMatrix:
    return IntMatrix(M.cols, M.rows,
                     [[M.data[i][j] for i in range(M.rows)] for j in range(M.cols)])


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``g = gcd(a, b) = s a + t b``, for a, b > 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, t0, s1, t1 = s1, t1, s0 - q * s1, t0 - q * t1
    return a, s0, t0


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(U, D, V)`` with ``U @ M @ V == D`` diagonal,
    nonnegative, and each diagonal entry dividing the next.

    ``smith._eliminate`` gives U and V with ``U M V`` zero but at its
    pivots.  Here the pivot rows and columns are moved to the front in the
    order taken, the pivots made positive, and each pair of diagonal
    entries a, b that is out of divisibility turned into gcd, lcm by
    ``[[s, t], [-b/g, a/g]] diag(a, b) [[1, -t b/g], [1, s a/g]]``, with
    ``s a + t b = g``: unimodular steps on U's rows and V's columns."""
    pivots, U, VT = smith._eliminate(M.sparse_rows(), M.cols, True, True)
    prow, pcol = {i for i, _, _ in pivots}, {j for _, j, _ in pivots}
    urows = [[U[i].get(k, 0) for k in range(M.rows)]
             for i in [i for i, _, _ in pivots] + [i for i in range(M.rows) if i not in prow]]
    vcols = [[VT[j].get(k, 0) for k in range(M.cols)]
             for j in [j for _, j, _ in pivots] + [j for j in range(M.cols) if j not in pcol]]
    d = [p for _, _, p in pivots]
    for t, p in enumerate(d):
        if p < 0:
            d[t], urows[t] = -p, [-x for x in urows[t]]
    for a_at in range(len(d)):
        for b_at in range(a_at + 1, len(d)):
            a, b = d[a_at], d[b_at]
            if b % a:
                g, s, t = _ext_gcd(a, b)
                ua, ub = urows[a_at], urows[b_at]
                urows[a_at] = [s * x + t * y for x, y in zip(ua, ub)]
                urows[b_at] = [a // g * y - b // g * x for x, y in zip(ua, ub)]
                va, vb = vcols[a_at], vcols[b_at]
                vcols[a_at] = [x + y for x, y in zip(va, vb)]
                vcols[b_at] = [s * a // g * y - t * b // g * x for x, y in zip(va, vb)]
                d[a_at], d[b_at] = g, a // g * b
    D = [[0] * M.cols for _ in range(M.rows)]
    for t, p in enumerate(d):
        D[t][t] = p
    return (IntMatrix(M.rows, M.rows, urows), IntMatrix(M.rows, M.cols, D),
            transpose(IntMatrix(M.cols, M.cols, vcols)))


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
# the dense product and the uncached coset data the package replaced


def reference_vec_mul(ring: PresentedRing, u: Sequence[int],
                      v: Sequence[int]) -> list[int]:
    """``PresentedRing.vec_mul`` as it was before its sparse structure
    constants: every entry of every ``mult`` cell read, then reduced."""
    n = ring.ngens
    out = [0] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            cell = ring.mult[i][j]
            c = ui * vj
            for k in range(n):
                if cell[k]:
                    out[k] += c * cell[k]
    return list(ring.ab.reduce(out))


def reference_left_cosets(g: FiniteGroup, sub: Sequence[int]) -> list[tuple[int, ...]]:
    """Left cosets gH by their minimal element, recomputed on every call."""
    h = sorted(sub)
    seen: set[int] = set()
    cosets = []
    for x in range(g.order):
        if x not in seen:
            coset = tuple(sorted(g.table[x][y] for y in h))
            seen.update(coset)
            cosets.append(coset)
    return cosets


def reference_coset_index(g: FiniteGroup, sub: Sequence[int]) -> list[int]:
    out = [-1] * g.order
    for i, c in enumerate(reference_left_cosets(g, sub)):
        for x in c:
            out[x] = i
    return out


def reference_subgroup_table(g: FiniteGroup, sub: Sequence[int]):
    """(table, names) of a subgroup on its ascending elements, rebuilt."""
    emb = sorted(set(sub))
    pos = {x: i for i, x in enumerate(emb)}
    return (tuple(tuple(pos[g.table[a][b]] for b in emb) for a in emb),
            tuple(g.names[x] for x in emb))


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
    ``norms.norm_projection`` out of the free norm.
    """
    g = norm.group
    src = group_power_ring(g, norm.rwa.ring)
    entries: list[list[tuple[int, int, int, bool]]] = [[] for _ in norm.transversal]
    coset_of = g.coset_index(norm.sub)
    for x in range(g.order):
        xu = g.mul(x, u)
        c = coset_of[xu]
        h = g.mul(g.inv(norm.transversal[c]), xu)
        m, a = norm.act_of(h)
        entries[c].append((h, x, m, a))
    targets = []
    for lst in entries:
        lst.sort(key=lambda e: e[0])
        targets.append([(x, m, a) for (_, x, m, a) in lst])
    return StructuredHom(src, norm.tensor, targets, check=False)


# ---------------------------------------------------------------------------
# the norm constructions as they read each transversal defect by hand, before
# ``FiniteGroup.coset_split``; the rewritten ones must match them


def reference_norm_action(group: FiniteGroup, sub_elems: Sequence[int],
                          rwa: RingWithAction) -> list[StructuredHom]:
    """``NormRing``'s action: element g fills slot t from s = [g^-1 c_t],
    twisted by act(c_t^-1 g c_s)."""
    sub = tuple(sorted(set(sub_elems)))
    pos = {x: i for i, x in enumerate(sub)}
    tensor = TensorRing(rwa.ring, tuple(range(len(reference_left_cosets(group, sub)))))
    coset_of = group.coset_index(sub)
    action = []
    mul, inv, tr = group.mul, group.inv, group.transversal(sub)
    for g in range(group.order):
        targets = []
        for c in tr:
            s = coset_of[mul(inv(g), c)]
            m, a = rwa.acts[pos[mul(mul(inv(c), g), tr[s])]]
            targets.append([(s, m, a)])
        action.append(StructuredHom(tensor, tensor, targets, check=False))
    return action


def reference_coset_blocking(group: FiniteGroup, sub_elems: Sequence[int],
                             base: PresentedRing) -> StructuredHom:
    sub = tuple(sorted(set(sub_elems)))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    src = group_power_ring(group, base)
    dst = blocked_ring(group, sub, base)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    routes = []
    for g in range(group.order):
        c = coset_of[g]
        h = group.mul(group.inv(transversal[c]), g)
        routes.append((g, (c, h), IDENTITY_TWIST, False))
    return StructuredHom.from_routes(src, dst, routes)


def reference_blocked_diagonal(group: FiniteGroup, sub_elems: Sequence[int],
                               rwa_full: RingWithAction) -> GTensorRing:
    sub = tuple(sorted(set(sub_elems)))
    sub_rwa = _subgroup_rwa(group, sub, lambda x: rwa_full.acts[x], rwa_full.ring)
    pos = {x: i for i, x in enumerate(sub)}
    tr = blocked_ring(group, sub, rwa_full.ring)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    action = []
    for g in range(group.order):
        routes = []
        for c in range(len(transversal)):
            t = coset_of[group.mul(g, transversal[c])]
            k = group.mul(group.mul(group.inv(transversal[t]), g), transversal[c])
            m, a = sub_rwa.acts[pos[k]]
            for h in sub:
                routes.append(((c, h), (t, group.mul(k, h)), m, a))
        action.append(StructuredHom.from_routes(tr, tr, routes, check=False))
    return GTensorRing(group, tr, action)


def reference_blocking_diagonal_certificate(group: FiniteGroup,
                                            sub_elems: Sequence[int],
                                            rwa: RingWithAction):
    sub = tuple(sorted(set(sub_elems)))
    xi = coset_blocking(group, sub, rwa.ring)
    src = diagonal_power(rwa)
    dst = blocked_diagonal(group, sub, rwa)
    transversal = group.transversal(sub)
    coset_of = group.coset_index(sub)
    twists = rwa.ring.twists
    defect = []
    witness = {}
    for g in range(group.order):
        left = xi.compose(src.act(g))
        right = dst.act(g).compose(xi)
        assert left.slot_permutation() == right.slot_permutation(), \
            "blocking changed the slot shuffle"
        mism = False
        for c in range(len(transversal)):
            t = coset_of[group.mul(g, transversal[c])]
            k = group.mul(group.mul(group.inv(transversal[t]), g), transversal[c])
            witness[(g, c)] = k
            if not twists.same(rwa.acts[k][0], rwa.acts[g][0]):
                mism = True
        if mism:
            assert left != right, "twist mismatch did not break the comparison"
            defect.append(g)
        else:
            assert left == right, "matching twists failed to agree"
    return defect, witness


def reference_weyl_relabeling(norm: NormRing, gamma: int) -> StructuredHom:
    g = norm.group
    sub = norm.sub
    if g.conjugate_subgroup(gamma, sub) != sub:
        raise ValueError("element does not normalize the subgroup")
    if not _actions_agree(norm, norm, gamma):
        raise ValueError(
            "conjugation by the element moves the coefficient action; "
            "the relabeling would land on a different norm")
    coset_of = g.coset_index(sub)
    ginv = g.inv(gamma)
    routes = []
    for c in range(len(norm.transversal)):
        rep = norm.transversal[c]
        t = coset_of[g.mul(rep, ginv)]
        h = g.mul(ginv, g.mul(g.inv(norm.transversal[t]), rep))
        m, a = norm.act_of(h)
        routes.append((c, t, m, a))
    return StructuredHom.from_routes(norm.tensor, norm.tensor, routes, check=False)


def reference_conjugate_switch(norm: NormRing, gamma: int
                               ) -> tuple[NormRing, StructuredHom]:
    """The pullback along x -> gamma^-1 x gamma is read through the old
    subgroup's local numbering, as the group homomorphism it went along."""
    g = norm.group
    sub = norm.sub
    new_sub = g.conjugate_subgroup(gamma, sub)
    new_local, new_emb = subgroup_as_group(g, new_sub)
    old_local, old_emb = subgroup_as_group(g, sub)
    old_pos = {x: i for i, x in enumerate(old_emb)}
    ginv = g.inv(gamma)
    conj_down = [old_pos[g.conj(ginv, new_emb[i])] for i in range(new_local.order)]
    new_rwa = RingWithAction(new_local, norm.rwa.ring,
                             [norm.rwa.acts[conj_down[i]] for i in range(new_local.order)],
                             check=False)
    new_norm = NormRing(g, new_sub, new_rwa)
    new_coset_of = g.coset_index(new_sub)
    routes = []
    for c in range(len(norm.transversal)):
        rep = norm.transversal[c]
        t = new_coset_of[g.mul(rep, ginv)]
        cprime = new_norm.transversal[t]
        h = g.mul(ginv, g.mul(g.inv(cprime), rep))
        m, a = norm.act_of(h)
        routes.append((c, t, m, a))
    f = StructuredHom.from_routes(norm.tensor, new_norm.tensor, routes, check=False)
    return new_norm, f


def reference_collapse(src: NormRing, dst: NormRing, u: int
                       ) -> list[list[tuple[int, int, int, bool]]]:
    g = src.group
    coset_of = g.coset_index(dst.sub)
    fibers: list[list[tuple[int, int, int, bool]]] = [[] for _ in dst.transversal]
    for c, rep in enumerate(src.transversal):
        cu = g.mul(rep, u)
        t = coset_of[cu]
        d = g.mul(g.inv(dst.transversal[t]), cu)
        fibers[t].append((d, c, *dst.act_of(d)))
    return fibers


def reference_norm_projection(src: NormRing, dst: NormRing) -> StructuredHom:
    """``norms.norm_projection`` past its checks, on ``reference_collapse``."""
    targets = [[(c, m, a) for _, c, m, a in sorted(fiber)]
               for fiber in reference_collapse(src, dst, 0)]
    return StructuredHom(src.tensor, dst.tensor, targets, check=False)


def hom_equal_dense(f: StructuredHom, g: StructuredHom) -> bool:
    """Numeric equality of two maps on the expanded presentation.

    Entry-wise difference must die in the expanded target group.  Used as an
    independent cross-check of structural equality on small instances.
    """
    if f.src != g.src or f.dst != g.dst:
        return False
    target = f.dst.dense_group()
    diff = f.dense() - g.dense()
    return all(target.is_zero_element(c) for c in diff.columns())


# ---------------------------------------------------------------------------
# degree-zero fixed-point homology as a bare coequalizer


def generating_subset(g: FiniteGroup, sub: Sequence[int]) -> list[int]:
    """A generating set of sub, grown in increasing element order: the one
    ``LevelComplex`` imposed fixity at before it read
    ``FiniteGroup.generating_sequence``, and a second choice for tests."""
    gens: list[int] = []
    have = (0,)
    for k in sorted(set(sub)):
        if k not in have:
            gens.append(k)
            have = g.subgroup_generated(gens)
    return gens


def oracle_h0(s, sub: Sequence[int]) -> FgAbelianGroup:
    """Degree-zero homology as a bare coequalizer: coker(d0 - d1) on fixed points.

    Deliberately avoids the normalized complex so the two can check each other.
    """
    g: FiniteGroup = s.group
    subt = tuple(sorted(set(sub) | {0}))
    if not g.is_subgroup(subt):
        raise ValueError(f"{subt} is not a subgroup")
    gens = generating_subset(g, subt)
    sq = [_fixed_level(s, n, gens) for n in (0, 1)]
    diff = s.face(1, 0).sparse() - s.face(1, 1).sparse()
    rels = sq[0].pres.relations
    rels = SparseMatrix(rels.rows, rels.data + _restricted(sq[0], diff @ sq[1].lift).data)
    return PresentedAb(rels.rows, rels).canonical()


# ---------------------------------------------------------------------------
# the Moore complex: kernels of faces 1..n, carved by Smith form


def _joint_solution_span(rank: int, conds: list[tuple[SparseMatrix, SparseMatrix]]
                         ) -> Optional[list[list[tuple[int, int]]]]:
    """Sparse columns spanning all x in Z^rank with A @ x in the lattice of B, per (A, B).

    The solution set of each condition is the projection to the first
    ``rank`` coordinates of the kernel of ``[A | -B]``; stacking the
    conditions block-diagonally in the padding columns solves them jointly.
    ``None`` means no conditions survived (everything solves them).
    """
    conds = [(a, b) for (a, b) in conds if a.rows and any(a.data)]
    if not conds:
        return None
    width = rank + sum(b.cols for _, b in conds)
    return kernel_columns(_condition_rows(rank, conds), width, rank)


def _conditions_subquotient(rank: int, rels: SparseMatrix,
                            conds: list[tuple[SparseMatrix, SparseMatrix]]) -> Fixed:
    """The joint solution set packaged as a subgroup of Z^rank / rels."""
    span = _joint_solution_span(rank, conds)
    if span is None:
        return _OrbitFixed(PresentedAb(rank, rels), [])
    return SubQuotient(rank, span + rels.data, rels.data)


def _moore_complex(lc: LevelComplex) -> tuple[list[Fixed], ChainComplex]:
    """The Moore complex of ``lc``'s fixed levels, and its carvings.

    ``reduced[n]``, for n below the top, carves the intersection of the
    kernels of faces 1..n out of the fixed coordinates; the boundary is
    face 0 restricted.  The top level only ever contributes its boundary
    image, since homology there is out of range, so it gets free generators
    on spanning columns of that intersection (then the relation columns):
    an image is insensitive to redundancy among its spanning columns.
    It is the oracle for ``LevelComplex.normalized``, the quotient by the
    degenerate part, which is isomorphic to it on homology (Dold-Kan).
    """
    fixed, top = lc.fixed, lc.top
    rels = [lc.s.levels[n].tensor.dense_group().relations
            for n in range(top)]  # where the faces land

    def conditions(n: int) -> list[tuple[SparseMatrix, SparseMatrix]]:
        # faces 1..n on the fixed coordinates, each to vanish modulo the
        # relations of level n - 1
        return [(lc.s.face(n, i).sparse() @ fixed[n].lift, rels[n - 1])
                for i in range(1, n + 1)]

    # level 0 has no faces to kill, so its carving is the whole level
    reduced = [_conditions_subquotient(f.pres.ngens, f.pres.relations, conditions(n))
               for n, f in enumerate(fixed[:top])]
    rank = fixed[top].pres.ngens
    span = _joint_solution_span(rank, conditions(top))
    if span is None:
        span = SparseMatrix.identity(rank).data
    top_span = SparseMatrix(rank, span + fixed[top].pres.relations.data)
    inner = [r.lift for r in reduced] + [top_span]
    # two stages: fixed coordinates first, then the carving inside them
    bounds = [_restricted(reduced[n - 1], _restricted(
                  fixed[n - 1], lc.s.face(n, 0).sparse() @ fixed[n].lift @ inner[n]))
              for n in range(1, top + 1)]
    return reduced, ChainComplex([r.pres for r in reduced] + [PresentedAb(top_span.cols)],
                                 bounds)


# ---------------------------------------------------------------------------
# the boundary and the orbit check as the pipeline computed them before
# ``SimplicialGRing.expanded_boundary`` kept one face sum per level


def reference_boundary(s, n: int, cols: SparseMatrix) -> SparseMatrix:
    """The alternating sum of the faces of level n on ambient columns,
    every face expanded, then summed column by column."""
    faces = [s.face(n, i).sparse() for i in range(n + 1)]
    out = []
    for col in cols.data:
        acc: dict[int, int] = {}
        for i, face in enumerate(faces):
            sign = -1 if i % 2 else 1
            for k, w in col:
                for r, v in face.data[k]:
                    acc[r] = acc.get(r, 0) + sign * v * w
        out.append(sorted((r, v) for r, v in acc.items() if v))
    return SparseMatrix(faces[0].rows, out)


def reference_orbit_express(fixed: _OrbitFixed, col: list[tuple[int, int]]
                            ) -> Optional[list[tuple[int, int]]]:
    """``_OrbitFixed.express``, checking its answer by the generic product
    of the lift with the orbit coordinates."""
    out = sorted((k, v) for i, v in col if (k := fixed._head.get(i)) is not None)
    back = fixed.lift @ SparseMatrix(fixed.lift.cols, [out])
    return out if back.data[0] == list(col) else None


# ---------------------------------------------------------------------------
# the fixed-point pipeline as it was before it streamed products: every
# product formed whole before it was read, and every degeneracy of a level
# held at once


def reference_restricted(dst, m: SparseMatrix, lift: SparseMatrix) -> SparseMatrix:
    """``homology._restricted`` of the whole product ``m @ lift``, formed
    first and then expressed column by column."""
    out = []
    for col in (m @ lift).data:
        coords = dst.express(col)
        if coords is None:
            raise ValueError("map does not carry the source subgroup into the target")
        out.append(coords)
    return SparseMatrix(dst.pres.ngens, out)


def reference_chain_check(levels: list[PresentedAb], boundaries: list[SparseMatrix]) -> None:
    """``ChainComplex.__init__``'s composite check, each whole square
    d_(k-1) d_k formed before its columns are read."""
    for k in range(1, len(boundaries)):
        square = boundaries[k - 1] @ boundaries[k]
        if not all(map(levels[k - 1].is_zero_column, square.data)):
            raise ValueError(f"boundary composite at degree {k + 1} is nonzero")


def reference_normalized_level(lc: LevelComplex, n: int) -> _Normalized:
    """``LevelComplex._normalized_level`` with every expanded degeneracy of
    level n held at once, and the degenerate images restricted from whole
    products."""
    fixed = lc.fixed[n]
    degens = [lc.s.degeneracy(n - 1, j).sparse() for j in range(n)]
    if (isinstance(fixed, _OrbitFixed) and not fixed.pres.relations.cols
            and _one_sign_per_column(degens)):
        hit = {col[0][0] for d in degens for col in d.data}
        return _Normalized(fixed, dropped={c for head, c in fixed._head.items()
                                           if head in hit})
    return _Normalized(fixed, degenerate=[
        col for d in degens
        for col in reference_restricted(fixed, d, lc.fixed[n - 1].lift).data])


# ---------------------------------------------------------------------------
# the degenerate tuples the normalized carving once read off the tensor
# layout, verbatim but for its name: the orbits the per-level rule drops are
# compared against these


def reference_degenerate_tuples(s, top: int) -> Optional[list[set[int]]]:
    """Per level n <= top, the basis tuples spanning the degenerate part.

    When the unit is a basis vector e_u and every degeneracy routes each
    source slot to a slot of its own, im s_j is spanned by the tuples with
    u in every slot s_j fills with the unit: a twist is invertible, so the
    other slots run over all tuples.  ``None`` when either premise fails.
    """
    base = s.levels[0].tensor.base
    unit = list(base.unit)
    if sorted(unit) != [0] * (len(unit) - 1) + [1]:
        return None
    u, r = unit.index(1), base.ngens
    out: list[set[int]] = [set()]
    for n in range(1, top + 1):
        found: set[int] = set()
        for d in s.degens[n - 1]:
            if any(len(lst) > 1 for lst in d.targets):
                return None
            idx = [0]
            for lst in d.targets:  # slot 0 is the most significant digit
                idx = [i * r + k for i in idx for k in (range(r) if lst else (u,))]
            found.update(idx)
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# the norm assignments and simplicial-identity checks one shared rule and one
# shared check replaced, verbatim but for their names: the builders' labels,
# expansion keys and validation messages are compared against these


def _trivial_norm(group: FiniteGroup, ring: PresentedRing) -> NormRing:
    one = make_cyclic(1)
    rwa = RingWithAction(one, ring, [(IDENTITY_TWIST, False)])
    return tensor_induce(group, (0,), rwa)


def reference_loday_free(space: FinSimpGSet, rwa: RingWithAction,
                         inner: str = "flip") -> SimplicialGRing:
    """Loday construction over a free G-set; flip or diagonal inner action."""
    if space.mode[0] != "free":
        raise ValueError("space is not in free mode")
    if rwa.group.order != space.group.order:
        raise ValueError("coefficient action is over the wrong group")
    if inner not in ("flip", "diagonal"):
        raise ValueError("inner action must be flip or diagonal")
    norm = _trivial_norm(space.group, rwa.ring)
    norms = [norm] * len(space.cells)
    s = loday(space, norms, label="loday-free-flip")
    if inner == "flip":
        return s
    return transport_to_diagonal(s, rwa)


def reference_loday_one_isotropy(space: FinSimpGSet, rwa: RingWithAction
                                 ) -> SimplicialGRing:
    """Isotropy in one conjugacy class H: conjugate stabilizers pull the
    coefficient action back along the conjugation."""
    if space.mode[0] != "one_isotropy":
        raise ValueError("space is not in one-isotropy mode")
    g = space.group
    h = tuple(space.mode[1])
    if rwa.group.order != len(h):
        raise ValueError("coefficient group does not match the isotropy")
    hpos = {x: i for i, x in enumerate(h)}
    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == (0,):
                cache[iso] = _trivial_norm(g, rwa.ring)
            elif iso == h:
                cache[iso] = tensor_induce(g, h, rwa)
            else:
                gamma = g.are_conjugate_subgroups(iso, h)
                if gamma is None:
                    raise ValueError("isotropy %r not conjugate to %r"
                                     % (iso, h))
                sub = _subgroup_rwa(
                    g, iso,
                    lambda k: rwa.acts[hpos[g.conj(gamma, k)]],
                    rwa.ring)
                cache[iso] = tensor_induce(g, iso, sub)
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    return loday(space, norms, label="loday-one-isotropy")


def reference_loday_two_isotropy(space: FinSimpGSet, coeff: Coefficient
                                 ) -> SimplicialGRing:
    """Two stabilizer subgroups matched by an isomorphism; the coefficient
    involution acts through both."""
    if space.mode[0] != "two_isotropy":
        raise ValueError("space is not in two-isotropy mode")
    if coeff.involution is None:
        raise ValueError("coefficient carries no involution")
    g = space.group
    h = tuple(space.mode[1])
    h2 = tuple(space.mode[2])
    phi = dict(space.mode[3])
    if len(h) != 2 or len(h2) != 2:
        raise ValueError("vertex stabilizers must have order two")
    ring = coeff.ring
    mtx, anti = coeff.involution
    invol = (ring.twists.intern(mtx), anti)

    def order_two_rwa(sub: tuple[int, ...]) -> RingWithAction:
        return _subgroup_rwa(
            g, sub,
            lambda k: (IDENTITY_TWIST, False) if k == 0 else invol,
            ring)

    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == (0,):
                cache[iso] = _trivial_norm(g, ring)
            elif iso in (h, h2):
                cache[iso] = tensor_induce(g, iso, order_two_rwa(iso))
            else:
                raise ValueError("isotropy %r outside the two subgroups"
                                 % (iso,))
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    # the matching map must respect the involution placement
    for a in h:
        if a and phi[a] == 0:
            raise ValueError("matching map collapses the stabilizer")
    return loday(space, norms, label="loday-two-isotropy")


def reference_loday_normal_sub(space: FinSimpGSet, rwa: RingWithAction
                               ) -> SimplicialGRing:
    """Isotropy inside one normal subgroup H: each smaller stabilizer K gets
    the norm of the restricted coefficient action."""
    if space.mode[0] != "normal_with_subgroups":
        raise ValueError("space is not in normal-subgroup mode")
    g = space.group
    h = tuple(space.mode[1])
    if rwa.group.order != len(h):
        raise ValueError("coefficient group does not match the subgroup")
    hpos = {x: i for i, x in enumerate(h)}
    cache: dict[tuple[int, ...], NormRing] = {}

    def norm_for(iso: tuple[int, ...]) -> NormRing:
        if iso not in cache:
            if iso == h:
                cache[iso] = tensor_induce(g, h, rwa)
            elif iso == (0,):
                cache[iso] = _trivial_norm(g, rwa.ring)
            else:
                sub = _subgroup_rwa(g, iso, lambda k: rwa.acts[hpos[k]],
                                    rwa.ring)
                cache[iso] = tensor_induce(g, iso, sub)
        return cache[iso]

    norms = [norm_for(c.isotropy) for c in space.cells]
    return loday(space, norms, label="loday-normal")


def reference_induced_hom(space: FinSimpGSet, norms: Sequence[NormRing],
                           src_ring: GTensorRing, dst_ring: GTensorRing,
                           eq: EqMap) -> StructuredHom:
    """Level map induced by an equivariant map of the underlying levels."""
    g = space.group
    src_tr, dst_tr = src_ring.tensor, dst_ring.tensor
    contribs: list[list[tuple[int, int, bool]]] = \
        [[] for _ in range(dst_tr.nslots)]
    pass_pos: list[Optional[int]] = [None] * dst_tr.nslots
    hit = [False] * dst_tr.nslots
    for o in range(len(eq.src.orbits)):
        t, u = eq.entries[o]
        s_norm = norms[eq.src.orbits[o].cell]
        t_norm = norms[eq.dst.orbits[t].cell]
        same_cell = eq.src.orbits[o].cell == eq.dst.orbits[t].cell
        for c in range(len(s_norm.transversal)):
            rep = s_norm.transversal[c]
            tc = g.coset_index(t_norm.sub)[g.mul(rep, u)]
            d = g.mul(g.inv(t_norm.transversal[tc]), g.mul(rep, u))
            m, a = t_norm.act_of(d)
            p = src_tr.slot_index((o, c))
            q = dst_tr.slot_index((t, tc))
            contribs[q].append((p, m, a))
            hit[q] = True
            if same_cell:
                pass_pos[q] = p
    targets = [_ordered_fold(lst, pass_pos[q])
               for q, lst in enumerate(contribs)]
    return StructuredHom(src_tr, dst_tr, targets, check=False)


def reference_bar(m_norm: NormRing, a_norm: NormRing, n_norm: NormRing,
                  left_map: StructuredHom, right_map: StructuredHom,
                  truncation: int = 4, label: str = "bar") -> SimplicialGRing:
    """Two-sided bar construction B(M, A, N) with A folding into M on the
    left and into N on the right through the given structure maps."""
    g = m_norm.group
    ring = a_norm.rwa.ring
    if m_norm.rwa.ring != ring or n_norm.rwa.ring != ring:
        raise ValueError("blocks must share one base ring")
    if left_map.src != a_norm.tensor or left_map.dst != m_norm.tensor:
        raise ValueError("left structure map has the wrong shape")
    if right_map.src != a_norm.tensor or right_map.dst != n_norm.tensor:
        raise ValueError("right structure map has the wrong shape")
    for f, dst in ((left_map, m_norm), (right_map, n_norm)):
        bad = equivariance_defect(f, a_norm.gt, dst.gt)
        if bad:
            raise ValueError("structure map is not equivariant at %r"
                             % (bad[:3],))

    def parts(n):
        blocks = [("left", m_norm.gt)]
        blocks += [(("mid", k), a_norm.gt) for k in range(1, n + 1)]
        blocks.append(("right", n_norm.gt))
        return blocks

    levels = [tensor_of_actions(g, parts(n)) for n in range(truncation + 1)]

    def block_len(tag) -> int:
        """Coset count of the norm block carrying ``tag``."""
        if tag == "left":
            return len(m_norm.transversal)
        if tag == "right":
            return len(n_norm.transversal)
        return len(a_norm.transversal)

    def assemble(n: int, i: int) -> StructuredHom:
        src_tr = levels[n].tensor
        dst_tr = levels[n - 1].tensor
        contribs: list[list[tuple[int, int, bool]]] = \
            [[] for _ in range(dst_tr.nslots)]
        pass_pos: list[Optional[int]] = [None] * dst_tr.nslots

        def route(src_tag, dst_tag, hom: Optional[StructuredHom],
                  passthrough: bool = False):
            if hom is None:
                for c in range(block_len(src_tag)):
                    p = src_tr.slot_index((src_tag, c))
                    q = dst_tr.slot_index((dst_tag, c))
                    contribs[q].append((p, IDENTITY_TWIST, False))
                    if passthrough:
                        pass_pos[q] = p
            else:
                for q_local, lst in enumerate(hom.targets):
                    q = dst_tr.slot_index((dst_tag, q_local))
                    for (c, mtx, anti) in lst:
                        contribs[q].append(
                            (src_tr.slot_index((src_tag, c)), mtx, anti))

        if i == 0:
            route("left", "left", None)
            for k in range(1, n):
                route(("mid", k), ("mid", k), None)
            route("right", "right", None, passthrough=True)
            route(("mid", n), "right", right_map)
        elif i == n:
            route("left", "left", None, passthrough=True)
            route(("mid", 1), "left", left_map)
            for k in range(2, n + 1):
                route(("mid", k), ("mid", k - 1), None)
            route("right", "right", None)
        else:
            route("left", "left", None)
            for k in range(1, n - i):
                route(("mid", k), ("mid", k), None)
            route(("mid", n - i), ("mid", n - i), None)
            route(("mid", n - i + 1), ("mid", n - i), None)
            for k in range(n - i + 2, n + 1):
                route(("mid", k), ("mid", k - 1), None)
            route("right", "right", None)
        targets = [_ordered_fold(lst, pass_pos[q])
                   for q, lst in enumerate(contribs)]
        return StructuredHom(src_tr, dst_tr, targets, check=False)

    def assemble_deg(n: int, j: int) -> StructuredHom:
        src_tr = levels[n].tensor
        dst_tr = levels[n + 1].tensor
        targets: list[list[tuple[int, int, bool]]] = \
            [[] for _ in range(dst_tr.nslots)]

        def wire(src_tag, dst_tag):
            for c in range(block_len(src_tag)):
                p = src_tr.slot_index((src_tag, c))
                q = dst_tr.slot_index((dst_tag, c))
                targets[q].append((p, IDENTITY_TWIST, False))

        wire("left", "left")
        new_block = n + 1 - j
        for k in range(1, n + 1):
            wire(("mid", k), ("mid", k if k < new_block else k + 1))
        wire("right", "right")
        return StructuredHom(src_tr, dst_tr, targets, check=False)

    faces = [[assemble(n, i) for i in range(n + 1)]
             for n in range(1, truncation + 1)]
    degens = [[assemble_deg(n, j) for j in range(n + 1)]
              for n in range(truncation)]
    return SimplicialGRing(g, levels, faces, degens, label=label)


def reference_level_isos(L: SimplicialGRing, B: SimplicialGRing
                         ) -> list[StructuredHom]:
    """The level isomorphisms ``loday.real_hochschild`` built before
    ``norms._block_map``: each orbit block of the polygon level goes, slot
    by slot, to the bar block at its position."""
    space = L.space
    isos = []
    for n in range(L.top() + 1):
        src_tr = L.levels[n].tensor
        dst_tr = B.levels[n].tensor
        targets = [None] * dst_tr.nslots
        for p, (o, c) in enumerate(src_tr.slots):
            if o == 0:
                tag = "left"
            elif o == len(space.levels[n].orbits) - 1:
                tag = "right"
            else:
                tag = ("mid", o)
            q = dst_tr.slot_index((tag, c))
            targets[q] = [(p, IDENTITY_TWIST, False)]
        isos.append(StructuredHom(src_tr, dst_tr, targets, check=False))
    return isos


def reference_ring_validate(s, equivariance: bool = True) -> list[str]:
    """``SimplicialGRing.validate`` with its own identity loop."""
    out: list[str] = []
    top = s.top()
    ident = {n: StructuredHom.identity(s.levels[n].tensor)
             for n in range(top + 1)}
    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = s.face(n - 1, i).compose(s.face(n, j))
                rhs = s.face(n - 1, j - 1).compose(s.face(n, i))
                if lhs != rhs:
                    out.append("%s: d_%d d_%d != d_%d d_%d at level %d"
                               % (s.label, i, j, j - 1, i, n))
    for n in range(0, top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = s.degeneracy(n + 1, j + 1).compose(
                    s.degeneracy(n, i))
                rhs = s.degeneracy(n + 1, i).compose(
                    s.degeneracy(n, j))
                if lhs != rhs:
                    out.append("%s: s_%d s_%d != s_%d s_%d at level %d"
                               % (s.label, j + 1, i, i, j, n))
    for n in range(0, top):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = s.face(n + 1, i).compose(s.degeneracy(n, j))
                if i in (j, j + 1):
                    if lhs != ident[n]:
                        out.append("%s: d_%d s_%d != id at level %d"
                                   % (s.label, i, j, n))
                elif i < j:
                    rhs = s.degeneracy(n - 1, j - 1).compose(
                        s.face(n, i))
                    if lhs != rhs:
                        out.append("%s: d_%d s_%d != s_%d d_%d at level "
                                   "%d" % (s.label, i, j, j - 1, i, n))
                else:
                    rhs = s.degeneracy(n - 1, j).compose(
                        s.face(n, i - 1))
                    if lhs != rhs:
                        out.append("%s: d_%d s_%d != s_%d d_%d at level "
                                   "%d" % (s.label, i, j, j, i - 1, n))
    if equivariance:
        for n in range(1, top + 1):
            for i in range(n + 1):
                bad = equivariance_defect(s.face(n, i),
                                          s.levels[n],
                                          s.levels[n - 1])
                if bad:
                    out.append("%s: face d_%d at level %d not "
                               "equivariant at %r" % (s.label, i, n,
                                                      bad[:3]))
        for n in range(0, top):
            for j in range(n + 1):
                bad = equivariance_defect(s.degeneracy(n, j),
                                          s.levels[n],
                                          s.levels[n + 1])
                if bad:
                    out.append("%s: degeneracy s_%d at level %d not "
                               "equivariant at %r" % (s.label, j, n,
                                                      bad[:3]))
    return out


def reference_space_identities(space) -> list[str]:
    """The simplicial identities of a ``FinSimpGSet``, one loop per space."""
    out = []
    n_max = space.truncation
    for n in range(2, n_max + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = space.face(n - 1, i).compose(space.face(n, j))
                rhs = space.face(n - 1, j - 1).compose(space.face(n, i))
                if lhs != rhs:
                    out.append("d_%d d_%d != d_%d d_%d at level %d"
                               % (i, j, j - 1, i, n))
    for n in range(0, n_max - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = space.degeneracy(n + 1, j + 1).compose(
                    space.degeneracy(n, i))
                rhs = space.degeneracy(n + 1, i).compose(
                    space.degeneracy(n, j))
                if lhs != rhs:
                    out.append("s_%d s_%d != s_%d s_%d at level %d"
                               % (j + 1, i, i, j, n))
    for n in range(0, n_max):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = space.face(n + 1, i).compose(space.degeneracy(n, j))
                if i == j or i == j + 1:
                    ident = EqMap(space.levels[n], space.levels[n],
                                  [(o, 0) for o in
                                   range(len(space.levels[n].orbits))])
                    if lhs != ident:
                        out.append("d_%d s_%d != id at level %d"
                                   % (i, j, n))
                elif i < j:
                    rhs = space.degeneracy(n - 1, j - 1).compose(
                        space.face(n, i)) if n >= 1 else None
                    if rhs is None or lhs != rhs:
                        out.append("d_%d s_%d != s_%d d_%d at level %d"
                                   % (i, j, j - 1, i, n))
                else:
                    rhs = space.degeneracy(n - 1, j).compose(
                        space.face(n, i - 1)) if n >= 1 else None
                    if rhs is None or lhs != rhs:
                        out.append("d_%d s_%d != s_%d d_%d at level %d"
                                   % (i, j, j, i - 1, n))
    return out
