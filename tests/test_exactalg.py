"""Exact linear algebra layer: Smith form, presentations, homology."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.exactalg import (ChainComplex, FgAbelianGroup, IntMatrix, Lattice,
                                PresentedAb, SparseMatrix, SubQuotient,
                                column_space_basis, hom_is_well_defined, induced_map,
                                kernel_basis)
from equiloday.smith import SmithSolver, invariant_factors
from oracles import (AbHom, bareiss_det, check_engine, dense_homology_data,
                     reference_smith_solve, smith_normal_form, solve, sparse_apply,
                     tensor, transpose)


def rand_matrix(rng, m, n, lo=-9, hi=9):
    return IntMatrix(m, n, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def sparse(rows) -> SparseMatrix:
    """A ``SparseMatrix`` from dense rows (or an ``IntMatrix``)."""
    m = rows if isinstance(rows, IntMatrix) else IntMatrix.from_rows(rows)
    return SparseMatrix.from_cols(m.columns(), m.rows)


def pairs(vec):
    """A dense vector as a sparse column."""
    return [(i, v) for i, v in enumerate(vec) if v]


def dense(col, n):
    """A sparse column, or None, as a dense vector of length n, or None."""
    return None if col is None else SparseMatrix(n, [col]).to_dense().column(0)


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])


def diagonal(M: IntMatrix) -> list[int]:
    return [M.data[i][i] for i in range(min(M.rows, M.cols))]


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(M)
    assert diagonal(D) == [2, 4]
    assert (U @ M @ V) == D
    assert abs(bareiss_det(U)) == 1
    assert abs(bareiss_det(V)) == 1


def test_snf_identity_and_zero():
    U, D, V = smith_normal_form(IntMatrix.identity(3))
    assert D == IntMatrix.identity(3)
    U, D, V = smith_normal_form(zeros(2, 3))
    assert D == zeros(2, 3)
    assert (U.rows, U.cols, V.rows, V.cols) == (2, 2, 3, 3)


def test_snf_needs_gcd_steps():
    # neither pivot divides the other, and the engine has no divisibility
    # sweep: invariant_factors's gcd/lcm pass turns 2, 3 into 1, 6
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert invariant_factors(M) == [1, 6]


def test_snf_wide_and_tall():
    assert invariant_factors(IntMatrix.from_rows([[6, 10, 15]])) == [1]
    assert invariant_factors(IntMatrix.from_rows([[6], [10], [15]])) == [1]


matrix_strategy = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: IntMatrix(m, n, rows))
    )
)


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_snf_properties(M):
    U, D, V = smith_normal_form(M)
    assert (U @ M @ V) == D
    assert abs(bareiss_det(U)) == 1
    assert abs(bareiss_det(V)) == 1
    diag = diagonal(D)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.data[i][j] == 0
    assert all(d >= 0 for d in diag)


@settings(max_examples=80, deadline=None)
@given(matrix_strategy)
def test_snf_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    if M.rows == 0 or M.cols == 0:
        assert invariant_factors(M) == []
        return
    sd = sym_snf(sympy.Matrix(M.data))
    theirs = [abs(sd[i, i]) for i in range(min(M.rows, M.cols)) if sd[i, i] != 0]
    assert invariant_factors(M) == theirs


@st.composite
def engine_matrix(draw):
    """Small matrices biased towards what makes the pivot search work:
    non-unit entries (no unit pivot to stop at), repeated magnitudes (ties)
    and whole zero rows and columns."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = draw(st.sampled_from([(-6, -4, -3, -2, 2, 3, 4, 6, 9),
                                   (-2, 2, 4), (-1, 1, 2, 3),
                                   tuple(range(-12, 13))]))
    entry = st.one_of(st.just(0), st.sampled_from(values))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        if i < m:
            rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, 5), max_size=2)):
        if j < n:
            for r in rows:
                r[j] = 0
    return IntMatrix(m, n, rows)


@st.composite
def fill_in_matrix(draw):
    """Sparse matrices up to 24 x 24, at most 4 nonzeros a row, mostly +-1
    with some 2, 3 or -4, and some zero rows and columns: mostly unit
    pivots, whose row operations fill in the rows below them."""
    m, n = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    entry = st.sampled_from((1, -1) * 4 + (2, 3, -4))
    rows = [[0] * n for _ in range(m)]
    if n:
        for r in rows:
            for j, v in draw(st.dictionaries(st.integers(0, n - 1), entry,
                                             max_size=4)).items():
                r[j] = v
    for i in draw(st.sets(st.integers(0, 23), max_size=3)):
        if i < m:
            rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, 23), max_size=3)):
        if j < n:
            for r in rows:
                r[j] = 0
    return IntMatrix(m, n, rows)


@settings(max_examples=150, deadline=None)
@given(st.one_of(engine_matrix(), fill_in_matrix()))
def test_snf_engine_agrees_with_the_reference(M):
    # another pivot order than the reference's, so other U and V: the same
    # invariant factors and kernel lattice, and U M V holding the pivots
    check_engine(M.sparse_rows(), M.cols)


@st.composite
def matmul_pair(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-2 ** 70, 2 ** 70))

    def mat(rows, cols):
        return IntMatrix(rows, cols, draw(st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return mat(r, k), mat(k, c)


@settings(max_examples=100, deadline=None)
@given(matmul_pair())
def test_matmul_matches_triple_loop(pair):
    a, b = pair
    want = [[sum(a.data[i][k] * b.data[k][j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]
    assert (a @ b) == IntMatrix(a.rows, b.cols, want)


@settings(max_examples=100, deadline=None)
@given(matrix_strategy)
def test_kernel_and_solve(M):
    K = kernel_basis(M)
    assert (M @ K) == zeros(M.rows, K.cols)
    # kernel columns are independent: their own kernel is zero
    assert kernel_basis(K).cols == 0
    rng = random.Random(11)
    x = [rng.randint(-4, 4) for _ in range(M.cols)]
    b = M.apply(x)
    s = solve(M, b)
    assert s is not None
    assert M.apply(s) == b
    if M.rows:
        off = [v for v in b]
        off[0] += 1
        s2 = solve(M, off)
        if s2 is not None:
            assert M.apply(s2) == off


@settings(max_examples=100, deadline=None)
@given(matrix_strategy.flatmap(
    lambda M: st.tuples(st.just(M), st.lists(st.integers(-5, 5),
                                             min_size=M.cols,
                                             max_size=M.cols))))
def test_solve_finds_a_preimage(case):
    M, x0 = case
    b = M.apply(x0)
    x = solve(M, b)
    assert x is not None and len(x) == M.cols
    assert M.apply(x) == b


@settings(max_examples=50, deadline=None)
@given(matrix_strategy)
def test_smith_solver_reused_matches_fresh_solve(M):
    # one cached Smith form answers every right-hand side as a fresh solve does
    solver = SmithSolver(M)
    rng = random.Random(3)
    for _ in range(4):
        b = M.apply([rng.randint(-3, 3) for _ in range(M.cols)])
        if M.rows:
            b[rng.randrange(M.rows)] += rng.randint(0, 1)
        x = dense(solver(pairs(b)), M.cols)
        assert x == solve(M, b)
        assert x is None or M.apply(x) == b


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrix_strategy, fill_in_matrix()).flatmap(
    lambda M: st.tuples(st.just(M),
                        st.lists(st.integers(-4, 4), min_size=M.cols,
                                 max_size=M.cols),
                        st.lists(st.integers(-2, 2), min_size=M.rows,
                                 max_size=M.rows))))
def test_smith_solver_matches_reference_solve(case):
    # the sparse read of U b against the walk over every row of U, on right
    # hand sides inside the image and (nudged off it) mostly outside
    M, x0, nudge = case
    solver = SmithSolver(M)
    inside = M.apply(x0)
    for b in (inside, [u + v for u, v in zip(inside, nudge)]):
        assert dense(solver(pairs(b)), M.cols) == reference_smith_solve(solver, b, M.cols)
    assert solver(pairs(inside)) is not None


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("n", [1, 3])
def test_solve_diagonal_rejects_unit_vector(d, n):
    D = IntMatrix(n, n, [[d if i == j else 0 for j in range(n)] for i in range(n)])
    e1 = [1] + [0] * (n - 1)
    assert solve(D, e1) is None
    assert solve(D, [d * v for v in e1]) == e1


def test_solve_no_solution():
    M = IntMatrix.from_rows([[2]])
    assert solve(M, [1]) is None
    assert solve(M, [6]) == [3]


@pytest.mark.parametrize("b", [[1, 2, 5], [1], []])
def test_solve_rejects_a_mis_sized_right_hand_side(b):
    with pytest.raises(ValueError, match="length mismatch"):
        solve(IntMatrix.identity(2), b)


@pytest.mark.parametrize("b", [[(7, 3)], [(0, 1), (2, 1)], [(-1, 1)]])
def test_smith_solver_rejects_rows_out_of_range(b):
    for M in (IntMatrix.identity(2), IntMatrix.from_rows([[2, 0, 4], [0, 0, 0]])):
        with pytest.raises(ValueError, match="out of range"):
            SmithSolver(M)(b)


def test_column_space_basis_spans():
    M = IntMatrix.from_rows([[2, 4, 6], [0, 0, 0], [1, 2, 3]])
    B = column_space_basis(sparse(M))[0].to_dense()
    assert B.cols == 1
    for c in M.columns():
        assert solve(B, c) is not None
    for c in B.columns():
        assert solve(M, c) is not None


@settings(max_examples=100, deadline=None)
@given(matrix_strategy.flatmap(
    lambda M: st.tuples(st.just(M),
                        st.lists(st.integers(-4, 4), min_size=M.cols,
                                 max_size=M.cols),
                        st.lists(st.integers(-2, 2), min_size=M.rows,
                                 max_size=M.rows))))
def test_column_space_solver_matches_fresh_solver(case):
    # the reduction that gives the basis also gives coordinates in it, as a
    # second Smith form of the basis would: on the span, off it, and on
    # vectors of the rational span that miss the lattice by divisibility
    M, x0, nudge = case
    basis, coords = column_space_basis(sparse(M))
    oracle = SmithSolver(basis)
    assert len(oracle.pivots) == basis.cols
    inside = M.apply(x0)
    cases = [inside, [u + v for u, v in zip(inside, nudge)]]
    for b in [inside] + [dense(c, M.rows) for c in basis.data]:
        g = math.gcd(*b)
        if g > 1:
            cases.append([v // g for v in b])
    for b in cases:
        x = coords(pairs(b))
        assert x == oracle(pairs(b))
        if x is not None:
            assert sparse_apply(basis, dense(x, basis.cols)) == b
    assert coords(pairs(inside)) is not None


def test_bareiss_det():
    assert bareiss_det(IntMatrix.from_rows([[3, 1], [4, 2]])) == 2
    assert bareiss_det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert bareiss_det(IntMatrix.identity(4)) == 1
    assert bareiss_det(zeros(3, 3)) == 0
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        M = rand_matrix(rng, n, n)
        assert bareiss_det(M) == sympy.Matrix(M.data).det()


# ---------------------------------------------------------------------------
# lattices


def test_lattice_reduce_is_canonical():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = rand_matrix(rng, n, rng.randint(0, 4), -6, 6)
        lat = Lattice(sparse(gens))
        v = [rng.randint(-20, 20) for _ in range(n)]
        shift = gens.apply([rng.randint(-3, 3) for _ in range(gens.cols)])
        w = [a + b for a, b in zip(v, shift)]
        assert lat.reduce(v) == lat.reduce(w)
        assert lat.member(pairs([a - b for a, b in zip(v, w)]))
        red = lat.reduce(v)
        assert lat.member(pairs([a - b for a, b in zip(v, red)]))
        # membership of a sparse column agrees with dense reduction
        assert lat.member(pairs(v)) == (not any(red))
        assert lat.member(pairs(shift))


def test_lattice_membership():
    lat = Lattice(SparseMatrix(2, [[(0, 2)], [(1, 3)]]))
    assert lat.member([(0, 4), (1, -3)])
    assert not lat.member([(0, 1)])
    assert not lat.member([(1, 1)])
    assert lat.member([])


# ---------------------------------------------------------------------------
# presented groups


def test_canonical_forms():
    assert PresentedAb(3).canonical() == FgAbelianGroup(3)
    g = PresentedAb(2, sparse(IntMatrix.from_cols([[2, 0], [0, 0]], 2)))
    assert g.canonical() == FgAbelianGroup(1, (2,))
    assert str(g.canonical()) == "Z + Z/2"
    g2 = PresentedAb(2, sparse(IntMatrix.from_cols([[2, 0], [0, 3]], 2)))
    assert g2.canonical() == FgAbelianGroup(0, (6,))
    assert str(FgAbelianGroup(0)) == "0"
    # relations are sparse: a dense matrix is refused, not misread
    with pytest.raises(TypeError):
        PresentedAb(1, IntMatrix.from_rows([[4]]))


def test_fg_group_rejects_bad_torsion():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))


def test_tensor_oracle():
    z4 = PresentedAb(1, sparse([[4]]))
    z6 = PresentedAb(1, sparse([[6]]))
    assert tensor(z4, z6).canonical() == FgAbelianGroup(0, (2,))
    z = PresentedAb(1)
    assert tensor(z, z4).canonical() == FgAbelianGroup(0, (4,))
    assert tensor(z, z).canonical() == FgAbelianGroup(1)


def test_hom_well_defined_and_equality():
    z4 = PresentedAb(1, sparse([[4]]))
    z2 = PresentedAb(1, sparse([[2]]))
    f = AbHom(z4, z2, IntMatrix.from_rows([[1]]))
    g = AbHom(z4, z2, IntMatrix.from_rows([[3]]))
    assert f == g  # differ by 2, which dies in Z/2
    with pytest.raises(ValueError):
        AbHom(z2, z4, IntMatrix.from_rows([[1]]))  # 2*1 = 2 is nonzero in Z/4
    assert hom_is_well_defined(z2, z4, IntMatrix.from_rows([[2]]))


def test_hom_is_isomorphism():
    z = PresentedAb(1)
    assert AbHom(z, z, IntMatrix.from_rows([[-1]])).is_isomorphism()
    assert not AbHom(z, z, IntMatrix.from_rows([[2]])).is_isomorphism()
    z6 = PresentedAb(1, sparse([[6]]))
    assert AbHom(z6, z6, IntMatrix.from_rows([[5]])).is_isomorphism()
    assert not AbHom(z6, z6, IntMatrix.from_rows([[2]])).is_isomorphism()
    # Z/2 + Z/3 = Z/6 through (1, 1)
    mixed = PresentedAb(2, sparse(IntMatrix.from_cols([[2, 0], [0, 3]], 2)))
    f = AbHom(mixed, z6, IntMatrix.from_rows([[3, 4]]))
    assert f.is_isomorphism()


# ---------------------------------------------------------------------------
# chain complexes and homology


def test_homology_multiplication_by_two():
    cx = ChainComplex([PresentedAb(1), PresentedAb(1)], [sparse([[2]])])
    assert cx.homology(0) == FgAbelianGroup(0, (2,))
    assert cx.homology(1) == FgAbelianGroup(0)


def test_homology_circle():
    # two vertices, two edges glued into a circle
    d = sparse([[1, -1], [-1, 1]])
    cx = ChainComplex([PresentedAb(2), PresentedAb(2)], [d])
    assert cx.homology(0) == FgAbelianGroup(1)
    assert cx.homology(1) == FgAbelianGroup(1)


def test_homology_rp2():
    # minimal CW structure: one cell per degree, degree-2 attaching map
    cx = ChainComplex(
        [PresentedAb(1), PresentedAb(1), PresentedAb(1)],
        [sparse([[0]]), sparse([[2]])],
    )
    assert cx.homology(0) == FgAbelianGroup(1)
    assert cx.homology(1) == FgAbelianGroup(0, (2,))
    assert cx.homology(2) == FgAbelianGroup(0)


def test_homology_with_presented_levels():
    # Z/4 --2--> Z/4: kernel and image are both 2Z/4
    z4a = PresentedAb(1, sparse([[4]]))
    z4b = PresentedAb(1, sparse([[4]]))
    cx = ChainComplex([z4a, z4b], [sparse([[2]])])
    assert cx.homology(0) == FgAbelianGroup(0, (2,))
    assert cx.homology(1) == FgAbelianGroup(0, (2,))


def test_boundary_square_validation():
    with pytest.raises(ValueError):
        ChainComplex(
            [PresentedAb(1), PresentedAb(1), PresentedAb(1)],
            [sparse([[1]]), sparse([[1]])],
        )


def test_boundary_square_vanishing_modulo_relations():
    # twice 1 is zero in Z/2, not in Z
    z2 = [PresentedAb(1, sparse([[2]])) for _ in range(3)]
    ChainComplex(z2, [sparse([[1]]), sparse([[2]])])
    with pytest.raises(ValueError, match="composite at degree 2 is nonzero"):
        ChainComplex([PresentedAb(1)] * 3, [sparse([[1]]), sparse([[2]])])


@st.composite
def chain_complex(draw):
    """A three-term complex Z^a -> Z^b -> Z^c, free or with every level
    Z/t: d1 kills the image of d2 through the left kernel of d2, plus t
    times anything when there are relations."""
    a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
    t = draw(st.sampled_from([None, 2, 3, 4, 6]))
    entries = st.integers(-4, 4)

    def mat(rows, cols):
        return IntMatrix(rows, cols, draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    d2 = mat(b, a)
    left = transpose(kernel_basis(transpose(d2)))
    d1 = mat(c, left.rows) @ left if left.rows else zeros(c, b)
    if t is not None:
        d1 = d1 + IntMatrix(c, b, [[t * v for v in r] for r in mat(c, b).data])
    levels = [PresentedAb(n) if t is None
              else PresentedAb(n, SparseMatrix(n, [[(i, t)] for i in range(n)]))
              for n in (c, b, a)]
    return levels, [d1, d2]


@settings(max_examples=100, deadline=None)
@given(chain_complex())
def test_homology_data_matches_dense_oracle(case):
    # the sparse [d | -relations] rows against the dense stack they replaced
    levels, bounds = case
    cx = ChainComplex(levels, [sparse(d) for d in bounds])
    for k in range(3):
        got, want = cx.homology_data(k), dense_homology_data(levels, bounds, k)
        assert got.lift.data == want.lift.data
        assert got.pres.relations == want.pres.relations
        assert got.pres.canonical() == want.pres.canonical()


@settings(max_examples=100, deadline=None)
@given(chain_complex())
def test_homology_matches_the_canonical_homology_data(case):
    # free levels skip the lifts: rank and invariant factors must agree
    levels, bounds = case
    cx = ChainComplex(levels, [sparse(d) for d in bounds])
    for k in range(3):
        assert cx.homology(k) == cx.homology_data(k).pres.canonical()


def test_induced_map_rejects_a_non_chain_map():
    # the generator of H_1 of Z --0--> Z is no cycle of Z --1--> Z
    h_dom = ChainComplex([PresentedAb(1)] * 2, [sparse([[0]])]).homology_data(1)
    h_cod = ChainComplex([PresentedAb(1)] * 2, [sparse([[1]])]).homology_data(1)
    with pytest.raises(ValueError, match="does not send cycles to cycles"):
        induced_map(h_dom, h_cod, sparse([[1]]))


def test_subquotient_rejects_relations_outside_the_span():
    with pytest.raises(ValueError, match="relation column not inside the subgroup"):
        SubQuotient(2, [[(0, 2)]], [[(0, 1)]])


def test_induced_map_on_homology():
    # degree-3 self-map of the circle multiplies H_1 by 3
    d = sparse([[1, -1], [-1, 1]])
    cx = ChainComplex([PresentedAb(2), PresentedAb(2)], [d])
    h1 = cx.homology_data(1)
    tripled = sparse([[3, 0], [0, 3]])
    mat = induced_map(h1, h1, tripled)
    assert mat.data in ([[3]], [[-3]])


def test_subquotient_express_roundtrip():
    sq = SubQuotient(3, [[(0, 2)], [(1, 2)]], [[(0, 4)]])
    assert sq.pres.canonical() == FgAbelianGroup(1, (2,))
    coords = sq.express([(0, 4), (1, 2)])
    assert coords is not None
    assert sparse_apply(sq.lift, dense(coords, sq.lift.cols)) == [4, 2, 0]
    assert sq.express([(0, 1)]) is None
