"""The one Smith engine, ``smith._eliminate``, against the reference engine
and against sympy.

The engine takes the unit pivots first, in a fill-aware order, then the
least entries of what is left, with no row or column swap and no
divisibility sweep.  The reference is ``tests/oracles.py::reference_snf_engine``,
the pivot order the package used before: row-major least entries swapped
onto the diagonal, and a divisibility sweep.  ``oracles.check_engine``
holds the properties every reader relies on; they run on hypothesis
matrices with and without units, with empty rows and columns, with no rows
or no columns and with entries past 2^64, and on every matrix the realhh
and ``group_ring_c2_mod2`` instances of this suite reduce, through every
reader.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiloday import smith
from equiloday.coeffs import gaussian, load_bundled
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.homology import LevelComplex
from equiloday.loday import real_hochschild
from equiloday.smith import _eliminate, invariant_factors
from oracles import check_engine, reference_factors


VALUES = [
    (1, -1, 2, -3),                                   # units among others
    (2, -2, 3, 4, -6, 9),                             # no unit anywhere
    (1, -1),                                          # units only
    (1, -1, 2 ** 64 + 1, -(2 ** 70), 3 * 2 ** 65),    # past 64 bits
]


@st.composite
def sparse_matrices(draw, most: int = 8):
    """Sparse matrices, zero about half the time, so whole rows and columns
    come out empty; 0 x n and m x 0 shapes included."""
    m, n = draw(st.integers(0, most)), draw(st.integers(0, most))
    entry = st.one_of(st.just(0), st.sampled_from(draw(st.sampled_from(VALUES))))
    cols = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return SparseMatrix.from_cols(cols, m)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_unit_pivots_give_the_engine_order_factors(M):
    assert invariant_factors(M) == reference_factors(M.sparse_rows(), M.cols)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(most=6))
def test_engine_keeps_what_every_reader_relies_on(M):
    check_engine(M.sparse_rows(), M.cols)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(most=6))
def test_unit_pivots_give_sympy_factors(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    if M.rows == 0 or M.cols == 0:
        assert invariant_factors(M) == []
        return
    sd = sym_snf(sympy.Matrix(M.to_dense().data))
    theirs = [abs(sd[i, i]) for i in range(min(M.rows, M.cols)) if sd[i, i] != 0]
    assert invariant_factors(M) == theirs


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_what_the_unit_pivots_leave_holds_no_unit(M):
    # the unit pivots come first, and each is a step of plain Gaussian
    # elimination, so the Schur complement of those steps, worked out here
    # over the rationals, is what the engine had left when they ran out:
    # integral, and with no unit in it.  The steps run out at the first
    # pivot whose entry there is not a unit: a pivot the engine reached by
    # remainder steps on that unit-free rest, or one that is not a unit.
    pivots, _, _ = _eliminate(M.sparse_rows(), M.cols, False, False)
    a = [[Fraction(v) for v in row] for row in M.to_dense().data]
    done_rows, done_cols = set(), set()
    for i, j, p in pivots:
        if a[i][j] != p or abs(p) != 1:
            break
        for k in range(M.rows):
            if k != i and a[k][j]:
                f = a[k][j] / p
                a[k] = [x - f * y for x, y in zip(a[k], a[i])]
        done_rows.add(i)
        done_cols.add(j)
    rest = [a[i][j] for i in range(M.rows) if i not in done_rows
            for j in range(M.cols) if j not in done_cols]
    assert all(v.denominator == 1 for v in rest)
    assert all(abs(v) != 1 for v in rest)
    assert len(pivots) == len(invariant_factors(M))


def test_unit_pivots_on_empty_shapes():
    for M in (SparseMatrix(0, [[], [], []]), SparseMatrix(3, []),
              SparseMatrix(3, [[], []])):
        assert invariant_factors(M) == []
        assert _eliminate(M.sparse_rows(), M.cols, True, True) == (
            [], [{i: 1} for i in range(M.rows)], [{j: 1} for j in range(M.cols)])


def test_unit_pivots_take_the_shortest_row_first():
    # row 1 is the shortest row that holds a unit; clearing its column 2
    # out of row 0 leaves rows 0 and 2, [2, 3] and [4, 6], with no unit.
    # Their least entry, 2 at row 0, column 0, clears row 2 and leaves the
    # remainder 1 in row 0, column 1: the next pivot
    M = IntMatrix.from_rows([[2, 3, 2], [0, 0, 1], [4, 6, 0]])
    pivots, _, _ = _eliminate(M.sparse_rows(), M.cols, False, False)
    assert pivots == [(1, 2, 1), (0, 1, 1)]
    assert invariant_factors(M) == reference_factors(M.sparse_rows(), M.cols) == [1, 1]


def test_no_sweep_leaves_the_chain_to_invariant_factors():
    # pivots 2 and 3 on their own rows and columns: the engine keeps them,
    # and invariant_factors makes them 1 and 6
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert _eliminate(M.sparse_rows(), M.cols, False, False)[0] == [(0, 0, 2), (1, 1, 3)]
    assert invariant_factors(M) == [1, 6]
    D = SparseMatrix(4, [[(0, 4)], [(1, 6)], [(2, 10)], [(3, 15)]])
    assert invariant_factors(D) == [1, 2, 30, 60]  # product 3600 either way


# every matrix ``ChainComplex``, ``PresentedAb.canonical`` and the carvings
# reduce on the realhh instances of this suite: the realhh-free levels
# (Gaussian 2-gon through degree 3), relations on two ring shapes, and the
# Gaussian 4-gon
REALHH_INSTANCES = [
    ("gaussian", 1, 4, 3),
    ("zmod4", 2, 3, 2),
    ("group_ring_c2_mod2", 1, 3, 1),
    pytest.param("gaussian", 2, 3, 1, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("name,m,truncation,max_degree", REALHH_INSTANCES)
def test_unit_pivots_match_the_engine_on_realhh_matrices(
        monkeypatch, name, m, truncation, max_degree):
    seen, busy = [], []
    engine = smith._eliminate

    def checked(rows, n, want_u, want_v):
        if not busy:  # check_engine runs the engine through its readers
            busy.append(n)
            check_engine(rows, n)
            busy.pop()
            seen.append((want_u, want_v))
        return engine(rows, n, want_u, want_v)

    monkeypatch.setattr(smith, "_eliminate", checked)
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation).loday_side
    for sub in [cls[0] for cls in s.group.subgroup_classes()]:
        lc = LevelComplex(s, sub, max_level=max_degree + 1)
        for k in range(max_degree + 1):
            assert lc.normalized.homology(k) == lc.unnormalized_homology(k), (sub, k)
            lc.normalized.homology_data(k)
    assert (False, False) in seen and (False, True) in seen
