"""The fill-aware unit pivots of ``smith.invariant_factors`` against the
engine's own pivot order and against sympy.

``invariant_factors`` eliminates the unit pivots in the order of
``smith._drop_unit_pivots`` and hands the rest to ``smith._snf_engine``.
The reference is ``tests/oracles.py::reference_snf_engine`` on the whole
matrix, in the engine's order: hypothesis matrices with and without units,
with empty rows and columns, with no rows or no columns and with entries
past 2^64, and every matrix the realhh instances of this suite reduce for
their tables.
"""

import pytest
from hypothesis import given, settings, strategies as st

from equiloday import exactalg
from equiloday.coeffs import gaussian, load_bundled
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.homology import LevelComplex
from equiloday.loday import real_hochschild
from equiloday.smith import _SparseWork, _drop_unit_pivots, invariant_factors
from oracles import reference_snf_engine


def reference_factors(M) -> list[int]:
    """The nonzero Smith diagonal in the engine's own pivot order."""
    A, _, _, rank = reference_snf_engine(
        _SparseWork.from_rows(M.sparse_rows(), M.cols), False, False)
    return [A.get(i, i) for i in range(rank)]


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
    assert invariant_factors(M) == reference_factors(M)


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
    units, rest, ncols = _drop_unit_pivots(M.sparse_rows())
    assert all(r for r in rest)
    assert all(v not in (1, -1) for r in rest for v in r.values())
    assert all(list(r) == sorted(r) for r in rest)
    # the columns are compacted onto the ones the rest still uses
    assert {j for r in rest for j in r} == set(range(ncols))
    assert units + len(rest) <= M.rows and units + ncols <= M.cols


def test_unit_pivots_on_empty_shapes():
    for M in (SparseMatrix(0, [[], [], []]), SparseMatrix(3, []),
              SparseMatrix(3, [[], []])):
        assert invariant_factors(M) == []
        assert _drop_unit_pivots(M.sparse_rows()) == (0, [], 0)


def test_unit_pivots_take_the_shortest_row_first():
    # row 1 is the shortest row that holds a unit; clearing its column 2
    # out of row 0 leaves rows 0 and 2 with no unit, for the engine
    M = IntMatrix.from_rows([[2, 3, 2], [0, 0, 1], [4, 6, 0]])
    units, rest, ncols = _drop_unit_pivots(M.sparse_rows())
    assert units == 1
    assert (rest, ncols) == ([{0: 2, 1: 3}, {0: 4, 1: 6}], 2)
    assert invariant_factors(M) == reference_factors(M) == [1, 1]


# every matrix ``ChainComplex`` and ``PresentedAb.canonical`` reduce on the
# realhh instances of this suite: the realhh-free levels (Gaussian 2-gon
# through degree 3), relations on two ring shapes, and the Gaussian 4-gon
REALHH_INSTANCES = [
    ("gaussian", 1, 4, 3),
    ("zmod4", 2, 3, 2),
    ("group_ring_c2_mod2", 1, 3, 1),
    pytest.param("gaussian", 2, 3, 1, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("name,m,truncation,max_degree", REALHH_INSTANCES)
def test_unit_pivots_match_the_engine_on_realhh_matrices(
        monkeypatch, name, m, truncation, max_degree):
    seen = []

    def checked(M):
        got = invariant_factors(M)
        assert got == reference_factors(M), (M.rows, M.cols)
        seen.append(M.rows)
        return got

    monkeypatch.setattr(exactalg, "invariant_factors", checked)
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation).loday_side
    for sub in [cls[0] for cls in s.group.subgroup_classes()]:
        lc = LevelComplex(s, sub, max_level=max_degree + 1)
        for k in range(max_degree + 1):
            assert lc.normalized.homology(k) == lc.unnormalized_homology(k), (sub, k)
    assert seen
