"""Sparse expansion of structured maps against the paths it replaced.

``StructuredHom.sparse`` is checked column by column against
``apply_basis``, the independent per-tuple oracle, and entry for entry
against the column-by-column build it replaced; the one expanded face sum
kept per level, with the traced peak of the tables it serves; the
signed-orbit carving of fixed points against the general Smith-form
carving, and its ``express`` against the product check it replaced; the
sparse conditions handed to the Smith-form engine against the dense matrix
they replaced; and the homology layer is run with the dense expansion
switched off.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.coeffs import gaussian, load_bundled, quaternions
from equiloday.exactalg import IntMatrix, PresentedAb, SparseMatrix
from equiloday.gring import StructuredHom
from equiloday.homology import _fixed_level, _OrbitFixed, homology_table, homology_tables
from equiloday.loday import loday_free, real_hochschild
from equiloday.smith import _condition_rows
from equiloday.spaces import build_rot_circle
from oracles import (_conditions_subquotient, check_engine, generating_subset,
                     matrix_targets, reference_boundary, reference_orbit_express,
                     reference_sparse, sparse_apply)

# ---------------------------------------------------------------------------
# the matrix type against IntMatrix

small = st.integers(-3, 3)


def _matrix(rows, cols):
    return st.lists(st.lists(small, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(rows, cols, data))


@st.composite
def _triple(draw):
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(_matrix(r, k)), draw(_matrix(r, k)), draw(_matrix(k, c))


def _sparse(m: IntMatrix) -> SparseMatrix:
    return SparseMatrix.from_cols(m.columns(), m.rows)


@settings(max_examples=80, deadline=None)
@given(_triple(), st.lists(small, min_size=4, max_size=4))
def test_sparse_matrix_agrees_with_dense(triple, vec):
    a, b, c = triple
    sa, sb, sc = _sparse(a), _sparse(b), _sparse(c)
    assert sa.to_dense() == a
    assert sa.data == [[(i, v) for i, v in enumerate(c) if v] for c in a.columns()]
    assert sparse_apply(sa, vec[:a.cols]) == a.apply(vec[:a.cols])
    assert (sa + sb).to_dense() == a + b
    assert (sa - sb).to_dense() == a - b
    assert (sa @ sc).to_dense() == a @ c
    # the Smith-form engine sees the same rows, in the same insertion order
    assert ([list(r.items()) for r in sa.sparse_rows()]
            == [list(r.items()) for r in a.sparse_rows()])
    # no explicit zeros are ever stored
    for m in (sa + sb, sa - sb, sa @ sc, sa - sa):
        assert all(v for col in m.data for _, v in col)


def test_product_columns_check_shapes_before_any_column_is_read():
    a, b = SparseMatrix(2, [[(0, 1)]]), SparseMatrix(2, [[(1, 1)]])  # 2 x 1 twice
    with pytest.raises(ValueError, match="inner dimensions differ"):
        a.product_columns(b)
    with pytest.raises(ValueError, match="inner dimensions differ"):
        a @ b
    row = SparseMatrix(1, [[(0, 2)], [], [(0, -1)]])  # (2, 0, -1)
    cols = row.product_columns(SparseMatrix(3, [[(0, 1), (2, 2)], [(1, 5)]]))
    assert next(cols) == []  # 2 - 2 cancels: no zero is stored
    assert list(cols) == [[]]


# ---------------------------------------------------------------------------
# expansion against the per-tuple oracle


def _all_maps(s, top):
    for n in range(1, top + 1):
        for i in range(n + 1):
            yield f"d{i}@{n}", s.face(n, i)
    for n in range(top):
        for j in range(n + 1):
            yield f"s{j}@{n}", s.degeneracy(n, j)
    for n in range(top + 1):
        for g in range(s.group.order):
            yield f"g{g}@{n}", s.levels[n].act(g)


EXPANSION_CASES = [
    pytest.param(lambda: real_hochschild(1, gaussian(), 3), id="gaussian-m1"),
    pytest.param(lambda: real_hochschild(2, load_bundled("zmod4"), 3),
                 id="zmod4-m2"),
    # anti twists; level 2 has rank 4096, so this one takes a few seconds
    pytest.param(lambda: real_hochschild(1, quaternions(), 2),
                 id="quaternion-m1", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("build", EXPANSION_CASES)
def test_sparse_columns_equal_apply_basis(build):
    rh = build()
    for side in (rh.loday_side, rh.bar_side):
        for name, f in _all_maps(side, 2):
            sp = f.sparse()
            r = f.src.base.ngens
            assert (sp.rows, sp.cols) == (r ** f.dst.nslots, r ** f.src.nslots)
            tuples = itertools.product(range(f.src.base.ngens),
                                       repeat=f.src.nslots)
            for j, idx in enumerate(tuples):
                col = [0] * sp.rows
                for i, v in sp.data[j]:
                    col[i] = v
                assert col == f.apply_basis(idx), (side.label, name, idx)


def _both_sides(rh):
    return [rh.loday_side, rh.bar_side]


# realhh-free's own levels (through level 4), relations on two ring
# shapes, anti twists, and the cyclic Loday construction of rotation_z3.
# Every product of two basis vectors in the first four rings is a signed
# basis vector, so their columns have one nonzero each; rotation_z3's unit
# is (1, 1, 1), and its degeneracy inserts it in three slots, so only that
# case orders several entries within a column.
PIPELINE_CASES = [
    pytest.param(lambda: _both_sides(real_hochschild(1, gaussian(), 4)), 4,
                 id="gaussian-m1-t4"),
    pytest.param(lambda: _both_sides(real_hochschild(2, load_bundled("zmod4"), 3)), 3,
                 id="zmod4-m2"),
    pytest.param(lambda: _both_sides(
        real_hochschild(1, load_bundled("group_ring_c2_mod2"), 3)), 3, id="c2mod2-m1"),
    pytest.param(lambda: _both_sides(real_hochschild(1, quaternions(), 2)), 2,
                 id="quaternion-m1-t2"),
    pytest.param(lambda: [loday_free(build_rot_circle(3, 1),
                                     load_bundled("rotation_z3").cyclic_group_action())],
                 1, id="rotation-z3-cyclic"),
]


@pytest.mark.parametrize("build,top", PIPELINE_CASES)
def test_slot_major_expansion_equals_column_by_column(build, top):
    # the same columns in the same order, each column's entries in the same
    # (increasing row) order: caches, carvings and pivots read this order
    for side in build():
        for name, f in _all_maps(side, top):
            got = f.sparse()
            want = reference_sparse(f.src.base, matrix_targets(f), f.src.nslots,
                                    f.dst.nslots)
            assert (got.rows, got.data) == (want.rows, want.data), (side.label, name)


def test_expansions_are_cached_per_ring():
    # one face sum per level is held, never its faces
    s = real_hochschild(1, gaussian(), 2).loday_side
    boundary = s.expanded_boundary(2)
    assert s.expanded_boundary(2) is boundary
    assert s.expanded_act(1, 1) is s.expanded_act(1, 1)
    assert boundary == reference_boundary(s, 2, SparseMatrix.identity(s.level_rank(2)))
    assert sorted(s._expanded) == [("act", 1, 1), ("boundary", 2)]


def test_realhh_tables_stay_under_their_traced_peak():
    # the traced peak of the realhh-free tables: 1,903 KiB while every face
    # was cached, 1,179 KiB with one face sum per level, 1,066 KiB once the
    # products read column by column are streamed (no whole
    # ``expanded_boundary(n) @ lift`` is held) and a free level's
    # degeneracies are expanded one at a time; the bound is that plus 8 %
    rh = real_hochschild(1, gaussian(), 4)
    tracemalloc.start()
    try:
        for sub in rh.loday_side.group.all_subgroups():
            homology_tables([rh.loday_side, rh.bar_side], sub, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1150 * 2 ** 10, peak


# ---------------------------------------------------------------------------
# orbit carving against the general Smith-form carving, and its check
# against the generic product it replaced


def _express_agrees(fixed, col):
    got = fixed.express(col)
    assert got == reference_orbit_express(fixed, col), col
    return got


def test_orbit_express_matches_the_product_check():
    # x1 = x0, x3 = -x2, and x4 = -x4 kills the orbit of 4
    fixed = _OrbitFixed(PresentedAb(5), [[(1, 1), (0, 1), (3, -1), (2, -1), (4, -1)]])
    assert fixed.lift.data == [[(0, 1), (1, 1)], [(2, 1), (3, -1)]]
    for col, want in [([(0, 2), (1, 2)], [(0, 2)]),
                      ([(0, 1), (1, 1), (2, -3), (3, 3)], [(0, 1), (1, -3)]),
                      ([], []),
                      ([(2, 1), (3, 1)], None),  # a wrong sign
                      ([(0, 1)], None), ([(1, 1)], None),  # a missing member
                      ([(4, 1)], None), ([(0, 1), (1, 1), (4, 2)], None)]:  # dead
        assert _express_agrees(fixed, col) == want


def test_orbit_express_matches_the_product_check_on_realhh_levels():
    s = real_hochschild(1, gaussian(), 3).loday_side
    g = s.group
    for sub in g.all_subgroups():
        gens = generating_subset(g, sub)
        for n in range(4):
            fixed = _fixed_level(s, n, gens)
            assert isinstance(fixed, _OrbitFixed)
            live = {i for col in fixed.lift.data for i, _ in col}
            assert gens == [] or len(live) < s.level_rank(n)  # some orbit dies
            for col in fixed.lift.data:
                assert _express_agrees(fixed, [(i, 3 * v) for i, v in col]) is not None
                if len(col) > 1:  # a wrong sign on the last member; no head
                    flipped = col[:-1] + [(col[-1][0], -col[-1][1])]
                    assert _express_agrees(fixed, flipped) is None
                    assert _express_agrees(fixed, col[1:]) is None
            for i in range(s.level_rank(n)):
                assert _express_agrees(fixed, [(i, 1)]) is None or i in live


def _same_subgroup(a, b) -> bool:
    return (all(b.express(col) is not None for col in a.lift.data)
            and all(a.express(col) is not None for col in b.lift.data))


@pytest.mark.parametrize("m,levels", [(1, 3), (2, 2)])
def test_orbit_carving_matches_general_carving(m, levels):
    s = real_hochschild(m, gaussian(), 3).loday_side
    g = s.group
    took_orbits = 0
    for sub in g.all_subgroups():
        gens = generating_subset(g, sub)
        if not gens:
            continue
        for n in range(levels):
            fast = _fixed_level(s, n, gens)
            took_orbits += isinstance(fast, _OrbitFixed)
            rank = s.level_rank(n)
            rels = s.levels[n].tensor.dense_group().relations
            conds = [(s.expanded_act(n, k) - SparseMatrix.identity(rank), rels)
                     for k in gens]
            general = _conditions_subquotient(rank, rels, conds)
            assert fast.pres.ngens == general.pres.ngens, (sub, n)
            assert _same_subgroup(fast, general), (sub, n)
    assert took_orbits


# ---------------------------------------------------------------------------
# sparse conditions against the dense [A | -B] matrix they replaced


def _dense_conditions(rank, conds) -> IntMatrix:
    """The stacked ``[A | -B]`` matrix, written out densely."""
    width = rank + sum(b.cols for _, b in conds)
    rows = []
    pad = rank
    for a, b in conds:
        block = [[0] * width for _ in range(a.rows)]
        for j, col in enumerate(a.data):
            for i, v in col:
                block[i][j] = v
        for i, row in enumerate(b.to_dense().data):
            block[i][pad:pad + b.cols] = [-v for v in row]
        rows += block
        pad += b.cols
    return IntMatrix(len(rows), width, rows)


def _assert_same_work(rank, conds):
    # equal down to the key order of every row, which fixes the order of
    # the engine's row operations
    m = _dense_conditions(rank, conds)
    assert m.cols == rank + sum(b.cols for _, b in conds)
    assert ([list(r.items()) for r in _condition_rows(rank, conds)]
            == [list(r.items()) for r in m.sparse_rows()])


@st.composite
def _conditions(draw):
    rank = draw(st.integers(1, 4))
    conds = []
    for _ in range(draw(st.integers(1, 3))):
        rows, nrel = draw(st.integers(1, 4)), draw(st.integers(0, 3))
        conds.append((_sparse(draw(_matrix(rows, rank))),
                      _sparse(draw(_matrix(rows, nrel)))))
    return rank, conds


@settings(max_examples=80, deadline=None)
@given(_conditions())
def test_condition_rows_match_dense_work_matrix(case):
    _assert_same_work(*case)


@pytest.mark.parametrize("coeff", [gaussian, lambda: load_bundled("group_ring_c2_mod2")],
                         ids=["gaussian", "group-ring-c2-mod2"])
def test_pipeline_conditions_match_dense_work_matrix(coeff):
    # the face conditions the normalized carving imposes, on free levels
    # (all pivots +-1) and on levels with Z/2 relations (a third of the
    # pivots 2), up to the 192-row conditions on level 3 where the unit
    # pivots fill in; the engine keeps on them what its readers rely on
    s = real_hochschild(1, coeff(), 3).loday_side
    for sub in s.group.all_subgroups():
        gens = generating_subset(s.group, sub)
        for n in (1, 2, 3):
            fx = _fixed_level(s, n, gens)
            rels = s.levels[n - 1].tensor.dense_group().relations
            conds = [(s.face(n, i).sparse() @ fx.lift, rels)
                     for i in range(1, n + 1)]
            _assert_same_work(fx.pres.ngens, conds)
            width = fx.pres.ngens + sum(b.cols for _, b in conds)
            check_engine(_condition_rows(fx.pres.ngens, conds), width)


# ---------------------------------------------------------------------------
# the homology layer never expands densely


def test_homology_runs_without_dense_expansion(monkeypatch):
    def refuse(self):
        raise AssertionError("dense expansion on the homology path")

    monkeypatch.setattr(StructuredHom, "dense", refuse)
    rh = real_hochschild(1, gaussian(), 3)
    for sub in rh.loday_side.group.all_subgroups():
        assert (homology_table(rh.loday_side, sub, 2)
                == homology_table(rh.bar_side, sub, 2)), sub
