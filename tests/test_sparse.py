"""Sparse expansion of structured maps against the paths it replaced.

``StructuredHom.sparse`` is checked column by column against
``apply_basis``, the independent per-tuple oracle; the signed-orbit carving
of fixed points against the general Smith-form carving; and the homology
layer is run with the dense expansion switched off.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.coeffs import gaussian, load_bundled, quaternions
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.gring import StructuredHom
from equiloday.homology import (_conditions_subquotient, _fixed_level,
                                _generating_subset, _OrbitFixed,
                                homology_table)
from equiloday.loday import real_hochschild

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
    assert [sa.column(j) for j in range(a.cols)] == a.columns()
    assert sa.apply(vec[:a.cols]) == a.apply(vec[:a.cols])
    assert (sa + sb).to_dense() == a + b
    assert (sa - sb).to_dense() == a - b
    assert (sa @ sc).to_dense() == a @ c
    assert (sa @ c).to_dense() == a @ c
    # no explicit zeros are ever stored
    for m in (sa + sb, sa - sb, sa @ sc, sa - sa):
        assert all(v for col in m.data for _, v in col)


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
            assert (sp.rows, sp.cols) == (f.dst.dense_rank(), f.src.dense_rank())
            tuples = itertools.product(range(f.src.base.ngens),
                                       repeat=f.src.nslots)
            for j, idx in enumerate(tuples):
                assert sp.column(j) == f.apply_basis(idx), (side.label, name, idx)


def test_expansions_are_cached_per_ring():
    s = real_hochschild(1, gaussian(), 2).loday_side
    assert s.expanded_face(2, 1) is s.expanded_face(2, 1)
    assert s.expanded_act(1, 1) is s.expanded_act(1, 1)
    assert s.expanded_face(2, 1).to_dense() == s.face(2, 1).dense()


# ---------------------------------------------------------------------------
# orbit carving against the general Smith-form carving


def _same_subgroup(a, b) -> bool:
    return (all(b.express(a.lift.column(j)) is not None for j in range(a.lift.cols))
            and all(a.express(b.lift.column(j)) is not None
                    for j in range(b.lift.cols)))


@pytest.mark.parametrize("m,levels", [(1, 3), (2, 2)])
def test_orbit_carving_matches_general_carving(m, levels):
    s = real_hochschild(m, gaussian(), 3).loday_side
    g = s.group
    took_orbits = 0
    for sub in g.all_subgroups():
        gens = _generating_subset(g, sub)
        if not gens:
            continue
        for n in range(levels):
            fast = _fixed_level(s, n, gens, 5000)
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
# the homology layer never expands densely


def test_homology_runs_without_dense_expansion(monkeypatch):
    def refuse(self, budget=None):
        raise AssertionError("dense expansion on the homology path")

    monkeypatch.setattr(StructuredHom, "dense", refuse)
    rh = real_hochschild(1, gaussian(), 3)
    for sub in rh.loday_side.group.all_subgroups():
        assert (homology_table(rh.loday_side, sub, 2)
                == homology_table(rh.bar_side, sub, 2)), sub
