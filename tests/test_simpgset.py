from math import comb

import pytest
from hypothesis import given, strategies as st

from equiloday.exactalg import ChainComplex, PresentedAb, SparseMatrix
from equiloday.fingroup import make_cyclic, make_dihedral, make_symmetric
from equiloday.simpgset import (Cell, EqMap, FinSimpGSet, build_polygon,
                                dihedral_vertex_subgroups, face_precompose,
                                surjections)
from equiloday.spaces import (build_cayley, build_permutohedron_skeleton,
                              build_rot_circle, build_sigma_circle)
from oracles import space_graph_betti


# ---------------------------------------------------------------------------
# operator calculus


def test_surjection_count_and_order():
    for n in range(7):
        for m in range(n + 1):
            ss = surjections(n, m)
            assert len(ss) == comb(n, m)
            assert ss == sorted(ss)
            for s in ss:
                assert s[0] == 0 and s[-1] == m
                assert all(b - a in (0, 1) for a, b in zip(s, s[1:]))


@given(st.integers(1, 5), st.data())
def test_face_precompose_cases(n, data):
    m = data.draw(st.integers(0, n))
    sigma = data.draw(st.sampled_from(surjections(n, m)))
    i = data.draw(st.integers(0, n))
    kind = face_precompose(sigma, i)
    if kind[0] == "deg":
        assert kind[1] in surjections(n - 1, m)
    else:
        _, j, pi = kind
        assert 0 <= j <= m
        assert pi in surjections(n - 1, m - 1)
        # delta_j o pi reproduces the dropped tuple
        dropped = sigma[:i] + sigma[i + 1:]
        assert tuple(v if v < j else v + 1 for v in pi) == dropped


# ---------------------------------------------------------------------------
# builders validate


def all_builder_spaces(truncation=4):
    out = [("sigma-circle", build_sigma_circle(truncation))]
    for n in (1, 2, 3, 4):
        out.append(("rot-%d" % n, build_rot_circle(n, truncation)))
    for m in (1, 2, 3, 4):
        out.append(("polygon-%d" % m, build_polygon(m, truncation)))
    out.append(("cayley-c4", build_cayley(make_cyclic(4), (1,), truncation)))
    out.append(("cayley-s3",
                build_cayley(make_symmetric(3), (1, 3), truncation)))
    for n in (2, 3):
        out.append(("perm-%d" % n,
                    build_permutohedron_skeleton(n, truncation)))
    return out


@pytest.mark.parametrize("name,space", all_builder_spaces(3))
def test_builders_validate(name, space):
    assert space.validate() == []


def test_polygon_level_orbits():
    p = build_polygon(2)
    lv = p.levels[3]
    labels = [lv.label(o) for o in range(len(lv.orbits))]
    assert labels == ["x", "y|0001", "y|0011", "y|0111", "x'"]
    assert [lv.isotropy(o) for o in range(len(lv.orbits))] == \
        [(0, 2), (0,), (0,), (0,), (0, 3)]
    # D4 vertices: two orbits of 2, edges one free orbit of 4
    assert [len(lv.transversal(o)) for o in range(5)] == [2, 4, 4, 4, 2]


def test_polygon_vertex_subgroups():
    g = make_dihedral(6)
    h, h2 = dihedral_vertex_subgroups(3)
    assert h == (0, 3) and h2 == (0, 4)
    assert g.is_subgroup(h) and g.is_subgroup(h2)


def test_polygon_edge_endpoints():
    # the edge orbit walks the hexagon: d_1 keeps the coset, d_0 shifts
    # into the other vertex family
    p = build_polygon(3)
    g = p.group
    d0, d1 = p.face(1, 0), p.face(1, 1)
    lv1, lv0 = p.levels[1], p.levels[0]
    for c in range(6):
        rep = lv1.transversal(1)[c]
        t0, c0 = d0.apply_element((1, c))
        t1, c1 = d1.apply_element((1, c))
        assert lv0.label(t0) == "x'" and lv0.label(t1) == "x"
        assert c0 == lv0.coset_of(t0, rep)
        assert c1 == lv0.coset_of(t1, rep)


def test_identities_catch_bad_two_cell():
    # a 2-cell whose face records disagree about the vertices below
    one = make_cyclic(1)
    tri = lambda faces: FinSimpGSet(one, [
        Cell("a", 0, (0,)),
        Cell("b", 0, (0,)),
        Cell("e", 1, (0,), ((0, (0,), 0), (0, (0,), 0))),
        Cell("f", 1, (0,), ((1, (0,), 0), (0, (0,), 0))),
        Cell("T", 2, (0,), faces),
    ], 3, ("free",))
    good = tri(((2, (0, 1), 0), (2, (0, 1), 0), (2, (0, 1), 0)))
    assert good.validate() == []
    # d_0 d_1 = d_0 d_0 fails: the middle face ends at b, the others at a
    bad = tri(((2, (0, 1), 0), (3, (0, 1), 0), (2, (0, 1), 0)))
    errs = bad.validate()
    assert any("d_" in v for v in errs)


def test_eqmap_requires_isotropy_compatibility():
    p = build_permutohedron_skeleton(2)
    lv0 = p.levels[0]
    mid = next(o for o in range(len(lv0.orbits)) if lv0.label(o) == "mid1")
    v = next(o for o in range(len(lv0.orbits)) if lv0.label(o) == "v")
    entries = [(0, 0)] * len(lv0.orbits)
    entries[mid] = (v, 0)  # order-2 isotropy cannot land on a free orbit
    with pytest.raises(ValueError, match="not well defined"):
        EqMap(lv0, lv0, entries)


def test_cayley_rejects_bad_generators():
    s3 = make_symmetric(3)
    with pytest.raises(ValueError):
        build_cayley(s3, (0, 1), 2)  # identity among the generators
    with pytest.raises(ValueError):
        build_cayley(s3, (1, 1), 2)  # repeat
    with pytest.raises(ValueError):
        build_cayley(make_cyclic(4), (2,), 2)  # does not generate


def test_rot_circle_is_cyclic_cayley():
    a = build_rot_circle(3, 3)
    b = build_cayley(make_cyclic(3), (1,), 3)
    assert (a.group, a.cells, a.mode, a.truncation) == \
        (b.group, b.cells, b.mode, b.truncation)


def test_polygon_one_is_sigma_circle():
    # the 2-gon over the order-2 dihedral group is the twisted circle,
    # up to cell names
    p = build_polygon(1)
    s = build_sigma_circle()
    assert p.group.order == s.group.order == 2
    assert [c.isotropy for c in p.cells] == [c.isotropy for c in s.cells]
    assert [c.dim for c in p.cells] == [c.dim for c in s.cells]
    assert [c.faces for c in p.cells] == [c.faces for c in s.cells]
    assert p.mode[1:] == s.mode[1:]


def test_permutohedron_three_levels():
    p = build_permutohedron_skeleton(3, 2)
    lv = p.levels[2]
    labels = [lv.label(o) for o in range(len(lv.orbits))]
    assert labels == ["mid2", "h2|001", "h2|011", "v", "h1|001", "h1|011",
                      "mid1"]
    assert [lv.isotropy(o) for o in range(len(lv.orbits))] == \
        [(0, 1), (0,), (0,), (0,), (0,), (0,), (0, 2)]


def test_truncation_bounds():
    p = build_polygon(1, truncation=2)
    with pytest.raises(ValueError):
        p.face(3, 0)
    with pytest.raises(ValueError):
        p.degeneracy(2, 0)
    with pytest.raises(ValueError):
        p.face(1, 2)


# ---------------------------------------------------------------------------
# simplicial homology against the spanning-tree count


def simplicial_homology(space, top: int = 2) -> list:
    """Homology in degrees below ``top`` of the free abelian group on the
    space's simplices, elementwise, with the alternating sum of its face
    maps: the homology of the realization, read through the face operator
    calculus, degenerate simplices included."""
    index = [{el: k for k, el in enumerate(space.levels[n].elements())}
             for n in range(top + 1)]
    bounds = []
    for n in range(1, top + 1):
        cols = []
        for el in index[n]:
            acc: dict[int, int] = {}
            for i in range(n + 1):
                t = index[n - 1][space.face(n, i).apply_element(el)]
                acc[t] = acc.get(t, 0) + (-1) ** i
            cols.append(sorted((r, v) for r, v in acc.items() if v))
        bounds.append(SparseMatrix(len(index[n - 1]), cols))
    cx = ChainComplex([PresentedAb(len(ix)) for ix in index], bounds)
    return [cx.homology(k) for k in range(top)]


@pytest.mark.parametrize("name,space", all_builder_spaces(2))
def test_graph_betti_matches_oracle(name, space):
    # every builder space is a graph, so its realization has the Betti
    # numbers of the union-find count on its 1-skeleton, and no torsion
    h0, h1 = simplicial_homology(space)
    b0, b1 = space_graph_betti(space)
    assert (h0.free_rank, h0.torsion) == (b0, ())
    assert (h1.free_rank, h1.torsion) == (b1, ())


def test_known_graph_shapes():
    assert space_graph_betti(build_rot_circle(3)) == (1, 1)
    assert space_graph_betti(build_permutohedron_skeleton(2)) == (1, 0)
    # Cayley graph of S3 on a transposition and a 3-cycle: 6 vertices,
    # 12 edges, connected
    assert space_graph_betti(build_cayley(make_symmetric(3), (1, 3), 2)) == (1, 7)
