"""``a == b`` implies ``hash(a) == hash(b)`` for every hashable value type,
and the unhashable value types refuse hashing."""

import pytest
from hypothesis import given, strategies as st

from equiloday.coeffs import gaussian, load_bundled
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.fingroup import make_cyclic
from equiloday.gring import StructuredHom, TensorRing
from equiloday.homology import MackeyH, mackey_homology
from equiloday.loday import RealHochschild, loday_free, real_hochschild
from equiloday.simpgset import Cell, EqMap, Simplex, build_polygon
from equiloday.spaces import build_rot_circle

RINGS = ["gaussian", "zmod4", "z", "group_ring_c2_mod2"]


def _ring(name):
    # a fresh object every call: equal by value, never identical
    return gaussian().ring if name == "gaussian" else load_bundled(name).ring


@given(st.sampled_from(RINGS), st.sampled_from(RINGS),
       st.lists(st.integers(0, 5), max_size=4, unique=True))
def test_tensor_ring_hash_follows_eq(a, b, slots):
    ta, tb = TensorRing(_ring(a), slots), TensorRing(_ring(b), slots)
    assert (ta == tb) == (a == b)
    if ta == tb:
        assert hash(ta) == hash(tb)


@pytest.fixture(scope="module")
def polygon_level():
    # vertices with reflection isotropy, so maps into them are read modulo it
    return build_polygon(2, 1).levels[0]


@given(st.data())
def test_eqmap_hash_follows_eq(polygon_level, data):
    lv = polygon_level
    g = lv.group
    norb = len(lv.orbits)
    well_defined = [[(t, u) for t in range(norb) for u in g.elements()
                     if all(g.conj(g.inv(u), k) in lv.isotropy(t)
                            for k in lv.isotropy(o))]
                    for o in range(norb)]
    entries = [data.draw(st.sampled_from(choices)) for choices in well_defined]
    # move each u inside the target isotropy: the same map
    moved = [(t, g.mul(u, data.draw(st.sampled_from(lv.isotropy(t)))))
             for t, u in entries]
    other = [data.draw(st.sampled_from(choices)) for choices in well_defined]
    f, f2, h = (EqMap(lv, lv, e) for e in (entries, moved, other))
    assert f == f2
    for x, y in ((f, f2), (f, h)):
        if x == y:
            assert hash(x) == hash(y)


def test_intmatrix_is_unhashable():
    # mutable, and compared by value: neither matrix type may sit in sets
    # or dict keys
    for matrix in (IntMatrix.identity(2), SparseMatrix.identity(2)):
        with pytest.raises(TypeError):
            hash(matrix)
    assert SparseMatrix.identity(2) == SparseMatrix(2, [[(0, 1)], [(1, 1)]])
    assert SparseMatrix.identity(2) != SparseMatrix(2, [[(0, 1)], [(1, -1)]])
    assert SparseMatrix(2, []) != SparseMatrix(3, [])


@given(st.sampled_from(RINGS), st.data())
def test_unchecked_structured_hom_equals_the_checked_one(name, data):
    # builders pass normalized (int, int, bool) entries with check=False;
    # the checked constructor normalizes flags given as ints to the same map
    ring = _ring(name)
    nsrc, ndst = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))
    twist = st.integers(0, len(ring.twists.matrices) - 1)
    lists = [[] for _ in range(ndst)]
    for s in data.draw(st.permutations(range(nsrc))):
        lists[data.draw(st.integers(0, ndst - 1))].append(
            (s, data.draw(twist), data.draw(st.booleans())))
    src, dst = TensorRing(ring, range(nsrc)), TensorRing(_ring(name), range(ndst))
    fast = StructuredHom(src, dst, lists, check=False)
    checked = StructuredHom(src, dst, [[(s, t, int(a)) for s, t, a in lst]
                                       for lst in lists])
    assert fast == checked and checked == fast
    assert fast.targets == checked.targets
    assert [type(a) for lst in checked.targets for _, _, a in lst] == \
        [bool] * nsrc
    assert fast.reduced_form() == checked.reduced_form()
    for f in (fast, checked):  # StructuredHom defines no hash: both refuse it
        with pytest.raises(TypeError):
            hash(f)


_labels = st.text("xyz'", min_size=1, max_size=2)
_elements = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@given(_labels, st.integers(0, 2), _elements, _labels, st.integers(0, 2), _elements)
def test_cell_and_simplex_hash_follows_eq(la, da, ia, lb, db, ib):
    # a copy rebuilt from copies of the fields is equal and hashes equal
    for make in (lambda l, d, i: Cell(l, d, i, ((0, i, d),)),
                 lambda l, d, i: Simplex(d, i)):
        a, b = make(la, da, ia), make(lb, db, ib)
        copy = make("".join(la), int(da), tuple(list(ia)))
        assert a == copy and hash(a) == hash(copy)
        if a == b:
            assert hash(a) == hash(b)


def test_cells_and_simplices_are_frozen():
    cell, simplex = Cell("v", 0, (0, 1)), Simplex(0, (0, 0))
    assert cell.faces == () and cell == Cell(label="v", dim=0, isotropy=(0, 1))
    for value, field in ((cell, "dim"), (cell, "faces"), (simplex, "sigma")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
    assert cell.dim == 0 and simplex.sigma == (0, 0)


def test_real_hochschild_builds_from_its_field_names():
    rh = real_hochschild(1, gaussian(), truncation=1)
    again = RealHochschild(loday_side=rh.loday_side, bar_side=rh.bar_side,
                           isos=list(rh.isos))
    assert again == rh and again.isos is not rh.isos
    assert RealHochschild(rh.bar_side, rh.loday_side, rh.isos) != rh
    with pytest.raises(TypeError):  # a list field: unhashable, as before
        hash(rh)


def test_mackey_h_builds_from_the_keywords_mackey_homology_passes():
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=2),
                   gaussian().trivial_action(c2), inner="flip")
    mk = mackey_homology(s, 0)
    again = MackeyH(degree=mk.degree, group=mk.group, subgroups=mk.subgroups,
                    classes=mk.classes, values=mk.values, _lc=mk._lc,
                    _hd=mk._hd)
    assert again == mk and not again != mk
    assert MackeyH(**{**vars(mk), "degree": 1}) != mk
    bare = MackeyH(0, c2, mk.subgroups, mk.classes, mk.values)
    assert bare._lc == {} and bare._hd == {} and bare != mk
    assert mk != (mk.degree, mk.group)
    with pytest.raises(TypeError):  # mutable: compared by value, unhashable
        hash(mk)
