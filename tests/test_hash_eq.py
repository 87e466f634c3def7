"""``a == b`` implies ``hash(a) == hash(b)`` for every hashable value type."""

import pytest
from hypothesis import given, strategies as st

from equiloday.coeffs import gaussian, load_bundled
from equiloday.exactalg import IntMatrix
from equiloday.gring import TensorRing
from equiloday.simpgset import EqMap, build_polygon

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
    # mutable: it must not sit in sets or dict keys
    with pytest.raises(TypeError):
        hash(IntMatrix.identity(2))

