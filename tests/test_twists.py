"""Interned twists and generator-only action checks against their oracles.

``StructuredHom`` keeps twists as ids into the base ring's ``TwistTable``;
``tests/oracles.py`` keeps the matrix-based compose, equality and expansion
they replaced, and the checks of group actions on every pair of elements.
Random maps over the Gaussian integers, the quaternions (noncommutative) and
Z/4 (with relations) must compose, compare and expand exactly as the matrix
forms do, and a corrupted action must be rejected by the generator-only
check exactly when the every-pair check rejects it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.coeffs import gaussian, load_bundled, quaternions
from equiloday.exactalg import IntMatrix
from equiloday.fingroup import (GroupHom, make_cyclic, make_dihedral,
                                make_klein_four, make_symmetric,
                                symmetric_one_line)
from equiloday.gring import (IDENTITY_TWIST, GTensorRing, NormRing,
                             PresentedRing, RingWithAction, StructuredHom,
                             TensorRing, commutativity_uses, diagonal_power,
                             flip_power, reset_commutativity_uses)
from equiloday.verify import run_suite
from oracles import (coordinate_permutation_action, full_grouphom_check,
                     full_gtensor_check,
                     full_ring_action_check, matrix_targets,
                     reference_compose, reference_eq, reference_sparse,
                     reference_twist_inverse)

COEFFS = {"gaussian": gaussian(), "quaternion": quaternions(),
          "zmod4": load_bundled("zmod4")}

# exact twist matrices per ring; on Z/4, 5 = 1 and 3 = -1 modulo relations
POOLS = {
    "gaussian": [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]],
                 [[1, 1], [0, 1]]],
    "quaternion": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                   [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                   [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
                   [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]],
    "zmod4": [[[1]], [[5]], [[3]], [[-1]], [[2]]],
}


def _rejects(check) -> bool:
    try:
        check()
    except ValueError:
        return True
    return False


@st.composite
def _routing(draw, nsrc: int, ndst: int, npool: int):
    """Each source slot to one target slot, in a random order, with a pool
    index and an anti flag."""
    lists = [[] for _ in range(ndst)]
    for s in draw(st.permutations(range(nsrc))):
        t = draw(st.integers(0, ndst - 1))
        lists[t].append((s, draw(st.integers(0, npool - 1)), draw(st.booleans())))
    return lists


def _hom(ring: PresentedRing, src: TensorRing, dst: TensorRing, lists,
         pool) -> StructuredHom:
    return StructuredHom(src, dst, [[(s, ring.twists.intern(IntMatrix.from_rows(pool[k])), a)
                                     for s, k, a in lst] for lst in lists])


def _variant(data, lists, npool: int):
    """``lists`` after a few edits that may or may not change the map:
    reorder a slot, flip a flag, swap a twist."""
    lists = [list(lst) for lst in lists]
    for _ in range(data.draw(st.integers(0, 3))):
        t = data.draw(st.integers(0, len(lists) - 1))
        if not lists[t]:
            continue
        kind = data.draw(st.sampled_from(["reorder", "flag", "twist"]))
        if kind == "reorder":
            lists[t] = data.draw(st.permutations(lists[t]))
            continue
        i = data.draw(st.integers(0, len(lists[t]) - 1))
        s, k, a = lists[t][i]
        if kind == "flag":
            lists[t][i] = (s, k, not a)
        else:
            lists[t][i] = (s, data.draw(st.integers(0, npool - 1)), a)
    return lists


def _ring_and_sizes(data, count: int):
    name = data.draw(st.sampled_from(sorted(COEFFS)))
    ring = COEFFS[name].ring
    sizes = [data.draw(st.integers(1, 3)) for _ in range(count)]
    return ring, POOLS[name], [TensorRing(ring, range(n)) for n in sizes]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_matches_matrix_reference(data):
    ring, pool, (src, mid, dst) = _ring_and_sizes(data, 3)
    inner = _hom(ring, src, mid,
                 data.draw(_routing(src.nslots, mid.nslots, len(pool))), pool)
    outer = _hom(ring, mid, dst,
                 data.draw(_routing(mid.nslots, dst.nslots, len(pool))), pool)
    got = outer.compose(inner)
    want = reference_compose(matrix_targets(outer), matrix_targets(inner))
    # the same exact product matrices, flags and factor order
    assert matrix_targets(got) == want
    ref = reference_sparse(ring, want, src.nslots, dst.nslots)
    assert (got.sparse().rows, got.sparse().data) == (ref.rows, ref.data)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_equality_matches_matrix_reference(data):
    ring, pool, (src, dst) = _ring_and_sizes(data, 2)
    lists = data.draw(_routing(src.nslots, dst.nslots, len(pool)))
    f = _hom(ring, src, dst, lists, pool)
    g = _hom(ring, src, dst, _variant(data, lists, len(pool)), pool)
    reset_commutativity_uses()
    got = f == g
    got_uses = commutativity_uses()
    reset_commutativity_uses()
    want = reference_eq(ring, matrix_targets(f), matrix_targets(g))
    assert (got, got_uses) == (want, commutativity_uses())
    ref = reference_sparse(ring, matrix_targets(f), src.nslots, dst.nslots)
    assert f.sparse().data == ref.data


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zmod4", "group_ring_c2_mod2"]), st.data())
def test_inverse_matches_per_column_solve(name, data):
    # one Smith form for all unit vectors gives the exact matrix the
    # per-column solves gave, and the same verdict on singular twists
    ring = load_bundled(name).ring
    n = ring.ngens
    m = IntMatrix(n, n, [[data.draw(st.integers(-5, 5)) for _ in range(n)]
                         for _ in range(n)])
    tw = ring.twists
    t = tw.intern(m)
    want = reference_twist_inverse(ring, m)
    if want is None:
        with pytest.raises(ValueError, match="not invertible"):
            tw.inverse(t)
    else:
        assert tw.matrices[tw.inverse(t)] == want


def test_products_are_interned_exactly():
    tw = COEFFS["zmod4"].ring.twists
    five = tw.intern(IntMatrix.from_rows([[5]]))
    three = tw.intern(IntMatrix.from_rows([[3]]))
    assert tw.same(five, IDENTITY_TWIST) and five != IDENTITY_TWIST
    assert tw.matrices[tw.product(five, three)] == IntMatrix.from_rows([[15]])
    assert tw.product(five, three) == tw.product(five, three)
    assert tw.same(tw.product(five, three), three)
    # equal rings share one table
    assert load_bundled("zmod4").ring.twists is tw


# ---------------------------------------------------------------------------
# generator-only checks of group actions


def _coset_shift(data, group) -> list[int]:
    """A map phi of the elements with phi(g c) = phi(g) c for a drawn c: it
    moves one left coset of <c> by a drawn element.  Precomposing an action
    with it corrupts several entries at once in a way that every test on
    the pairs (g, c) alone misses."""
    n = group.order
    c, r, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    powers = [0]
    while group.mul(powers[-1], c) != 0:
        powers.append(group.mul(powers[-1], c))
    phi = list(range(n))
    if r not in powers:
        for p in powers:
            phi[group.mul(r, p)] = group.mul(t, p)
    return phi


def _index_two(group):
    return next(sub for sub in group.all_subgroups()
                if 2 * len(sub) == group.order)


def _sign_action(group, coeff) -> RingWithAction:
    even = _index_two(group)
    invol = (coeff.ring.twists.intern(coeff.involution[0]), coeff.involution[1])
    return RingWithAction(group, coeff.ring,
                          [(IDENTITY_TWIST, False) if g in even else invol
                           for g in group.elements()])


def _ring_actions() -> list[RingWithAction]:
    s3 = make_symmetric(3)
    return [COEFFS["gaussian"].c2_action(), COEFFS["quaternion"].c2_action(),
            COEFFS["zmod4"].c2_action(),
            _sign_action(make_cyclic(4), COEFFS["gaussian"]),
            _sign_action(s3, COEFFS["quaternion"]),
            _sign_action(make_dihedral(8), COEFFS["gaussian"]),
            coordinate_permutation_action(s3, symmetric_one_line(3)),
            load_bundled("rotation_z3").cyclic_group_action()]


RING_ACTIONS = _ring_actions()


def _tensor_actions() -> list[GTensorRing]:
    s3, d8 = make_symmetric(3), make_dihedral(8)
    gauss_c2 = COEFFS["gaussian"].c2_action()
    return [flip_power(make_klein_four(), COEFFS["zmod4"].ring),
            diagonal_power(_sign_action(s3, COEFFS["gaussian"])),
            diagonal_power(_sign_action(make_cyclic(4), COEFFS["quaternion"])),
            NormRing(s3, (0, 2), gauss_c2).gt,
            NormRing(d8, _index_two(d8), _sign_action(make_cyclic(4),
                                                       COEFFS["gaussian"])).gt,
            NormRing(make_cyclic(4), (0, 2), COEFFS["quaternion"].c2_action()).gt]


TENSOR_ACTIONS = _tensor_actions()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gtensor_generator_check_rejects_exactly_what_full_check_rejects(data):
    gt = data.draw(st.sampled_from(TENSOR_ACTIONS))
    n = gt.group.order
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    action = list(gt.action)
    kind = data.draw(st.sampled_from(["entry", "compose", "coset"]))
    if kind == "entry":
        action[x] = gt.action[y]
    elif kind == "compose":
        action[x] = gt.action[x].compose(gt.action[y])
    else:
        action = [gt.action[p] for p in _coset_shift(data, gt.group)]
    assert (_rejects(lambda: GTensorRing(gt.group, gt.tensor, action))
            == _rejects(lambda: full_gtensor_check(gt.group, gt.tensor, action)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_action_generator_check_rejects_exactly_what_full_check_rejects(data):
    rwa = data.draw(st.sampled_from(RING_ACTIONS))
    n = rwa.group.order
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    acts = list(rwa.acts)
    kind = data.draw(st.sampled_from(["entry", "flag", "twist", "coset"]))
    if kind == "entry":
        acts[x] = rwa.acts[y]
    elif kind == "flag":
        acts[x] = (acts[x][0], not acts[x][1])
    elif kind == "twist":
        acts[x] = (rwa.acts[y][0], acts[x][1])
    else:
        acts = [rwa.acts[p] for p in _coset_shift(data, rwa.group)]
    assert (_rejects(lambda: RingWithAction(rwa.group, rwa.ring, acts))
            == _rejects(lambda: full_ring_action_check(rwa.group, rwa.ring, acts)))


def _group_homs():
    s3, c2, c4, d8 = (make_symmetric(3), make_cyclic(2), make_cyclic(4),
                      make_dihedral(8))
    out = [(s3, s3, list(range(6))), (c4, c2, [g % 2 for g in range(4)]),
           (c4, c4, [(3 * g) % 4 for g in range(4)]),
           (s3, s3, [s3.conj(1, g) for g in range(6)])]
    for g in (s3, d8):
        even = _index_two(g)
        out.append((g, c2, [0 if x in even else 1 for x in g.elements()]))
    return out


GROUP_HOMS = _group_homs()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_hom_generator_check_rejects_exactly_what_full_check_rejects(data):
    src, dst, images = data.draw(st.sampled_from(GROUP_HOMS))
    if data.draw(st.booleans()):
        images = list(images)
        images[data.draw(st.integers(0, src.order - 1))] = \
            data.draw(st.integers(0, dst.order - 1))
    else:
        images = [images[p] for p in _coset_shift(data, src)]
    assert (_rejects(lambda: GroupHom(src, dst, images))
            == _rejects(lambda: full_grouphom_check(src, dst, images)))


def test_every_uncorrupted_action_passes_both_checks():
    # so agreement above is never agreement between two checks that reject all
    for rwa in RING_ACTIONS:
        full_ring_action_check(rwa.group, rwa.ring, rwa.acts)
    for gt in TENSOR_ACTIONS:
        full_gtensor_check(gt.group, gt.tensor, gt.action)
    for src, dst, images in GROUP_HOMS:
        GroupHom(src, dst, images)
        full_grouphom_check(src, dst, images)


def test_a_norm_over_a_foreign_group_table_is_checked_in_full():
    # the by-construction proof needs the action to be multiplicative on the
    # subgroup itself; over C4's table on d8's Klein four {e, r2, s, r2 s}
    # the shift is not (r2 squares to e, the shift's square is no identity)
    d8, c4 = make_dihedral(8), make_cyclic(4)
    shift = coordinate_permutation_action(
        c4, [tuple((j + i) % 4 for j in range(4)) for i in range(4)])
    klein = (0, 2, 4, 6)
    with pytest.raises(ValueError, match="not multiplicative"):
        NormRing(d8, klein, shift)
    # a foreign table with an action that still multiplies is accepted
    NormRing(d8, klein, RingWithAction.trivial(c4, shift.ring))
    # and the rotations, whose table is C4's, take the shift unchecked
    norm = NormRing(d8, (0, 1, 2, 3), shift)
    full_gtensor_check(norm.group, norm.tensor, norm.gt.action)


def test_generator_pairs_cover_a_generating_set():
    for g in (make_symmetric(3), make_dihedral(8), make_klein_four(), make_cyclic(1)):
        gens = g.generating_sequence()
        assert g.subgroup_generated(gens) == tuple(range(g.order))
        assert g.generating_sequence() is gens  # computed once
        assert len(g.generator_pairs()) == g.order * len(gens)


@pytest.mark.parametrize("suite,params", [
    ("conjugate-switch", {"group": "s3"}),
    ("conjugate-switch", {"group": "d6"}),
    ("weyl", {}),
], ids=["conjugate-switch-s3", "conjugate-switch-d6", "weyl"])
def test_every_norm_the_suites_build_passes_the_full_check(monkeypatch, suite, params):
    # NormRing builds its action unvalidated when the coefficient group's
    # table is the subgroup's, since it is multiplicative by construction:
    # the every-pair check must accept each norm these suites build (once
    # per distinct action; the norm is kept, so ids stay unique)
    built = {}
    init = NormRing.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        key = (tuple(map(tuple, self.group.table)), id(self.tensor.base),
               self.tensor.slots, tuple(f.targets for f in self.gt.action))
        built.setdefault(key, self)

    monkeypatch.setattr(NormRing, "__init__", recording_init)
    assert run_suite(suite, dict(params))["passed"]
    assert built
    for norm in built.values():
        full_gtensor_check(norm.group, norm.tensor, norm.gt.action)
