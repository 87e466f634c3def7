from itertools import product

import pytest

from equiloday.coeffs import bundled_names, gaussian, load_bundled, quaternions
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.fingroup import make_cyclic, make_dihedral, make_symmetric
from equiloday.gring import (GTensorRing, StructuredHom, commutativity_uses,
                             reset_commutativity_uses)
from equiloday.loday import (bar, loday, loday_free, loday_normal_sub, loday_one_isotropy,
                             loday_two_isotropy, real_hochschild)
from equiloday.norms import NormRing, _ordered_fold, norm_projection, tensor_induce
from equiloday.rings import IDENTITY_TWIST, PresentedRing, RingWithAction
from equiloday.simpgset import Cell, FinSimpGSet, build_polygon
from equiloday.spaces import (build_cayley, build_coset_cayley,
                              build_permutohedron_skeleton, build_rot_circle,
                              build_sigma_circle)
from equiloday.suites_realhh import esigma_check
from oracles import (_tuple_index, integers, reference_bar, reference_boundary,
                     reference_induced_hom, reference_level_isos, reference_loday_free,
                     reference_loday_normal_sub, reference_loday_one_isotropy,
                     reference_loday_two_isotropy, reference_ring_validate,
                     reference_space_identities, sd_face_column)


# ---------------------------------------------------------------------------
# the shared norm rule and identity check against the code they replaced


def _normal_d8():
    gz = gaussian()
    inv = (gz.ring.twists.intern(gz.involution[0]), gz.involution[1])
    rwa = RingWithAction(make_cyclic(4), gz.ring,
                         [(IDENTITY_TWIST, False), inv, (IDENTITY_TWIST, False), inv])
    space = build_coset_cayley(make_dihedral(8), (0, 2), (1,), 3,
                               mode=("normal_with_subgroups", (0, 1, 2, 3),
                                     ((0, 2), (0,))))
    return loday_normal_sub, reference_loday_normal_sub, space, rwa, {}


PIPELINES = {
    "sigma": lambda: (loday_two_isotropy, reference_loday_two_isotropy,
                      build_sigma_circle(3), gaussian(), {}),
    **{f"rot2-{inner}": (lambda inner=inner: (
        loday_free, reference_loday_free, build_rot_circle(2, 3),
        gaussian().c2_action(), {"inner": inner}))
       for inner in ("flip", "diagonal")},
    **{f"polygon{m}-{name}": (lambda m=m, name=name: (
        loday_two_isotropy, reference_loday_two_isotropy, build_polygon(m, 3),
        load_bundled(name), {}))
       for m in (1, 2) for name in ("gaussian", "zmod4")},
    "cayley-s3": lambda: (loday_free, reference_loday_free,
                          build_cayley(make_symmetric(3), (1, 3), 3),
                          RingWithAction.trivial(make_symmetric(3), gaussian().ring),
                          {}),
    "coset-cayley-s3": lambda: (loday_one_isotropy, reference_loday_one_isotropy,
                                build_coset_cayley(make_symmetric(3), (0, 2), (3,), 3),
                                gaussian().c2_action(), {}),
    "normal-d8": _normal_d8,
    "permutohedron3": lambda: (loday_one_isotropy, reference_loday_one_isotropy,
                               build_permutohedron_skeleton(3, 3),
                               gaussian().c2_action(), {}),
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_builders_match_the_replaced_builders(name):
    build, reference, space, coeff, kwargs = PIPELINES[name]()
    new, old = build(space, coeff, **kwargs), reference(space, coeff, **kwargs)
    assert new.label == old.label
    assert new.expansion_key(new.top()) == old.expansion_key(old.top())
    assert new.validate() == reference_ring_validate(old) == []
    assert space.validate() == reference_space_identities(space) == []


class _SwappedFaces(FinSimpGSet):
    """A space whose d_0 and d_1 out of level 2 trade places."""

    def face(self, n, i):
        return super().face(n, 1 - i if n == 2 and i < 2 else i)


def test_identity_failures_match_the_replaced_checks():
    p = build_polygon(1, 3)
    space = _SwappedFaces(p.group, p.cells, 3, p.mode)
    assert space.validate() == reference_space_identities(space) != []
    s = loday_two_isotropy(build_polygon(1, 3), gaussian())
    s.faces[1][0], s.faces[1][1] = s.faces[1][1], s.faces[1][0]
    msgs = s.validate()
    assert msgs == reference_ring_validate(s) != []
    assert all(m.startswith("loday-two-isotropy: ") for m in msgs)


# ---------------------------------------------------------------------------
# one block router against the routings it replaced


def _map_targets(s):
    """Targets of every face and of every degeneracy of a simplicial ring."""
    return ([f.targets for fs in s.faces for f in fs],
            [d.targets for ds in s.degens for d in ds])


def _reference_induced_targets(s):
    """``_map_targets`` of a Loday construction, routed by hand."""
    space, norms, lv = s.space, s.norms, s.levels
    return ([reference_induced_hom(space, norms, lv[n], lv[n - 1], space.face(n, i)).targets
             for n in range(1, s.top() + 1) for i in range(n + 1)],
            [reference_induced_hom(space, norms, lv[n], lv[n + 1],
                                   space.degeneracy(n, j)).targets
             for n in range(s.top()) for j in range(n + 1)])


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_induced_maps_match_the_replaced_routing(name):
    build, _, space, coeff, kwargs = PIPELINES[name]()
    # the flip model: transport_to_diagonal only conjugates its maps
    s = loday(space, build(space, coeff, **kwargs).norms)
    assert _map_targets(s) == _reference_induced_targets(s)


INVOLUTIVE = [name for name in bundled_names()
              if load_bundled(name).involution is not None]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", INVOLUTIVE)
def test_real_hochschild_maps_match_the_replaced_routing(name, m):
    rh = real_hochschild(m, load_bundled(name), truncation=3)
    L = rh.loday_side
    m_norm, a_norm, n_norm = L.norms[:3]
    old_bar = reference_bar(m_norm, a_norm, n_norm, norm_projection(a_norm, m_norm),
                            norm_projection(a_norm, n_norm), truncation=3)
    assert _map_targets(L) == _reference_induced_targets(L)
    assert _map_targets(rh.bar_side) == _map_targets(old_bar)
    assert ([f.targets for f in rh.isos]
            == [f.targets for f in reference_level_isos(L, old_bar)])


# ---------------------------------------------------------------------------
# one expanded face sum per level against the face-by-face sum it replaced

# the largest level rank compared: level 1 of cayley-s3 has rank 262,144,
# and comparing it alone takes 3 s and 300 MB
BOUNDARY_RANK = 4096


def _assert_boundaries_match_face_sums(s) -> int:
    """Compare every level up to ``BOUNDARY_RANK``; how many were compared."""
    compared = 0
    for n in range(1, s.top() + 1):
        rank = s.level_rank(n)
        if rank <= BOUNDARY_RANK:
            want = reference_boundary(s, n, SparseMatrix.identity(rank))
            assert s.expanded_boundary(n) == want, (s.label, n)
            compared += 1
    return compared


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_expanded_boundaries_match_face_sums(name):
    build, _, space, coeff, kwargs = PIPELINES[name]()
    s = build(space, coeff, **kwargs)
    if not _assert_boundaries_match_face_sums(s):
        pytest.skip(f"level 1 has rank {s.level_rank(1)}, above {BOUNDARY_RANK}")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", INVOLUTIVE)
def test_real_hochschild_boundaries_match_face_sums(name, m):
    rh = real_hochschild(m, load_bundled(name), truncation=3)
    sides = (rh.loday_side, rh.bar_side)
    if not sum(map(_assert_boundaries_match_face_sums, sides)):
        pytest.skip(f"level 1 has rank {sides[0].level_rank(1)}, above {BOUNDARY_RANK}")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", INVOLUTIVE)
def test_real_hochschild_sides_share_one_expansion_key(name, m):
    # the realhh suite builds one complex for both sides on this equality
    rh = real_hochschild(m, load_bundled(name), truncation=3)
    assert rh.loday_side.expansion_key(3) == rh.bar_side.expansion_key(3)


# ---------------------------------------------------------------------------
# fold ordering


def test_ordered_fold_reflects_antis():
    ident = IDENTITY_TWIST
    plain = [(0, ident, False), (3, ident, False), (5, ident, False)]
    assert _ordered_fold(plain, None) == sorted(plain)
    # pass-through at 3: anti contributions mirror across it
    mixed = [(3, ident, False), (1, ident, True), (5, ident, True)]
    got = _ordered_fold(mixed, 3)
    assert [p for p, _, _ in got] == [5, 3, 1]  # keys 1, 3, 5
    with pytest.raises(ValueError, match="pass-through"):
        _ordered_fold([(0, ident, True)], None)


# ---------------------------------------------------------------------------
# validation across modes


def test_free_rot_circle_validates():
    gz = gaussian()
    for n in (1, 2, 3):
        s = loday_free(build_rot_circle(n, 3), gz.c2_action()
                       if n == 2 else RingWithAction.trivial(
                           make_cyclic(n), gz.ring), inner="flip")
        assert s.validate() == []


def test_free_mode_rejects_nonfree_space():
    gz = gaussian()
    with pytest.raises(ValueError, match="free"):
        loday_free(build_polygon(1), gz.c2_action())


def test_sigma_circle_two_isotropy_validates():
    s = loday_two_isotropy(build_sigma_circle(4), gaussian())
    assert s.validate() == []
    # vertex blocks have one coset each, the edge block two
    assert [s.level_rank(n) for n in range(3)] == [4, 16, 64]


def test_one_isotropy_permutohedron_validates():
    gz = gaussian()
    rwa = gz.c2_action()
    s = loday_one_isotropy(build_permutohedron_skeleton(3, 2), rwa)
    assert s.validate() == []


def test_one_isotropy_conjugate_stabilizers():
    # coset space of S3 on a reflection: the two vertex stabilizers in the
    # space are conjugate and get the pulled-back action
    s3 = make_symmetric(3)
    space = build_coset_cayley(s3, (0, 2), (3,), 2)
    gz = gaussian()
    rwa = gz.c2_action()
    s = loday_one_isotropy(space, rwa)
    assert s.validate() == []


def test_normal_mode_validates():
    gz = gaussian()
    d8 = make_dihedral(8)
    spc = build_coset_cayley(d8, (0, 2), (1,), 2,
                             mode=("normal_with_subgroups", (0, 1, 2, 3),
                                   ((0, 2), (0,))))
    assert spc.validate() == []
    inv = gz.c2_action().acts[1]
    rwa = RingWithAction(make_cyclic(4), gz.ring,
                         [(IDENTITY_TWIST, False), inv,
                          (IDENTITY_TWIST, False), inv])
    s = loday_normal_sub(spc, rwa)
    assert s.validate() == []


def test_nested_norm_projection_composite():
    # collapsing cosets in two steps agrees with the direct collapse,
    # for the order-8 dihedral group, rotations over half-rotations
    gz = gaussian()
    d8 = make_dihedral(8)
    ident = IDENTITY_TWIST
    one = make_cyclic(1)
    rwa_e = RingWithAction(one, gz.ring, [(ident, False)])
    n_e = tensor_induce(d8, (0,), rwa_e)
    n_k = NormRing(d8, (0, 2), RingWithAction(make_cyclic(2), gz.ring,
                                              [(ident, False),
                                               (ident, False)]))
    n_h = tensor_induce(d8, (0, 1, 2, 3),
                        RingWithAction(make_cyclic(4), gz.ring,
                                       [(ident, False)] * 4))
    step1 = norm_projection(n_e, n_k)
    step2 = norm_projection(n_k, n_h)
    direct = norm_projection(n_e, n_h)
    assert step2.compose(step1) == direct


# ---------------------------------------------------------------------------
# mode reductions


def test_one_isotropy_trivial_matches_free():
    gz = gaussian()
    cay = build_cayley(make_cyclic(3), (1,), 2)
    triv = FinSimpGSet(cay.group, cay.cells, 2, ("one_isotropy", (0,)))
    rwa3 = RingWithAction.trivial(make_cyclic(3), gz.ring)
    a = loday_free(cay, rwa3, inner="flip")
    one = make_cyclic(1)
    b = loday_one_isotropy(triv, RingWithAction(
        one, gz.ring, [(IDENTITY_TWIST, False)]))
    for n in range(1, 3):
        for i in range(n + 1):
            assert a.face(n, i) == b.face(n, i)


def test_two_isotropy_reduces_to_one():
    # one fixed vertex, one free loop: both assignments give the same maps
    c2 = make_cyclic(2)
    cells = [Cell("v", 0, (0, 1)),
             Cell("y", 1, (0,), ((0, (0,), 1), (0, (0,), 0)))]
    sp2 = FinSimpGSet(c2, cells, 2,
                      ("two_isotropy", (0, 1), (0, 1), ((0, 0), (1, 1))))
    sp1 = FinSimpGSet(c2, cells, 2, ("one_isotropy", (0, 1)))
    gz = gaussian()
    a = loday_two_isotropy(sp2, gz)
    rwa = gz.c2_action()
    b = loday_one_isotropy(sp1, rwa)
    for n in range(1, 3):
        for i in range(n + 1):
            assert a.face(n, i) == b.face(n, i)


# ---------------------------------------------------------------------------
# flip vs diagonal on the rotated circle


def independent_diagonal_action(level: GTensorRing, norms, space_level,
                                rwa: RingWithAction) -> list[StructuredHom]:
    """The diagonal action written down directly: permute cosets, twist
    every slot by the acting element's coefficient matrix."""
    tr = level.tensor
    g = rwa.group
    out = []
    for gamma in range(g.order):
        m, a = rwa.acts[gamma]
        targets = []
        for (o, t) in tr.slots:
            rep = norms[o].transversal[t]
            s = g.coset_index(norms[o].sub)[g.mul(g.inv(gamma), rep)]
            targets.append([(tr.slot_index((o, s)), m, a)])
        out.append(StructuredHom(tr, tr, targets, check=False))
    return out


@pytest.mark.parametrize("n,coeff_name", [(2, "gaussian"),
                                          (3, "rotation_z3")])
def test_diagonal_transport_is_the_diagonal_action(n, coeff_name):
    coeff = load_bundled(coeff_name)
    rwa = coeff.c2_action() if n == 2 else coeff.cyclic_group_action()
    space = build_rot_circle(n, 3)
    flip = loday_free(space, rwa, inner="flip")
    diag = loday_free(space, rwa, inner="diagonal")
    assert diag.validate() == []
    for lvl in range(4):
        lv = space.levels[lvl]
        norms = [flip.norms[lv.orbits[o].cell] for o in range(len(lv.orbits))]
        want = independent_diagonal_action(diag.levels[lvl], norms, lv, rwa)
        for gamma in range(rwa.group.order):
            assert diag.levels[lvl].act(gamma) == want[gamma]


def test_flip_faces_untwisted_diagonal_last_face_twisted():
    coeff = gaussian()
    rwa = coeff.c2_action()
    space = build_rot_circle(2, 3)
    flip = loday_free(space, rwa, inner="flip")
    diag = loday_free(space, rwa, inner="diagonal")
    same = coeff.ring.twists.same
    for n in range(1, 4):
        for i in range(n + 1):
            for lst in flip.face(n, i).targets:
                for (_, m, a) in lst:
                    assert same(m, IDENTITY_TWIST) and not a
    for n in range(1, 4):
        twists = [m for lst in diag.face(n, n).targets for (_, m, _) in lst]
        assert any(not same(t, IDENTITY_TWIST) for t in twists)
        assert diag.face(n, n) != flip.face(n, n)


# ---------------------------------------------------------------------------
# rotated circle vs subdivided cyclic bar


def walk_position(n, k, o, c):
    if o == 0:
        return (k + 1) * c
    return (k + 1) * c + (k - o) + 1


def loday_tuple_to_big(idx, n, k):
    t = [0] * (n * (k + 1))
    for o in range(k + 1):
        for c in range(n):
            t[walk_position(n, k, o, c)] = idx[o * n + c]
    return tuple(t)


def test_rot2_equals_subdivided_cyclic_bar():
    coeff = gaussian()
    ring = coeff.ring
    rank = ring.ngens
    n = 2
    s = loday_free(build_rot_circle(n, 2), coeff.c2_action(), inner="flip")
    for k in (1, 2):
        tgt_map = [
            _tuple_index(rank, loday_tuple_to_big(idx, n, k - 1))
            for idx in product(range(rank), repeat=n * k)]
        for i in range(k + 1):
            f = s.face(k, i)
            for idx in product(range(rank), repeat=n * (k + 1)):
                col = f.apply_basis(idx)
                sd_col = sd_face_column(ring, n, k, i,
                                        loday_tuple_to_big(idx, n, k))
                assert all(col[t] == sd_col[tgt_map[t]]
                           for t in range(len(col)))


# ---------------------------------------------------------------------------
# bar construction and the polygon pipeline


def test_bar_of_integers_levels():
    z = integers()
    c1 = make_cyclic(1)
    rwa = RingWithAction(c1, z.ring, [(IDENTITY_TWIST, False)])
    nrm = tensor_induce(c1, (0,), rwa)
    f = norm_projection(nrm, nrm)
    b = bar(nrm, nrm, nrm, f, f, truncation=4)
    assert _map_targets(b) == _map_targets(reference_bar(nrm, nrm, nrm, f, f, truncation=4))
    assert b.validate() == []
    assert [b.level_rank(n) for n in range(5)] == [1] * 5


def test_bar_level_ranks_count_blocks():
    gz = gaussian()
    c2 = make_cyclic(2)
    rwa = gz.c2_action()
    m = NormRing(c2, (0, 1), rwa)
    one = make_cyclic(1)
    a = tensor_induce(c2, (0,), RingWithAction(
        one, gz.ring, [(IDENTITY_TWIST, False)]))
    f = norm_projection(a, m)
    b = bar(m, a, m, f, f, truncation=3)
    assert _map_targets(b) == _map_targets(reference_bar(m, a, m, f, f, truncation=3))
    assert b.validate() == []
    # blocks: 1 + 2n + 1 slots of a rank-2 ring, one per coset
    assert [b.level_rank(n) for n in range(4)] == [4, 16, 64, 256]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_real_hochschild_zmod4(m):
    z4 = load_bundled("zmod4")
    rh = real_hochschild(m, z4, truncation=4)
    assert rh.loday_side.validate() == []
    assert rh.bar_side.validate() == []
    assert rh.iso_commutes() == []
    for iso in rh.isos:
        assert iso.is_relabeling_iso()


@pytest.mark.parametrize("m", [1, 2])
def test_real_hochschild_noncommutative_no_commutativity(m):
    q = quaternions()
    assert not q.ring.commutative
    reset_commutativity_uses()
    rh = real_hochschild(m, q, truncation=4)
    assert rh.loday_side.validate() == []
    assert rh.bar_side.validate() == []
    assert rh.iso_commutes() == []
    assert commutativity_uses() == 0


def test_real_hochschild_polygon_slots():
    rh = real_hochschild(2, gaussian(), truncation=3)
    # level 1 of the 4-gon: two vertex blocks of 2 cosets, one edge block
    # of 4, each slot rank 2
    assert rh.loday_side.level_rank(1) == 2 ** 8
    lv = rh.loday_side.space.levels[1]
    assert [lv.label(o) for o in range(len(lv.orbits))] == ["x", "y", "x'"]


def test_real_hochschild_rejects_involutionless():
    from equiloday.coeffs import Coefficient
    z = integers()
    bare = Coefficient("bare", "no involution", z.ring, None, None)
    with pytest.raises(ValueError, match="involution"):
        real_hochschild(1, bare)


# ---------------------------------------------------------------------------
# ring-with-anti-involution reports


def upper_triangular_mod2():
    """2x2 upper-triangular matrices over Z/2: e00, e01, e11."""
    n = 3
    rel = SparseMatrix(n, [[(i, 2)] for i in range(n)])
    e = [[0] * n for _ in range(n)]
    mult = [[list(r) for r in e] for _ in range(n)]

    def put(i, j, k):
        mult[i][j][k] = 1

    put(0, 0, 0)  # e00 e00 = e00
    put(0, 1, 1)  # e00 e01 = e01
    put(1, 2, 1)  # e01 e11 = e01
    put(2, 2, 2)  # e11 e11 = e11
    ring = PresentedRing(n, rel, mult, [1, 0, 1], label="ut2(F2)")
    invol = IntMatrix.from_cols([[0, 0, 1], [0, 1, 0], [1, 0, 0]], n)
    return ring, (invol, True)


def test_esigma_accepts_quaternions():
    q = quaternions()
    rep = esigma_check(q.ring, q.involution)
    assert rep["passes"]
    assert not rep["commutative"]
    assert rep["noncommutative_allowed"]


def test_esigma_accepts_upper_triangular():
    ring, invol = upper_triangular_mod2()
    assert not ring.commutative
    rep = esigma_check(ring, invol)
    assert rep["passes"]


def test_esigma_rejects_non_reversing():
    q = quaternions()
    bad = (IntMatrix.identity(q.ring.ngens), True)  # identity does not reverse ij
    rep = esigma_check(q.ring, bad)
    assert not rep["passes"]
    item = next(it for it in rep["items"]
                if it["check"] == "involution-reverses-products")
    assert not item["ok"] and item["witness"] is not None


def test_esigma_flags_wrong_unit():
    gz = gaussian()
    rep = esigma_check(gz.ring, gz.involution, fixed_unit=[0, 1])
    assert not rep["passes"]


def test_upper_triangular_polygon_runs():
    # the polygon pipeline accepts the rank-3 noncommutative ring too
    from equiloday.coeffs import Coefficient
    ring, invol = upper_triangular_mod2()
    coeff = Coefficient("ut2", "upper triangular mod 2", ring, invol, None)
    reset_commutativity_uses()
    rh = real_hochschild(1, coeff, truncation=3)
    assert rh.loday_side.validate() == []
    assert rh.iso_commutes() == []
    assert commutativity_uses() == 0
