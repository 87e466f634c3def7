from itertools import product

import pytest

from equiloday.coeffs import gaussian, integers, load_bundled, quaternions
from equiloday.exactalg import IntMatrix, SparseMatrix
from equiloday.fingroup import make_cyclic, make_dihedral, make_symmetric
from equiloday.gring import (IDENTITY_TWIST, GTensorRing, NormRing,
                             PresentedRing, RingWithAction, StructuredHom,
                             commutativity_uses, norm_projection,
                             reset_commutativity_uses, tensor_induce)
from equiloday.loday import (_ordered_fold, bar, esigma_check, loday,
                             loday_free, loday_normal_sub,
                             loday_one_isotropy, loday_two_isotropy,
                             real_hochschild, transport_to_diagonal)
from equiloday.simpgset import (Cell, FinSimpGSet, build_cayley,
                                build_coset_cayley,
                                build_permutohedron_skeleton, build_polygon,
                                build_rot_circle, build_sigma_circle)
from oracles import _tuple_index, sd_face_column


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
    inv = gz.c2_action().acts[1]
    ident = IDENTITY_TWIST
    rwa_h = RingWithAction(make_cyclic(4), gz.ring,
                           [(ident, False), inv, (ident, False), inv])
    rwa_k, _ = rwa_h.restrict((0, 2))
    one = make_cyclic(1)
    rwa_e = RingWithAction(one, gz.ring, [(ident, False)])
    n_e = tensor_induce(d8, (0,), rwa_e)
    n_k = NormRing(d8, (0, 2), RingWithAction(make_cyclic(2), gz.ring,
                                              [(ident, False),
                                               (ident, False)]))
    n_h = tensor_induce(d8, (0, 1, 2, 3),
                        RingWithAction(make_cyclic(4), gz.ring,
                                       [(ident, False)] * 4))
    step1 = norm_projection(n_e, n_k, 0)
    step2 = norm_projection(n_k, n_h, 0)
    direct = norm_projection(n_e, n_h, 0)
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
            s = norms[o].coset_of[g.mul(g.inv(gamma), rep)]
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
    f = norm_projection(nrm, nrm, 0)
    b = bar(nrm, nrm, nrm, f, f, truncation=4)
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
    f = norm_projection(a, m, 0)
    b = bar(m, a, m, f, f, truncation=3)
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
    assert [label for label, _, _ in rh.loday_side.tags[1]] == ["x", "y", "x'"]


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
