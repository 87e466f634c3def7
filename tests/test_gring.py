"""Structured maps of tensor powers: actions, counits, blocking, norms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.coeffs import (
    bundled_names,
    gaussian,
    load_bundled,
    quaternions,
)
from equiloday.exactalg import FgAbelianGroup, IntMatrix, SparseMatrix
from equiloday.fingroup import (
    make_cyclic,
    make_dihedral,
    make_symmetric,
)
from equiloday.gring import (StructuredHom, TensorRing, commutativity_uses,
                             equivariance_defect, is_equivariant,
                             reset_commutativity_uses)
from equiloday.norms import (NormRing, blocked_flip, blocking_diagonal_certificate,
                             conjugate_switch, coset_blocking, diagonal_power,
                             flip_power, flip_to_diagonal, group_power_ring,
                             multiply_out_diagonal, multiply_out_flip, norm_projection,
                             _subgroup_rwa, single_slot_ring, tensor_induce,
                             tensor_of_actions)
from equiloday.rings import IDENTITY_TWIST, PresentedRing, RingWithAction
from oracles import (_spread_relations, coordinate_permutation_action,
                     hom_equal_dense, integers, project_power_to_norm, reference_vec_mul)


@pytest.fixture(scope="module")
def gauss_rwa():
    return gaussian().c2_action()


@pytest.fixture(scope="module")
def z3_s3():
    s3 = make_symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    return coordinate_permutation_action(s3, perms)


# ---------------------------------------------------------------------------
# presented rings and actions


def test_ring_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        # "unit" that is not a unit
        PresentedRing(1, None, [[[1]]], [0])
    with pytest.raises(ValueError):
        # non-associative: x(xx) = 1 but (xx)x = x
        PresentedRing(3, None,
                      [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                       [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                       [[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
                      [1, 0, 0])


def test_quaternion_conjugation_is_anti_only():
    q = quaternions().ring
    assert not q.commutative
    conj, anti = quaternions().involution
    assert anti
    assert q.matrix_is_morphism(conj, True)
    assert not q.matrix_is_morphism(conj, False)


def test_gaussian_conjugation_is_both(gauss_rwa):
    g = gauss_rwa.ring
    conj = gauss_rwa.act_matrix(1)
    assert g.matrix_is_morphism(conj, True)
    assert g.matrix_is_morphism(conj, False)


def test_action_validation():
    g = gaussian().ring
    conj = g.twists.intern(gaussian().involution[0])
    c2 = make_cyclic(2)
    with pytest.raises(ValueError):
        # conj has order 2, cannot let the generator of C4... order mismatch
        RingWithAction(make_cyclic(4), g,
                       [(IDENTITY_TWIST, False), (conj, True),
                        (conj, True), (IDENTITY_TWIST, False)])
    # but the C4 -> C2 pullback pattern is a perfectly good C4 action
    RingWithAction(make_cyclic(4), g,
                   [(IDENTITY_TWIST, False), (conj, True),
                    (IDENTITY_TWIST, False), (conj, True)])
    with pytest.raises(ValueError):
        RingWithAction(c2, g, [(IDENTITY_TWIST, False),
                               (g.twists.intern(IntMatrix.from_rows([[1, 0], [1, 1]])), False)])


# ---------------------------------------------------------------------------
# structured homs


def test_identity_and_compose():
    z = integers().ring
    tr = TensorRing(z, ("a", "b", "c"))
    ident = StructuredHom.identity(tr)
    assert ident.compose(ident) == ident
    assert ident.is_relabeling_iso()
    assert ident.slot_permutation() == {"a": "a", "b": "b", "c": "c"}


def test_source_slots_must_be_covered():
    z = integers().ring
    tr = TensorRing(z, (0, 1))
    one = TensorRing(z, ("*",))
    with pytest.raises(ValueError):
        StructuredHom(tr, one, [[(0, IDENTITY_TWIST, False)]])
    with pytest.raises(ValueError):
        StructuredHom(tr, one, [[(0, IDENTITY_TWIST, False),
                                 (0, IDENTITY_TWIST, False)]])


def test_equality_uses_commutativity_only_when_needed():
    z = integers().ring
    tr = TensorRing(z, (0, 1))
    one = TensorRing(z, ("*",))
    ident = IDENTITY_TWIST
    f = StructuredHom(tr, one, [[(0, ident, False), (1, ident, False)]])
    g = StructuredHom(tr, one, [[(1, ident, False), (0, ident, False)]])
    reset_commutativity_uses()
    assert f == f
    assert commutativity_uses() == 0
    assert f == g
    assert commutativity_uses() == 1

    q = quaternions().ring
    trq = TensorRing(q, (0, 1))
    oneq = TensorRing(q, ("*",))
    qi = IDENTITY_TWIST
    fq = StructuredHom(trq, oneq, [[(0, qi, False), (1, qi, False)]])
    gq = StructuredHom(trq, oneq, [[(1, qi, False), (0, qi, False)]])
    reset_commutativity_uses()
    assert fq != gq
    assert fq == fq
    assert commutativity_uses() == 0


def test_anti_flags_do_not_affect_map_equality():
    g = gaussian()
    conj = g.ring.twists.intern(g.involution[0])
    tr = TensorRing(g.ring, (0,))
    f = StructuredHom(tr, tr, [[(0, conj, True)]])
    h = StructuredHom(tr, tr, [[(0, conj, False)]])
    reset_commutativity_uses()
    assert f == h
    assert commutativity_uses() == 0


def test_compose_through_anti_twist_reverses_order():
    q = quaternions().ring
    conj = q.twists.intern(quaternions().involution[0])
    tr2 = TensorRing(q, (0, 1))
    one = TensorRing(q, ("*",))
    ident = IDENTITY_TWIST
    merge = StructuredHom(tr2, one, [[(0, ident, False), (1, ident, False)]])
    post = StructuredHom(one, one, [[(0, conj, True)]])
    comp = post.compose(merge)
    # conj(x*y) = conj(y)*conj(x): factor order must have flipped
    assert [e[0] for e in comp.targets[0]] == [1, 0]
    assert all(e[2] for e in comp.targets[0])
    # and the dense matrices agree with the two-step computation
    assert hom_equal_dense(comp, post.compose(merge))
    assert comp.dense() == (post.dense() @ merge.dense())


def test_dense_respects_composition():
    g = gaussian().c2_action()
    dp = diagonal_power(g)
    a, b = dp.act(1), dp.act(1)
    assert a.compose(b).dense() == a.dense() @ b.dense()


def _counting_vec_mul(monkeypatch, ring: PresentedRing) -> list:
    calls = []
    vec_mul = ring.vec_mul

    def counted(u, v):
        calls.append(1)
        return vec_mul(u, v)

    monkeypatch.setattr(ring, "vec_mul", counted)
    return calls


def test_sparse_multiplies_each_slot_once_per_key(monkeypatch):
    # slots reading 3, 0, 1 and 2 sources, with anti flags and a
    # non-identity twist: each slot product is formed once per combination
    # of its sources' indices, r^k of them with k - 1 products each, never
    # once per column
    ring = quaternions().ring
    r = ring.ngens
    conj = ring.twists.intern(IntMatrix.from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]))
    lists = [[(0, IDENTITY_TWIST, False), (4, conj, True), (2, IDENTITY_TWIST, False)],
             [],
             [(5, conj, True)],
             [(3, IDENTITY_TWIST, False), (1, conj, False)]]
    f = StructuredHom(TensorRing(ring, range(6)), TensorRing(ring, range(4)), lists)
    calls = _counting_vec_mul(monkeypatch, ring)
    sp = f.sparse()
    assert len(calls) == sum(r ** len(lst) * (len(lst) - 1) for lst in lists if lst)
    assert (sp.rows, sp.cols) == (r ** 4, r ** 6)


def test_dense_group_is_built_once():
    ring = load_bundled("group_ring_c2_mod2").ring
    tr = TensorRing(ring, range(3))
    group = tr.dense_group()
    assert tr.dense_group() is group
    # the sparse relations, built directly, against the dense oracle
    assert group.relations.to_dense() == _spread_relations(ring, 3)
    assert group.canonical() == FgAbelianGroup(0, (2,) * 8)


def test_inverse_of_relabeling(gauss_rwa):
    psi = flip_to_diagonal(gauss_rwa)
    assert psi.is_relabeling_iso()
    inv = psi.inverse()
    assert psi.compose(inv) == StructuredHom.identity(psi.dst)
    assert inv.compose(psi) == StructuredHom.identity(psi.src)


def test_unit_insertion_dense():
    g = gaussian().ring
    src = TensorRing(g, (0,))
    dst = TensorRing(g, ("a", "b"))
    f = StructuredHom(src, dst, [[(0, IDENTITY_TWIST, False)], []])
    m = f.dense()
    # e_1 (the element i) goes to i (x) 1 = basis (1, 0)
    col = m.column(1)
    assert col == [0, 0, 1, 0]


# ---------------------------------------------------------------------------
# flip, diagonal, untwisting, counits


def test_psi_equivariant_and_triangle(z3_s3):
    flip = flip_power(z3_s3.group, z3_s3.ring)
    diag = diagonal_power(z3_s3)
    psi = flip_to_diagonal(z3_s3)
    assert is_equivariant(psi, flip, diag)
    eps_d = multiply_out_diagonal(z3_s3)
    eps_f = multiply_out_flip(z3_s3)
    assert eps_d.compose(psi) == eps_f
    one = single_slot_ring(z3_s3)
    assert is_equivariant(eps_d, diag, one)
    assert is_equivariant(eps_f, flip, one)


def test_flip_needs_no_action_diag_does(gauss_rwa):
    flip = flip_power(gauss_rwa.group, gauss_rwa.ring)
    diag = diagonal_power(gauss_rwa)
    psi = flip_to_diagonal(gauss_rwa)
    assert is_equivariant(psi, flip, diag)
    # with the identity twist instead, equivariance must fail at the flip
    ident = StructuredHom.identity(flip.tensor)
    assert equivariance_defect(ident, flip, diag) == [1]


def test_counit_rejects_noncommutative():
    q = quaternions().c2_action()
    with pytest.raises(ValueError):
        multiply_out_diagonal(q)
    with pytest.raises(ValueError):
        multiply_out_flip(q)


def test_counit_dense_value():
    # on Z[C2-power], the diagonal counit multiplies coordinates
    g = gaussian().c2_action()
    eps = multiply_out_diagonal(g)
    m = eps.dense()
    # basis of the source: (1,1), (1,i), (i,1), (i,i); products: 1, i, i, -1
    assert m.columns() == [[1, 0], [0, 1], [0, 1], [-1, 0]]


# ---------------------------------------------------------------------------
# coset blocking


def test_blocking_flip_equivariant(z3_s3):
    s3 = z3_s3.group
    h = (0, 2)
    xi = coset_blocking(s3, h, z3_s3.ring)
    assert xi.is_relabeling_iso()
    flip = flip_power(s3, z3_s3.ring)
    bf = blocked_flip(s3, h, z3_s3.ring)
    assert is_equivariant(xi, flip, bf)


def test_blocking_diagonal_dichotomy(z3_s3):
    s3 = z3_s3.group
    h = (0, 2)
    defect, witness = blocking_diagonal_certificate(s3, h, z3_s3)
    # the permutation action detects the failure at every non-identity element
    assert defect == [1, 2, 3, 4, 5]
    assert defect[0] == 1  # one-line (0,2,1), the transposition fixing letter 1
    # the witness defect element at (gamma=1, coset of identity) is computable
    assert witness[(1, 0)] == s3.mul(s3.inv(s3.transversal(h)[s3.coset_index(h)[1]]), 1)
    # trivial coefficient action: no defect anywhere
    triv = RingWithAction.trivial(s3, z3_s3.ring)
    d2, _ = blocking_diagonal_certificate(s3, h, triv)
    assert d2 == []


def test_blocking_dichotomy_abelian_group():
    # C4 acting on the gaussians through its C2 quotient, blocked by <g2>:
    # inner defects act trivially but the outer elements conjugate, so the
    # blocking map cannot be equivariant for the diagonal actions
    g = gaussian()
    conj = g.ring.twists.intern(g.involution[0])
    c4 = make_cyclic(4)
    rwa = RingWithAction(c4, g.ring,
                         [(IDENTITY_TWIST, False), (conj, True),
                          (IDENTITY_TWIST, False), (conj, True)])
    defect, _ = blocking_diagonal_certificate(c4, (0, 2), rwa)
    assert defect == [1, 3]


# ---------------------------------------------------------------------------
# norms


def test_trivial_norm_is_group_power():
    z = integers()
    d8 = make_dihedral(8)
    rwa1 = RingWithAction.trivial(make_cyclic(1), z.ring)
    n = tensor_induce(d8, (0,), rwa1)
    assert n.tensor == group_power_ring(d8, z.ring)
    fp = flip_power(d8, z.ring)
    assert all(n.gt.act(g) == fp.act(g) for g in range(8))


def test_norm_action_twists(gauss_rwa):
    s3 = make_symmetric(3)
    n = tensor_induce(s3, (0, 2), gauss_rwa)
    assert n.transversal == (0, 1, 3)
    assert [[x for x in range(6) if n.split[x][0] == t] for t in range(3)] == \
        [[0, 2], [1, 4], [3, 5]]
    # the action of (12) fixes the identity coset and twists it by conjugation
    act = n.gt.act(2)
    slot0 = act.targets[0]
    assert slot0[0][0] == 0
    assert slot0[0][1] == gauss_rwa.acts[1][0]


def test_norm_size_check(gauss_rwa):
    s3 = make_symmetric(3)
    with pytest.raises(ValueError):
        NormRing(s3, (0, 2, 3), gauss_rwa)  # not a subgroup
    with pytest.raises(ValueError):
        NormRing(s3, (0, 3, 4), gauss_rwa)  # order-3 subgroup, C2 coefficient


def test_projection_to_norm(gauss_rwa):
    d4 = make_dihedral(4)
    rwa1 = RingWithAction.trivial(make_cyclic(1), gauss_rwa.ring)
    ne = tensor_induce(d4, (0,), rwa1)
    ns = tensor_induce(d4, (0, 2), gauss_rwa)
    p = norm_projection(ne, ns)
    assert p == project_power_to_norm(ns)
    assert is_equivariant(p, ne.gt, ns.gt)
    # fiber over the identity coset is {e, s}, ordered e then s, with the
    # s-factor twisted by conjugation
    lst = p.targets[0]
    assert [e[0] for e in lst] == [0, 2]
    assert lst[0][1] == IDENTITY_TWIST
    assert lst[1][1] == gauss_rwa.acts[1][0]
    assert lst[1][2] is True


def test_projection_tower_composes():
    z = integers().ring
    d8 = make_dihedral(8)
    ne = tensor_induce(d8, (0,), RingWithAction.trivial(make_cyclic(1), z))
    nr2 = tensor_induce(d8, (0, 2), RingWithAction.trivial(make_cyclic(2), z))
    nr = tensor_induce(d8, (0, 1, 2, 3), RingWithAction.trivial(make_cyclic(4), z))
    p1 = norm_projection(ne, nr2)
    p2 = norm_projection(nr2, nr)
    assert p2.compose(p1) == norm_projection(ne, nr)
    assert is_equivariant(p2, nr2.gt, nr.gt)


def test_projection_rejects_mismatched_coefficients(gauss_rwa):
    d4 = make_dihedral(4)
    ne = tensor_induce(d4, (0,),
                       RingWithAction.trivial(make_cyclic(1), gauss_rwa.ring))
    n_triv = tensor_induce(d4, (0, 2),
                           RingWithAction.trivial(make_cyclic(2), gauss_rwa.ring))
    ns = tensor_induce(d4, (0, 2), gauss_rwa)
    norm_projection(ne, n_triv)
    with pytest.raises(ValueError):
        norm_projection(n_triv, ns)  # trivial source vs conjugation target


# ---------------------------------------------------------------------------
# Weyl relabeling and conjugation switching


def test_weyl_relabeling(gauss_rwa):
    from equiloday.norms import weyl_relabeling
    d8 = make_dihedral(8)
    n = tensor_induce(d8, (0, 4), gauss_rwa)
    w, reps, _ = d8.weyl((0, 4))
    assert reps == (0, 2)
    ident = StructuredHom.identity(n.tensor)
    assert weyl_relabeling(n, 0) == ident
    # the reflection fixes every coset and twists each slot by its own
    # coefficient action
    conj = gauss_rwa.acts[1][0]
    inner = StructuredHom(n.tensor, n.tensor,
                          [[(i, conj, False)] for i in range(n.tensor.nslots)],
                          check=False)
    assert weyl_relabeling(n, 4) == inner
    wr = weyl_relabeling(n, 2)
    assert wr != ident
    assert wr.slot_permutation() is not None  # half-rotation: defect-free swap
    assert is_equivariant(wr, n.gt, n.gt)
    assert wr.compose(wr) == ident  # r^2 squares into the subgroup's coset
    with pytest.raises(ValueError):
        weyl_relabeling(n, 1)  # r does not normalize <s>


def test_weyl_relabeling_needs_defect_twists():
    # index-2 subgroup of the rotation four-group, conjugation coefficients:
    # the bare coset translation swaps the slots but only the defect-twisted
    # version commutes with the ambient action
    from equiloday.norms import weyl_relabeling
    c4 = make_cyclic(4)
    g = gaussian()
    rwa = g.c2_action()
    n = NormRing(c4, (0, 2), rwa)
    wr = weyl_relabeling(n, 1)
    assert is_equivariant(wr, n.gt, n.gt)
    ident = IDENTITY_TWIST
    bare = StructuredHom.from_routes(
        n.tensor, n.tensor,
        [(c, c4.coset_index(n.sub)[c4.mul(n.transversal[c], c4.inv(1))], ident, False)
         for c in range(2)])
    assert not is_equivariant(bare, n.gt, n.gt)
    # gamma -> [gamma] is multiplicative across the whole normalizer
    rel = {gam: weyl_relabeling(n, gam) for gam in range(4)}
    for a in range(4):
        for b in range(4):
            assert rel[a].compose(rel[b]) == rel[c4.mul(a, b)]


def test_weyl_precondition_rejects_moved_action():
    from equiloday.norms import weyl_relabeling
    s3 = make_symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    z3rwa = coordinate_permutation_action(s3, perms)
    rot_rwa = _subgroup_rwa(s3, (0, 3, 4), lambda x: z3rwa.acts[x], z3rwa.ring)
    n = tensor_induce(s3, (0, 3, 4), rot_rwa)
    # transpositions normalize the rotations but conjugate them to inverses
    with pytest.raises(ValueError):
        weyl_relabeling(n, 1)
    # a rotation fixes both cosets and twists them by its inverse's action
    inv_act = rot_rwa.acts[2][0]
    assert weyl_relabeling(n, 3) == StructuredHom(
        n.tensor, n.tensor,
        [[(i, inv_act, False)] for i in range(n.tensor.nslots)], check=False)


def test_conjugate_switch(gauss_rwa):
    s3 = make_symmetric(3)
    n = tensor_induce(s3, (0, 2), gauss_rwa)
    for gamma in range(6):
        nn, f = conjugate_switch(n, gamma)
        assert is_equivariant(f, n.gt, nn.gt)
        assert f.is_relabeling_iso()
    # identity switch is the identity map
    n0, f0 = conjugate_switch(n, 0)
    assert n0.sub == n.sub
    assert f0 == StructuredHom.identity(n.tensor)
    # multiplicativity and inverses
    g1, g2 = 3, 1
    n1, f1 = conjugate_switch(n, g1)
    n2, f2 = conjugate_switch(n1, g2)
    n12, f12 = conjugate_switch(n, s3.mul(g2, g1))
    assert n2.sub == n12.sub and n2.tensor == n12.tensor
    assert f2.compose(f1) == f12
    nb, fb = conjugate_switch(n1, s3.inv(g1))
    assert nb.sub == n.sub
    assert fb.compose(f1) == StructuredHom.identity(n.tensor)


def test_conjugate_switch_nonconjugate_in_d8(gauss_rwa):
    # <s> and <rs> are not conjugate in D8: no switch ever reaches <rs>
    d8 = make_dihedral(8)
    n = tensor_induce(d8, (0, 4), gauss_rwa)
    reached = {conjugate_switch(n, g)[0].sub for g in range(8)}
    assert (0, 5) not in reached
    assert reached == {(0, 4), (0, 6)}


# ---------------------------------------------------------------------------
# translations


def test_tensor_of_actions(gauss_rwa):
    d4 = make_dihedral(4)
    ne = tensor_induce(d4, (0,), RingWithAction.trivial(make_cyclic(1), gauss_rwa.ring))
    ns = tensor_induce(d4, (0, 2), gauss_rwa)
    combo = tensor_of_actions(d4, [("free", ne.gt), ("vertex", ns.gt)])
    assert combo.tensor.nslots == 6
    for g in range(4):
        for h in range(4):
            assert combo.act(g).compose(combo.act(h)) == combo.act(d4.mul(g, h))
    assert combo.act(0) == StructuredHom.identity(combo.tensor)


# ---------------------------------------------------------------------------
# the product on generator vectors


BUNDLED_RINGS = {name: load_bundled(name).ring for name in bundled_names()}


def test_bundled_rings_cover_both_product_paths():
    # the relation-free path skips reducing; zmod4 and the group ring mod 2
    # keep it
    with_relations = {n for n, r in BUNDLED_RINGS.items() if r.ab.relations.data}
    assert {"zmod4", "group_ring_c2_mod2"} <= with_relations
    assert {"z", "gaussian", "quaternion"} <= set(BUNDLED_RINGS) - with_relations


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUNDLED_RINGS)), st.data())
def test_vec_mul_matches_the_dense_loop(name, data):
    ring = BUNDLED_RINGS[name]
    vec = st.lists(st.integers(-9, 9), min_size=ring.ngens, max_size=ring.ngens)
    u, v = data.draw(vec), data.draw(vec)
    assert ring.vec_mul(u, v) == reference_vec_mul(ring, u, v)


@pytest.mark.parametrize("ngens,relations,mult,unit,message", [
    # e1 e1 = e0 but 2 e1 = 0 and 2 e0 != 0
    (2, [[0, 2]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0],
     "does not respect relations"),
    (1, [], [[[1]]], [2], "unit fails on the left"),
    # e1 e0 = 0: e0 is only a left unit
    (2, [], [[[1, 0], [0, 1]], [[0, 0], [0, 0]]], [1, 0],
     "unit fails on the right"),
    # (e1 e1) e2 = e2 e2 = 0, but e1 (e1 e2) = e1 e1 = e2
    (3, [], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
             [[0, 0, 1], [0, 0, 0], [0, 0, 0]]], [1, 0, 0],
     "not associative"),
])
def test_presented_ring_validation_rejects(ngens, relations, mult, unit,
                                           message):
    with pytest.raises(ValueError, match=message):
        PresentedRing(ngens, SparseMatrix.from_cols(relations, ngens), mult,
                      unit)
