"""Fixed-point homology: complexes, tables, and the subgroup-level maps."""

import pytest

from equiloday.coeffs import gaussian, integers, load_bundled
from equiloday.exactalg import FgAbelianGroup, IntMatrix, PresentedAb, SparseMatrix, SubQuotient
from equiloday.fingroup import make_cyclic, make_dihedral, make_symmetric
from equiloday.gring import (DENSE_BUDGET, IDENTITY_TWIST, GTensorRing,
                             SizeBudgetExceeded, StructuredHom, TensorRing,
                             norm_projection, tensor_induce)
from equiloday.homology import (LevelComplex, feasible_degree, homology_table,
                                homology_tables, mackey_homology)
from equiloday.loday import (SimplicialGRing, bar, loday_free,
                             loday_two_isotropy, real_hochschild)
from equiloday.simpgset import (build_cayley, build_polygon, build_rot_circle,
                                build_sigma_circle)

from oracles import AbHom, cyclic_bar_homology, oracle_h0


def shapes(table):
    return [(h.free_rank, h.torsion) for h in table]


@pytest.fixture(scope="module")
def zmod4():
    return load_bundled("zmod4")


@pytest.fixture(scope="module")
def c2mod2():
    return load_bundled("group_ring_c2_mod2")


# ---------------------------------------------------------------------------
# one-point sanity: two-sided bar of the integers


def test_bar_of_integers_is_a_point():
    c1 = make_cyclic(1)
    n = tensor_induce(c1, (0,), integers().trivial_action(c1))
    eps = norm_projection(n, n, 0)
    s = bar(n, n, n, eps, eps, truncation=4)
    assert shapes(homology_table(s, (0,), 3)) == [(1, ()), (0, ()), (0, ()), (0, ())]
    assert oracle_h0(s, (0,)) == FgAbelianGroup(1, ())


# ---------------------------------------------------------------------------
# circles against the direct cyclic bar computation


def test_rot2_flip_matches_cyclic_bar_zmod4(zmod4):
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=4),
                   zmod4.trivial_action(c2), inner="flip")
    assert homology_table(s, (0,), 2) == cyclic_bar_homology(zmod4.ring, 2)


def test_rot2_flip_matches_cyclic_bar_gaussian():
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=4),
                   gaussian().trivial_action(c2), inner="flip")
    tab = homology_table(s, (0,), 2)
    assert tab == cyclic_bar_homology(gaussian().ring, 2)
    # the d(i^2) = 2i di relation leaves 2-torsion in degree one
    assert shapes(tab) == [(2, ()), (0, (2, 2)), (0, ())]


def test_rot3_flip_matches_cyclic_bar_zmod4(zmod4):
    c3 = make_cyclic(3)
    s = loday_free(build_rot_circle(3, truncation=3),
                   zmod4.trivial_action(c3), inner="flip")
    assert homology_table(s, (0,), 2) == cyclic_bar_homology(zmod4.ring, 2)


def test_diagonal_mode_same_homology(zmod4):
    c2 = make_cyclic(2)
    space = build_rot_circle(2, truncation=3)
    flip = loday_free(space, zmod4.trivial_action(c2), inner="flip")
    diag = loday_free(space, zmod4.trivial_action(c2), inner="diagonal")
    for sub in ((0,), (0, 1)):
        assert homology_table(flip, sub, 2) == homology_table(diag, sub, 2)


# ---------------------------------------------------------------------------
# normalized against unnormalized, and the degree-zero coequalizer


def all_small_instances():
    c2 = make_cyclic(2)
    s3 = make_symmetric(3)
    zmod4 = load_bundled("zmod4")
    sigma = build_sigma_circle(truncation=3)
    return [
        ("rot2/gaussian", loday_free(build_rot_circle(2, truncation=3),
                                     gaussian().trivial_action(c2), inner="flip")),
        ("rot2/zmod4", loday_free(build_rot_circle(2, truncation=3),
                                  zmod4.trivial_action(c2), inner="flip")),
        ("sigma/gaussian", loday_two_isotropy(sigma, gaussian())),
        ("cayley-s3/zmod4", loday_free(build_cayley(s3, (1, 3), truncation=3),
                                       zmod4.trivial_action(s3), inner="flip")),
    ]


@pytest.mark.parametrize("name,s", all_small_instances())
def test_normalized_equals_unnormalized(name, s):
    for sub in s.group.all_subgroups():
        lc = LevelComplex(s, sub, max_level=3)
        for k in range(3):
            assert lc.homology(k) == lc.unnormalized_homology(k), (name, sub, k)


@pytest.mark.parametrize("name,s", all_small_instances())
def test_oracle_h0_equals_degree_zero(name, s):
    for sub in s.group.all_subgroups():
        assert oracle_h0(s, sub) == homology_table(s, sub, 0)[0], (name, sub)


def test_moore_returns_both_complexes(zmod4):
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=3),
                   zmod4.trivial_action(c2), inner="flip")
    lc = LevelComplex(s, (0, 1), max_level=2)
    assert lc.normalized.top() == 2 and lc.unnormalized.top() == 2
    # normalized levels are genuinely smaller once faces get killed
    assert lc.normalized.levels[1].ngens <= lc.unnormalized.levels[1].ngens


# ---------------------------------------------------------------------------
# fixed points under the full group


def test_trivial_involution_restriction_is_iso(zmod4):
    # fixed-point coefficients with an identity involution: every subgroup
    # level carries the same homology, witnessed by an invertible res matrix
    rh = real_hochschild(1, zmod4, truncation=3)
    for side in (rh.loday_side, rh.bar_side):
        for k in (0, 1):
            mk = mackey_homology(side, k)
            r = mk.res((0, 1), (0,))
            hom = AbHom(mk._hd[(0, 1)].pres, mk._hd[(0,)].pres, r)
            assert hom.is_isomorphism()
            assert mk.values[(0, 1)] == mk.values[(0,)]


def test_constant_simplicial_ring_is_a_point(zmod4):
    # bar over one full norm: every level is one copy of Z/4 with identity
    # faces, so only degree zero survives
    c1 = make_cyclic(1)
    n = tensor_induce(c1, (0,), zmod4.trivial_action(c1))
    eps = norm_projection(n, n, 0)
    s = bar(n, n, n, eps, eps, truncation=3)
    assert shapes(homology_table(s, (0,), 2)) == [(0, (4,)), (0, ()), (0, ())]
    assert oracle_h0(s, (0,)) == FgAbelianGroup(0, (4,))


def test_fixed_inclusion_commutes_with_boundaries():
    # the inclusion of the fixed subcomplex into the full complex is a chain
    # map: boundaries restricted then included equal included then bounded
    from equiloday.homology import _restricted
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=3),
                   gaussian().c2_action(), inner="flip")
    lc_sub = LevelComplex(s, (0, 1), max_level=2)
    lc_all = LevelComplex(s, (0,), max_level=2)
    for n in (1, 2):
        incl_n = _restricted(lc_all.fixed[n], lc_sub.fixed[n].lift)
        incl_prev = _restricted(lc_all.fixed[n - 1], lc_sub.fixed[n - 1].lift)
        lhs = lc_all.unnormalized.boundaries[n - 1] @ incl_n
        rhs = incl_prev @ lc_sub.unnormalized.boundaries[n - 1]
        assert lhs.to_dense() == rhs.to_dense(), n


# ---------------------------------------------------------------------------
# mackey layer


def test_c2_res_transfer_identity():
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=2),
                   gaussian().trivial_action(c2), inner="flip")
    mk = mackey_homology(s, 0)
    e, full = (0,), (0, 1)
    comp = mk.res(full, e) @ mk.transfer(e, full)
    t, target = mk.conj(1, e)
    assert target == e
    assert mk.maps_equal(e, comp, IntMatrix.identity(t.rows) + t)


def test_conjugation_is_invertible():
    s3 = make_symmetric(3)
    zmod4 = load_bundled("zmod4")
    s = loday_free(build_cayley(s3, (1, 3), truncation=2),
                   zmod4.trivial_action(s3), inner="flip")
    mk = mackey_homology(s, 0)
    for h in mk.subgroups:
        for g in range(s3.order):
            m, target = mk.conj(g, h)
            back, home = mk.conj(s3.inv(g), target)
            assert home == h
            assert mk.maps_equal(h, back @ m,
                                 IntMatrix.identity(mk._hd[h].pres.ngens))


def test_double_coset_identities_s3(zmod4):
    s3 = make_symmetric(3)
    s = loday_free(build_cayley(s3, (1, 3), truncation=2),
                   zmod4.trivial_action(s3), inner="flip")
    mk = mackey_homology(s, 0)
    assert len(mk.subgroups) == 6
    assert mk.double_coset_defects() == []


def test_double_coset_identities_dihedral12(zmod4):
    d6 = make_dihedral(12)
    s = loday_free(build_cayley(d6, (1, 6), truncation=2),
                   zmod4.trivial_action(d6), inner="flip")
    mk = mackey_homology(s, 0)
    assert len(mk.subgroups) == 16
    assert mk.double_coset_defects() == []


def test_mackey_subgroup_subset(zmod4):
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=2),
                   zmod4.trivial_action(c2), inner="flip")
    mk = mackey_homology(s, 0, subgroups=[(0,)])
    assert list(mk.values) == [(0,)]
    with pytest.raises(ValueError):
        mk.res((0, 1), (0,))


# ---------------------------------------------------------------------------
# the two-sided construction: both sides agree everywhere


def test_real_hochschild_tables_match_zmod4(zmod4):
    rh = real_hochschild(1, zmod4, truncation=4)
    for sub in rh.loday_side.group.all_subgroups():
        tl = homology_table(rh.loday_side, sub, 3)
        tb = homology_table(rh.bar_side, sub, 3)
        assert tl == tb, sub


@pytest.mark.slow
def test_real_hochschild_tables_match_c2mod2(c2mod2):
    rh = real_hochschild(1, c2mod2, truncation=3)
    for sub in rh.loday_side.group.all_subgroups():
        tl = homology_table(rh.loday_side, sub, 2)
        tb = homology_table(rh.bar_side, sub, 2)
        assert tl == tb, sub


# ---------------------------------------------------------------------------
# one complex per distinct simplicial module (``homology_tables``)


@pytest.mark.parametrize("name,m", [
    ("gaussian", 1), ("zmod4", 1), ("zmod4", 2),
    pytest.param("gaussian", 2, marks=pytest.mark.slow),
])
def test_shared_tables_match_separate_tables(name, m):
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    rh = real_hochschild(m, coeff, truncation=3)
    L, B = rh.loday_side, rh.bar_side
    for top in range(4):
        assert L.expansion_key(top) == B.expansion_key(top), top
    kmax = feasible_degree(L, 2, DENSE_BUDGET)
    assert kmax >= 1
    subs = [cls[0] for cls in L.group.subgroup_classes()]
    shared = [homology_tables([L, B], sub, kmax) for sub in subs]
    assert B._expanded == {}  # equal keys: the bar side is never expanded
    for sub, (tl, tb) in zip(subs, shared):
        assert tl == tb == homology_table(L, sub, kmax), sub
        assert tb == homology_table(B, sub, kmax), sub


def test_expansion_key_sees_one_face_twist():
    s = real_hochschild(1, gaussian(), truncation=2).loday_side
    key = s.expansion_key(2)
    f = s.face(2, 1)
    targets = [list(lst) for lst in f.targets]
    slot, twist, anti = targets[0][0]
    conj = s.levels[0].tensor.base.twists.intern(gaussian().involution[0])
    assert conj != IDENTITY_TWIST
    targets[0][0] = (slot, conj if twist == IDENTITY_TWIST else IDENTITY_TWIST, anti)
    faces = [list(fs) for fs in s.faces]
    faces[1][1] = StructuredHom(f.src, f.dst, targets, check=False)
    t = SimplicialGRing(s.group, s.levels, faces, s.degens, s.tags)
    assert t.expansion_key(2) != key
    assert t.expansion_key(1) == s.expansion_key(1)  # level 2 lies above top 1


def test_expansion_key_sees_one_level_base(c2mod2):
    s = real_hochschild(1, gaussian(), truncation=2).loday_side
    lv = s.levels[1]
    base = c2mod2.ring
    assert base != lv.tensor.base and base.ngens == lv.tensor.base.ngens
    tr = TensorRing(base, lv.tensor.slots)
    action = [StructuredHom(tr, tr, f.targets, check=False) for f in lv.action]
    levels = list(s.levels)
    levels[1] = GTensorRing(s.group, tr, action, check=False)
    t = SimplicialGRing(s.group, levels, s.faces, s.degens, s.tags)
    assert t.expansion_key(0) == s.expansion_key(0)
    assert t.expansion_key(1) != s.expansion_key(1)


def test_distinct_keys_get_a_complex_each(c2mod2):
    sides = [real_hochschild(1, c, truncation=2).loday_side
             for c in (gaussian(), c2mod2)]
    assert sides[0].expansion_key(2) != sides[1].expansion_key(2)
    for sub in sides[0].group.all_subgroups():
        together = homology_tables(sides, sub, 1)
        assert together == [homology_table(s, sub, 1) for s in sides], sub
    assert all(s._expanded for s in sides)


def test_iso_induces_equality_on_homology(zmod4):
    # not only equal tables: the levelwise relabeling is a chain map, so it
    # should induce the identity-sized match degreewise
    from equiloday.homology import _restricted
    from equiloday.exactalg import induced_map
    rh = real_hochschild(1, zmod4, truncation=3)
    sub = (0, 1)
    ll = LevelComplex(rh.loday_side, sub, max_level=2)
    bb = LevelComplex(rh.bar_side, sub, max_level=2)
    k = 1
    iso = rh.isos[k].sparse()
    chain = _restricted(bb.fixed[k], iso @ ll.fixed[k].lift @ ll.reduced[k].lift,
                        bb.reduced[k])
    m = induced_map(ll.homology_data(k), bb.homology_data(k), chain)
    assert ll.homology(k) == bb.homology(k)
    # induced matrix is a bijection on the presented groups
    hom = AbHom(ll.homology_data(k).pres, bb.homology_data(k).pres, m)
    assert hom.is_isomorphism()


def test_comparison_commutes_with_res(zmod4):
    # the induced comparison at the fixed level, followed by restriction on
    # the bar side, equals restriction on the loday side then the comparison
    from equiloday.homology import _restricted
    from equiloday.exactalg import induced_map
    rh = real_hochschild(1, zmod4, truncation=2)
    k = 0
    mk_l = mackey_homology(rh.loday_side, k)
    mk_b = mackey_homology(rh.bar_side, k)
    iso = rh.isos[k].sparse()
    comp = {}
    for sub in ((0,), (0, 1)):
        ll, bb = mk_l._lc[sub], mk_b._lc[sub]
        chain = _restricted(bb.fixed[k], iso @ ll.fixed[k].lift @ ll.reduced[k].lift,
                            bb.reduced[k])
        comp[sub] = induced_map(mk_l._hd[sub], mk_b._hd[sub], chain)
    lhs = mk_b.res((0, 1), (0,)) @ comp[(0, 1)]
    rhs = comp[(0,)] @ mk_l.res((0, 1), (0,))
    assert mk_b.maps_equal((0,), lhs, rhs)


# ---------------------------------------------------------------------------
# guard rails


def test_restricted_rejects_columns_off_an_orbit_carving():
    from equiloday.homology import _OrbitFixed, _restricted
    # point 0 is negated (its orbit dies), points 1 and 2 are swapped: the
    # fixed vectors are the multiples of e1 + e2, with e1 the orbit's head
    fixed = _OrbitFixed(PresentedAb(3), [[(0, -1), (2, 1), (1, 1)]])
    good = _restricted(fixed, SparseMatrix(3, [[(1, 3), (2, 3)], []]))
    assert (good.rows, good.data) == (1, [[(0, 3)], []])
    for col in ([(2, 1)],           # nonzero only off the head
                [(1, 1)],           # the head, not the whole orbit
                [(0, 1)],           # a dead orbit
                [(0, 2), (1, 1), (2, 1)]):
        with pytest.raises(ValueError, match="does not carry the source subgroup"):
            _restricted(fixed, SparseMatrix(3, [[(1, 1), (2, 1)], col]))


def test_restricted_rejects_columns_off_a_smith_carving():
    from equiloday.homology import _OrbitFixed, _restricted
    carved = SubQuotient(3, [[(0, 2)], [(1, 2)]], [])
    good = _restricted(carved, SparseMatrix(3, [[(0, 4), (1, -2)]]))
    assert (carved.lift @ good).data == [[(0, 4), (1, -2)]]
    for col in ([(0, 1)], [(2, 2)]):
        with pytest.raises(ValueError, match="does not carry the source subgroup"):
            _restricted(carved, SparseMatrix(3, [col]))
    # and inside the fixed coordinates of a carving, as the normalized
    # complex restricts: e1 is fixed, but misses the inner carving
    whole = _OrbitFixed(PresentedAb(2), [])
    inner = SubQuotient(2, [[(0, 1)]], [])
    assert _restricted(whole, SparseMatrix(2, [[(0, 5)]]), inner).data == [[(0, 5)]]
    with pytest.raises(ValueError, match="does not carry the source subgroup"):
        _restricted(whole, SparseMatrix(2, [[(1, 1)]]), inner)


def test_degree_past_truncation_raises(zmod4):
    c2 = make_cyclic(2)
    s = loday_free(build_rot_circle(2, truncation=2),
                   zmod4.trivial_action(c2), inner="flip")
    with pytest.raises(ValueError):
        homology_table(s, (0,), 2)
    homology_table(s, (0,), 1)


def test_non_subgroup_rejected(zmod4):
    s3 = make_symmetric(3)
    s = loday_free(build_cayley(s3, (1, 3), truncation=2),
                   zmod4.trivial_action(s3), inner="flip")
    with pytest.raises(ValueError):
        homology_table(s, (0, 1, 3), 1)


def test_budget_propagates():
    c3 = make_cyclic(3)
    rz3 = load_bundled("rotation_z3")
    s = loday_free(build_rot_circle(3, truncation=3),
                   rz3.trivial_action(c3), inner="flip")
    # level 2 has nine slots of a rank-3 ring: 19683 > default budget
    with pytest.raises(SizeBudgetExceeded):
        homology_table(s, (0,), 1)
    # degree zero stays inside the budget
    assert homology_table(s, (0,), 0)[0] == cyclic_bar_homology(rz3.ring, 0)[0]
