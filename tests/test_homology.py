"""Fixed-point homology: complexes, tables, and the subgroup-level maps."""

import pytest
from hypothesis import given, settings, strategies as st

from equiloday import exactalg
from equiloday.cli import make_parser, resolve_coefficient
from equiloday.coeffs import Coefficient, gaussian, load_bundled
from equiloday.commands import build_pipeline, build_space
from equiloday.exactalg import (ChainComplex, FgAbelianGroup, IntMatrix, PresentedAb,
                                SizeBudgetExceeded, SparseMatrix, SubQuotient,
                                induced_map)
from equiloday.fingroup import make_cyclic, make_dihedral, make_symmetric
from equiloday.gring import DENSE_BUDGET, GTensorRing, StructuredHom, TensorRing
from equiloday.homology import (LevelComplex, _Normalized, _OrbitFixed, _restricted,
                                feasible_degree, homology_table, homology_tables,
                                mackey_homology)
from equiloday.loday import (SimplicialGRing, bar, loday_free,
                             loday_two_isotropy, real_hochschild)
from equiloday.norms import norm_projection, tensor_induce
from equiloday.rings import IDENTITY_TWIST, PresentedRing, RingWithAction
from equiloday.spaces import build_cayley, build_rot_circle, build_sigma_circle
from equiloday.verify import run_suite

from oracles import (AbHom, _moore_complex, cyclic_bar_homology, integers, oracle_h0,
                     polynomial_hh, polynomial_mult, reference_boundary,
                     reference_chain_check, reference_degenerate_tuples,
                     reference_normalized_level, reference_restricted)


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
    eps = norm_projection(n, n)
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
            assert lc.normalized.homology(k) == lc.unnormalized_homology(k), (name, sub, k)


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
    # normalized levels are genuinely smaller once the degenerate part is
    # divided out: here the fixed level 1, Z/4, is all degenerate
    assert lc.unnormalized.levels[1].canonical() == FgAbelianGroup(0, (4,))
    assert lc.normalized.levels[1].canonical() == FgAbelianGroup(0, ())


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
    eps = norm_projection(n, n)
    s = bar(n, n, n, eps, eps, truncation=3)
    assert shapes(homology_table(s, (0,), 2)) == [(0, (4,)), (0, ()), (0, ())]
    assert oracle_h0(s, (0,)) == FgAbelianGroup(0, (4,))


def test_fixed_inclusion_commutes_with_boundaries():
    # the inclusion of the fixed subcomplex into the full complex is a chain
    # map: boundaries restricted then included equal included then bounded
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
    t = SimplicialGRing(s.group, s.levels, faces, s.degens)
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
    t = SimplicialGRing(s.group, levels, s.faces, s.degens)
    assert t.expansion_key(0) == s.expansion_key(0)
    assert t.expansion_key(1) != s.expansion_key(1)


def test_expansion_key_sees_one_degeneracy():
    # moving which slot s_0 fills with the unit changes the degenerate tuples
    s = real_hochschild(1, gaussian(), truncation=2).loday_side
    d = s.degeneracy(0, 0)
    targets = [list(lst) for lst in d.targets]
    unit = next(q for q, lst in enumerate(targets) if not lst)
    full = next(q for q, lst in enumerate(targets) if lst)
    targets[unit], targets[full] = targets[full], targets[unit]
    degens = [list(ds) for ds in s.degens]
    degens[0][0] = StructuredHom(d.src, d.dst, targets, check=False)
    t = SimplicialGRing(s.group, s.levels, s.faces, degens)
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
    rh = real_hochschild(1, zmod4, truncation=3)
    sub = (0, 1)
    ll = LevelComplex(rh.loday_side, sub, max_level=2)
    bb = LevelComplex(rh.bar_side, sub, max_level=2)
    k = 1
    iso = rh.isos[k].sparse()
    chain = _restricted(bb.reduced[k], iso @ ll.reduced[k].lift)
    m = induced_map(ll.homology_data(k), bb.homology_data(k), chain)
    assert ll.normalized.homology(k) == bb.normalized.homology(k)
    # induced matrix is a bijection on the presented groups
    hom = AbHom(ll.homology_data(k).pres, bb.homology_data(k).pres, m)
    assert hom.is_isomorphism()


def test_comparison_commutes_with_res(zmod4):
    # the induced comparison at the fixed level, followed by restriction on
    # the bar side, equals restriction on the loday side then the comparison
    rh = real_hochschild(1, zmod4, truncation=2)
    k = 0
    mk_l = mackey_homology(rh.loday_side, k)
    mk_b = mackey_homology(rh.bar_side, k)
    iso = rh.isos[k].sparse()
    comp = {}
    for sub in ((0,), (0, 1)):
        ll, bb = mk_l._lc[sub], mk_b._lc[sub]
        chain = _restricted(bb.reduced[k], iso @ ll.reduced[k].lift)
        comp[sub] = induced_map(mk_l._hd[sub], mk_b._hd[sub], chain)
    lhs = mk_b.res((0, 1), (0,)) @ comp[(0, 1)]
    rhs = comp[(0,)] @ mk_l.res((0, 1), (0,))
    assert mk_b.maps_equal((0,), lhs, rhs)


# ---------------------------------------------------------------------------
# the quotient by degenerate elements against the Moore complex


def _drop_levels(lc):
    """Per level 1..top of ``lc``'s normalized complex, whether it drops
    degenerate fixed generators (the free path) rather than keeping them
    all and dividing out the degenerate images as relations."""
    out = []
    for r, f in zip(lc.reduced[1:], lc.fixed[1:]):
        assert isinstance(r, _Normalized)
        drops = r.lift.cols < f.lift.cols
        assert drops != bool(r.pres.relations.cols)
        out.append(drops)
    return out


def _moore_to_quotient_is_iso(lc):
    """The Moore complex carries the same homology as ``lc``'s quotient,
    and the map from Moore cycles to C^H / D(C^H) induces an isomorphism on
    every H_k below the top."""
    reduced, moore = _moore_complex(lc)
    for k in range(lc.top):
        chain = _restricted(lc.reduced[k], lc.fixed[k].lift @ reduced[k].lift)
        src, dst = moore.homology_data(k), lc.homology_data(k)
        assert src.pres.canonical() == dst.pres.canonical(), k
        m = induced_map(src, dst, chain)
        assert AbHom(src.pres, dst.pres, m).is_isomorphism(), k


# the instances behind tests/golden/loday-polygon-*.json and the output
# test_largest_carving_output_is_pinned pins by hash
GOLDEN_INSTANCES = [("gaussian", 1, 3, 2), ("zmod4", 2, 3, 2),
                    ("group_ring_c2_mod2", 1, 3, 1),
                    pytest.param("gaussian", 2, 3, 1, marks=pytest.mark.slow)]


@pytest.mark.parametrize("name,m,truncation,max_degree", GOLDEN_INSTANCES)
def test_quotient_moore_and_unnormalized_agree_on_golden_instances(
        name, m, truncation, max_degree):
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation).loday_side
    for sub in [cls[0] for cls in s.group.subgroup_classes()]:
        lc = LevelComplex(s, sub, max_level=max_degree + 1)
        free = name == "gaussian"  # the other two carry relations
        assert {type(r) for r in lc.reduced} == {_Normalized}, sub
        assert _drop_levels(lc) == [free] * lc.top, sub
        _, moore = _moore_complex(lc)
        for k in range(max_degree + 1):
            assert (lc.normalized.homology(k) == moore.homology(k)
                    == lc.unnormalized_homology(k)), (sub, k)
        if not free or m == 1:  # with lifts, Gaussian m = 2 would take 10 s more
            _moore_to_quotient_is_iso(lc)


@pytest.mark.parametrize("name,m,truncation,max_degree", GOLDEN_INSTANCES)
def test_restricted_boundaries_match_face_sums_on_golden_instances(
        name, m, truncation, max_degree):
    # one expanded face sum per level against the faces summed one by one
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation).loday_side
    for sub in [cls[0] for cls in s.group.subgroup_classes()]:
        lc = LevelComplex(s, sub, max_level=max_degree + 1)
        for carved, chains in ((lc.reduced, lc.normalized), (lc.fixed, lc.unnormalized)):
            assert chains.boundaries == [
                _restricted(carved[n - 1], reference_boundary(s, n, carved[n].lift))
                for n in range(1, lc.top + 1)], sub


# the golden instances and realhh-free's own (the Gaussian 2-gon through
# degree 3)
STREAMED_INSTANCES = GOLDEN_INSTANCES + [("gaussian", 1, 4, 3)]


@pytest.mark.parametrize("name,m,truncation,max_degree", STREAMED_INSTANCES)
def test_streamed_products_match_whole_products(name, m, truncation, max_degree):
    # every product the pipeline reads column by column, against the same
    # product formed whole first: the boundaries of both complexes, the
    # normalized levels (their degenerate images and dropped orbits), and
    # the composite check, which passes on both routes
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation).loday_side
    for sub in [cls[0] for cls in s.group.subgroup_classes()]:
        lc = LevelComplex(s, sub, max_level=max_degree + 1)
        for n in range(lc.top + 1):
            got, want = lc.reduced[n], reference_normalized_level(lc, n)
            assert got.lift == want.lift and got.pres.relations == want.pres.relations
        for carved, chains in ((lc.reduced, lc.normalized), (lc.fixed, lc.unnormalized)):
            assert chains.boundaries == [
                reference_restricted(carved[n - 1], s.expanded_boundary(n), carved[n].lift)
                for n in range(1, lc.top + 1)], sub
            reference_chain_check(chains.levels, chains.boundaries)


@pytest.mark.parametrize("name,m", [("gaussian", 1), ("gaussian", 2), ("zmod4", 2)])
def test_streamed_mackey_maps_match_whole_products(name, m):
    # the restriction and the conjugation chain maps of MackeyH (a transfer
    # is a sum of conjugations, restricted the same way)
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, 2).loday_side
    mk = mackey_homology(s, 1)
    g, k = s.group, mk.degree
    for src in mk.subgroups:
        for dst in mk.subgroups:
            a, b = mk._lc[src].reduced[k], mk._lc[dst].reduced[k]
            if set(dst) <= set(src):
                assert (mk._chain_matrix(src, dst, None)
                        == reference_restricted(b, SparseMatrix.identity(a.lift.rows), a.lift))
            for elem in range(g.order):
                if tuple(sorted(g.conjugate_subgroup(elem, src))) == dst:
                    act = mk._act(src, elem)
                    assert mk._chain_matrix(src, dst, act) == reference_restricted(b, act, a.lift)


def test_streamed_restriction_raises_on_a_planted_bad_column():
    # 1 <-> 2 and 0 negated: the fixed vectors are the multiples of e1 + e2;
    # the second column of m @ lift is e1 alone, off the carving
    fixed = _OrbitFixed(PresentedAb(3), [[(0, -1), (2, 1), (1, 1)]])
    m = SparseMatrix(3, [[(1, 1), (2, 1)], [(1, 1)]])
    good = SparseMatrix(2, [[(0, 2)], [(0, 1)]])
    assert (_restricted(fixed, m, good)
            == reference_restricted(fixed, m, good) == SparseMatrix(1, [[(0, 2)], [(0, 1)]]))
    bad = SparseMatrix(2, [[(0, 1)], [(1, 1)], [(0, 1), (1, -1)]])
    for route in (_restricted, reference_restricted):
        with pytest.raises(ValueError, match="does not carry the source subgroup"):
            route(fixed, m, bad)


def test_streamed_composite_check_raises_on_a_planted_bad_column():
    # realhh-free's normalized complex through degree 2, with one more top
    # generator whose boundary d(e_i) is not a cycle: column i of d_2 is
    # nonzero on a free level, so d_2 d_3 fails at degree 3 on both routes
    lc = LevelComplex(real_hochschild(1, gaussian(), 3).loday_side, (0,), max_level=3)
    chains = lc.normalized
    d2, d3 = chains.boundaries[1], chains.boundaries[2]
    i = next(j for j, col in enumerate(d2.data) if col)
    planted = SparseMatrix(d3.rows, d3.data + [[(i, 1)]])
    levels = chains.levels[:3] + [PresentedAb(planted.cols)]
    bounds = chains.boundaries[:2] + [planted]
    with pytest.raises(ValueError, match="boundary composite at degree 3 is nonzero"):
        ChainComplex(levels, bounds)
    with pytest.raises(ValueError, match="boundary composite at degree 3 is nonzero"):
        reference_chain_check(levels, bounds)
    # without the planted column both routes accept the complex
    reference_chain_check(chains.levels, chains.boundaries)


def _cli_pipeline(*argv):
    """The simplicial ring ``loday run`` builds from these options."""
    args = make_parser().parse_args(["loday", "run", *argv])
    return build_pipeline(build_space(args), resolve_coefficient(args.coeff),
                          args.inner, args.action)


def _top_within_budget(s) -> int:
    """The highest level the default budget lets a complex reach."""
    return max(n for n in range(s.top() + 1) if s.level_rank(n) <= DENSE_BUDGET)


# instances the per-level rule carves by dropping orbits: polygons through
# real_hochschild, S3 spaces as ``loday run`` makes them
DROP_INSTANCES = {
    "polygon-m1-gaussian": lambda: real_hochschild(1, gaussian(), 3).loday_side,
    "polygon-m1-z": lambda: real_hochschild(1, load_bundled("z"), 3).loday_side,
    "polygon-m1-sign_square_zero":
        lambda: real_hochschild(1, load_bundled("sign_square_zero"), 3).loday_side,
    "polygon-m1-quaternion":
        lambda: real_hochschild(1, load_bundled("quaternion"), 2).loday_side,
    "polygon-m2-gaussian": lambda: real_hochschild(2, gaussian(), 2).loday_side,
    "polygon-m2-z": lambda: real_hochschild(2, load_bundled("z"), 3).loday_side,
    # with Gaussian coefficients its level 1 has rank 2^18, past the budget
    "cayley-s3-z": lambda: _cli_pipeline(
        "--kind", "cayley", "--group", "s3", "--gens", "1,2", "--coeff", "z",
        "--truncation", "2"),
    "coset-cayley-s3-gaussian": lambda: _cli_pipeline(
        "--kind", "coset-cayley", "--group", "s3", "--sub", "0,2", "--gens", "3",
        "--coeff", "gaussian", "--action", "involution", "--truncation", "2"),
}


@pytest.mark.parametrize("name", sorted(DROP_INSTANCES))
def test_dropped_orbits_are_the_reference_degenerate_tuples(name):
    # the rule reads the expanded degeneracies; the reference reads the
    # tensor layout (slot 0 most significant) and the unit
    s = DROP_INSTANCES[name]()
    top = _top_within_budget(s)
    tuples = reference_degenerate_tuples(s, top)
    assert top >= 1 and tuples is not None
    for sub in s.group.all_subgroups():
        lc = LevelComplex(s, sub, max_level=top)
        assert _drop_levels(lc) == [True] * lc.top, sub
        for n, (f, r) in enumerate(zip(lc.fixed, lc.reduced)):
            want = {tuple(f.lift.data[c]) for head, c in f._head.items()
                    if head in tuples[n]}
            kept = {tuple(col) for col in r.lift.data}
            assert {tuple(col) for col in f.lift.data} - kept == want, (sub, n)
            assert r.lift.cols == f.lift.cols - len(want), (sub, n)


def test_unit_off_the_basis_divides_out_degenerate_images():
    # rotation_z3's unit is not a basis vector, so no im s_j is spanned by
    # basis tuples: every free level takes the degenerate images as relations
    s = _cli_pipeline("--kind", "rot", "--n", "3", "--coeff", "rotation_z3",
                      "--action", "cyclic", "--inner", "diagonal", "--truncation", "3")
    top = _top_within_budget(s)
    assert reference_degenerate_tuples(s, top) is None
    for sub in s.group.all_subgroups():
        lc = LevelComplex(s, sub, max_level=top)
        assert _drop_levels(lc) == [False] * lc.top, sub
        for k in range(lc.top):
            assert lc.normalized.homology(k) == lc.unnormalized_homology(k), (sub, k)


def test_free_ranks_are_the_nondegenerate_counts():
    # 4 * 3^n live nondegenerate tuples at H = e, 2 * 3^n orbit sums at C2
    s = real_hochschild(1, gaussian(), truncation=3).loday_side
    for sub, lead in (((0,), 4), ((0, 1), 2)):
        lc = LevelComplex(s, sub)
        assert [lv.ngens for lv in lc.normalized.levels] == [lead * 3 ** n for n in range(4)]


@st.composite
def _small_free_ring(draw):
    """Z[x]/(x^2 + bx + c), and whether to take the sigma circle, whose
    involution x -> -x needs b = 0."""
    sigma = draw(st.booleans())
    b = 0 if sigma else draw(st.integers(-2, 2))
    return [draw(st.integers(-2, 2)), b, 1], sigma


@settings(max_examples=12, deadline=None)
@given(_small_free_ring())
def test_quotient_matches_moore_on_small_free_rings(case):
    f, sigma = case
    ring = PresentedRing(2, None, polynomial_mult(f), [1, 0])
    if sigma:
        coeff = Coefficient("quadratic", "", ring,
                            (IntMatrix.from_rows([[1, 0], [0, -1]]), True), None)
        s = loday_two_isotropy(build_sigma_circle(truncation=3), coeff)
    else:
        s = loday_free(build_rot_circle(2, truncation=3),
                       RingWithAction.trivial(make_cyclic(2), ring), inner="flip")
    for sub in s.group.all_subgroups():
        lc = LevelComplex(s, sub)
        assert isinstance(lc.reduced[0], _Normalized)
        assert _drop_levels(lc) == [True] * lc.top, sub
        for k in range(3):
            assert lc.normalized.homology(k) == lc.unnormalized_homology(k), (sub, k)
        _moore_to_quotient_is_iso(lc)
        if sub == (0,):  # both spaces are circles underneath
            assert [lc.normalized.homology(k) for k in range(3)] == polynomial_hh(f, 0, 2)


def test_mixed_carvings_share_mackey_maps():
    # Z[w], w^2 = -1 - w, with conjugation w -> -1 - w: not a signed
    # permutation, so the diagonal C2 action gets the fixed-coordinate
    # quotient while H = e gets the nondegenerate tuples; both are
    # C^H / D(C^H), so transfer and restriction pass between them
    ring = PresentedRing(2, None, polynomial_mult([1, 1, 1]), [1, 0])
    conj = ring.twists.intern(IntMatrix.from_rows([[1, -1], [0, -1]]))
    rwa = RingWithAction(make_cyclic(2), ring,
                         [(IDENTITY_TWIST, False), (conj, False)])
    s = loday_free(build_rot_circle(2, truncation=3), rwa, inner="diagonal")
    e, full = (0,), (0, 1)
    for k in (0, 1):
        mk = mackey_homology(s, k)
        assert _drop_levels(mk._lc[e]) == [True] * (k + 1), k
        assert _drop_levels(mk._lc[full]) == [False] * (k + 1), k
        comp = mk.res(full, e) @ mk.transfer(e, full)
        t, _ = mk.conj(1, e)
        assert mk.maps_equal(e, comp, IntMatrix.identity(t.rows) + t), k


@pytest.mark.parametrize("name,m", [
    ("gaussian", 1), ("zmod4", 1), ("group_ring_c2_mod2", 1), ("zmod4", 2),
    pytest.param("gaussian", 2, marks=pytest.mark.slow)])
def test_double_coset_identities_on_real_hochschild(name, m):
    # transfers, restrictions and conjugations between quotients of every
    # carving, relation-bearing levels included, on the Loday side
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    s = real_hochschild(m, coeff, truncation=2).loday_side
    for k in (0, 1):
        assert mackey_homology(s, k).double_coset_defects() == [], k


# ---------------------------------------------------------------------------
# independent rows: closed-form HH at H = e, and isotropy reduction


@pytest.mark.parametrize("name,n,f,m,truncation", [
    ("z", 0, [0, 1], 1, 4),
    ("gaussian", 0, [1, 0, 1], 1, 4),
    ("gaussian", 0, [1, 0, 1], 2, 2),
    ("zmod4", 4, [0, 1], 1, 4),
    ("zmod4", 4, [0, 1], 2, 3),
    ("group_ring_c2_mod2", 2, [-1, 0, 1], 1, 3),
])
def test_underlying_row_is_closed_form_hh(name, n, f, m, truncation):
    # A = R[x]/(f) on the basis 1, x, ...; the two sides share one complex,
    # so this closed form is the check on the H = e row
    coeff = gaussian() if name == "gaussian" else load_bundled(name)
    assert [[list(c) for c in row] for row in coeff.ring.mult] == polynomial_mult(f)
    assert coeff.ring.ab.canonical() == polynomial_hh(f, n, 0)[0]
    rh = real_hochschild(m, coeff, truncation)
    tl, tb = homology_tables([rh.loday_side, rh.bar_side], (0,), truncation - 1)
    assert tl == tb == polynomial_hh(f, n, truncation - 1)


@pytest.mark.slow
def test_gaussian_m2_underlying_row_through_degree_2_is_closed_form_hh():
    # Z[i] = Z[x]/(x^2 + 1) on the 4-gon: Z^2, (Z/2)^2, 0; degree 2 needs
    # level 3 (rank 65,536), past the default budget, so the complex is
    # built with a larger one (about 4 s)
    s = real_hochschild(2, gaussian(), truncation=3).loday_side
    lc = LevelComplex(s, (0,), max_level=3, budget=70000)
    row = [lc.normalized.homology(k) for k in range(3)]
    assert row == polynomial_hh([1, 0, 1], 0, 2)
    assert shapes(row) == [(2, ()), (0, (2, 2)), (0, ())]


# the Gaussian 4-gon through degree 2, one row per subgroup class of D_8;
# degree 2 needs level 3 (rank 65,536), past the default budget
GAUSSIAN_M2_TABLE = {
    (0,): [(2, ()), (0, (2, 2)), (0, ())],
    (0, 1): [(2, (2,)), (0, (2, 2, 4)), (0, (2, 2))],
    (0, 2): [(1, (2,)), (0, (2, 2, 2)), (0, (2, 2, 2))],
    (0, 3): [(1, (2,)), (0, (2, 2, 2)), (0, (2, 2, 2))],
    (0, 1, 2, 3): [(1, (2, 2, 2)), (0, (2,) * 7 + (4,)), (0, (2,) * 13)],
}


@pytest.mark.slow
def test_gaussian_m2_table_through_degree_2_on_every_class():
    # every class of the realhh table at --budget 70000, both sides sharing
    # one complex per class (about 10 s, mostly the top boundaries' Smith
    # forms)
    rh = real_hochschild(2, gaussian(), truncation=3)
    classes = [cls[0] for cls in rh.loday_side.group.subgroup_classes()]
    assert classes == list(GAUSSIAN_M2_TABLE)
    for sub in classes:
        tl, tb = homology_tables([rh.loday_side, rh.bar_side], sub, 2, budget=70000)
        assert shapes(tl) == shapes(tb) == GAUSSIAN_M2_TABLE[sub], sub


def test_reflection_rows_at_m2_equal_the_m1_c2_row():
    # restricted to a reflection fixing vertices, the 4-gon is S^sigma, so
    # both reflection classes at m = 2 see the m = 1 C2 row
    c2_row = homology_table(real_hochschild(1, gaussian(), truncation=2).loday_side,
                            (0, 1), 1)
    assert shapes(c2_row) == [(1, (2,)), (0, (2, 2, 2))]
    s = real_hochschild(2, gaussian(), truncation=2).loday_side
    classes = [cls[0] for cls in s.group.subgroup_classes()]
    for sub in ((0, 2), (0, 3)):
        assert sub in classes
        assert homology_table(s, sub, 1) == c2_row, sub


def test_realhh_builds_one_complex_per_subgroup_class(monkeypatch):
    made = []
    init = LevelComplex.__init__

    def record(self, s, sub, *args, **kwargs):
        made.append(tuple(sub))
        init(self, s, sub, *args, **kwargs)

    monkeypatch.setattr(LevelComplex, "__init__", record)
    report = run_suite("realhh", {"m": 1, "coeff": "gaussian", "truncation": 2,
                                  "max_degree": 1})
    assert report["passed"]
    assert made == [(0,), (0, 1)]


# ---------------------------------------------------------------------------
# guard rails


def test_restricted_rejects_columns_off_an_orbit_carving():
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
    carved = SubQuotient(3, [[(0, 2)], [(1, 2)]], [])
    good = _restricted(carved, SparseMatrix(3, [[(0, 4), (1, -2)]]))
    assert (carved.lift @ good).data == [[(0, 4), (1, -2)]]
    for col in ([(0, 1)], [(2, 2)]):
        with pytest.raises(ValueError, match="does not carry the source subgroup"):
            _restricted(carved, SparseMatrix(3, [col]))
    # a normalized level over it expresses the same way, and rejects the same
    normal = _Normalized(carved, degenerate=[[(0, 1)]])
    assert _restricted(normal, SparseMatrix(3, [[(0, 4), (1, -2)]])).data == good.data
    for col in ([(0, 1)], [(2, 2)]):
        with pytest.raises(ValueError, match="does not carry the source subgroup"):
            _restricted(normal, SparseMatrix(3, [col]))


def test_normalized_level_drops_coordinates_and_rejects_off_the_fixed_part():
    # 0 <-> 1 and 2 <-> 3: the orbit sums e0 + e1 and e2 + e3 are the fixed
    # coordinates 0 and 1; dropping coordinate 1 keeps e0 + e1 alone
    fixed = _OrbitFixed(PresentedAb(4), [[(1, 1), (0, 1), (3, 1), (2, 1)]])
    normal = _Normalized(fixed, dropped={1})
    assert normal.lift.data == [[(0, 1), (1, 1)]] and normal.pres.ngens == 1
    got = _restricted(normal, SparseMatrix(4, [[(0, 3), (1, 3), (2, -1), (3, -1)],
                                               [(2, 2), (3, 2)]]))
    assert (got.rows, got.data) == (1, [[(0, 3)], []])
    with pytest.raises(ValueError, match="does not carry the source subgroup"):
        _restricted(normal, SparseMatrix(4, [[(0, 1)]]))


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


def test_over_budget_top_level_raises_before_any_expansion(monkeypatch):
    # levels 0 and 1 fit the default budget, level 2 (3^9) does not: the
    # complex refuses before expanding the levels below it
    c3 = make_cyclic(3)
    s = loday_free(build_rot_circle(3, truncation=3),
                   load_bundled("rotation_z3").trivial_action(c3), inner="flip")
    calls = []

    def counted(original):
        def wrapper(self, *args):
            calls.append(original.__name__)
            return original(self, *args)
        return wrapper

    monkeypatch.setattr(StructuredHom, "sparse", counted(StructuredHom.sparse))
    monkeypatch.setattr(TensorRing, "dense_group", counted(TensorRing.dense_group))
    with pytest.raises(SizeBudgetExceeded, match=r"^expanded rank 3\^9 exceeds budget 5000$"):
        LevelComplex(s, (0,), max_level=2)
    assert calls == []
    LevelComplex(s, (0,), max_level=1)
    assert {"sparse", "dense_group"} <= set(calls)


def test_each_boundary_is_smith_formed_once(monkeypatch):
    # on free levels H_k reads the invariant factors of d_k and d_(k+1), so
    # H_k and H_(k+1) share those of d_(k+1): one Smith form per boundary
    s = real_hochschild(1, gaussian(), truncation=4).loday_side
    calls = []
    factors = exactalg.invariant_factors

    def counted(m):
        calls.append(m)
        return factors(m)

    monkeypatch.setattr(exactalg, "invariant_factors", counted)
    for sub in s.group.all_subgroups():
        lc = LevelComplex(s, sub, max_level=4)
        complex_ = lc.normalized
        assert not any(lv.relations.cols for lv in complex_.levels)
        calls.clear()
        table = [lc.normalized.homology(k) for k in range(complex_.top())]
        assert [id(m) for m in calls] == [id(b) for b in complex_.boundaries]
        assert [lc.normalized.homology(k) for k in range(complex_.top())] == table
        assert len(calls) == len(complex_.boundaries)  # the second pass reads the memo
