"""Group tables, subgroups, cosets, Weyl quotients, automorphisms."""

import pytest
from hypothesis import given, settings, strategies as st

from equiloday.fingroup import (
    FiniteGroup,
    direct_product,
    make_alternating4,
    make_dicyclic,
    make_cyclic,
    make_dihedral,
    make_klein_four,
    make_quaternion8,
    make_symmetric,
    subgroup_as_group,
    symmetric_one_line,
)
from oracles import (element_order, is_isomorphic_to, isomorphisms_to,
                     reference_coset_index, reference_left_cosets,
                     reference_subgroup_table)


@pytest.fixture(scope="module")
def s3():
    return make_symmetric(3)


@pytest.fixture(scope="module")
def d6():
    return make_dihedral(6)


@pytest.fixture(scope="module")
def d8():
    return make_dihedral(8)


def test_identity_is_index_zero():
    for g in (make_cyclic(5), make_dihedral(8), make_symmetric(3), make_quaternion8()):
        assert all(g.mul(0, a) == a == g.mul(a, 0) for a in g.elements())


def test_validation_rejects_junk():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # identity not at 0
    # order 48 cap guards the cubic associativity check
    with pytest.raises(ValueError):
        FiniteGroup([[(a + b) % 60 for b in range(60)] for a in range(60)])


def test_cyclic_structure():
    c6 = make_cyclic(6)
    assert c6.is_abelian()
    assert element_order(c6, 1) == 6
    assert sorted(element_order(c6, a) for a in c6.elements()) == [1, 2, 3, 3, 6, 6]
    assert is_isomorphic_to(c6, direct_product(make_cyclic(2), make_cyclic(3)))
    assert not is_isomorphic_to(make_cyclic(4), make_klein_four())


def test_dihedral_structure(d6, d8):
    # srs = r^-1 in the chosen encoding: r=1, s=m
    m = 3
    assert d6.conj(m, 1) == (-1) % m
    assert is_isomorphic_to(d6, make_symmetric(3))
    assert not is_isomorphic_to(d6, make_cyclic(6))
    assert not d8.is_abelian()
    assert element_order(d8, 1) == 4
    assert all(element_order(d8, m2) == 2 for m2 in range(4, 8))
    assert make_dihedral(2).order == 2


def test_symmetric_convention(s3):
    # one-line tuples in lex order; composition acts left-first-outside
    perms = symmetric_one_line(3)
    assert perms[0] == (0, 1, 2)
    assert s3.names == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    # (12) then (23) is (132): table[(23)][(12)]
    assert s3.mul(1, 2) == 4
    assert s3.mul(2, 1) == 3


def test_subgroup_generation(s3, d8):
    assert s3.subgroup_generated([3]) == (0, 3, 4)
    assert s3.subgroup_generated([1, 2]) == tuple(range(6))
    assert d8.subgroup_generated([2]) == (0, 2)
    assert len(s3.all_subgroups()) == 6
    assert len(d8.all_subgroups()) == 10
    assert len(make_quaternion8().all_subgroups()) == 6
    assert len(make_alternating4().all_subgroups()) == 10


def test_cosets_and_transversal(s3):
    h = (0, 2)  # <(12)>: left cosets (0, 2), (1, 4), (3, 5)
    assert s3.transversal(h) == (0, 1, 3)
    look = s3.coset_index(h)
    assert [look[g] for g in range(6)] == [0, 1, 0, 2, 1, 2]
    # transversal always starts at the identity
    for sub in s3.all_subgroups():
        assert s3.transversal(sub)[0] == 0


def test_conjugate_subgroups(d6, d8):
    # reflections <s> and <rs>: conjugate when rotations have odd order
    assert d6.are_conjugate_subgroups((0, 3), (0, 4)) is not None
    assert d8.are_conjugate_subgroups((0, 4), (0, 5)) is None
    assert d8.are_conjugate_subgroups((0, 4), (0, 6)) is not None


def test_quotient(d8):
    rot = (0, 1, 2, 3)  # the rotations r^a sit at a < 4
    q, proj = d8.quotient(rot)
    assert q.order == 2
    assert proj[0] == 0 and proj[5] == 1
    with pytest.raises(ValueError):
        d8.quotient((0, 4))  # <s> is not normal in D8


def test_weyl(d6, d8, s3):
    w, reps, to_w = d8.weyl((0, 4))
    assert w.order == 2
    assert reps == (0, 2)  # e and r^2 normalize <s>
    assert to_w[2] == 1 and to_w[1] == -1  # r is outside the normalizer
    w2, _, _ = d6.weyl((0, 3))
    assert w2.order == 1
    w3, _, _ = s3.weyl((0, 3, 4))  # rotations are normal, Weyl = C2
    assert w3.order == 2
    wfull, _, _ = s3.weyl((0,))
    assert is_isomorphic_to(wfull, s3)


def test_automorphism_counts():
    # |Aut| of the builders' tables: Aut(C6) = C2, Aut(V4) = S3, Aut(A4) = S4
    # with the 12 conjugations (A4 has trivial center) inside it
    assert len(isomorphisms_to(make_cyclic(6), make_cyclic(6), first_only=False)) == 2
    v4 = make_klein_four()
    assert len(isomorphisms_to(v4, v4, first_only=False)) == 6
    a4 = make_alternating4()
    autos = set(isomorphisms_to(a4, a4, first_only=False))
    assert len(autos) == 24
    inner = {tuple(a4.conj(g, x) for x in a4.elements()) for g in a4.elements()}
    assert len(inner) == 12 and inner < autos


def test_quaternion_table():
    q8 = make_quaternion8()
    # i*j = k, j*i = -k
    assert q8.mul(1, 2) == 3
    assert q8.mul(2, 1) == 7
    assert element_order(q8, 4) == 2  # -1
    assert q8.center() == (0, 4)
    assert all(q8.is_normal(h) for h in q8.all_subgroups())


def test_dicyclic_table():
    d3 = make_dicyclic(3)
    assert d3.order == 12 and not d3.is_abelian()
    # b^2 = a^3, the unique involution
    assert d3.mul(6, 6) == 3
    assert [x for x in d3.elements() if element_order(d3, x) == 2] == [3]
    # b a b^-1 = a^-1
    assert d3.conj(6, 1) == d3.inv(1)
    assert is_isomorphic_to(make_dicyclic(2), make_quaternion8())
    assert is_isomorphic_to(make_dicyclic(1), make_cyclic(4))


def test_json_roundtrip(s3):
    obj = s3.to_json_obj()
    back = FiniteGroup.from_json_obj(obj)
    assert back == s3
    assert back.names == s3.names


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12))
def test_cyclic_inverse_law(n):
    g = make_cyclic(n)
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == 0
        assert g.inv(g.inv(a)) == a


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4))
def test_product_order_and_commutativity(a, b):
    g = direct_product(make_cyclic(a), make_cyclic(b))
    assert g.order == a * b
    assert g.is_abelian()


def test_weyl_acts_on_cosets(d8):
    # every Weyl representative normalizes the subgroup
    for sub in d8.all_subgroups():
        w, reps, _ = d8.weyl(sub)
        for r in reps:
            assert d8.conjugate_subgroup(r, sub) == tuple(sorted(sub))
        assert w.order * len(sub) == len(d8.normalizer(sub))


def _stock_groups():
    return [make_cyclic(n) for n in (1, 2, 3, 4, 6, 8, 12)] + [
        make_klein_four(), make_dihedral(4), make_dihedral(6),
        make_dihedral(8), make_dihedral(12), make_symmetric(3),
        make_symmetric(4), make_quaternion8(), make_alternating4(),
        make_dicyclic(3), direct_product(make_cyclic(2), make_cyclic(4))]


@pytest.mark.parametrize("g", _stock_groups(), ids=lambda g: g.label)
def test_subgroup_classes_match_pairwise_conjugacy(g):
    # oracle: partition all_subgroups() by pairwise conjugacy tests, each
    # subgroup joining the first class whose first member it is conjugate to
    brute: list[list[tuple[int, ...]]] = []
    for h in g.all_subgroups():
        for cls in brute:
            if g.are_conjugate_subgroups(cls[0], h) is not None:
                cls.append(h)
                break
        else:
            brute.append([h])
    assert g.subgroup_classes() == brute


def test_subgroup_tables_pass_full_validation(capsys):
    # subgroup_as_group skips validation; its tables must still pass it
    import json
    from equiloday.cli import main
    from equiloday.commands import resolve_group
    from equiloday.fingroup import subgroup_as_group
    assert main(["group", "list"]) == 0
    names = [row["name"] for row in json.loads(capsys.readouterr().out)]
    for name in names:
        g = resolve_group(name)
        for sub in g.all_subgroups():
            h, emb = subgroup_as_group(g, sub)
            assert emb[0] == 0
            FiniteGroup(h.table, h.names, check=True)


@pytest.mark.parametrize("g", _stock_groups(), ids=lambda g: g.label)
def test_memoized_coset_data_matches_the_uncached_oracle(g):
    # twice per subgroup: the first call fills the memo, the second reads
    # it; a list in another order names the same subgroup
    for sub in g.all_subgroups() * 2:
        ask = list(reversed(sub))
        cosets = reference_left_cosets(g, sub)
        assert g.transversal(ask) == tuple(c[0] for c in cosets)
        assert g.coset_index(ask) == reference_coset_index(g, sub)
        h, emb = subgroup_as_group(g, ask)
        assert emb == tuple(sub)
        assert (h.table, h.names) == reference_subgroup_table(g, sub)
        assert subgroup_as_group(g, sub)[0] is h  # built once


def test_callers_cannot_corrupt_the_coset_memo(d8):
    sub = (0, 4)
    index = d8.coset_index(sub)
    index[:] = [7] * len(index)
    assert d8.coset_index(sub) == reference_coset_index(d8, sub)
    assert d8.coset_index(sub) is not d8.coset_index(sub)
    with pytest.raises(TypeError):
        d8.transversal(sub)[0] = 5  # a tuple: nothing to corrupt
    with pytest.raises(TypeError):
        d8.coset_split(sub)[0] = (0, 0)
    with pytest.raises(ValueError):
        subgroup_as_group(d8, (0, 1))  # {e, r} is not closed; never cached
    with pytest.raises(ValueError):
        subgroup_as_group(d8, (0, 1))


def test_oversized_stock_groups_are_rejected_before_their_table(monkeypatch):
    # s7 would spend half a minute on a 5,040^2 table before the order
    # check; no maker may reach the table, the permutations or the class
    from equiloday import fingroup
    from equiloday.cli import UsageError
    from equiloday.commands import resolve_group

    def reached(*_args, **_kw):
        raise AssertionError("built an oversized group")

    monkeypatch.setattr(fingroup, "FiniteGroup", reached)
    monkeypatch.setattr(fingroup, "permutations", reached)
    for name, order in (("c49", 49), ("d98", 98), ("s7", 5040), ("s2000", "2000!")):
        with pytest.raises(UsageError,
                           match=f"order {order} exceeds the validation guard \\(48\\)"):
            resolve_group(name)
