"""One coset decomposition for the norm layer.

Every transversal defect ``norms`` twists by comes from the decomposition
g = c(gH) h that ``FiniteGroup.coset_split`` memoizes per subgroup.  The
split is checked against its definition on every subgroup of the groups
of order at most twelve, and each norm map that reads it is compared, target
for target, with its body from before the split (``tests/oracles.py``),
which worked the defect out by hand.  An ``ast`` guard keeps ``norms.py``
from deriving a defect on its own again.
"""

import ast
import pathlib

import pytest

from equiloday.coeffs import gaussian
from equiloday.norms import (NormRing, _actions_agree, _collapse, blocked_diagonal,
                             blocking_diagonal_certificate, conjugate_switch,
                             coset_blocking, norm_projection, weyl_relabeling)
from equiloday.rings import RingWithAction
from equiloday.suites_structured import (_even_part, _index_two_action,
                                         _norm_coefficients, _weyl_roster)
from oracles import (reference_blocked_diagonal, reference_blocking_diagonal_certificate,
                     reference_collapse, reference_conjugate_switch,
                     reference_coset_blocking, reference_norm_action,
                     reference_norm_projection, reference_weyl_relabeling)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equiloday"

ROSTER = _weyl_roster()


def _targets(maps) -> list:
    return [f.targets for f in maps]


@pytest.mark.parametrize("label,g", ROSTER, ids=[label for label, _ in ROSTER])
def test_coset_split_decomposes_every_element(label, g):
    for sub in g.all_subgroups():
        split = g.coset_split(sub)
        tr, index = g.transversal(sub), g.coset_index(sub)
        assert len(split) == g.order
        for x, (t, h) in enumerate(split):
            assert g.mul(tr[t], h) == x
            assert h in sub
            assert t == index[x]


def _full_actions(g):
    """The trivial action of the whole group, and its sign action where an
    index-2 subgroup grades it."""
    gz = gaussian()
    out = [RingWithAction.trivial(g, gz.ring)]
    even = _even_part(g)
    if even is not None:
        out.append(_index_two_action(g, even, gz))
    return out


@pytest.mark.parametrize("label,g", ROSTER, ids=[label for label, _ in ROSTER])
def test_norm_maps_match_their_hand_derived_references(label, g):
    gz = gaussian()
    ring = gz.ring
    norms = []
    for sub in g.all_subgroups():
        assert coset_blocking(g, sub, ring).targets == \
            reference_coset_blocking(g, sub, ring).targets
        for rwa in _full_actions(g):
            assert _targets(blocked_diagonal(g, sub, rwa).action) == \
                _targets(reference_blocked_diagonal(g, sub, rwa).action)
            assert blocking_diagonal_certificate(g, sub, rwa) == \
                reference_blocking_diagonal_certificate(g, sub, rwa)
        for _, rwa in _norm_coefficients(g, sub, gz):
            n = NormRing(g, sub, rwa)
            norms.append(n)
            assert _targets(n.gt.action) == _targets(reference_norm_action(g, sub, rwa))
            for gamma in g.normalizer(sub):
                if _actions_agree(n, n, gamma):
                    assert weyl_relabeling(n, gamma).targets == \
                        reference_weyl_relabeling(n, gamma).targets
            for gamma in g.elements():
                new, f = conjugate_switch(n, gamma)
                ref_new, ref_f = reference_conjugate_switch(n, gamma)
                assert new.sub == ref_new.sub
                assert new.rwa.acts == ref_new.rwa.acts
                assert f.targets == ref_f.targets
    for src in norms:
        for dst in norms:
            if not set(src.sub) <= set(dst.sub):
                continue
            for u in g.elements():
                assert _collapse(src, dst, u) == reference_collapse(src, dst, u)
            if _actions_agree(src, dst, 0):
                assert norm_projection(src, dst).targets == \
                    reference_norm_projection(src, dst).targets


def coset_derivations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every call of ``coset_index`` or ``left_cosets`` and
    every read of a ``coset_of`` attribute."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("coset_index", "left_cosets")):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.Attribute) and node.attr == "coset_of":
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_norms_reads_every_defect_from_the_split():
    tree = ast.parse((SRC / "norms.py").read_text(encoding="utf-8"))
    assert coset_derivations(tree) == []


def test_guard_sees_a_hand_derived_defect():
    tree = ast.parse("def f(g, n, sub):\n"
                     "    t = g.coset_index(sub)[0]\n"
                     "    return n.coset_of[t], g.left_cosets(sub)\n")
    assert coset_derivations(tree) == [(2, "coset_index"), (3, "coset_of"),
                                       (3, "left_cosets")]
    assert coset_derivations(ast.parse("g.coset_split(sub)[x]")) == []
