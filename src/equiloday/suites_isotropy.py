"""Suites on the isotropy regimes of the Loday construction: one-isotropy,
normal-subgroups and two-isotropy.  ``verify.run_suite`` imports this
module when it runs one of them."""

from __future__ import annotations

from typing import Optional

from .coeffs import gaussian
from .fingroup import make_cyclic, make_dihedral, make_symmetric
from .loday import (loday_free, loday_normal_sub, loday_one_isotropy,
                    loday_two_isotropy)
from .norms import norm_projection, tensor_induce
from .rings import IDENTITY_TWIST, RingWithAction
from .simpgset import Cell, FinSimpGSet
from .spaces import (build_cayley, build_coset_cayley,
                     build_permutohedron_skeleton, build_sigma_circle)
from .verify import _check, _new_report


def suite_one_isotropy(params: Optional[dict] = None) -> dict:
    report = _new_report("one-isotropy")
    gz = gaussian()
    rwa2 = gz.c2_action()

    s = loday_one_isotropy(build_permutohedron_skeleton(3, 2), rwa2)
    msgs = s.validate()
    _check(report, "permutohedron/simplicial-and-equivariant", msgs == [],
           msgs or None)

    s3 = make_symmetric(3)
    space = build_coset_cayley(s3, (0, 2), (3,), 2)
    s = loday_one_isotropy(space, rwa2)
    msgs = s.validate()
    _check(report, "coset-cayley-conjugate-stabilizers/valid", msgs == [],
           msgs or None)

    # a trivially-acting coefficient over a free space reduces to free mode
    cay = build_cayley(make_cyclic(3), (1,), 2)
    triv = FinSimpGSet(cay.group, cay.cells, 2, ("one_isotropy", (0,)))
    a = loday_free(cay, RingWithAction.trivial(make_cyclic(3), gz.ring),
                   inner="flip")
    b = loday_one_isotropy(triv, RingWithAction.trivial(make_cyclic(1),
                                                        gz.ring))
    mism = [(n, i) for n in range(1, 3) for i in range(n + 1)
            if a.face(n, i) != b.face(n, i)]
    _check(report, "trivial-action-matches-free-mode", not mism,
           {"faces": mism} if mism else None)
    return report


def suite_normal_subgroups(params: Optional[dict] = None) -> dict:
    report = _new_report("normal-subgroups")
    gz = gaussian()
    d8 = make_dihedral(8)
    inv = (gz.ring.twists.intern(gz.involution[0]), gz.involution[1])
    ident = IDENTITY_TWIST

    spc = build_coset_cayley(d8, (0, 2), (1,), 2,
                             mode=("normal_with_subgroups", (0, 1, 2, 3),
                                   ((0, 2), (0,))))
    msgs = spc.validate()
    _check(report, "space/valid", msgs == [], msgs or None)
    rwa = RingWithAction(make_cyclic(4), gz.ring,
                         [(ident, False), inv, (ident, False), inv])
    s = loday_normal_sub(spc, rwa)
    msgs = s.validate()
    _check(report, "pipeline/simplicial-and-equivariant", msgs == [],
           msgs or None)

    # collapsing cosets through an intermediate subgroup equals the direct
    # collapse
    one = make_cyclic(1)
    n_e = tensor_induce(d8, (0,), RingWithAction(one, gz.ring, [(ident, False)]))
    n_k = tensor_induce(d8, (0, 2),
                        RingWithAction(make_cyclic(2), gz.ring,
                                       [(ident, False), (ident, False)]))
    n_h = tensor_induce(d8, (0, 1, 2, 3),
                        RingWithAction(make_cyclic(4), gz.ring,
                                       [(ident, False)] * 4))
    step1 = norm_projection(n_e, n_k)
    step2 = norm_projection(n_k, n_h)
    _check(report, "projection-tower-composes",
           step2.compose(step1) == norm_projection(n_e, n_h))
    return report


def suite_two_isotropy(params: Optional[dict] = None) -> dict:
    report = _new_report("two-isotropy")
    gz = gaussian()

    s = loday_two_isotropy(build_sigma_circle(4), gz)
    msgs = s.validate()
    _check(report, "reflection-circle/simplicial-and-equivariant",
           msgs == [], msgs or None)
    _check(report, "reflection-circle/rank-grows-as-rank^slots",
           [s.level_rank(n) for n in range(3)] == [4, 16, 64],
           {"got": [s.level_rank(n) for n in range(3)]})

    # one fixed vertex, one free loop: the two-isotropy assignment agrees
    # with the one-isotropy reading of the same space
    c2 = make_cyclic(2)
    cells = [Cell("v", 0, (0, 1)),
             Cell("y", 1, (0,), ((0, (0,), 1), (0, (0,), 0)))]
    sp2 = FinSimpGSet(c2, cells, 2,
                      ("two_isotropy", (0, 1), (0, 1), ((0, 0), (1, 1))))
    sp1 = FinSimpGSet(c2, cells, 2, ("one_isotropy", (0, 1)))
    a = loday_two_isotropy(sp2, gz)
    b = loday_one_isotropy(sp1, gz.c2_action())
    mism = [(n, i) for n in range(1, 3) for i in range(n + 1)
            if a.face(n, i) != b.face(n, i)]
    _check(report, "reduces-to-one-isotropy-on-matching-data", not mism,
           {"faces": mism} if mism else None)
    return report


BODIES = {"one-isotropy": suite_one_isotropy,
          "normal-subgroups": suite_normal_subgroups,
          "two-isotropy": suite_two_isotropy}
