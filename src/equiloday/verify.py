"""Named verification suites over fixed rosters of groups and rings.

Each suite replays one family of structural identities in exact integer
arithmetic and returns a plain report dict that the command line driver can
serialize::

    {"suite": str,
     "checks": [{"name": str, "status": "pass" | "fail" | "skip",
                 "witness": <json-able or None>}],
     "failures": int, "skipped": int, "passed": bool}

A failing check carries enough data (group label, subgroup, element index,
the offending columns) to replay the single equation that broke.  Work that
would blow the dense-matrix budget is reported as an explicit skip, never
silently dropped.  Parameters a suite cannot use (a group label its roster
lacks, a coefficient without an involution, ...) raise ``SuiteParameterError``;
any other exception is a bug, not a verdict.
"""

from __future__ import annotations

import os
from typing import Optional

from .coeffs import Coefficient, gaussian, load_bundled, load_file, quaternions
from .exactalg import IntMatrix, SizeBudgetExceeded
from .fingroup import (
    FiniteGroup,
    direct_product,
    make_alternating4,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_klein_four,
    make_quaternion8,
    make_symmetric,
    subgroup_as_group,
)
from .gring import (
    DENSE_BUDGET,
    NormRing,
    PresentedRing,
    RingWithAction,
    StructuredHom,
    blocked_diagonal,
    blocked_flip,
    blocking_diagonal_certificate,
    commutativity_uses,
    conjugate_switch,
    coset_blocking,
    diagonal_power,
    flip_power,
    flip_to_diagonal,
    is_equivariant,
    multiply_out_diagonal,
    multiply_out_flip,
    norm_projection,
    reset_commutativity_uses,
    single_slot_ring,
    tensor_induce,
    weyl_relabeling,
)
from .homology import feasible_degree, homology_table
from .loday import (
    esigma_check,
    loday_free,
    loday_normal_sub,
    loday_one_isotropy,
    loday_two_isotropy,
    real_hochschild,
)
from .simpgset import (
    Cell,
    FinSimpGSet,
    build_cayley,
    build_coset_cayley,
    build_permutohedron_skeleton,
    build_sigma_circle,
)


class SuiteParameterError(ValueError):
    """A suite was given parameters it cannot run with: the caller's fault."""


# ---------------------------------------------------------------------------
# report plumbing


def _new_report(suite: str) -> dict:
    return {"suite": suite, "checks": [], "failures": 0, "skipped": 0,
            "passed": True}


def _check(report: dict, name: str, ok: bool, witness=None):
    status = "pass" if ok else "fail"
    entry = {"name": name, "status": status}
    if witness is not None:
        entry["witness"] = witness
    report["checks"].append(entry)
    if not ok:
        report["failures"] += 1
        report["passed"] = False


def _skip(report: dict, name: str, reason: str):
    report["checks"].append({"name": name, "status": "skip",
                             "witness": {"reason": reason}})
    report["skipped"] += 1


def _shape(h) -> list:
    return [h.free_rank, list(h.torsion)]


# ---------------------------------------------------------------------------
# rosters


def _pick(roster: list, group: Optional[str]) -> list:
    """Roster entries whose first item, a group label, is ``group``; the
    whole roster when ``group`` is None.  A label matching no entry is
    rejected, naming the valid ones."""
    if group is None:
        return roster
    picked = [entry for entry in roster if entry[0] == group]
    if not picked:
        labels = dict.fromkeys(entry[0] for entry in roster)
        raise SuiteParameterError(
            f"unknown group {group!r}; this suite knows: {', '.join(labels)}")
    return picked


def _index_two_action(group: FiniteGroup, even: tuple[int, ...],
                      coeff: Coefficient) -> RingWithAction:
    """Coefficient involution on the odd coset of an index-2 subgroup."""
    m, anti = coeff.involution
    ident = coeff.ring.identity_matrix()
    acts = [(ident, False) if g in even else (m, anti)
            for g in group.elements()]
    return RingWithAction(group, coeff.ring, acts)


def _even_part(group: FiniteGroup) -> Optional[tuple[int, ...]]:
    if group.order % 2:
        return None
    half = group.order // 2
    for sub in group.all_subgroups():
        if len(sub) == half and group.is_normal(sub):
            return sub
    return None


def _power_instances(group_filter: Optional[str]):
    """(group label, ring label, action) triples for the counit/reordering
    checks: the four standard small groups against rings of rank <= 2,
    with the trivial action always and a sign-twisted action when the
    group has an index-2 part to carry it."""
    groups = _pick([("c2", make_cyclic(2)), ("c3", make_cyclic(3)),
                    ("s3", make_symmetric(3)), ("d4", make_dihedral(8))],
                   group_filter)
    rings = [("z", load_bundled("z")), ("zmod4", load_bundled("zmod4")),
             ("gaussian", gaussian()),
             ("sign_square_zero", load_bundled("sign_square_zero"))]
    out = []
    for glabel, g in groups:
        even = _even_part(g)
        for rlabel, coeff in rings:
            out.append((glabel, rlabel + "/trivial",
                        RingWithAction.trivial(g, coeff.ring)))
            if even is not None and coeff.involution is not None:
                m, _ = coeff.involution
                if coeff.ring.reduce_matrix(m) == coeff.ring.reduce_matrix(
                        coeff.ring.identity_matrix()):
                    continue
                out.append((glabel, rlabel + "/sign",
                            _index_two_action(g, even, coeff)))
    return out


def _norm_coefficients(group: FiniteGroup, sub: tuple[int, ...]):
    """Coefficient actions over a subgroup: trivial always, the involution
    action where an index-2 part exists to grade it."""
    gz = gaussian()
    sub_g, emb = subgroup_as_group(group, sub)
    out = [("trivial", RingWithAction.trivial(sub_g, gz.ring))]
    even = _even_part(sub_g)
    if even is not None:
        out.append(("sign", _index_two_action(sub_g, even, gz)))
    return out


# ---------------------------------------------------------------------------
# suite: counit


def suite_counit(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("counit")
    for glabel, rlabel, rwa in _power_instances(params.get("group")):
        ring = rwa.ring
        group = rwa.group
        flip = flip_power(group, ring)
        diag = diagonal_power(rwa)
        one = single_slot_ring(rwa)
        eps_d = multiply_out_diagonal(rwa)
        eps_f = multiply_out_flip(rwa)
        tag = f"{glabel}/{rlabel}"

        # generator-level formulas: the plain product for the diagonal-side
        # counit, the g-twisted product for the flip side, checked on every
        # basis tuple of the expanded power
        bad_d = bad_f = None
        for idx in flip.tensor.basis_tuples():
            want_d = None
            want_f = None
            for g in group.elements():
                e = [1 if k == idx[g] else 0 for k in range(ring.ngens)]
                want_d = e if want_d is None else ring.vec_mul(want_d, e)
                te = rwa.act_matrix(g).column(idx[g])
                want_f = te if want_f is None else ring.vec_mul(want_f, te)
            got_d = eps_d.apply_basis(idx)
            got_f = eps_f.apply_basis(idx)
            if bad_d is None and ring.reduce_vec(got_d) != ring.reduce_vec(want_d):
                bad_d = {"basis": list(idx), "got": list(got_d),
                         "expected": list(want_d)}
            if bad_f is None and ring.reduce_vec(got_f) != ring.reduce_vec(want_f):
                bad_f = {"basis": list(idx), "got": list(got_f),
                         "expected": list(want_f)}
        _check(report, f"{tag}/diagonal-counit-multiplies", bad_d is None, bad_d)
        _check(report, f"{tag}/flip-counit-twists-then-multiplies",
               bad_f is None, bad_f)
        _check(report, f"{tag}/diagonal-counit-equivariant",
               is_equivariant(eps_d, diag, one))
        _check(report, f"{tag}/flip-counit-equivariant",
               is_equivariant(eps_f, flip, one))
    return report


# ---------------------------------------------------------------------------
# suite: psi


def suite_psi(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("psi")
    for glabel, rlabel, rwa in _power_instances(params.get("group")):
        group, ring = rwa.group, rwa.ring
        flip = flip_power(group, ring)
        diag = diagonal_power(rwa)
        psi = flip_to_diagonal(rwa)
        tag = f"{glabel}/{rlabel}"
        inv_ok = psi.is_relabeling_iso()
        if inv_ok:
            pinv = psi.inverse()
            ident = StructuredHom.identity(flip.tensor)
            inv_ok = (pinv.compose(psi) == ident
                      and psi.compose(pinv) == StructuredHom.identity(diag.tensor))
        _check(report, f"{tag}/invertible", inv_ok)
        _check(report, f"{tag}/equivariant-flip-to-diagonal",
               is_equivariant(psi, flip, diag))
        _check(report, f"{tag}/triangle-with-counits",
               multiply_out_diagonal(rwa).compose(psi) == multiply_out_flip(rwa))
    return report


# ---------------------------------------------------------------------------
# suite: xi (coset reordering) and the diagonal counterexample


_XI_FLIP_INSTANCES = [
    ("s3", make_symmetric, 3, (0, 2)),
    ("d4", make_dihedral, 8, (0, 4)),
    ("d6", make_dihedral, 12, (0, 6)),
]


def _xi_flip_checks(report: dict, group_filter: Optional[str]):
    ring = gaussian().ring
    for glabel, maker, arg, sub in _pick(_XI_FLIP_INSTANCES, group_filter):
        g = maker(arg)
        xi = coset_blocking(g, sub, ring)
        tag = f"{glabel}/H={list(sub)}"
        _check(report, f"{tag}/reordering-is-iso", xi.is_relabeling_iso())
        _check(report, f"{tag}/equivariant-for-flip-blocks",
               is_equivariant(xi, flip_power(g, ring),
                              blocked_flip(g, sub, ring)))


def _barred_blocks(ring: PresentedRing, hom: StructuredHom) -> dict:
    """Group the target slots by coset block and record which carry a twist
    other than the identity."""
    ident = ring.reduce_matrix(ring.identity_matrix())
    blocks: dict[int, list] = {}
    for t, lst in enumerate(hom.targets):
        c, h = hom.dst.slots[t]
        barred = any(ring.reduce_matrix(m) != ident for _, m, _ in lst)
        blocks.setdefault(c, []).append(barred)
    return {c: flags for c, flags in sorted(blocks.items())}


def _xi_counterexample_checks(report: dict):
    # the three-letter symmetric group over an order-2 subgroup, coefficients
    # twisted by parity: the blocked-diagonal action disagrees with the
    # reordered flip action, witnessed block by block
    g = make_symmetric(3)
    sub = (0, 2)
    gz = gaussian()
    even = _even_part(g)
    rwa = _index_two_action(g, even, gz)
    ring = gz.ring

    defect, _ = blocking_diagonal_certificate(g, sub, rwa)
    _check(report, "s3/diagonal-breaks-at-some-element", defect != [],
           {"defect_elements": list(defect)})
    _check(report, "s3/identity-never-breaks", 0 not in defect)

    gamma = 1  # the reflection fixing the first letter
    xi = coset_blocking(g, sub, ring)
    left = blocked_diagonal(g, sub, rwa).act(gamma).compose(xi)
    right = xi.compose(flip_power(g, ring).act(gamma))
    _check(report, "s3/display-element-violates", left != right,
           {"gamma": gamma})
    _check(report, "s3/both-sides-shuffle-slots-identically",
           left.slot_permutation() == right.slot_permutation())

    lb = _barred_blocks(ring, left)
    rb = _barred_blocks(ring, right)
    fully_barred = [c for c, flags in lb.items() if all(flags)]
    clean = [c for c, flags in lb.items() if not any(flags)]
    witness = {"gamma": gamma,
               "left_blocks": {str(c): flags for c, flags in lb.items()},
               "right_blocks": {str(c): flags for c, flags in rb.items()}}
    _check(report, "s3/left-side-bars-exactly-one-whole-block",
           len(fully_barred) == 1 and len(clean) == len(lb) - 1, witness)
    _check(report, "s3/right-side-bars-nothing",
           all(not any(flags) for flags in rb.values()), witness)


def suite_xi(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("xi")
    _xi_flip_checks(report, params.get("group"))
    gf = params.get("group")
    if gf is None or gf == "s3":
        _xi_counterexample_checks(report)
    return report


def suite_xi_counterexample(params: Optional[dict] = None) -> dict:
    report = _new_report("xi-diagonal-counterexample")
    _xi_counterexample_checks(report)
    return report


# ---------------------------------------------------------------------------
# suite: weyl


def _weyl_roster():
    """Every isomorphism class of groups of order at most twelve."""
    return [("c1", make_cyclic(1)),
            ("c2", make_cyclic(2)), ("c3", make_cyclic(3)),
            ("c4", make_cyclic(4)), ("klein", make_klein_four()),
            ("c5", make_cyclic(5)),
            ("c6", make_cyclic(6)), ("s3", make_symmetric(3)),
            ("c7", make_cyclic(7)),
            ("c8", make_cyclic(8)),
            ("c2xc4", direct_product(make_cyclic(2), make_cyclic(4))),
            ("c2cube", direct_product(make_cyclic(2), make_klein_four())),
            ("d4", make_dihedral(8)), ("q8", make_quaternion8()),
            ("c9", make_cyclic(9)),
            ("c3xc3", direct_product(make_cyclic(3), make_cyclic(3))),
            ("c10", make_cyclic(10)), ("d5", make_dihedral(10)),
            ("c11", make_cyclic(11)),
            ("c12", make_cyclic(12)),
            ("c2xc6", direct_product(make_cyclic(2), make_cyclic(6))),
            ("d6", make_dihedral(12)), ("a4", make_alternating4()),
            ("dic3", make_dicyclic(3))]


def _action_stabilizer(n: NormRing, normal: tuple[int, ...]) -> list[int]:
    """Normalizer elements whose conjugation fixes the coefficient action
    pointwise: the only ones with a Weyl self-map of the norm."""
    g, ring = n.group, n.rwa.ring

    def act(h):
        m, anti = n.act_of(h)
        return ring.reduce_matrix(m), anti

    return [gam for gam in normal
            if all(act(g.conj(gam, h)) == act(h) for h in n.sub)]


def _accepted(n: NormRing, gammas) -> list[int]:
    """The elements of ``gammas`` that ``weyl_relabeling`` does not reject."""
    out = []
    for gam in gammas:
        try:
            weyl_relabeling(n, gam)
            out.append(gam)
        except ValueError:
            pass
    return out


def suite_weyl(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("weyl")
    gz = gaussian()
    conj = gz.involution[0]
    for glabel, g in _pick(_weyl_roster(), params.get("group")):
        for sub in g.all_subgroups():
            normal = g.normalizer(sub)
            for alabel, rwa in _norm_coefficients(g, sub):
                n = tensor_induce(g, sub, rwa)
                tag = f"{glabel}/H={list(sub)}/{alabel}"
                nslots = n.tensor.nslots
                nat = StructuredHom(n.tensor, n.tensor,
                                    [[(i, conj, False)] for i in range(nslots)],
                                    check=False)
                stab = _action_stabilizer(n, normal)
                relabelings = {gam: weyl_relabeling(n, gam) for gam in stab}

                bad_eq = [gam for gam, wr in relabelings.items()
                          if not is_equivariant(wr, n.gt, n.gt)]
                _check(report, f"{tag}/commutes-with-the-whole-group-action",
                       not bad_eq, {"gamma": bad_eq} if bad_eq else None)

                bad_nat = [gam for gam, wr in relabelings.items()
                           if wr.compose(nat) != nat.compose(wr)]
                _check(report, f"{tag}/natural-in-the-coefficient-endo",
                       not bad_nat, {"gamma": bad_nat} if bad_nat else None)

                # subgroup elements act by the inner coefficient twist, so
                # the map factors through the Weyl quotient exactly when the
                # coefficients carry no action
                bad_h = []
                for h in sub:
                    m, aflag = n.act_of(g.inv(h))
                    inner = StructuredHom(n.tensor, n.tensor,
                                          [[(i, m, aflag)]
                                           for i in range(nslots)],
                                          check=False)
                    if relabelings[h] != inner:
                        bad_h.append(h)
                _check(report, f"{tag}/subgroup-elements-act-by-inner-twist",
                       not bad_h, {"h": bad_h} if bad_h else None)
                if alabel == "trivial":
                    bad_cls = [(gam, h) for gam in stab for h in sub
                               if weyl_relabeling(n, g.mul(gam, h))
                               != relabelings[gam]]
                    _check(report,
                           f"{tag}/trivial-coefficients-see-only-the-coset",
                           not bad_cls, {"pairs": bad_cls} if bad_cls else None)

                bad_mul = [(a, b) for a in stab for b in stab
                           if relabelings[a].compose(relabelings[b])
                           != relabelings[g.mul(a, b)]]
                _check(report, f"{tag}/composes-as-a-group-action",
                       not bad_mul, {"pairs": bad_mul} if bad_mul else None)

                leaked = _accepted(n, [gam for gam in normal
                                       if gam not in relabelings])
                _check(report, f"{tag}/coefficient-moving-rejected",
                       not leaked, {"gamma": leaked} if leaked else None)
            # elements outside the normalizer must be rejected
            n0 = tensor_induce(g, sub,
                               RingWithAction.trivial(
                                   subgroup_as_group(g, sub)[0], gz.ring))
            leaked = _accepted(n0, [gam for gam in g.elements()
                                    if gam not in normal])
            _check(report, f"{glabel}/H={list(sub)}/non-normalizing-rejected",
                   not leaked, {"gamma": leaked} if leaked else None)
    return report


# ---------------------------------------------------------------------------
# suite: conjugate switching


def suite_conjugate_switch(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("conjugate-switch")
    roster = [("s3", make_symmetric(3)), ("d6", make_dihedral(12))]
    for glabel, g in _pick(roster, params.get("group")):
        for sub in g.all_subgroups():
            for alabel, rwa in _norm_coefficients(g, sub):
                n = tensor_induce(g, sub, rwa)
                tag = f"{glabel}/H={list(sub)}/{alabel}"
                switched = {gam: conjugate_switch(n, gam)
                            for gam in g.elements()}

                bad_target = [gam for gam, (nn, _) in switched.items()
                              if nn.sub != g.conjugate_subgroup(gam, sub)]
                _check(report, f"{tag}/lands-on-the-conjugate-subgroup",
                       not bad_target,
                       {"gamma": bad_target} if bad_target else None)

                bad_iso = [gam for gam, (_, f) in switched.items()
                           if not f.is_relabeling_iso()]
                _check(report, f"{tag}/is-an-isomorphism",
                       not bad_iso, {"gamma": bad_iso} if bad_iso else None)

                bad_eq = [gam for gam, (nn, f) in switched.items()
                          if not is_equivariant(f, n.gt, nn.gt)]
                _check(report, f"{tag}/equivariant",
                       not bad_eq, {"gamma": bad_eq} if bad_eq else None)

                bad_mul = []
                for g1 in g.elements():
                    n1, f1 = switched[g1]
                    for g2 in g.elements():
                        n2, f2 = conjugate_switch(n1, g2)
                        n12, f12 = conjugate_switch(n, g.mul(g2, g1))
                        if n2.sub != n12.sub or f2.compose(f1) != f12:
                            bad_mul.append((g1, g2))
                _check(report, f"{tag}/multiplicative-in-the-conjugator",
                       not bad_mul, {"pairs": bad_mul} if bad_mul else None)

                bad_inv = []
                for gam in g.elements():
                    n1, f1 = switched[gam]
                    _, fb = conjugate_switch(n1, g.inv(gam))
                    if fb.compose(f1) != StructuredHom.identity(n.tensor):
                        bad_inv.append(gam)
                _check(report, f"{tag}/switch-back-is-the-inverse",
                       not bad_inv, {"gamma": bad_inv} if bad_inv else None)
    return report


# ---------------------------------------------------------------------------
# suites: the three isotropy modes


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
    inv = gz.involution
    ident = gz.ring.identity_matrix()

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
    step1 = norm_projection(n_e, n_k, 0)
    step2 = norm_projection(n_k, n_h, 0)
    _check(report, "projection-tower-composes",
           step2.compose(step1) == norm_projection(n_e, n_h, 0))
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


# ---------------------------------------------------------------------------
# suite: realhh (polygon pipeline against the two-sided bar resolution)


def _load_coefficient(spec: str) -> Coefficient:
    """A file path or bundled name, for the polygon pipeline (which needs
    the coefficient's involution)."""
    try:
        coeff = load_file(spec) if os.path.exists(spec) else load_bundled(spec)
    except (ValueError, KeyError, OSError) as e:
        raise SuiteParameterError(str(e)) from e
    if coeff.involution is None:
        raise SuiteParameterError(f"coefficient {spec!r} carries no involution")
    return coeff


def _at_least_one(params: dict, key: str, default: int) -> int:
    val = params.get(key, default)
    if val < 1:
        raise SuiteParameterError(f"{key} must be at least 1")
    return val


def _realhh_instance(report: dict, m: int, coeff: Coefficient,
                     truncation: int, max_degree: int, budget: int,
                     subgroups: str):
    tag = f"m={m}/{coeff.name}"
    try:
        rh = real_hochschild(m, coeff, truncation)
    except SizeBudgetExceeded as exc:
        _skip(report, f"{tag}/build", str(exc))
        return
    msgs = rh.loday_side.validate()
    _check(report, f"{tag}/polygon-side-validates", msgs == [], msgs or None)
    msgs = rh.bar_side.validate()
    _check(report, f"{tag}/bar-side-validates", msgs == [], msgs or None)
    msgs = rh.iso_commutes()
    _check(report, f"{tag}/levelwise-iso-commutes-with-all-faces-and-degeneracies",
           msgs == [], msgs or None)
    _check(report, f"{tag}/levelwise-iso-invertible",
           all(f.is_relabeling_iso() for f in rh.isos))

    group = rh.loday_side.group
    if subgroups == "all":
        subs = group.all_subgroups()
    else:
        subs = [cls[0] for cls in group.subgroup_classes()]
    kmax = feasible_degree(rh.loday_side, max_degree, budget)
    if kmax < 0:
        _skip(report, f"{tag}/homology-tables",
              "level ranks exceed the dense budget at degree 0")
        return
    for sub in subs:
        tl = homology_table(rh.loday_side, sub, kmax, budget=budget)
        tb = homology_table(rh.bar_side, sub, kmax, budget=budget)
        got = [_shape(h) for h in tl]
        want = [_shape(h) for h in tb]
        _check(report,
               f"{tag}/H={list(sub)}/tables-agree-through-degree-{kmax}",
               got == want, {"polygon": got, "bar": want})
    for d in range(kmax + 1, max_degree + 1):
        if d + 1 > truncation:
            reason = f"degree {d} needs level {d + 1}, beyond truncation {truncation}"
        else:
            reason = (f"level rank {rh.loday_side.level_rank(d + 1)} exceeds "
                      f"the dense budget {budget}")
        _skip(report, f"{tag}/degree-{d}", reason)


def suite_realhh(params: Optional[dict] = None) -> dict:
    params = params or {}
    report = _new_report("realhh")
    ms = [1, 2, 3] if params.get("m") is None else [_at_least_one(params, "m", 1)]
    if params.get("coeff") is not None:
        coeffs = [_load_coefficient(params["coeff"])]
    else:
        coeffs = [load_bundled("zmod4"), gaussian()]
    truncation = _at_least_one(params, "truncation", 4)
    max_degree = params.get("max_degree", 3)
    budget = params.get("budget", DENSE_BUDGET)
    # rank-1 coefficients stay cheap at every subgroup; larger rings switch
    # to conjugacy class representatives, legitimate because switching to a
    # conjugate is an isomorphism (see the conjugate-switch suite)
    for coeff in coeffs:
        for m in ms:
            subgroups = "all" if coeff.ring.ngens == 1 else "classes"
            _realhh_instance(report, m, coeff, truncation, max_degree,
                             budget, params.get("subgroups", subgroups))
    return report


# ---------------------------------------------------------------------------
# suite: esigma (anti-involution certification + commutativity-free run)


def _upper_triangular_mod2() -> tuple[PresentedRing, tuple[IntMatrix, bool]]:
    """2x2 upper-triangular matrices over Z/2 with the transpose-flip
    anti-involution; the smallest noncommutative test ring after the
    quaternions."""
    n = 3
    rel = IntMatrix.from_cols([[2, 0, 0], [0, 2, 0], [0, 0, 2]], n)
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    mult[0][0][0] = 1
    mult[0][1][1] = 1
    mult[1][2][1] = 1
    mult[2][2][2] = 1
    ring = PresentedRing(n, rel, mult, [1, 0, 1], label="ut2(F2)")
    invol = IntMatrix.from_cols([[0, 0, 1], [0, 1, 0], [1, 0, 0]], n)
    return ring, (invol, True)


def suite_esigma(params: Optional[dict] = None) -> dict:
    params = params or {}
    m = _at_least_one(params, "m", 1)
    report = _new_report("esigma")
    q = quaternions()
    rep = esigma_check(q.ring, q.involution)
    _check(report, "quaternions/certified", rep["passes"], rep["items"])
    _check(report, "quaternions/noncommutative",
           not rep["commutative"] and rep["noncommutative_allowed"])

    ring, invol = _upper_triangular_mod2()
    rep = esigma_check(ring, invol)
    _check(report, "upper-triangular-mod2/certified", rep["passes"],
           rep["items"])

    bad = esigma_check(q.ring, (q.ring.identity_matrix(), True))
    item = next(it for it in bad["items"]
                if it["check"] == "involution-reverses-products")
    _check(report, "identity-involution-rejected-with-witness",
           not bad["passes"] and not item["ok"] and item["witness"] is not None,
           item["witness"])

    # the polygon pipeline itself, on a noncommutative ring: nothing along
    # the way may ever appeal to commutativity
    reset_commutativity_uses()
    rh = real_hochschild(m, q, truncation=3)
    msgs = rh.loday_side.validate() + rh.bar_side.validate() + rh.iso_commutes()
    _check(report, f"quaternion-pipeline-m{m}/validates-and-commutes",
           msgs == [], msgs or None)
    group = rh.loday_side.group
    kmax = feasible_degree(rh.loday_side, 1, DENSE_BUDGET)
    for sub in [cls[0] for cls in group.subgroup_classes()]:
        tl = homology_table(rh.loday_side, sub, kmax)
        tb = homology_table(rh.bar_side, sub, kmax)
        _check(report,
               f"quaternion-pipeline-m{m}/H={list(sub)}/tables-agree",
               [_shape(h) for h in tl] == [_shape(h) for h in tb],
               {"polygon": [_shape(h) for h in tl],
                "bar": [_shape(h) for h in tb]})
    _check(report, f"quaternion-pipeline-m{m}/commutativity-never-used",
           commutativity_uses() == 0, {"uses": commutativity_uses()})
    return report


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "counit": suite_counit,
    "psi": suite_psi,
    "xi": suite_xi,
    "xi-diagonal-counterexample": suite_xi_counterexample,
    "weyl": suite_weyl,
    "conjugate-switch": suite_conjugate_switch,
    "one-isotropy": suite_one_isotropy,
    "normal-subgroups": suite_normal_subgroups,
    "two-isotropy": suite_two_isotropy,
    "realhh": suite_realhh,
    "esigma": suite_esigma,
}


def run_suite(name: str, params: Optional[dict] = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name](params)
