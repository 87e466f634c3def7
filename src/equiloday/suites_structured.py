"""Suites on structured maps of norms and tensor powers: counit, psi, xi,
xi-diagonal-counterexample, weyl and conjugate-switch.  They need neither
the simplicial layers nor homology; ``verify.run_suite`` imports this
module when it runs one of them."""

from __future__ import annotations

from typing import Optional

from .coeffs import Coefficient, gaussian, load_bundled
from .fingroup import (FiniteGroup, direct_product, make_alternating4,
                       make_cyclic, make_dicyclic, make_dihedral,
                       make_klein_four, make_quaternion8, make_symmetric,
                       subgroup_as_group)
from .gring import StructuredHom, is_equivariant
from .norms import (NormRing, blocked_diagonal, blocked_flip,
                    blocking_diagonal_certificate, conjugate_switch,
                    coset_blocking, diagonal_power, flip_power,
                    flip_to_diagonal, multiply_out_diagonal, multiply_out_flip,
                    single_slot_ring, tensor_induce, weyl_relabeling)
from .rings import IDENTITY_TWIST, PresentedRing, RingWithAction
from .verify import SuiteParameterError, _check, _new_report


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
    invol = (coeff.ring.twists.intern(m), anti)
    acts = [(IDENTITY_TWIST, False) if g in even else invol
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
                if coeff.ring.twists.same(coeff.ring.twists.intern(m), IDENTITY_TWIST):
                    continue
                out.append((glabel, rlabel + "/sign",
                            _index_two_action(g, even, coeff)))
    return out


def _norm_coefficients(group: FiniteGroup, sub: tuple[int, ...],
                       gz: Coefficient):
    """Actions of a subgroup on the Gaussian coefficient ``gz``: trivial
    always, the involution action where an index-2 part exists to grade it."""
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
        # basis tuple of the expanded power.  Both are folded left to right
        # over the elements, and each prefix of a tuple is folded once.
        bad_d = bad_f = None
        folds = {(): (None, None)}
        for idx in flip.tensor.basis_tuples():
            for g in group.elements():
                if idx[:g + 1] not in folds:
                    want_d, want_f = folds[idx[:g]]
                    e = [1 if k == idx[g] else 0 for k in range(ring.ngens)]
                    te = rwa.act_matrix(g).column(idx[g])
                    folds[idx[:g + 1]] = (
                        e if want_d is None else ring.vec_mul(want_d, e),
                        te if want_f is None else ring.vec_mul(want_f, te))
            want_d, want_f = folds[idx]
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
    blocks: dict[int, list] = {}
    for t, lst in enumerate(hom.targets):
        c, h = hom.dst.slots[t]
        barred = any(not ring.twists.same(m, IDENTITY_TWIST) for _, m, _ in lst)
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
    params = params or {}
    _pick([("s3",)], params.get("group"))  # its one instance lives on S3
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
    g, classes = n.group, n.rwa.ring.twists.classes

    def act(h):
        m, anti = n.act_of(h)
        return classes[m], anti

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
    conj = gz.ring.twists.intern(gz.involution[0])
    for glabel, g in _pick(_weyl_roster(), params.get("group")):
        for sub in g.all_subgroups():
            normal = g.normalizer(sub)
            for alabel, rwa in _norm_coefficients(g, sub, gz):
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
    gz = gaussian()
    roster = [("s3", make_symmetric(3)), ("d6", make_dihedral(12))]
    for glabel, g in _pick(roster, params.get("group")):
        for sub in g.all_subgroups():
            for alabel, rwa in _norm_coefficients(g, sub, gz):
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


BODIES = {"counit": suite_counit, "psi": suite_psi, "xi": suite_xi,
          "xi-diagonal-counterexample": suite_xi_counterexample,
          "weyl": suite_weyl, "conjugate-switch": suite_conjugate_switch}
