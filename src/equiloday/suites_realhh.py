"""Suites on Real Hochschild homology: realhh (the Loday construction on the
2m-gon against the two-sided bar construction) and esigma (rings with
anti-involution, certified by ``esigma_check``).  ``verify.run_suite``
imports this module when it runs one of them."""

from __future__ import annotations

from typing import Optional, Sequence

from .coeffs import Coefficient, gaussian, load_bundled, quaternions, resolve
from .exactalg import IntMatrix, SparseMatrix
from .gring import DENSE_BUDGET, commutativity_uses, reset_commutativity_uses
from .homology import budget_skip, feasible_degree, homology_tables
from .loday import real_hochschild
from .rings import IDENTITY_TWIST, PresentedRing
from .verify import SuiteParameterError, _check, _new_report, _skip


def _shape(h) -> list:
    return [h.free_rank, list(h.torsion)]


# ---------------------------------------------------------------------------
# suite: realhh (polygon pipeline against the two-sided bar resolution)


def _load_coefficient(spec: str) -> Coefficient:
    """A bundled name or file path (``coeffs.resolve``), for the polygon
    pipeline (which needs the coefficient's involution)."""
    try:
        coeff = resolve(spec)
    except ValueError as e:
        raise SuiteParameterError(str(e)) from e
    if coeff.involution is None:
        raise SuiteParameterError(f"coefficient {spec!r} carries no involution")
    return coeff


def _at_least(params: dict, key: str, default: int, least: int) -> int:
    val = params.get(key, default)
    if val < least:
        raise SuiteParameterError(f"{key} must be at least {least}")
    return val


def _realhh_instance(report: dict, m: int, coeff: Coefficient,
                     truncation: int, max_degree: int, budget: int,
                     subgroups: str):
    tag = f"m={m}/{coeff.name}"
    rh = real_hochschild(m, coeff, truncation)
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
    _tables_agree(report, tag, rh, subs, max_degree, budget,
                  "tables-agree-through-degree-{kmax}")


def _tables_agree(report: dict, tag: str, rh, subs, max_degree: int,
                  budget: int, check: str):
    """Check the two sides' tables agree at every subgroup through the
    largest degree that fits the budget, named ``check`` formatted with
    that degree; every degree past it up to ``max_degree`` is a skip that
    says why."""
    kmax = feasible_degree(rh.loday_side, max_degree, budget)
    if kmax < 0:
        _skip(report, f"{tag}/homology-tables", budget_skip(rh.loday_side, 0, budget))
        return
    for sub in subs:
        tl, tb = homology_tables([rh.loday_side, rh.bar_side], sub, kmax,
                                 budget=budget)
        got = [_shape(h) for h in tl]
        want = [_shape(h) for h in tb]
        _check(report, f"{tag}/H={list(sub)}/{check.format(kmax=kmax)}",
               got == want, {"polygon": got, "bar": want})
    truncation = rh.loday_side.top()
    for d in range(kmax + 1, max_degree + 1):
        if d + 1 > truncation:
            reason = f"degree {d} needs level {d + 1}, beyond truncation {truncation}"
        else:
            reason = budget_skip(rh.loday_side, d, budget)
        _skip(report, f"{tag}/degree-{d}", reason)


def suite_realhh(params: Optional[dict] = None) -> dict:
    """Polygon side against bar side: both validate, the levelwise iso
    commutes with every face and degeneracy, and the fixed-point homology
    tables agree at every subgroup.

    Every ``rh.isos[n]`` is the identity relabeling (slot q to slot q,
    twist 0), and the two sides are one simplicial module up to slot labels
    (equal ``expansion_key``, tested for every bundled coefficient with an
    involution at m = 1, 2, 3).  ``homology_tables``
    then builds one fixed-point complex for both, so "tables agree" guards
    the construction of the two sides through that key equality, not the
    homology; sides whose keys differ still get a complex each and a real
    shape comparison.  Independent evidence for the tables has to come from
    closed forms, such as HH_*(A) for the H = e row.
    """
    params = params or {}
    report = _new_report("realhh")
    ms = [1, 2, 3] if params.get("m") is None else [_at_least(params, "m", 1, 1)]
    if params.get("coeff") is not None:
        coeffs = [_load_coefficient(params["coeff"])]
    else:
        coeffs = [load_bundled("zmod4"), gaussian()]
    truncation = _at_least(params, "truncation", 4, 1)
    max_degree = _at_least(params, "max_degree", 3, 0)
    budget = _at_least(params, "budget", DENSE_BUDGET, 1)
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
# ring-with-anti-involution certification


def esigma_check(ring: PresentedRing, involution: tuple[IntMatrix, bool],
                 fixed_unit: Optional[Sequence[int]] = None) -> dict:
    """Certify the data needed to run the polygon pipeline without
    commutativity: associativity is already enforced by the ring, the
    involution must reverse multiplication and square to the identity, and
    the designated fixed element must be the unit."""
    mtx, anti = involution
    report = {"associative": True, "passes": True, "items": []}

    def item(name, ok, witness=None):
        report["items"].append({"check": name, "ok": ok, "witness": witness})
        if not ok:
            report["passes"] = False

    if not anti:
        # an unflagged involution is fine only when reversing products is
        # invisible, i.e. the ring is commutative
        item("involution-reverses-products", ring.commutative,
             None if ring.commutative else _reversal_witness(ring, mtx))
    else:
        item("involution-reverses-products",
             ring.matrix_is_morphism(mtx, True),
             None if ring.matrix_is_morphism(mtx, True)
             else _reversal_witness(ring, mtx))
    item("involution-squares-to-identity",
         ring.twists.same(ring.twists.intern(mtx @ mtx), IDENTITY_TWIST))
    unit = list(fixed_unit) if fixed_unit is not None else ring.unit_vec()
    item("fixed-element-is-unit",
         ring.reduce_vec(unit) == ring.reduce_vec(ring.unit_vec()))
    item("fixed-element-is-fixed",
         ring.reduce_vec(mtx.apply(unit)) == ring.reduce_vec(unit))
    report["commutative"] = ring.commutative
    report["noncommutative_allowed"] = True
    report["bimodule"] = {
        "left": "block pair (a, b) sends v to a * v * invol(b)",
        "right": "block pair (a, b) sends x to invol(b) * x * a",
    }
    return report


def _reversal_witness(ring: PresentedRing, mtx: IntMatrix):
    for i in range(ring.ngens):
        for j in range(ring.ngens):
            ei = [1 if k == i else 0 for k in range(ring.ngens)]
            ej = [1 if k == j else 0 for k in range(ring.ngens)]
            lhs = ring.reduce_vec(mtx.apply(ring.vec_mul(ei, ej)))
            rhs = ring.reduce_vec(ring.vec_mul(mtx.apply(ej), mtx.apply(ei)))
            if lhs != rhs:
                return {"pair": [i, j], "image_of_product": list(lhs),
                        "product_of_images": list(rhs)}
    return None


# ---------------------------------------------------------------------------
# suite: esigma (anti-involution certification + commutativity-free run)


def _upper_triangular_mod2() -> tuple[PresentedRing, tuple[IntMatrix, bool]]:
    """2x2 upper-triangular matrices over Z/2 with the transpose-flip
    anti-involution; the smallest noncommutative test ring after the
    quaternions."""
    n = 3
    rel = SparseMatrix(n, [[(i, 2)] for i in range(n)])
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
    m = _at_least(params, "m", 1, 1)
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

    bad = esigma_check(q.ring, (IntMatrix.identity(q.ring.ngens), True))
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
    subs = [cls[0] for cls in rh.loday_side.group.subgroup_classes()]
    _tables_agree(report, f"quaternion-pipeline-m{m}", rh, subs, 1, DENSE_BUDGET,
                  "tables-agree")
    _check(report, f"quaternion-pipeline-m{m}/commutativity-never-used",
           commutativity_uses() == 0, {"uses": commutativity_uses()})
    return report


BODIES = {"realhh": suite_realhh, "esigma": suite_esigma}
