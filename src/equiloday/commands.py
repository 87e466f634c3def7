"""The ``group``, ``ring``, ``space``, ``loday`` and ``bench`` subcommands,
which ``cli.main`` imports only when it dispatches one of them.  Exit codes
and output rules are the ``cli`` docstring's.  The simplicial and homology
layers are imported inside the commands that run them."""

from __future__ import annotations

import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .cli import FAILED, OK, UsageError, _emit_csv, _emit_json, resolve_coefficient
from .coeffs import Coefficient, bundled_names, load_bundled
from .exactalg import SizeBudgetExceeded
from .fingroup import (FiniteGroup, make_alternating4, make_cyclic,
                       make_dihedral, make_klein_four, make_quaternion8,
                       make_symmetric, subgroup_as_group)

if TYPE_CHECKING:
    from .loday import SimplicialGRing
    from .simpgset import FinSimpGSet


def _torsion_str(tors) -> str:
    return "*".join(str(t) for t in tors)


def _elements_str(elems) -> str:
    return " ".join(str(e) for e in elems)


# ---------------------------------------------------------------------------
# name resolution


_GROUP_MAKERS = {
    "klein": make_klein_four,
    "v4": make_klein_four,
    "q8": make_quaternion8,
    "a4": make_alternating4,
}


def resolve_group(name: str) -> FiniteGroup:
    """``c<n>``, ``d<order>``, ``s<n>``, a few named groups, or a JSON file
    holding ``{order, mult (row-major), names}``."""
    if name in _GROUP_MAKERS:
        return _GROUP_MAKERS[name]()
    kind, rest = name[:1], name[1:]
    if kind in ("c", "d", "s") and rest.isdigit():
        n = int(rest)
        try:
            if kind == "c":
                return make_cyclic(n)
            if kind == "d":
                return make_dihedral(n)
            return make_symmetric(n)
        except ValueError as e:
            raise UsageError(f"cannot build group {name!r}: {e}")
    if os.path.exists(name):
        try:
            with open(name, encoding="utf-8") as fh:
                return FiniteGroup.from_json_obj(json.load(fh))
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            raise UsageError(f"bad group file {name!r}: {e}")
    raise UsageError(
        f"unknown group {name!r} (want c<n>, d<order>, s<n>, "
        f"{', '.join(sorted(_GROUP_MAKERS))}, or a JSON file)")


def _csv_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise UsageError(f"{flag} wants a comma-separated list of integers")


# ---------------------------------------------------------------------------
# cmd: group


def _subgroup_rows(g: FiniteGroup) -> list[dict]:
    class_of = {s: c for c, cls in enumerate(g.subgroup_classes()) for s in cls}
    rows = []
    for i, s in enumerate(g.all_subgroups()):
        w, _, _ = g.weyl(s)
        rows.append({
            "index": i,
            "order": len(s),
            "elements": list(s),
            "normal": g.is_normal(s),
            "conjugacy_class": class_of[s],
            "normalizer_order": len(g.normalizer(s)),
            "weyl_order": w.order,
            "weyl_abelian": w.is_abelian(),
        })
    return rows


def _element_classes(g: FiniteGroup) -> list[list[int]]:
    seen: set[int] = set()
    classes = []
    for x in g.elements():
        if x in seen:
            continue
        cls = sorted({g.conj(a, x) for a in g.elements()})
        seen.update(cls)
        classes.append(cls)
    return classes


def cmd_group(args, out) -> int:
    if args.action == "list":
        rows = [("c2", 2), ("c3", 3), ("c4", 4), ("c6", 6), ("c12", 12),
                ("klein", 4), ("d4", 4), ("d6", 6), ("d8", 8), ("d12", 12),
                ("s3", 6), ("s4", 24), ("q8", 8), ("a4", 12)]
        if args.format == "json":
            _emit_json([{"name": n, "order": o} for n, o in rows], out)
        else:
            _emit_csv(["name", "order"], rows, out)
        return OK
    g = resolve_group(args.name)
    if args.action == "export":
        _emit_json(g.to_json_obj(), out)
        return OK
    subs = _subgroup_rows(g)
    if args.format == "json":
        _emit_json({
            "label": g.label,
            "order": g.order,
            "abelian": g.is_abelian(),
            "names": list(g.names),
            "center": list(g.center()),
            "element_classes": _element_classes(g),
            "subgroups": subs,
        }, out)
    else:
        _emit_csv(
            ["index", "order", "elements", "normal", "conjugacy_class",
             "normalizer_order", "weyl_order"],
            [(r["index"], r["order"], _elements_str(r["elements"]),
              int(r["normal"]), r["conjugacy_class"], r["normalizer_order"],
              r["weyl_order"]) for r in subs],
            out)
    return OK


# ---------------------------------------------------------------------------
# cmd: ring


def _ring_summary(c: Coefficient) -> dict:
    return {
        "name": c.name,
        "rank": c.ring.ngens,
        "commutative": c.ring.commutative,
        "involution": c.involution is not None,
        "anti": bool(c.involution is not None and c.involution[1]),
        "cyclic_order": c.cyclic_action[0] if c.cyclic_action else 0,
        "description": c.description,
    }


def cmd_ring(args, out) -> int:
    if args.action == "list":
        summaries = [_ring_summary(load_bundled(n)) for n in bundled_names()]
        if args.format == "json":
            _emit_json(summaries, out)
        else:
            _emit_csv(
                ["name", "rank", "commutative", "involution", "anti",
                 "cyclic_order"],
                [(s["name"], s["rank"], int(s["commutative"]),
                  int(s["involution"]), int(s["anti"]), s["cyclic_order"])
                 for s in summaries],
                out)
        return OK
    c = resolve_coefficient(args.name)
    if args.format == "json":
        _emit_json(c.to_json_obj(), out)
    else:
        s = _ring_summary(c)
        _emit_csv(
            ["name", "rank", "commutative", "involution", "anti",
             "cyclic_order"],
            [(s["name"], s["rank"], int(s["commutative"]),
              int(s["involution"]), int(s["anti"]), s["cyclic_order"])],
            out)
    return OK


# ---------------------------------------------------------------------------
# cmd: space


def build_space(args) -> FinSimpGSet:
    from .simpgset import build_polygon
    from .spaces import (build_cayley, build_coset_cayley,
                         build_permutohedron_skeleton, build_rot_circle,
                         build_sigma_circle)
    kind = args.kind
    trunc = args.truncation
    try:
        if kind == "sigma":
            return build_sigma_circle(trunc)
        if kind == "rot":
            if args.n is None:
                raise UsageError("--kind rot needs --n")
            return build_rot_circle(args.n, trunc)
        if kind == "polygon":
            if args.m is None:
                raise UsageError("--kind polygon needs --m")
            return build_polygon(args.m, trunc)
        if kind == "permutohedron":
            if args.n is None:
                raise UsageError("--kind permutohedron needs --n")
            return build_permutohedron_skeleton(args.n, trunc)
        if kind == "cayley":
            if args.group is None or args.gens is None:
                raise UsageError("--kind cayley needs --group and --gens")
            g = resolve_group(args.group)
            return build_cayley(g, _csv_ints(args.gens, "--gens"), trunc)
        if kind == "coset-cayley":
            if args.group is None or args.gens is None or args.sub is None:
                raise UsageError(
                    "--kind coset-cayley needs --group, --sub and --gens")
            g = resolve_group(args.group)
            sub = _csv_ints(args.sub, "--sub")
            mode = None
            if args.isotropy == "normal":
                # the vertex has isotropy H and every edge is free
                h = tuple(sorted(set(sub) | {0}))
                mode = ("normal_with_subgroups", h, ((0,),) if h != (0,) else ())
            return build_coset_cayley(g, sub, _csv_ints(args.gens, "--gens"),
                                      trunc, mode=mode)
    except ValueError as e:
        raise UsageError(f"cannot build space: {e}")
    raise UsageError(f"unknown space kind {kind!r}")


def _space_obj(x: FinSimpGSet, kind: str) -> dict:
    return {
        "kind": kind,
        "group": x.group.label,
        "group_order": x.group.order,
        "mode": [list(p) if isinstance(p, (tuple, list)) else p
                 for p in x.mode],
        "truncation": x.truncation,
        "cells": [{"label": c.label, "dim": c.dim,
                   "isotropy": list(c.isotropy)} for c in x.cells],
        "levels": [{"level": n, "orbits": len(x.levels[n].orbits),
                    "elements": len(x.levels[n].elements())}
                   for n in range(x.truncation + 1)],
    }


def cmd_space(args, out) -> int:
    x = build_space(args)
    errors = x.validate() if args.check else []
    obj = _space_obj(x, args.kind)
    if args.check:
        obj["validation_errors"] = errors
    if args.format == "json":
        _emit_json(obj, out)
    else:
        _emit_csv(["level", "orbits", "elements"],
                  [(lv["level"], lv["orbits"], lv["elements"])
                   for lv in obj["levels"]],
                  out)
        for e in errors:
            print(f"validation: {e}", file=sys.stderr)
    return FAILED if errors else OK


# ---------------------------------------------------------------------------
# cmd: loday


def build_pipeline(x: FinSimpGSet, coeff: Coefficient, inner: str,
                   action: str) -> SimplicialGRing:
    """Pick the pipeline the space's mode calls for and dress the coefficient
    in the matching group action."""
    from .loday import (loday_free, loday_normal_sub, loday_one_isotropy,
                        loday_two_isotropy)
    mode = x.mode[0]
    try:
        if mode == "free":
            g = x.group
            if action == "cyclic":
                rwa = coeff.cyclic_group_action()
                if rwa.group.order != g.order:
                    raise UsageError(
                        f"coefficient {coeff.name!r} carries a cyclic action "
                        f"of order {rwa.group.order}, the space wants {g.order}")
            elif action == "involution":
                if g.order != 2:
                    raise UsageError(
                        "--action involution needs a two-element group")
                rwa = coeff.c2_action()
            else:
                rwa = coeff.trivial_action(g)
            return loday_free(x, rwa, inner=inner)
        if mode in ("one_isotropy", "normal_with_subgroups"):
            h = tuple(x.mode[1])
            if action == "involution":
                if len(h) != 2:
                    raise UsageError(
                        "--action involution needs order-two isotropy")
                rwa = coeff.c2_action()
            elif action == "cyclic":
                rwa = coeff.cyclic_group_action()
                if rwa.group.order != len(h):
                    raise UsageError(
                        f"cyclic action order {rwa.group.order} does not "
                        f"match the isotropy order {len(h)}")
            else:
                sub_g, _ = subgroup_as_group(x.group, h)
                rwa = coeff.trivial_action(sub_g)
            if mode == "one_isotropy":
                return loday_one_isotropy(x, rwa)
            return loday_normal_sub(x, rwa)
        if mode == "two_isotropy":
            if coeff.involution is None:
                raise UsageError(
                    f"coefficient {coeff.name!r} carries no involution; "
                    "the two-isotropy pipeline needs one")
            return loday_two_isotropy(x, coeff)
    except ValueError as e:
        raise UsageError(f"cannot build the pipeline: {e}")
    raise UsageError(f"space mode {mode!r} has no pipeline")


def _pick_subgroups(g: FiniteGroup, which: str) -> list[tuple[int, ...]]:
    if which == "free":
        return [(0,)]
    if which == "all":
        return g.all_subgroups()
    return [cls[0] for cls in g.subgroup_classes()]


def _structured_faces(s: SimplicialGRing, level: int) -> list[list[list]]:
    """Face maps at one level in structured form: for each face, for each
    destination slot, the list of (source slot, twist rows, anti)."""
    faces = []
    for i in range(level + 1):
        f = s.face(level, i)
        matrices = f.src.base.twists.matrices
        faces.append([[[src, matrices[t].data, anti] for (src, t, anti) in lst]
                      for lst in f.targets])
    return faces


def _homology_rows(s: SimplicialGRing, subgroups, max_degree: int,
                   budget: int, with_boundaries: bool) -> tuple[list[dict], dict]:
    """The table rows of every subgroup and, when asked for, the dense
    boundaries of the normalized complex each was read from, keyed by
    subgroup ("over budget" when even degree zero is): one normalized
    complex per subgroup serves both, and its carved lifts are not held."""
    from .homology import LevelComplex, budget_skip, feasible_degree
    kmax = feasible_degree(s, max_degree, budget)
    rows: list[dict] = []
    boundaries = {}
    for sub in subgroups:
        if kmax < 0:
            if with_boundaries:
                boundaries[_elements_str(sub)] = "over budget"
        else:
            chains = LevelComplex(s, sub, max_level=kmax + 1, budget=budget).normalized
            if with_boundaries:
                boundaries[_elements_str(sub)] = [
                    b.to_dense().data for b in chains.boundaries]
            for k in range(kmax + 1):
                h = chains.homology(k)
                rows.append({"subgroup": list(sub), "degree": k,
                             "status": "ok", "free_rank": h.free_rank,
                             "torsion": list(h.torsion)})
        for k in range(kmax + 1, max_degree + 1):
            rows.append({"subgroup": list(sub), "degree": k,
                         "status": "skipped",
                         "reason": budget_skip(s, k, budget)})
    return rows, boundaries


def _max_degree(args, s: SimplicialGRing, default: int) -> int:
    """``--max-degree``, checked against the truncation; when absent,
    ``default`` capped below the top level."""
    k = args.max_degree
    if k is None:
        return min(default, s.top() - 1)
    if k < 0:
        raise UsageError(f"--max-degree must be at least 0, got {k}")
    if k > s.top() - 1:
        raise UsageError(f"--max-degree {k} needs level {k + 1}, "
                         f"beyond truncation {s.top()}")
    return k


def _check_budget(args) -> None:
    """Fill in ``gring.DENSE_BUDGET`` when ``--budget`` is absent (the parser
    leaves it None, so that parsing loads no maths layer), and reject a
    budget below one."""
    if args.budget is None:
        from .gring import DENSE_BUDGET
        args.budget = DENSE_BUDGET
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")


def cmd_loday(args, out) -> int:
    _check_budget(args)
    x = build_space(args)
    coeff = resolve_coefficient(args.coeff)
    s = build_pipeline(x, coeff, args.inner, args.action)
    errors = x.check_mode() + s.validate() if args.check else []
    max_degree = _max_degree(args, s, 2)
    subgroups = _pick_subgroups(x.group, args.subgroups)
    rows, boundaries = _homology_rows(
        s, subgroups, max_degree, args.budget,
        with_boundaries=args.format == "json" and args.emit_complex)
    if args.format == "json":
        obj = {
            "space": _space_obj(x, args.kind),
            "coefficient": coeff.name,
            "pipeline": s.label,
            "inner": args.inner,
            "action": args.action,
            "levels": [{"level": n, "slots": s.levels[n].tensor.nslots,
                        "rank": s.level_rank(n)} for n in range(s.top() + 1)],
            "homology": rows,
        }
        if args.check:
            obj["validation_errors"] = errors
        if args.emit_complex:
            obj["faces"] = {str(n): _structured_faces(s, n)
                            for n in range(1, s.top() + 1)}
            obj["moore_boundaries"] = boundaries
        _emit_json(obj, out)
    else:
        header = ["space", "coefficient", "subgroup", "degree", "free_rank",
                  "torsion", "status"]
        csv_rows = []
        for r in rows:
            if r["status"] == "ok":
                csv_rows.append((args.kind, coeff.name,
                                 _elements_str(r["subgroup"]), r["degree"],
                                 r["free_rank"], _torsion_str(r["torsion"]),
                                 "ok"))
            else:
                csv_rows.append((args.kind, coeff.name,
                                 _elements_str(r["subgroup"]), r["degree"],
                                 "", "", "skipped"))
        _emit_csv(header, csv_rows, out)
        for e in errors:
            print(f"validation: {e}", file=sys.stderr)
    return FAILED if errors else OK


# ---------------------------------------------------------------------------
# cmd: bench


def cmd_bench(args, out) -> int:
    from .homology import LevelComplex
    _check_budget(args)
    t0 = time.perf_counter()
    x = build_space(args)
    coeff = resolve_coefficient(args.coeff)
    t1 = time.perf_counter()
    s = build_pipeline(x, coeff, args.inner, args.action)
    t2 = time.perf_counter()
    max_degree = _max_degree(args, s, 1)
    subgroups = _pick_subgroups(x.group, args.subgroups)
    dims = []
    base_rank = s.levels[0].tensor.base.ngens
    for n in range(s.top() + 1):
        slots = s.levels[n].tensor.nslots
        dims.append({"level": n, "slots": slots, "rank": s.level_rank(n),
                     "predicted": base_rank ** slots})
    hom_dims = []
    t3 = time.perf_counter()
    for sub in subgroups:
        try:
            chains = LevelComplex(s, sub, max_level=max_degree + 1,
                                  budget=args.budget).normalized
            for k, b in enumerate(chains.boundaries, start=1):
                hom_dims.append({"subgroup": _elements_str(sub),
                                 "boundary": k, "rows": b.rows,
                                 "cols": b.cols})
        except SizeBudgetExceeded as e:
            hom_dims.append({"subgroup": _elements_str(sub),
                             "boundary": 0, "rows": -1, "cols": -1})
            print(f"subgroup {_elements_str(sub)}: {e}", file=sys.stderr)
    t4 = time.perf_counter()
    if args.format == "json":
        _emit_json({"levels": dims, "boundaries": hom_dims}, out)
    else:
        _emit_csv(["stage", "level", "slots", "rank", "predicted"],
                  [("level", d["level"], d["slots"], d["rank"],
                    d["predicted"]) for d in dims],
                  out)
        _emit_csv(["stage", "subgroup", "boundary", "rows", "cols"],
                  [("boundary", h["subgroup"], h["boundary"], h["rows"],
                    h["cols"]) for h in hom_dims],
                  out)
    print(f"build space+coefficient: {t1 - t0:.3f}s", file=sys.stderr)
    print(f"build pipeline: {t2 - t1:.3f}s", file=sys.stderr)
    print(f"fixed-point complexes: {t4 - t3:.3f}s", file=sys.stderr)
    return OK


COMMANDS = {"group": cmd_group, "ring": cmd_ring, "space": cmd_space,
            "loday": cmd_loday, "bench": cmd_bench}
