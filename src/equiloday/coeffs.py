"""Coefficient rings: bundled data files and programmatic constructors.

A coefficient file describes one presented ring, optionally with a
distinguished involution (an anti-automorphism squaring to the identity,
the input datum for the involutive pipelines) and optionally with a cyclic
action (a single matrix generating an action of a cyclic group, used by the
twisted-nerve examples).

Schema, JSON object with keys:

* ``name``         short identifier
* ``description``  one line of prose
* ``generators``   list of additive generator names
* ``relations``    list of relation columns (each a vector over generators)
* ``mult``         mult[i][j] = the vector of e_i * e_j
* ``unit``         vector of the multiplicative identity
* ``commutative``  stored flag, verified against the table on load
* ``involution``   null or {"matrix": rows, "anti": bool}
* ``cyclic_action`` null or {"order": n, "matrix": rows}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .exactalg import IntMatrix, SparseMatrix
from .fingroup import FiniteGroup, make_cyclic
from .gring import IDENTITY_TWIST, PresentedRing, RingWithAction


@dataclass
class Coefficient:
    name: str
    description: str
    ring: PresentedRing
    involution: Optional[tuple[IntMatrix, bool]]
    cyclic_action: Optional[tuple[int, IntMatrix]]

    def c2_action(self) -> RingWithAction:
        """The two-element group acting through the involution (identity
        involution when none is declared)."""
        c2 = make_cyclic(2)
        if self.involution is None:
            return RingWithAction.trivial(c2, self.ring)
        m, anti = self.involution
        return RingWithAction(c2, self.ring, [(IDENTITY_TWIST, False),
                                              (self.ring.twists.intern(m), anti)])

    def trivial_action(self, group: FiniteGroup) -> RingWithAction:
        return RingWithAction.trivial(group, self.ring)

    def cyclic_group_action(self) -> RingWithAction:
        if self.cyclic_action is None:
            raise ValueError(f"coefficient {self.name} declares no cyclic action")
        order, m = self.cyclic_action
        cn = make_cyclic(order)
        twists = self.ring.twists
        step = twists.intern(m)
        acts = [(IDENTITY_TWIST, False)]
        cur = step
        for _ in range(order - 1):
            acts.append((cur, False))
            cur = twists.product(step, cur)
        return RingWithAction(cn, self.ring, acts)

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "description": self.description,
            "generators": list(self.ring.gen_names),
            "relations": self.ring.ab.relations.to_dense().columns(),
            "mult": [[list(cell) for cell in row] for row in self.ring.mult],
            "unit": list(self.ring.unit),
            "commutative": self.ring.commutative,
            "involution": None,
            "cyclic_action": None,
        }
        if self.involution is not None:
            m, anti = self.involution
            obj["involution"] = {"matrix": m.data, "anti": anti}
        if self.cyclic_action is not None:
            order, m = self.cyclic_action
            obj["cyclic_action"] = {"order": order, "matrix": m.data}
        return obj


def coefficient_from_obj(obj: dict) -> Coefficient:
    gens = obj["generators"]
    n = len(gens)
    rel_cols = [list(map(int, c)) for c in obj.get("relations", [])]
    if any(len(c) != n for c in rel_cols):
        raise ValueError(f"{obj['name']}: every relation column needs {n} entries, "
                         f"one per generator")
    ring = PresentedRing(n, SparseMatrix.from_cols(rel_cols, n), obj["mult"], obj["unit"],
                         gen_names=gens, label=obj["name"])
    if "commutative" in obj and bool(obj["commutative"]) != ring.commutative:
        raise ValueError(f"{obj['name']}: stored commutativity flag is wrong")
    involution = None
    if obj.get("involution"):
        m = IntMatrix.from_rows(obj["involution"]["matrix"])
        anti = bool(obj["involution"]["anti"])
        if not ring.matrix_is_morphism(m, anti):
            raise ValueError(f"{obj['name']}: involution is not a ring "
                             f"{'anti-' if anti else ''}morphism")
        if not ring.twists.same(ring.twists.intern(m @ m), IDENTITY_TWIST):
            raise ValueError(f"{obj['name']}: involution does not square to the identity")
        involution = (m, anti)
    cyclic_action = None
    if obj.get("cyclic_action"):
        order = int(obj["cyclic_action"]["order"])
        m = IntMatrix.from_rows(obj["cyclic_action"]["matrix"])
        if not ring.matrix_is_morphism(m, False):
            raise ValueError(f"{obj['name']}: cyclic action is not a ring morphism")
        cur = m
        for _ in range(order - 1):
            cur = m @ cur
        if not ring.twists.same(ring.twists.intern(cur), IDENTITY_TWIST):
            raise ValueError(f"{obj['name']}: cyclic action has the wrong order")
        cyclic_action = (order, m)
    return Coefficient(obj["name"], obj.get("description", ""), ring,
                       involution, cyclic_action)


def bundled_names() -> list[str]:
    files = resources.files("equiloday.data.coefficients")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Coefficient:
    files = resources.files("equiloday.data.coefficients")
    path = files / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"no bundled coefficient named {name!r}; "
                         f"available: {', '.join(bundled_names())}") from None
    return coefficient_from_obj(json.loads(text))


def load_file(path: str) -> Coefficient:
    with open(path, "r", encoding="utf-8") as fh:
        return coefficient_from_obj(json.load(fh))


# -- programmatic constructors (used across the test corpus) ------------------


def integers() -> Coefficient:
    return load_bundled("z")


def gaussian() -> Coefficient:
    return load_bundled("gaussian")


def quaternions() -> Coefficient:
    return load_bundled("quaternion")
