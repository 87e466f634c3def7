"""Builders of group tensor powers, norms and the structured maps between them.

A group power has one slot per group element; the flip action permutes the
slots, and the diagonal action also twists each factor by the coefficient
action.  A norm (``NormRing``, tensor induction N_H^G) has one slot per left
coset of H, and G acts by permuting cosets, twisting each factor by the
H-action of the transversal defect.  Every defect is read from one
decomposition g = c(gH) h, ``FiniteGroup.coset_split``, and Weyl
relabelings and conjugation switches share one coset translation
(``_translate``).  A norm's action is multiplicative by
construction whenever its coefficient action is, so it is not checked again.
The maps between these - multiplication out of a power, coset blocking, Weyl
relabelings, conjugation switches and norm projections - are all
``gring.StructuredHom`` routings built here.

The last three sections hold what ``loday`` builds its levels from: the one
rule assigning a norm to each cell of a simplicial G-set
(``_norms_by_isotropy``), the one router every structure map of the Loday
layer is assembled with (``_block_map``), with the reflection order of the
factors landing in one slot (``_ordered_fold``), and the slotwise twist
between the flip and diagonal models (``psi_level``).  Norm projections and
induced level maps share one coset collapse (``_collapse``) and one check
that the coefficient actions agree along it (``_actions_agree``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .fingroup import FiniteGroup, make_cyclic, subgroup_as_group
from .gring import GTensorRing, StructuredHom, TensorRing
from .rings import IDENTITY_TWIST, PresentedRing, RingWithAction

if TYPE_CHECKING:
    from .simpgset import EqMap, FinSimpGSet


# ---------------------------------------------------------------------------
# builders: group tensor powers


def group_power_ring(group: FiniteGroup, base: PresentedRing) -> TensorRing:
    """Tensor power with one slot per group element, labeled by index."""
    return TensorRing(base, tuple(range(group.order)))


def flip_power(group: FiniteGroup, base: PresentedRing) -> GTensorRing:
    """Group permuting its own tensor coordinates by left translation: the
    diagonal power of the trivial action."""
    return diagonal_power(RingWithAction.trivial(group, base))


def diagonal_power(rwa: RingWithAction) -> GTensorRing:
    """Left translation on slots combined with the coefficient action."""
    group = rwa.group
    tr = group_power_ring(group, rwa.ring)
    action = []
    for g in range(group.order):
        ginv = group.inv(g)
        m, a = rwa.acts[g]
        targets = [[(group.mul(ginv, t), m, a)] for t in range(group.order)]
        action.append(StructuredHom(tr, tr, targets, check=False))
    return GTensorRing(group, tr, action)


def flip_to_diagonal(rwa: RingWithAction) -> StructuredHom:
    """The untwisting isomorphism from the flip power to the diagonal power:
    the factor in slot g goes through the action of g."""
    tr = group_power_ring(rwa.group, rwa.ring)
    targets = [[(g, *rwa.acts[g])] for g in range(rwa.group.order)]
    return StructuredHom(tr, tr, targets, check=False)


def single_slot_ring(rwa: RingWithAction) -> GTensorRing:
    """The coefficient itself, as a one-slot tensor ring with its action."""
    tr = TensorRing(rwa.ring, ("*",))
    action = [StructuredHom(tr, tr, [[(0, m, a)]], check=False) for m, a in rwa.acts]
    return GTensorRing(rwa.group, tr, action)


def multiply_out_diagonal(rwa: RingWithAction) -> StructuredHom:
    """Multiply all coordinates of the group power, in element-index order:
    the twisted multiplication out of the flip power at the trivial action.

    Descends to an equivariant map out of the diagonal power.  Demands a
    commutative base: the product forgets the coordinate order.
    """
    return multiply_out_flip(RingWithAction.trivial(rwa.group, rwa.ring))


def multiply_out_flip(rwa: RingWithAction) -> StructuredHom:
    """Twisted total multiplication out of the flip power: the slot-g factor
    goes through the action of g before multiplying, in element-index order."""
    if not rwa.ring.commutative:
        raise ValueError("total multiplication needs a commutative base ring")
    tr = group_power_ring(rwa.group, rwa.ring)
    one = TensorRing(rwa.ring, ("*",))
    targets = [[(g, *rwa.acts[g]) for g in range(rwa.group.order)]]
    return StructuredHom(tr, one, targets, check=False)


# ---------------------------------------------------------------------------
# builders: norms (tensor induction)


class NormRing:
    """Tensor induction of a subgroup ring to the full group.

    Slots are indexed by left cosets of the subgroup, in minimal-element
    order.  The ambient group acts by permuting cosets, twisting each factor
    by the subgroup action of the transversal defect
    c(gC)^-1 g c(C), which lies in the subgroup.
    """

    def __init__(self, group: FiniteGroup, sub_elems: Sequence[int],
                 rwa: RingWithAction):
        self.group = group
        self.sub = tuple(sorted(set(sub_elems)))
        if not group.is_subgroup(self.sub):
            raise ValueError("not a subgroup")
        if rwa.group.order != len(self.sub):
            raise ValueError("coefficient action is over a group of the wrong order")
        self.rwa = rwa
        self._pos = {x: i for i, x in enumerate(self.sub)}
        self.transversal = group.transversal(self.sub)
        self.split = group.coset_split(self.sub)
        self.tensor = TensorRing(rwa.ring, tuple(range(len(self.transversal))))
        action = []
        mul, inv = group.mul, group.inv
        for g in range(group.order):
            # g^-1 c_t = c_s h, so the twist c_t^-1 g c_s is h^-1
            targets = []
            for c in self.transversal:
                s, h = self.split[mul(inv(g), c)]
                targets.append([(s, *self.act_of(inv(h)))])
            action.append(StructuredHom(self.tensor, self.tensor, targets, check=False))
        # Valid by construction when the coefficient action is multiplicative
        # on the subgroup itself, so then not re-validated.  RingWithAction
        # checked it on rwa.group's table, which is the subgroup's when the
        # two agree in ascending ambient order (the numbering _pos reads).
        # Write c_t for transversal[t] and act(h) for the coefficient action.
        # Element g fills target slot t from slot s = [g^-1 c_t], twisted by
        # act(c_t^-1 g c_s).  Composing g after g' fills slot t from
        # s' = [g'^-1 c_s] = [(g g')^-1 c_t], twisted by
        # act(c_t^-1 g c_s) act(c_s^-1 g' c_s') = act(c_t^-1 (g g') c_s')
        # (anti flags multiply with the action): exactly what g g' does.
        # At g = e, s = t and the twist is act(e), the identity.  A table
        # that differs (an order-4 cyclic action on a Klein four isotropy,
        # say) proves nothing, and the induced action is checked in full.
        table = tuple(tuple(self._pos[group.mul(a, b)] for b in self.sub)
                      for a in self.sub)
        self.gt = GTensorRing(group, self.tensor, action,
                              check=rwa.group.table != table)

    def act_of(self, h: int) -> tuple[int, bool]:
        """Coefficient action (twist id, anti) at a subgroup element given by
        ambient index."""
        return self.rwa.acts[self._pos[h]]

    def __repr__(self):
        return (f"NormRing({self.group.label}, |H|={len(self.sub)}, "
                f"{len(self.transversal)} cosets)")


def tensor_induce(group: FiniteGroup, sub_elems: Sequence[int],
                  rwa: RingWithAction) -> NormRing:
    return NormRing(group, sub_elems, rwa)


# ---------------------------------------------------------------------------
# builders: coset blocking


def blocked_ring(group: FiniteGroup, sub_elems: Sequence[int],
                 base: PresentedRing) -> TensorRing:
    """Group power re-indexed by (coset index, subgroup element) pairs."""
    sub = tuple(sorted(set(sub_elems)))
    k = group.order // len(sub)
    return TensorRing(base, tuple((c, h) for c in range(k) for h in sub))


def coset_blocking(group: FiniteGroup, sub_elems: Sequence[int],
                   base: PresentedRing) -> StructuredHom:
    """Relabeling of the group power along g = c(gH) * h: slot g goes to
    (coset of g, c(gH)^-1 g), with no twist."""
    sub = tuple(sorted(set(sub_elems)))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    src = group_power_ring(group, base)
    dst = blocked_ring(group, sub, base)
    routes = [(g, ch, IDENTITY_TWIST, False)
              for g, ch in enumerate(group.coset_split(sub))]
    return StructuredHom.from_routes(src, dst, routes)


def blocked_flip(group: FiniteGroup, sub_elems: Sequence[int],
                 base: PresentedRing) -> GTensorRing:
    """Induced action on the blocked power when the inner blocks carry the
    flip action, (C, h) -> (gC, kh) with k the transversal defect: the
    blocked diagonal of the trivial action."""
    return blocked_diagonal(group, sub_elems, RingWithAction.trivial(group, base))


def blocked_diagonal(group: FiniteGroup, sub_elems: Sequence[int],
                     rwa_full: RingWithAction) -> GTensorRing:
    """Induced action when the inner blocks carry the diagonal action of the
    subgroup: same slot shuffle, each block twisted by its defect's action."""
    sub = tuple(sorted(set(sub_elems)))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    tr = blocked_ring(group, sub, rwa_full.ring)
    transversal = group.transversal(sub)
    split = group.coset_split(sub)
    action = []
    for g in range(group.order):
        routes = []
        for c, rep in enumerate(transversal):
            t, k = split[group.mul(g, rep)]
            m, a = rwa_full.acts[k]
            for h in sub:
                routes.append(((c, h), (t, group.mul(k, h)), m, a))
        action.append(StructuredHom.from_routes(tr, tr, routes, check=False))
    return GTensorRing(group, tr, action)


def blocking_diagonal_certificate(group: FiniteGroup, sub_elems: Sequence[int],
                                  rwa: RingWithAction):
    """Compare the two diagonal-side composites around the blocking map.

    For each group element g the composite through the source diagonal twists
    every factor by act(g); the composite through the blocked diagonal twists
    the factors of block C by act(k_C) with k_C = c(gC)^-1 g c(C).  Both have
    the same slot shuffle.  Returns (defect, witness) where defect lists the
    g with any mismatched block and witness maps (g, coset) -> k_C.
    """
    sub = tuple(sorted(set(sub_elems)))
    xi = coset_blocking(group, sub, rwa.ring)
    src = diagonal_power(rwa)
    dst = blocked_diagonal(group, sub, rwa)
    transversal = group.transversal(sub)
    split = group.coset_split(sub)
    twists = rwa.ring.twists
    defect = []
    witness = {}
    for g in range(group.order):
        left = xi.compose(src.act(g))
        right = dst.act(g).compose(xi)
        assert left.slot_permutation() == right.slot_permutation(), \
            "blocking changed the slot shuffle"
        mism = False
        for c, rep in enumerate(transversal):
            k = witness[(g, c)] = split[group.mul(g, rep)][1]
            if not twists.same(rwa.acts[k][0], rwa.acts[g][0]):
                mism = True
        if mism:
            assert left != right, "twist mismatch did not break the comparison"
            defect.append(g)
        else:
            assert left == right, "matching twists failed to agree"
    return defect, witness


# ---------------------------------------------------------------------------
# builders: Weyl relabeling, conjugation switch


def weyl_relabeling(norm: NormRing, gamma: int) -> StructuredHom:
    """Weyl self-map of a norm: coset translation C -> C gamma^-1, each
    factor twisted by the transversal defect gamma^-1 c(C gamma^-1)^-1 c(C),
    an honest subgroup element.

    Requires gamma to normalize the subgroup and conjugation by gamma to
    fix the coefficient action pointwise, so the translated norm is the
    same norm and the map is a self-map (otherwise the conjugate switch is
    the only option).  The defect twists are forced: the bare untwisted
    translation fails to commute with the ambient action already for an
    index-2 subgroup of the rotation four-group acting by conjugation on
    the Gaussian integers.  On trivially-acting coefficients the twists
    vanish and subgroup elements give the identity, so the map depends on
    gamma only through its coset; in general a subgroup element h acts by
    the inner twist act(h^-1) in every slot.  gamma -> [gamma] is
    multiplicative and each [gamma] commutes with the ambient action and
    with every coefficient morphism.
    """
    g = norm.group
    sub = norm.sub
    if g.conjugate_subgroup(gamma, sub) != sub:
        raise ValueError("element does not normalize the subgroup")
    if not _actions_agree(norm, norm, gamma):
        raise ValueError(
            "conjugation by the element moves the coefficient action; "
            "the relabeling would land on a different norm")
    return _translate(norm, norm, gamma)


def conjugate_switch(norm: NormRing, gamma: int) -> tuple[NormRing, StructuredHom]:
    """Move a norm to the conjugate subgroup gamma H gamma^-1.

    The coefficient is pulled back along x -> gamma^-1 x gamma and each coset
    C goes to C gamma^-1 with the twist act(gamma^-1 c'(C gamma^-1)^-1 c(C)),
    an honest subgroup element.  Equivariant for every gamma and H.
    """
    g = norm.group
    sub = norm.sub
    new_local, new_emb = subgroup_as_group(g, g.conjugate_subgroup(gamma, sub))
    ginv = g.inv(gamma)
    new_rwa = RingWithAction(new_local, norm.rwa.ring,
                             [norm.act_of(g.conj(ginv, x)) for x in new_emb],
                             check=False)
    new_norm = NormRing(g, new_emb, new_rwa)
    return new_norm, _translate(norm, new_norm, gamma)


def _translate(src: NormRing, dst: NormRing, gamma: int) -> StructuredHom:
    """Coset translation C -> C gamma^-1 from src onto dst, whose subgroup
    is the gamma-conjugate of src's.  With c(C) gamma^-1 = c'(T) d, the
    factor of C goes to T twisted by the source action at gamma^-1 d gamma
    = gamma^-1 c'(T)^-1 c(C), an element of src's subgroup."""
    g = src.group
    ginv = g.inv(gamma)
    routes = []
    for c, rep in enumerate(src.transversal):
        t, d = dst.split[g.mul(rep, ginv)]
        routes.append((c, t, *src.act_of(g.conj(ginv, d))))
    return StructuredHom.from_routes(src.tensor, dst.tensor, routes, check=False)


# ---------------------------------------------------------------------------
# builders: projections


def _actions_agree(src: NormRing, dst: NormRing, u: int) -> bool:
    """Whether the source coefficient action at each k of the source
    isotropy equals the target action at u^-1 k u."""
    g = src.group
    same = src.rwa.ring.twists.same
    uinv = g.inv(u)
    for k in src.sub:
        m1, a1 = src.act_of(k)
        m2, a2 = dst.act_of(g.conj(uinv, k))
        if a1 != a2 or not same(m1, m2):
            return False
    return True


def _collapse(src: NormRing, dst: NormRing, u: int
              ) -> list[list[tuple[int, int, int, bool]]]:
    """The coset collapse gK -> guL, for K inside the u-conjugate of L.

    Per target coset T: the (d, C, twist, anti) of each source coset C with
    c(C) u in T, where d = c(T)^-1 c(C) u lies in L and the factor of C is
    twisted by the target action at d.
    """
    g = src.group
    fibers: list[list[tuple[int, int, int, bool]]] = [[] for _ in dst.transversal]
    for c, rep in enumerate(src.transversal):
        t, d = dst.split[g.mul(rep, u)]
        fibers[t].append((d, c, *dst.act_of(d)))
    return fibers


def norm_projection(src: NormRing, dst: NormRing) -> StructuredHom:
    """Induced map of norms along the coset collapse gK -> gL, for K
    inside L.

    The fiber over a target coset T consists of the source cosets inside T
    (``_collapse``), and multiplies in increasing d order.  Demands matching
    coefficients: the source action at each k of K must equal the target
    action at k.
    """
    if src.group.table != dst.group.table:
        raise ValueError("norms live over different groups")
    if not set(src.sub) <= set(dst.sub):
        raise ValueError("source isotropy does not land in the target isotropy")
    if src.rwa.ring != dst.rwa.ring:
        raise ValueError("norms have different base rings")
    if not _actions_agree(src, dst, 0):
        raise ValueError("coefficient actions do not match along the collapse")
    targets = [[(c, m, a) for _, c, m, a in sorted(fiber)]
               for fiber in _collapse(src, dst, 0)]
    return StructuredHom(src.tensor, dst.tensor, targets, check=False)


def tensor_of_actions(group: FiniteGroup,
                      parts: Sequence[tuple[object, GTensorRing]]) -> GTensorRing:
    """Tensor product of equivariant tensor rings over one group.

    Slots become (tag, original label); the action routes each block through
    its own action with twists kept.  Tags must be distinct.
    """
    if not parts:
        raise ValueError("empty tensor product")
    base = parts[0][1].tensor.base
    slots = []
    for tag, gt in parts:
        if gt.group.table != group.table:
            raise ValueError("parts live over different groups")
        if gt.tensor.base != base:
            raise ValueError("parts have different base rings")
        slots.extend((tag, s) for s in gt.tensor.slots)
    tr = TensorRing(base, slots)
    action = []
    for g in range(group.order):
        targets = []
        for tag, gt in parts:
            offset = {s: tr.slot_index((tag, s)) for s in gt.tensor.slots}
            part_map = gt.act(g)
            for t_local, lst in enumerate(part_map.targets):
                tlabel = gt.tensor.slots[t_local]
                targets.append((offset[tlabel],
                                [(offset[gt.tensor.slots[s]], m, a) for s, m, a in lst]))
        ordered = [None] * tr.nslots
        for pos, lst in targets:
            ordered[pos] = lst
        action.append(StructuredHom(tr, tr, ordered, check=False))
    return GTensorRing(group, tr, action, check=False)


# ---------------------------------------------------------------------------
# norm blocks: fold ordering, the block router and induced level maps


def _ordered_fold(contribs: list[tuple[int, int, bool]],
                  pass_pos: Optional[int]) -> list[tuple[int, int, bool]]:
    """Order one target slot's contributions by the reflection rule."""
    if any(a for (_, _, a) in contribs) and pass_pos is None:
        raise ValueError("twisted fold without a pass-through factor")

    def key(entry):
        p, _, a = entry
        return (2 * pass_pos - p if a else p, a, p)

    return sorted(contribs, key=key)


def _block_map(src_tr: TensorRing, dst_tr: TensorRing,
               blocks: Sequence[tuple]) -> StructuredHom:
    """A map of tensor products of norm blocks, assembled block by block.

    Each block is (source tag, target tag, routes, pass-through).  The
    routes are laid out as ``StructuredHom.targets`` between the two blocks:
    ``routes[t]`` lists the (local source slot, twist id, anti) sent into
    local target slot t, and a slot is found as ``(tag, local slot)``.  A
    pass-through block's factor in a target slot is the one that slot's
    anti-twisted factors are reflected through, and each target slot's
    factors are ordered by ``_ordered_fold``.  A slot no route reaches gets
    the unit.
    """
    contribs: list[list[tuple[int, int, bool]]] = [[] for _ in dst_tr.slots]
    pass_pos: list[Optional[int]] = [None] * dst_tr.nslots
    for src_tag, dst_tag, routes, passthrough in blocks:
        for t, lst in enumerate(routes):
            q = dst_tr.slot_index((dst_tag, t))
            for c, m, a in lst:
                p = src_tr.slot_index((src_tag, c))
                contribs[q].append((p, m, a))
                if passthrough:
                    pass_pos[q] = p
    targets = [_ordered_fold(lst, pos) for lst, pos in zip(contribs, pass_pos)]
    return StructuredHom(src_tr, dst_tr, targets, check=False)


def _induced_hom(norms: Sequence[NormRing], src_tr: TensorRing,
                 dst_tr: TensorRing, eq: EqMap) -> StructuredHom:
    """Level map induced by an equivariant map of the underlying levels:
    each orbit's norm collapses onto its image orbit's norm, and passes
    through when the two orbits lie over one cell."""
    blocks = []
    for o, (t, u) in enumerate(eq.entries):
        s_cell, t_cell = eq.src.orbits[o].cell, eq.dst.orbits[t].cell
        routes = [[(c, m, a) for _, c, m, a in fiber]
                  for fiber in _collapse(norms[s_cell], norms[t_cell], u)]
        blocks.append((o, t, routes, s_cell == t_cell))
    return _block_map(src_tr, dst_tr, blocks)


# ---------------------------------------------------------------------------
# norm assignments per isotropy mode


def _norms_by_isotropy(space: FinSimpGSet, ring: PresentedRing,
                       action_on: Optional[Callable[[tuple[int, ...]],
                                                    RingWithAction]] = None
                       ) -> list[NormRing]:
    """One norm per cell: a cell with isotropy K gets N_K^G of the
    coefficient's K-action ``action_on(K)``, built once per distinct K.

    The trivial group always takes the trivial action.  Free mode passes no
    ``action_on``: every cell then gets N_e^G, which ``_check_assignment``
    rejects on a cell that is not free.
    """
    built: dict[tuple[int, ...], NormRing] = {}
    norms = []
    for cell in space.cells:
        k = cell.isotropy if action_on else (0,)
        if k not in built:
            built[k] = tensor_induce(
                space.group, k,
                RingWithAction.trivial(make_cyclic(1), ring) if k == (0,)
                else action_on(k))
        norms.append(built[k])
    return norms


def _subgroup_rwa(group: FiniteGroup, sub: Sequence[int],
                  act_of: Callable[[int], tuple[int, bool]],
                  ring: PresentedRing) -> RingWithAction:
    """Coefficient action over a subgroup given elementwise, local order."""
    local, emb = subgroup_as_group(group, sub)
    return RingWithAction(local, ring, [act_of(x) for x in emb])


def _check_assignment(space: FinSimpGSet, norms: Sequence[NormRing]):
    if len(norms) != len(space.cells):
        raise ValueError("one norm per cell required")
    base = norms[0].rwa.ring
    for cell, norm in zip(space.cells, norms):
        if norm.sub != cell.isotropy:
            raise ValueError("norm for cell %s has the wrong isotropy"
                             % cell.label)
        if norm.rwa.ring != base:
            raise ValueError("all norms must share one base ring")
    for cell, norm in zip(space.cells, norms):
        for (c2, _, u) in cell.faces:
            if not _actions_agree(norm, norms[c2], u):
                raise ValueError(
                    "coefficient actions of cells %s -> %s do not match "
                    "along the face" % (cell.label, space.cells[c2].label))


# ---------------------------------------------------------------------------
# flip <-> diagonal transport


def psi_level(level: GTensorRing, norms: Sequence[NormRing],
              rwa: RingWithAction, invert: bool = False) -> StructuredHom:
    """Slotwise twist by the ambient action of each slot's coset
    representative: the interleaving between flip and diagonal models."""
    tr = level.tensor
    targets = []
    for (o, c) in tr.slots:
        rep = norms[o].transversal[c]
        g = rwa.group.inv(rep) if invert else rep
        m, a = rwa.acts[g]
        targets.append([(tr.slot_index((o, c)), m, a)])
    return StructuredHom(tr, tr, targets, check=False)
