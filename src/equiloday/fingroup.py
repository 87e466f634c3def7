"""Finite groups as dense multiplication tables.

Elements of a group of order n are the indices 0..n-1 and index 0 is always
the identity.  Everything downstream indexes tensor factors, coset labels
and twisting data by these integers, so the table is the whole group: two
groups built the same way are equal as objects.

Stock constructions:

* ``make_cyclic(n)``            rotations, ``g^a * g^b = g^(a+b)``
* ``make_dihedral(2*m)``        order 2m: rotations 0..m-1, reflections m..2m-1
* ``make_symmetric(n)``         permutations of {0..n-1} in lexicographic order
* ``direct_product(G, H)``      pairs in lexicographic order

Validation checks the full associativity cube, so construction is guarded to
order <= 48.  That bound covers every group this package ever touches; raise
it only with a faster checker.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Iterable, Optional, Sequence

MAX_ORDER = 48


class FiniteGroup:
    """Immutable multiplication table plus printable element names.

    Since the table never changes, derived data is computed once per group:
    the generating sequence, and per subgroup its transversal, coset index
    and coset split (``_coset_data``) and its ``subgroup_as_group`` table.
    Callers get fresh lists or immutable tuples, never the cached lists.
    """

    def __init__(self, table: Sequence[Sequence[int]],
                 names: Optional[Sequence[str]] = None,
                 label: str = "G", check: bool = True):
        n = len(table)
        if n == 0:
            raise ValueError("empty group")
        _guard_order(n)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        self.label = label
        if names is None:
            names = [f"g{i}" for i in range(n)]
            names[0] = "e"
        if len(names) != n or len(set(names)) != n:
            raise ValueError("need one distinct name per element")
        self.names = tuple(names)
        if check:
            self._validate()
        self._inv = tuple(self._find_inverse(a) for a in range(n))
        self._gens: Optional[tuple[int, ...]] = None
        self._cosets: dict[tuple[int, ...], tuple] = {}
        self._as_group: dict[tuple[int, ...], FiniteGroup] = {}

    def _validate(self):
        n = self.order
        rng = range(n)
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("table is not square over element indices")
        for a in rng:
            if self.table[0][a] != a or self.table[a][0] != a:
                raise ValueError("index 0 is not a two-sided identity")
        for a in rng:
            # rows and columns must be permutations (cancellation)
            if len(set(self.table[a])) != n:
                raise ValueError("left translation is not a bijection")
            if len({self.table[b][a] for b in rng}) != n:
                raise ValueError("right translation is not a bijection")
        t = self.table
        for a in rng:
            ta = t[a]
            for b in rng:
                tab = ta[b]
                tb = t[b]
                row = t[tab]
                for c in rng:
                    if row[c] != ta[tb[c]]:
                        raise ValueError("associativity fails")

    def _find_inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == 0:
                if self.table[b][a] != 0:
                    raise ValueError("one-sided inverse")
                return b
        raise ValueError("no inverse")

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self._inv[g]]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"

    # -- subgroups ----------------------------------------------------------

    def subgroup_generated(self, gens: Iterable[int]) -> tuple[int, ...]:
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
                y = self.table[g][x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def is_subgroup(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def all_subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup, sorted by (order, element tuple).

        Closure-of-generators search; fine for the orders this package uses.
        """
        found = {(0,)}
        frontier = [(0,)]
        while frontier:
            h = frontier.pop()
            for g in range(1, self.order):
                if g in h:
                    continue
                bigger = self.subgroup_generated(set(h) | {g})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda h: (len(h), h))

    def subgroup_classes(self) -> list[list[tuple[int, ...]]]:
        """Conjugacy classes of subgroups, in ``all_subgroups`` order: classes
        by their first member, and the members of each class in that order."""
        subs = self.all_subgroups()
        seen: set[tuple[int, ...]] = set()
        classes = []
        for h in subs:
            if h in seen:
                continue
            orbit = {self.conjugate_subgroup(g, h) for g in range(self.order)}
            seen |= orbit
            classes.append([k for k in subs if k in orbit])
        return classes

    def conjugate_subgroup(self, g: int, sub: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(self.conj(g, x) for x in sub))

    def are_conjugate_subgroups(self, a: Sequence[int], b: Sequence[int]) -> Optional[int]:
        ta, tb = tuple(sorted(a)), tuple(sorted(b))
        for g in range(self.order):
            if self.conjugate_subgroup(g, ta) == tb:
                return g
        return None

    def normalizer(self, sub: Sequence[int]) -> tuple[int, ...]:
        h = tuple(sorted(sub))
        return tuple(g for g in range(self.order) if self.conjugate_subgroup(g, h) == h)

    def centralizer(self, sub: Sequence[int]) -> tuple[int, ...]:
        return tuple(g for g in range(self.order)
                     if all(self.table[g][x] == self.table[x][g] for x in sub))

    def center(self) -> tuple[int, ...]:
        return self.centralizer(range(self.order))

    def is_normal(self, sub: Sequence[int]) -> bool:
        return len(self.normalizer(sub)) == self.order

    # -- cosets -------------------------------------------------------------

    def _coset_data(self, sub: Sequence[int]) -> tuple:
        """(transversal, coset index, coset split) of ``sub``, all tuples,
        computed on first request.  Scanning g upwards, the first element
        of each left coset met is its minimal element."""
        h = tuple(sorted(sub))
        data = self._cosets.get(h)
        if data is None:
            reps: list[int] = []
            index = [-1] * self.order
            for g in range(self.order):
                if index[g] < 0:
                    for x in h:
                        index[self.table[g][x]] = len(reps)
                    reps.append(g)
            split = tuple((t, self.table[self._inv[reps[t]]][g])
                          for g, t in enumerate(index))
            data = self._cosets[h] = (tuple(reps), tuple(index), split)
        return data

    def transversal(self, sub: Sequence[int]) -> tuple[int, ...]:
        """Minimal-element representative per left coset; identity first.
        Left cosets are numbered in this order."""
        return self._coset_data(sub)[0]

    def coset_index(self, sub: Sequence[int]) -> list[int]:
        """For each g, the number of its left coset gH."""
        return list(self._coset_data(sub)[1])

    def coset_split(self, sub: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """For each g, the pair (t, h) with g = transversal(sub)[t] * h:
        the number t of gH and the defect h = c(gH)^-1 g, which lies in sub.
        Norms, coset blockings and coset collapses all read it."""
        return self._coset_data(sub)[2]

    # -- quotients ----------------------------------------------------------

    def quotient(self, normal: Sequence[int]) -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup; returns (G/N, projection list)."""
        if not self.is_subgroup(normal):
            raise ValueError("not a subgroup")
        if not self.is_normal(normal):
            raise ValueError("subgroup is not normal")
        reps = self.transversal(normal)
        lookup = self.coset_index(normal)
        k = len(reps)
        table = [[lookup[self.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
        names = [f"[{self.names[r]}]" for r in reps]
        q = FiniteGroup(table, names, label=f"{self.label}/N")
        return q, lookup

    def weyl(self, sub: Sequence[int]) -> tuple["FiniteGroup", tuple[int, ...], list[int]]:
        """N_G(H)/H together with its transversal inside G.

        Returns (W, reps, to_w) where reps[i] in N_G(H) represents the i-th
        Weyl element and to_w maps each normalizer element to its class.
        """
        h = tuple(sorted(sub))
        nz = self.normalizer(h)
        pos = {g: i for i, g in enumerate(nz)}
        sub_table = [[pos[self.table[a][b]] for b in nz] for a in nz]
        names = [self.names[g] for g in nz]
        ngroup = FiniteGroup(sub_table, names, label="N")
        h_in_n = tuple(pos[x] for x in h)
        w, lookup = ngroup.quotient(h_in_n)
        reps_in_g = tuple(nz[r] for r in ngroup.transversal(h_in_n))
        to_w = [-1] * self.order
        for g in nz:
            to_w[g] = lookup[pos[g]]
        return w, reps_in_g, to_w

    # -- generators -----------------------------------------------------------

    def generating_sequence(self) -> tuple[int, ...]:
        """A short generating list, found greedily by subgroup growth.

        Computed once per group (the table is immutable)."""
        if self._gens is None:
            gens: list[int] = []
            cur = (0,)
            while len(cur) < self.order:
                best = None
                for g in range(1, self.order):
                    if g in cur:
                        continue
                    grown = self.subgroup_generated(gens + [g])
                    if best is None or len(grown) > len(best[1]):
                        best = (g, grown)
                gens.append(best[0])
                cur = best[1]
            self._gens = tuple(gens)
        return self._gens

    def generator_pairs(self) -> list[tuple[int, int]]:
        """The pairs (g, s), g in G and s in ``generating_sequence()``, on
        which a map rho on the elements must be tested for multiplicativity.

        Let rho take values in a monoid (composition of maps) whose equality
        is a congruence: x = x' implies x y = x' y and y x = y x'.  If
        rho(e) = id and rho(g s) = rho(g) rho(s) for all such pairs, then
        rho(g h) = rho(g) rho(h) for all g, h.  Proof by induction on the
        length of h as a word in the generators (every element is one: in a
        finite group s^-1 is a positive power of s).  Length 0 is
        rho(g e) = rho(g) = rho(g) id.  For h = h' s,
        rho(g h) = rho((g h') s) = rho(g h') rho(s)
                 = (rho(g) rho(h')) rho(s)      (induction, congruence)
                 = rho(g) (rho(h') rho(s))      (associativity)
                 = rho(g) rho(h)                (the pair (h', s), congruence).
        This cuts a multiplicativity check from |G|^2 tests to |G| |S|.
        """
        return [(g, s) for s in self.generating_sequence()
                for g in range(self.order)]

    # -- serialization --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"order": self.order,
                "mult": [v for row in self.table for v in row],
                "names": list(self.names)}

    @staticmethod
    def from_json_obj(obj: dict) -> "FiniteGroup":
        n = int(obj["order"])
        flat = obj["mult"]
        if len(flat) != n * n:
            raise ValueError("mult length must be order^2")
        table = [flat[i * n:(i + 1) * n] for i in range(n)]
        return FiniteGroup(table, obj.get("names"), label=obj.get("label", "G"))


# ---------------------------------------------------------------------------
# stock groups


def _guard_order(order: int) -> None:
    """Refuse an order past ``MAX_ORDER``; the makers call it before they
    build a table of order^2 entries."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the validation guard ({MAX_ORDER})")


def make_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    _guard_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["e"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    return FiniteGroup(table, names, label=f"C{n}")


def make_dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2m.

    Index layout: r^a at a for 0 <= a < m, then r^a s at m + a.  With
    srs = r^-1 the product rule is
    (r^a s^b)(r^c s^d) = r^(a+c) s^d if b = 0, else r^(a-c) s^(1+d).
    Order 2 is the cyclic group C2 written dihedrally.
    """
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    _guard_order(order)
    m = order // 2

    def idx(a: int, b: int) -> int:
        return a % m + (m if b % 2 else 0)

    table = [[0] * order for _ in range(order)]
    for a in range(m):
        for b in range(2):
            for c in range(m):
                for d in range(2):
                    if b == 0:
                        e = idx(a + c, d)
                    else:
                        e = idx(a - c, 1 + d)
                    table[idx(a, b)][idx(c, d)] = e

    def nm(a: int, b: int) -> str:
        a %= m
        if b == 0:
            return "e" if a == 0 else ("r" if a == 1 else f"r{a}")
        return "s" if a == 0 else ("rs" if a == 1 else f"r{a}s")

    names = [nm(a, 0) for a in range(m)] + [nm(a, 1) for a in range(m)]
    return FiniteGroup(table, names, label=f"D{order}")


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {0..n-1}; one-line tuples in lexicographic order,
    composed as (p*q)(x) = p(q(x)).  Guarded to n <= 4 by the order cap."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ORDER:  # n! is past the guard, and may be too long to print
        raise ValueError(f"order {n}! exceeds the validation guard ({MAX_ORDER})")
    _guard_order(factorial(n))
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]

    def cycle_name(p: tuple[int, ...]) -> str:
        seen = set()
        parts = []
        for start in range(n):
            if start in seen or p[start] == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            x = p[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = p[x]
            parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
        return "".join(parts) if parts else "e"

    names = [cycle_name(p) for p in perms]
    return FiniteGroup(table, names, label=f"S{n}")


def symmetric_one_line(n: int) -> list[tuple[int, ...]]:
    """The permutation tuples in the index order used by make_symmetric."""
    return sorted(permutations(range(n)))


def subgroup_as_group(g: FiniteGroup, elems: Sequence[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """A subgroup repackaged with its own 0-based table.

    Returns (H, emb) where emb[i] is the ambient index of H's element i.
    Elements are taken in ascending ambient order, so the identity stays
    at index 0 and two calls with the same subgroup agree; they return the
    same immutable H, built once per subgroup.
    """
    emb = tuple(sorted(set(elems)))
    sub = g._as_group.get(emb)
    if sub is None:
        if not g.is_subgroup(emb):
            raise ValueError("not a subgroup")
        pos = {x: i for i, x in enumerate(emb)}
        table = [[pos[g.table[a][b]] for b in emb] for a in emb]
        names = [g.names[x] for x in emb]
        # no re-validation needed: is_subgroup gives the identity and
        # closure, and a finite closed set containing the identity has
        # inverses (the powers of any element repeat, so some power is its
        # inverse); associativity and cancellation are inherited from g; and
        # the sorted emb keeps the identity, ambient index 0, at index 0
        sub = g._as_group[emb] = FiniteGroup(
            table, names, label=f"{g.label}|sub{len(emb)}", check=False)
    return sub, emb


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n = a.order * b.order

    def idx(x: int, y: int) -> int:
        return x * b.order + y

    table = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            for x2 in range(a.order):
                for y2 in range(b.order):
                    table[idx(x1, y1)][idx(x2, y2)] = idx(a.table[x1][x2], b.table[y1][y2])
    names = [f"({a.names[x]},{b.names[y]})" for x in range(a.order) for y in range(b.order)]
    return FiniteGroup(table, names, label=f"{a.label}x{b.label}")


def make_klein_four() -> FiniteGroup:
    return direct_product(make_cyclic(2), make_cyclic(2))


def make_quaternion8() -> FiniteGroup:
    """Quaternion group {1, i, j, k, -1, -i, -j, -k} with that index order."""
    # encode q = (sign, axis) with axis in 0..3 for 1,i,j,k
    mul_axis = [[(0, 0), (0, 1), (0, 2), (0, 3)],
                [(0, 1), (1, 0), (0, 3), (1, 2)],
                [(0, 2), (1, 3), (1, 0), (0, 1)],
                [(0, 3), (0, 2), (1, 1), (1, 0)]]

    def idx(sign: int, axis: int) -> int:
        return axis + (4 if sign else 0)

    table = [[0] * 8 for _ in range(8)]
    for s1 in range(2):
        for a1 in range(4):
            for s2 in range(2):
                for a2 in range(4):
                    s3, a3 = mul_axis[a1][a2]
                    table[idx(s1, a1)][idx(s2, a2)] = idx((s1 + s2 + s3) % 2, a3)
    names = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    return FiniteGroup(table, names, label="Q8")


def make_dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: powers of a (order 2m) and a^i*b, with
    b^2 = a^m and b*a*b^-1 = a^-1.  m = 2 gives the quaternion group."""
    if m < 1:
        raise ValueError("m must be at least 1")
    two_m = 2 * m

    def idx(i: int, j: int) -> int:
        return i % two_m + two_m * j

    table = [[0] * (4 * m) for _ in range(4 * m)]
    for i in range(two_m):
        for j in range(2):
            for k in range(two_m):
                for l in range(2):
                    if j == 0:
                        r, s = i + k, l
                    elif l == 0:
                        r, s = i - k, 1
                    else:
                        r, s = i - k + m, 0
                    table[idx(i, j)][idx(k, l)] = idx(r, s)
    names = ["e"] + ["a%d" % i for i in range(1, two_m)]
    names += ["b"] + ["a%db" % i for i in range(1, two_m)]
    return FiniteGroup(table, names, label="Dic%d" % m)


def make_alternating4() -> FiniteGroup:
    """Even permutations of {0..3}, one-line tuples in lexicographic order."""
    perms = []
    for p in sorted(permutations(range(4))):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inv % 2 == 0:
            perms.append(p)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
    s4 = make_symmetric(4)
    s4_index = {p: i for i, p in enumerate(sorted(permutations(range(4))))}
    names = [s4.names[s4_index[p]] for p in perms]
    return FiniteGroup(table, names, label="A4")
