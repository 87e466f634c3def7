"""Stock finite simplicial G-sets beyond the 2m-gon.

Each builder lays out the nondegenerate cells of one space, as
``simpgset.FinSimpGSet`` stores them, and names its isotropy mode: the
sigma circle (two fixed vertices over C_2), Cayley graphs of a group, the
rotated n-gon, Cayley-style graphs on a coset space, and the barycentric
permutohedron 1-skeleton.  The 2m-gon itself is ``simpgset.build_polygon``.
"""

from typing import Optional, Sequence

from .fingroup import FiniteGroup, make_cyclic, make_symmetric, symmetric_one_line
from .simpgset import Cell, FinSimpGSet


def build_sigma_circle(truncation: int = 4) -> FinSimpGSet:
    """Two fixed vertices joined by a free pair of edges, over C_2.

    The one-point compactification of the sign line: same shape as the
    2-gon, with the order-two group acting by the flip.
    """
    g = make_cyclic(2)
    full = (0, 1)
    cells = [
        Cell("x", 0, full),
        Cell("y", 1, (0,), ((2, (0,), 0), (0, (0,), 0))),
        Cell("x'", 0, full),
    ]
    return FinSimpGSet(g, cells, truncation,
                       ("two_isotropy", full, full, ((0, 0), (1, 1))))


def build_cayley(group: FiniteGroup, gens: Sequence[int],
                 truncation: int = 4) -> FinSimpGSet:
    """Cayley graph: free vertices, one free edge orbit per generator.

    Loops coming from involutions are kept as genuine edge orbits.  The
    edge for generator gamma runs from each vertex v to v*gamma; the
    translated end sits at face index 1, so in any complex built on top
    the twist shows up in the last face of each level.
    """
    gens = tuple(gens)
    if 0 in gens:
        raise ValueError("the identity is not allowed as a generator")
    if len(set(gens)) != len(gens):
        raise ValueError("repeated generator")
    if group.subgroup_generated(gens) != tuple(range(group.order)):
        raise ValueError("generators do not generate the group")
    cells = [Cell("v", 0, (0,))]
    for gamma in gens:
        cells.append(Cell("y%d" % gamma, 1, (0,),
                          ((0, (0,), 0), (0, (0,), gamma))))
    return FinSimpGSet(group, cells, truncation, ("free",))


def build_rot_circle(n: int, truncation: int = 4) -> FinSimpGSet:
    """Circle with n vertices rotated by the cyclic group of order n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    g = make_cyclic(n)
    if n == 1:
        cells = [Cell("v", 0, (0,)),
                 Cell("y1", 1, (0,), ((0, (0,), 0), (0, (0,), 0)))]
        return FinSimpGSet(g, cells, truncation, ("free",))
    return build_cayley(g, (1,), truncation)


def build_coset_cayley(group: FiniteGroup, sub: Sequence[int],
                       gens: Sequence[int], truncation: int = 4,
                       mode: Optional[tuple] = None) -> FinSimpGSet:
    """Cayley-style graph on a coset space: vertices G/H, free edges.

    The edge for gamma runs from gH to g*gamma*H.  Useful as a test bed for
    the norm projections between nontrivial isotropy levels.
    """
    sub = tuple(sorted(sub))
    if not group.is_subgroup(sub):
        raise ValueError("not a subgroup")
    gens = tuple(gens)
    cells = [Cell("v", 0, sub)]
    for gamma in gens:
        if gamma == 0:
            raise ValueError("the identity is not allowed as a generator")
        cells.append(Cell("y%d" % gamma, 1, (0,),
                          ((0, (0,), 0), (0, (0,), gamma))))
    if mode is None:
        mode = ("one_isotropy", sub)
    return FinSimpGSet(group, cells, truncation, mode)


def build_permutohedron_skeleton(n: int, truncation: int = 4) -> FinSimpGSet:
    """Barycentric model of the permutohedron 1-skeleton, n in {2, 3, 4}.

    Vertices form a free orbit; the midpoint of the edge that swaps the
    values k and k+1 is stabilized by the transposition (k, k+1); the
    half-edges from vertices to midpoints are free, one orbit per k.
    Cells are laid out mid_{n-1}, h_{n-1}, ..., mid_2, h_2, v, h_1, mid_1
    so that the level decomposition reads like a chain of bar constructions
    glued at the vertex factor.
    """
    if n not in (2, 3, 4):
        raise ValueError("only n = 2, 3, 4 are supported")
    g = make_symmetric(n)
    perms = {p: i for i, p in enumerate(symmetric_one_line(n))}

    def transposition(k: int) -> int:
        one_line = list(range(n))
        one_line[k - 1], one_line[k] = one_line[k], one_line[k - 1]
        return perms[tuple(one_line)]

    mids = {k: tuple(sorted((0, transposition(k)))) for k in range(1, n)}
    cells: list[Cell] = []
    mid_pos: dict[int, int] = {}
    half_specs: list[tuple[int, int]] = []  # (k, position of its cell)
    for k in range(n - 1, 1, -1):
        mid_pos[k] = len(cells)
        cells.append(Cell("mid%d" % k, 0, mids[k]))
        half_specs.append((k, len(cells)))
        cells.append(Cell("h%d" % k, 1, (0,)))
    vpos = len(cells)
    cells.append(Cell("v", 0, (0,)))
    half_specs.append((1, len(cells)))
    cells.append(Cell("h1", 1, (0,)))
    mid_pos[1] = len(cells)
    cells.append(Cell("mid1", 0, mids[1]))
    done = []
    for cell in cells:
        if cell.dim == 0:
            done.append(cell)
        else:
            k = int(cell.label[1:])
            done.append(Cell(cell.label, 1, (0,),
                             ((mid_pos[k], (0,), 0), (vpos, (0,), 0))))
    return FinSimpGSet(g, done, truncation, ("one_isotropy", mids[1]))
