"""The tensor layout stays in ``gring``.

How basis tuples are numbered (slot 0 most significant), which basis vector
the unit is, and how a degeneracy routes slots are ``gring``'s to know.
``homology`` carves from expanded maps alone: it reads no ``targets``,
``unit`` or ``degens`` attribute, so a change of layout cannot silently
change which generators the normalized complex keeps.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equiloday"

LAYOUT = {"targets", "unit", "degens"}


def layout_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, attribute) of every read of a tensor-layout attribute."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in LAYOUT)


def test_homology_reads_no_tensor_layout():
    tree = ast.parse((SRC / "homology.py").read_text(encoding="utf-8"))
    assert layout_reads(tree) == []


def test_guard_sees_a_layout_read():
    tree = ast.parse("def f(s, d):\n"
                     "    u = s.levels[0].tensor.base.unit\n"
                     "    return [lst for lst in d.targets], s.degens[0]\n")
    assert layout_reads(tree) == [(2, "unit"), (3, "degens"), (3, "targets")]
    assert layout_reads(ast.parse("s.degeneracy(0, 0).sparse().data")) == []
