"""The size budget is decided in one module.

``homology.LevelComplex`` compares the rank of every level it would expand
with its budget before expanding any, and ``feasible_degree`` asks the same
question; the expansion layers below take no budget: ``rings`` and
``gring`` (presented rings, structured maps and their expansion), ``norms``
(the norm and level-map builders) and ``loday``.  A second module raising
``SizeBudgetExceeded``, or a ``budget`` parameter in one of those four,
would split that policy again.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equiloday"


def raises_budget_error(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "SizeBudgetExceeded":
                return True
    return False


def budget_parameters(tree: ast.AST) -> list[str]:
    """Names of the functions that take a parameter called ``budget``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(a.arg == "budget" for a in ast.walk(node.args)
                    if isinstance(a, ast.arg))]


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_only_homology_raises_size_budget_exceeded():
    raisers = [p.name for p in sorted(SRC.glob("*.py")) if raises_budget_error(_tree(p))]
    assert raisers == ["homology.py"]


def test_expansion_layers_take_no_budget():
    for name in ("rings.py", "gring.py", "norms.py", "loday.py"):
        assert budget_parameters(_tree(SRC / name)) == [], name


def test_guard_sees_a_raise_and_a_budget_parameter():
    tree = ast.parse("class T:\n"
                     "    def sparse(self, *, budget=5):\n"
                     "        raise exactalg.SizeBudgetExceeded\n")
    assert raises_budget_error(tree)
    assert budget_parameters(tree) == ["sparse"]
    assert not raises_budget_error(ast.parse("raise ValueError('budget')"))
