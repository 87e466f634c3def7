"""Every definition in the package has a caller in the package.

A function, method or class in ``src/equiloday`` that no code in
``src/equiloday`` names outside its own body has no production caller.
Delete it, or move it into ``tests/`` when a test needs it, unless
something outside the package reads it by name: the callables
perfbench/tracer.py's ``LAYERS`` wraps are read from that list, and any
other goes on ``ALLOWED`` with its reader.  Names are matched as the source spells them:
a caller is any read of ``x`` or of ``obj.x``, except a read of a variable
of the enclosing functions.  Dunder methods, which the language calls, are
exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "equiloday"

# module.qualname -> the reader outside the package that needs it, for the
# readers not listed in perfbench/tracer.py's LAYERS (see _layer_names)
ALLOWED = {
    "cli.main": "the equiloday console script (pyproject.toml) and perfbench/traced_cli.py",
    "cli.make_parser": "perfbench/capture.py parses the roster's argv with it",
    "cli.resolve_coefficient": "perfbench/capture.py resolves --coeff with it",
    "homology.LevelComplex.unnormalized_homology": "perfbench/capture.py cross-checks the reference tables with it",
    "loday.real_hochschild": "perfbench/capture.py builds with it",
    "homology.MackeyH": "kept for the Mackey-identity checks on real instances (ROADMAP item 4)",
    "homology.mackey_homology": "kept for the Mackey-identity checks on real instances (ROADMAP item 4)",
    "homology.MackeyH.double_coset_defects": "kept for the Mackey-identity checks on real instances (ROADMAP item 4)",
    "coeffs.integers": "a public coefficient constructor, next to gaussian and quaternions",
}


def _layer_names() -> set[str]:
    """``module.qualname`` of each callable ``LAYERS`` in
    perfbench/tracer.py wraps, and of the classes it is looked up on: the
    tracer finds every one by name, so a missing one breaks tracing."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    names = set()
    for _, module, path, _ in layers:
        parts = path.split(".")
        names.update(f"{module}." + ".".join(parts[:i + 1])
                     for i in range(len(parts)))
    return names


def _definitions(tree: ast.Module):
    """(qualname, node) of every function, method and class, nested ones
    included, with dotted enclosing names."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                out.append((qual, child))
                walk(child, qual + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _locals(fn) -> set[str]:
    """Names a function or lambda binds as variables: its parameters and
    every name it stores to outside nested definitions."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _reads(tree: ast.Module):
    """(name, line) of every read of a name or attribute, and of every
    name an import brings in.  A read of a variable of the enclosing
    functions (``moore = {}``, then ``moore[k]``) names no definition."""
    out = []

    def visit(node, variables):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            variables = variables | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in variables:
                out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, variables)

    visit(tree, frozenset())
    return out


def uncalled_definitions(src: pathlib.Path = SRC) -> list[str]:
    """``module.qualname`` of each definition no read in ``src`` reaches
    from outside the definition's own lines."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(src.glob("*.py"))}
    reads: dict[str, list[tuple[str, int]]] = {}
    for mod, tree in modules.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((mod, line))
    out = []
    for mod, tree in modules.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(m != mod or line not in inside
                       for m, line in reads.get(name, ())):
                out.append(f"{mod}.{qual}")
    return out


def test_every_definition_has_a_caller_in_the_package():
    allowed = set(ALLOWED) | _layer_names()
    orphans = [d for d in uncalled_definitions() if d not in allowed]
    assert not orphans, ("no caller in src/equiloday; delete, move into "
                         "tests/, or allow with a reason: " + ", ".join(orphans))


def test_allowlist_names_live_definitions():
    defined = {f"{p.stem}.{qual}"
               for p in SRC.glob("*.py")
               for qual, _ in _definitions(ast.parse(p.read_text(encoding="utf-8")))}
    stale = sorted((set(ALLOWED) | _layer_names()) - defined)
    assert not stale, "allowed names no definition: " + ", ".join(stale)


def test_guard_sees_a_definition_named_only_in_its_own_body(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "def shadowed():\n    return 2\n\n\n"
        "def reader():\n    shadowed = {}\n    return shadowed[0]\n\n\n"
        "class Box:\n    def __eq__(self, other):\n        return True\n\n"
        "    def unread(self):\n        return self.unread\n")
    (tmp_path / "b.py").write_text("from a import Box, reader\n")
    assert uncalled_definitions(tmp_path) == ["a.recursive", "a.shadowed",
                                              "a.Box.unread"]
