"""Every definition in the package has a caller in the package, and every
import in the package and its tests is read.

A function, method or class in ``src/equiloday`` that no code in
``src/equiloday`` names outside its own body has no production caller.
Delete it, or move it into ``tests/`` when a test needs it, unless
something outside the package reads it by name: the callables
perfbench/tracer.py's ``LAYERS`` wraps are read from that list, and any
other goes on ``ALLOWED`` with its reader.  Names are matched as the
source spells them, except a read of a variable of the enclosing functions.
A module-level function or class is called by a read of ``x``, an import of
it, or a read of ``module.x`` off a package module; a method (or any nested
definition) by any read of ``x`` or of ``obj.x``, so a method name several
classes define is pinned in ``SHARED_METHODS``: one read keeps all of them
alive.  Dunder methods, which the language calls, are exempt.  An import
binds a name; a module that never reads it keeps a dependency for nothing,
and a local a function assigns and never reads is work for nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "equiloday"
TESTS = ROOT / "tests"

# module.qualname -> the reader outside the package that needs it, for the
# readers not listed in perfbench/tracer.py's LAYERS (see _layer_names)
ALLOWED = {
    "cli.main": "the equiloday console script (pyproject.toml) and perfbench/traced_cli.py",
    "cli.make_parser": "perfbench/capture.py parses the roster's argv with it",
    "cli.resolve_coefficient": "perfbench/capture.py resolves --coeff with it",
    "homology.LevelComplex.unnormalized_homology": "perfbench/capture.py cross-checks the reference tables with it",
    "loday.real_hochschild": "perfbench/capture.py builds with it",
    "homology.MackeyH": "kept for the Mackey-identity checks on real instances (ROADMAP item 6)",
    "homology.mackey_homology": "kept for the Mackey-identity checks on real instances (ROADMAP item 6)",
    "homology.MackeyH.double_coset_defects": "kept for the Mackey-identity checks on real instances (ROADMAP item 6)",
}


# Method name -> the classes in src/equiloday that define it, for every
# non-dunder name two or more classes define.  Reads are matched by bare
# name, so a read of one definition (``f.compose`` on a ``StructuredHom``)
# counts for every other definition of that name (``EqMap.compose``).  Each
# definition listed here was checked to have a production reader of its
# own; a new shared name, or a new class defining one, fails
# test_shared_method_names_are_pinned until it is checked the same way.
SHARED_METHODS = {
    "_validate": {"fingroup.FiniteGroup", "rings.PresentedRing", "rings.RingWithAction"},
    "compose": {"gring.StructuredHom", "simpgset.EqMap"},
    "conj": {"fingroup.FiniteGroup", "homology.MackeyH"},
    "degeneracy": {"loday.SimplicialGRing", "simpgset.FinSimpGSet"},
    "elements": {"fingroup.FiniteGroup", "simpgset.OrbitLevel"},
    "express": {"homology._OrbitFixed", "homology._Normalized"},
    "face": {"loday.SimplicialGRing", "simpgset.FinSimpGSet"},
    "from_cols": {"exactalg.IntMatrix", "exactalg.SparseMatrix"},
    "homology_data": {"exactalg.ChainComplex", "homology.LevelComplex"},
    "identity": {"exactalg.IntMatrix", "exactalg.SparseMatrix", "gring.StructuredHom"},
    "inverse": {"rings.TwistTable", "gring.StructuredHom"},
    "reduce": {"exactalg.Lattice", "exactalg.PresentedAb"},
    "sparse_rows": {"exactalg.IntMatrix", "exactalg.SparseMatrix"},
    "to_json_obj": {"coeffs.Coefficient", "fingroup.FiniteGroup"},
    "top": {"exactalg.ChainComplex", "loday.SimplicialGRing"},
    "transversal": {"fingroup.FiniteGroup", "simpgset.OrbitLevel"},
    "validate": {"loday.SimplicialGRing", "simpgset.FinSimpGSet"},
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


def _reads(tree: ast.Module, modules=frozenset()):
    """(name, line, module_level) of every read of a name or attribute, and
    of every name an import brings in.  ``module_level`` is False for an
    attribute read off anything but one of ``modules`` (``obj.x``): that can
    name a method, never a module-level definition.  A read of a variable
    of the enclosing functions (``moore = {}``, then ``moore[k]``) names no
    definition."""
    out = []

    def visit(node, variables):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            variables = variables | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in variables:
                out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            out.append((node.attr, node.lineno,
                        isinstance(owner, ast.Name) and owner.id in modules))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno, True) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, variables)

    visit(tree, frozenset())
    return out


def uncalled_definitions(src: pathlib.Path = SRC) -> list[str]:
    """``module.qualname`` of each definition no read in ``src`` reaches
    from outside the definition's own lines."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(src.glob("*.py"))}
    reads: dict[str, list[tuple[str, int, bool]]] = {}
    for mod, tree in modules.items():
        for name, line, module_level in _reads(tree, set(modules)):
            reads.setdefault(name, []).append((mod, line, module_level))
    out = []
    for mod, tree in modules.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            nested = "." in qual
            if not any((m != mod or line not in inside) and (nested or module_level)
                       for m, line, module_level in reads.get(name, ())):
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


def test_guard_counts_only_module_reads_for_module_level_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def imported():\n    return 1\n\n\n"
        "def qualified():\n    return 2\n\n\n"
        "def tensor():\n    return 3\n\n\n"
        "class Level:\n    def tensor(self):\n        return 4\n")
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import Level, imported\n\n"
        "READS = a.qualified, lambda lv: lv.tensor, Level\n")
    # lv.tensor reads the method, not the module-level function
    assert uncalled_definitions(tmp_path) == ["a.tensor"]


def shared_methods(src: pathlib.Path = SRC) -> dict[str, set[str]]:
    """Non-dunder method name -> ``module.Class`` of each class defining
    it, for the names two or more classes define."""
    owners: dict[str, set[str]] = {}
    for p in sorted(src.glob("*.py")):
        for qual, node in _definitions(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owners.setdefault(child.name, set()).add(f"{p.stem}.{qual}")
    return {name: classes for name, classes in owners.items()
            if len(classes) > 1 and not (name.startswith("__") and name.endswith("__"))}


def test_shared_method_names_are_pinned():
    assert shared_methods() == SHARED_METHODS, (
        "a method name shared by several classes keeps each definition alive "
        "through the others' reads: check every definition has its own "
        "reader, then update SHARED_METHODS")


def test_guard_sees_a_shared_method_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def run(self):\n        pass\n\n"
        "    def __eq__(self, other):\n        return True\n\n\n"
        "class B:\n    def run(self):\n        pass\n\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    def only(self):\n        pass\n")
    assert shared_methods(tmp_path) == {"run": {"a.A", "a.B"}}


def unused_imports(paths) -> list[str]:
    """``file:line name`` of each name an import binds that its module
    never reads (``import a.b`` binds ``a``; ``__future__`` is exempt)."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            out += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name not in reads]
    return out


def test_every_import_is_read():
    unused = unused_imports(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")))
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import comb, floor\n"
        "from itertools import product\n\n\n"
        "def f():\n    from sys import argv\n    return os.path.sep, comb\n")
    assert unused_imports([tmp_path / "a.py"]) == [
        "a.py:3 js", "a.py:4 floor", "a.py:5 product", "a.py:9 argv"]


def dead_stores(src: pathlib.Path = SRC) -> list[str]:
    """``module.qualname name`` of each local a function binds by plain
    assignment (``x = ...``, ``x: T = ...``) and never reads, in its own
    body or in a nested one.  A store into it (``x[k] = v``) is no read;
    ``x += v`` is one.  Names the function declares ``global`` or
    ``nonlocal`` are not its locals, and unpacking targets are not plain
    assignments."""
    out = []
    for p in sorted(src.glob("*.py")):
        for qual, fn in _definitions(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.ClassDef):
                continue
            stored, outer = [], set()
            stack = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Lambda)):
                    continue
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    outer.update(node.names)
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign)
                           and node.value is not None else [])
                stored += [t.id for t in targets if isinstance(t, ast.Name)]
                stack.extend(ast.iter_child_nodes(node))
            into = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    while isinstance(node, ast.Subscript):
                        node = node.value
                    into.add(id(node))
            reads = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load) and id(node) not in into}
            reads |= {node.target.id for node in ast.walk(fn)
                      if isinstance(node, ast.AugAssign)
                      and isinstance(node.target, ast.Name)}
            out += sorted({f"{p.stem}.{qual} {name}" for name in stored
                           if name not in reads and name not in outer})
    return out


def test_no_local_is_stored_and_never_read():
    dead = dead_stores()
    assert not dead, "assigned but never read: " + ", ".join(dead)


def test_guard_sees_a_dead_store(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(n):\n    hit = [False] * n\n    hit[0] = True\n"
        "    seen: list = []\n    total = 0\n    total += n\n"
        "    first, _ = n, 0\n    return first\n\n\n"
        "def g(n):\n    scale = 2\n    return lambda x: x * scale\n\n\n"
        "def h():\n    count = 0\n\n    def bump():\n        nonlocal count\n"
        "        count = count + 1\n    return bump\n")
    assert dead_stores(tmp_path) == ["a.f hit", "a.f seen"]
