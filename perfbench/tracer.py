"""Per-layer tracing of equiloday from outside the package.

``Tracer.install`` wraps the public callables listed in ``LAYERS`` in place:
the class attribute for methods, and every binding of the function object in
every loaded ``equiloday`` module for plain functions (so ``homology``'s
imported ``kernel_basis`` is wrapped along with ``exactalg.kernel_basis``).
``uninstall`` puts every original back.

A span wrapper records ``(name, start, end, parent, nested)``, with times in
integer nanoseconds, where
``parent`` is the index of the enclosing span (-1 at the root) and
``nested`` says whether a span of the same name was already open.  A count
wrapper only counts calls: it is used for callables hit millions of times,
whose time stays in the caller's self time.  Spans are kept in memory and
written out once, by ``dump``.

``summarize`` turns one dumped trace plus the wall time of the process that
made it into per-layer metrics: calls, self time (a span's duration minus
the time its direct child spans cover), total time (outermost spans of a
name only) and the counts and maxima the measure hooks add.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (layer, module, attribute path, kind).  Several entries may share a layer.
# For a "count" entry the layer is the name of the counter it bumps.
LAYERS = [
    ("gring.dense", "gring", "StructuredHom.dense", "span"),
    ("gring.dense_group", "gring", "TensorRing.dense_group", "span"),
    ("gring.compose", "gring", "StructuredHom.compose", "span"),
    ("gring.eq", "gring", "StructuredHom.__eq__", "span"),
    ("gring.eq.commutativity_uses", "gring", "_bump_commutativity", "count"),
    ("gring.gtensor_validate", "gring", "GTensorRing.__init__", "span"),
    ("homology.level_complex", "homology", "LevelComplex.__init__", "span"),
    ("homology.table", "homology", "homology_table", "span"),
    ("exactalg.kernel_basis", "exactalg", "kernel_basis", "span"),
    ("exactalg.subquotient", "exactalg", "SubQuotient.__init__", "span"),
    ("exactalg.column_space_basis", "exactalg", "column_space_basis", "span"),
    ("exactalg.chain_check", "exactalg", "ChainComplex.__init__", "span"),
    ("exactalg.homology", "exactalg", "ChainComplex.homology", "span"),
    ("exactalg.homology", "exactalg", "ChainComplex.homology_data", "span"),
    ("exactalg.matmul.calls", "exactalg", "IntMatrix.__matmul__", "count"),
    ("exactalg.apply.calls", "exactalg", "IntMatrix.apply", "count"),
    ("loday.build", "loday", "loday", "span"),
    ("loday.build", "loday", "loday_free", "span"),
    ("loday.build", "loday", "loday_one_isotropy", "span"),
    ("loday.build", "loday", "loday_two_isotropy", "span"),
    ("loday.build", "loday", "loday_normal_sub", "span"),
    ("loday.build", "loday", "bar", "span"),
    ("loday.build", "loday", "real_hochschild", "span"),
    ("loday.validate", "loday", "SimplicialGRing.validate", "span"),
    ("loday.iso_commutes", "loday", "RealHochschild.iso_commutes", "span"),
    ("fingroup.subgroups", "fingroup", "FiniteGroup.all_subgroups", "span"),
    ("fingroup.subgroups", "fingroup", "FiniteGroup.are_conjugate_subgroups",
     "span"),
    ("verify.run_suite", "verify", "run_suite", "span"),
]

ROOT_LAYER = "verify.run_suite"
HOOKS = "trace.hooks"  # time spent in the measure hooks, kept out of layers


def _max_bits(m) -> int:
    top = 0
    for row in m.data:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


def _measure_dense(tracer, args, result):
    tracer.add("gring.dense.entries", result.rows * result.cols)
    tracer.add("gring.dense.nnz",
               sum(len(row) - row.count(0) for row in result.data))


def _measure_kernel(tracer, args, result):
    m = args[0]
    tracer.maximum("exactalg.kernel_basis.max_cells", m.rows * m.cols)
    tracer.maximum("exactalg.kernel_basis.max_bits",
                   max(_max_bits(m), _max_bits(result)))


MEASURES = {
    "StructuredHom.dense": _measure_dense,
    "kernel_basis": _measure_kernel,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack = [-1]
        self._open: dict[int, int] = {}
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, key: str, value: int):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: int):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def span_wrapper(self, layer: str, fn, measure=None):
        nid = self._name_id(layer)
        calls = layer + ".calls"
        self.counts.setdefault(calls, 0)
        spans, stack, opened, counts = (self.spans, self._stack, self._open,
                                        self.counts)
        clock = time.perf_counter_ns
        if measure is not None:
            hooks = self._name_id(HOOKS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            depth = opened.get(nid, 0)
            opened[nid] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                opened[nid] = depth
                spans[idx] = (nid, t0, t1, parent, depth > 0)
            if measure is not None:
                measure(self, args, result)
                spans.append((hooks, t1, clock(), parent, False))
            return result

        return wrapper

    def count_wrapper(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every entry of LAYERS in place; ``uninstall`` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module("equiloday." + name)
                for name in ("exactalg", "fingroup", "gring", "simpgset",
                             "loday", "homology", "verify", "cli")}
        # names that other modules imported: module -> attribute -> function
        bindings = {m: dict(vars(mod)) for m, mod in mods.items()}
        for layer, modname, path, kind in LAYERS:
            owner = mods[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if kind == "span":
                wrapped = self.span_wrapper(layer, original, MEASURES.get(path))
            else:
                wrapped = self.count_wrapper(layer, original)
            if cls_path:
                targets = [(owner, attr)]
            else:
                targets = [(mods[m], name) for m, names in bindings.items()
                           for name, obj in names.items() if obj is original]
            for target, name in targets:
                self._undo.append((target, name, original))
                setattr(target, name, wrapped)

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "maxima": self.maxima}, fh)


# ---------------------------------------------------------------------------
# summarizing


def summarize(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process that ran ``wall_s`` seconds."""
    names = trace["names"]
    spans = trace["spans"]
    cover = [0.0] * len(spans)
    for nid, t0, t1, parent, _ in spans:
        if parent >= 0:
            cover[parent] += (t1 - t0) / 1e9
    out: dict[str, float] = {}
    roots = 0.0
    for k, (nid, t0, t1, parent, nested) in enumerate(spans):
        name = names[nid]
        dur = (t1 - t0) / 1e9
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - cover[k]
        if not nested:
            out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + dur
        if parent < 0:
            roots += dur
    out.update(trace["counts"])
    out.update(trace["maxima"])
    out["other.self_s"] = wall_s - roots
    named = sum(v for k, v in out.items()
                if k.endswith(".self_s") and not k.startswith(
                    (ROOT_LAYER + ".", "trace.", "other.")))
    out["trace.named_s"] = named
    return out
