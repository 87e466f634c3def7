"""The benchmark's per-layer tracer still fits the package.

``perfbench/tracer.py`` wraps ``exactalg``, ``homology`` and friends by
name from outside the package, so a renamed or re-signed callable would
only break a traced benchmark run.  This loads the tracer without writing
anything next to it, traces one small verify run and checks that the
layers it relies on were seen and that every wrapper came off again.
The homology path reaches the Smith-form engine through sparse rows, not
through ``kernel_basis``, so the dense front door is called once by hand
inside the traced window to keep its measure hook covered.
"""

import importlib
import importlib.util
import pathlib
import sys

from equiloday import cli, exactalg
from equiloday.exactalg import IntMatrix

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    """Every module attribute and traced class attribute, by identity."""
    out = {}
    for modname in {mod for _, mod, _, _ in layers} | {"cli", "simpgset"}:
        mod = importlib.import_module("equiloday." + modname)
        out.update({(modname, name): obj for name, obj in vars(mod).items()})
    for _, modname, path, _ in layers:
        *cls_path, attr = path.split(".")
        owner = importlib.import_module("equiloday." + modname)
        for part in cls_path:
            owner = getattr(owner, part)
        out[(modname, path)] = vars(owner)[attr]
    return out


def test_traced_verify_records_layers_and_unwraps(monkeypatch, capsys):
    tracer = _load_tracer(monkeypatch)
    before = _bindings(tracer.LAYERS)
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["verify", "--suite", "realhh", "--m", "1",
                         "--coeff", "zmod4", "--truncation", "3"])
        exactalg.kernel_basis(IntMatrix.from_rows([[1, -1]]))
    finally:
        t.uninstall()
    after = _bindings(tracer.LAYERS)
    assert code == 0, capsys.readouterr().err
    seen = {t.names[span[0]] for span in t.spans}
    assert {"exactalg.kernel_basis", "exactalg.chain_check", "exactalg.homology",
            "exactalg.subquotient", "exactalg.column_space_basis"} <= seen
    assert t.counts["exactalg.kernel_basis.calls"] > 0
    assert t.counts["exactalg.chain_check.calls"] > 0
    assert t.maxima["exactalg.kernel_basis.max_cells"] > 0
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert not [k for k, obj in after.items() if hasattr(obj, "__wrapped__")]


def test_traced_one_isotropy_records_the_loday_and_gring_layers(monkeypatch, capsys):
    # the structured layers sit in gring, norms and loday: a traced isotropy
    # suite still reaches each wrapped builder and validator through the
    # bindings Tracer.install rebinds
    tracer = _load_tracer(monkeypatch)
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["verify", "--suite", "one-isotropy"])
    finally:
        t.uninstall()
    assert code == 0, capsys.readouterr().err
    seen = {t.names[span[0]] for span in t.spans}
    assert {"loday.build", "loday.validate", "gring.gtensor_validate"} <= seen
    assert t.counts["loday.build.calls"] > 0
    assert t.counts["gring.gtensor_validate.calls"] > 0
