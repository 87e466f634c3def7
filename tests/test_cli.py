"""Command-line driver: exit codes, output formats, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from equiloday.cli import main, make_parser
from equiloday.gring import DENSE_BUDGET

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# group / ring


def test_group_info_json(capsys):
    code, out, _ = run(capsys, "group", "info", "s3")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert not obj["abelian"]
    assert len(obj["subgroups"]) == 6
    # three conjugate order-2 subgroups share a class
    classes = [s["conjugacy_class"] for s in obj["subgroups"] if s["order"] == 2]
    assert len(classes) == 3 and len(set(classes)) == 1
    # normalizer of an order-2 subgroup is itself, so the Weyl group is trivial
    two = [s for s in obj["subgroups"] if s["order"] == 2][0]
    assert two["normalizer_order"] == 2 and two["weyl_order"] == 1
    assert not two["normal"]


def test_group_info_csv(capsys):
    code, out, _ = run(capsys, "group", "info", "c4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("index,order,elements,normal,conjugacy_class,"
                        "normalizer_order,weyl_order")
    assert len(lines) == 4  # header + three subgroups of C4


def test_group_export_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "group", "export", "q8")
    assert code == 0
    path = tmp_path / "q8.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "group", "info", str(path))
    assert code == 0
    assert json.loads(out2)["order"] == 8


def test_group_unknown_name(capsys):
    code, _, err = run(capsys, "group", "info", "frobnitz")
    assert code == 2
    assert "unknown group" in err


def test_ring_list_and_info(capsys):
    code, out, _ = run(capsys, "ring", "list")
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert "gaussian" in names and "quaternion" in names
    code, out, _ = run(capsys, "ring", "info", "quaternion")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["generators"]) == 4
    assert obj["commutative"] is False
    assert obj["involution"]["anti"] is True


def test_ring_info_missing_file(capsys):
    code, _, err = run(capsys, "ring", "info", "no/such/ring.json")
    assert code == 2
    assert "neither bundled" in err


def test_verify_and_loday_run_resolve_a_coefficient_name_alike(
        tmp_path, capsys, monkeypatch):
    # a file named like a bundled coefficient does not shadow it, in the
    # realhh suite as in loday run
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "ring", "info", "zmod4")
    (tmp_path / "gaussian").write_text(out)
    code, out, _ = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                       "--coeff", "gaussian", "--truncation", "2",
                       "--max-degree", "0")
    assert code == 0
    checks = [c["name"] for c in json.loads(out)["checks"]]
    assert checks and all(c.startswith("m=1/gaussian/") for c in checks)
    code, out, _ = run(capsys, "loday", "run", "--kind", "polygon", "--m", "1",
                       "--coeff", "gaussian", "--max-degree", "0", "--format", "csv")
    assert code == 0
    assert {line.split(",")[1] for line in out.splitlines()[1:]} == {"gaussian"}


@pytest.mark.parametrize("relations", [[[4, 7]], [[]]], ids=["too-long", "too-short"])
@pytest.mark.parametrize("command", [("ring", "info"),
                                     ("loday", "run", "--kind", "polygon", "--m", "1",
                                      "--max-degree", "0", "--coeff")],
                         ids=["ring-info", "loday-run"])
def test_relation_column_of_the_wrong_length(tmp_path, capsys, relations, command):
    # Z/4 on one generator: a relation column has exactly one entry
    code, out, _ = run(capsys, "ring", "info", "zmod4")
    obj = json.loads(out)
    obj["relations"] = relations
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert "bad coefficient file" in err and "relation column" in err


def test_loday_run_rejects_an_action_that_does_not_multiply_on_the_isotropy(
        tmp_path, capsys):
    # an order-4 cyclic action (Z^4, shifting its factors) placed on d8's
    # Klein four isotropy {e, r2, s, r2 s}: r2 squares to e, the shift's
    # square is not the identity, so the norm is no G-ring
    n = 4
    path = tmp_path / "z4_shift.json"
    path.write_text(json.dumps({
        "name": "z4_shift", "generators": [f"e{i}" for i in range(n)],
        "relations": [],
        "mult": [[[int(i == j == k) for k in range(n)] for j in range(n)]
                 for i in range(n)],
        "unit": [1] * n, "commutative": True,
        "cyclic_action": {"order": n, "matrix": [[int(i == (j + 1) % n)
                                                  for j in range(n)]
                                                 for i in range(n)]}}))
    code, out, err = run(capsys, "loday", "run", "--kind", "coset-cayley",
                         "--group", "d8", "--sub", "0,2,4,6", "--gens", "1",
                         "--truncation", "2", "--max-degree", "0",
                         "--coeff", str(path), "--action", "cyclic")
    assert code == 2
    assert out == ""
    assert "not multiplicative" in err


# ---------------------------------------------------------------------------
# space


def test_space_build_with_check(capsys):
    code, out, _ = run(capsys, "space", "build", "--kind", "sigma", "--check")
    assert code == 0
    obj = json.loads(out)
    assert obj["validation_errors"] == []
    assert [lv["orbits"] for lv in obj["levels"]][:2] == [2, 3]


def test_space_needs_its_size_flag(capsys):
    code, _, err = run(capsys, "space", "build", "--kind", "rot")
    assert code == 2
    assert "--n" in err


def test_space_bad_builder_input(capsys):
    # permutohedron only goes up to four letters
    code, _, err = run(capsys, "space", "build", "--kind", "permutohedron",
                       "--n", "9")
    assert code == 2


# ---------------------------------------------------------------------------
# loday


def test_loday_polygon_h0_row(capsys):
    code, out, _ = run(capsys, "loday", "run", "--kind", "polygon", "--m", "1",
                       "--coeff", "z", "--subgroups", "free",
                       "--max-degree", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "space,coefficient,subgroup,degree,free_rank,torsion,status"
    assert lines[1] == "polygon,z,0,0,1,,ok"


def test_loday_missing_coefficient_file(capsys):
    code, _, err = run(capsys, "loday", "run", "--kind", "polygon", "--m", "1",
                       "--coeff", "does/not/exist.json")
    assert code == 2
    assert "neither bundled" in err


def test_loday_rot_flip_vs_diagonal_faces_differ(capsys):
    common = ["loday", "run", "--kind", "rot", "--n", "3",
              "--coeff", "rotation_z3", "--action", "cyclic",
              "--max-degree", "0", "--emit-complex"]
    code, flip, _ = run(capsys, *common, "--inner", "flip")
    assert code == 0
    code, diag, _ = run(capsys, *common, "--inner", "diagonal")
    assert code == 0
    a, b = json.loads(flip), json.loads(diag)
    assert a["faces"]["1"] != b["faces"]["1"]
    assert a["homology"] == b["homology"]


# both write JSON whatever --format says, so csv is a flag they would ignore
@pytest.mark.parametrize("argv,message", [
    (["group", "export", "s3"], "group export writes JSON only"),
    (["loday", "run", "--kind", "sigma", "--coeff", "z", "--max-degree", "0",
      "--emit-complex"], "--emit-complex writes JSON only"),
])
def test_json_only_output_refuses_csv(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_loday_deterministic_bytes(capsys):
    argv = ("loday", "run", "--kind", "sigma", "--coeff", "gaussian",
            "--subgroups", "all", "--max-degree", "1", "--emit-complex")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_loday_budget_rows_are_explicit_skips(capsys):
    code, out, _ = run(capsys, "loday", "run", "--kind", "sigma",
                       "--coeff", "gaussian", "--max-degree", "3",
                       "--budget", "64", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert any(r.endswith(",ok") for r in rows)
    assert any(r.endswith(",skipped") for r in rows)


def test_loday_two_isotropy_needs_involution(capsys):
    code, _, err = run(capsys, "loday", "run", "--kind", "polygon", "--m", "1",
                       "--coeff", "rotation_z3")
    assert code == 2
    assert "involution" in err


def _loday_normal(capsys, sub: str):
    return run(capsys, "loday", "run", "--kind", "coset-cayley",
               "--group", "d8", "--sub", sub, "--gens", "1",
               "--isotropy", "normal", "--coeff", "zmod4",
               "--max-degree", "0", "--check", "--format", "csv")


def test_loday_normal_mode(capsys):
    # the centre {0, 2} of D8 is normal
    code, out, _ = _loday_normal(capsys, "0,2")
    assert code == 0
    assert out.splitlines()[1].endswith(",ok")


def test_loday_check_reports_a_non_normal_subgroup(capsys):
    # {0, 4} is a reflection subgroup of D8: the pipeline builds, but
    # --check runs the space's mode check, as ``space build --check`` does
    code, _, err = _loday_normal(capsys, "0,4")
    assert code == 1
    assert "validation: distinguished subgroup is not normal" in err


def _normal_space(capsys, sub: str):
    code, out, _ = run(capsys, "space", "build", "--kind", "coset-cayley",
                       "--group", "d8", "--sub", sub, "--gens", "1",
                       "--isotropy", "normal", "--check", "--format", "json")
    return code, json.loads(out)


def test_space_normal_mode_lists_the_smaller_isotropies(capsys):
    # the centre {0, 2} of D8 is normal; the vertex has it as isotropy and
    # every edge is free
    code, obj = _normal_space(capsys, "0,2")
    assert code == 0
    assert obj["mode"] == ["normal_with_subgroups", [0, 2], [[0]]]
    assert obj["validation_errors"] == []


def test_space_normal_mode_reports_a_non_normal_subgroup(capsys):
    code, obj = _normal_space(capsys, "0,4")
    assert code == 1
    assert obj["validation_errors"] == ["distinguished subgroup is not normal"]


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "psi", "--group", "c2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["failures"] == 0
    assert report["checks"]


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "xi-diagonal-counterexample",
                       "--group", "s3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,check,status,witness"
    assert all(",pass" in l or ",skip" in l for l in lines[1:])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "wat")
    assert code == 2
    assert "unknown suite" in err


def test_verify_bad_suite_params(capsys):
    code, _, err = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                       "--coeff", "rotation_z3")
    assert code == 2
    assert "involution" in err


@pytest.mark.parametrize("suite,known", [
    ("counit", "c2, c3, s3, d4"),
    ("psi", "c2, c3, s3, d4"),
    ("xi", "s3, d4, d6"),
    ("xi-diagonal-counterexample", "s3"),
    ("weyl", "c1, c2, c3"),
    ("conjugate-switch", "s3, d6"),
])
def test_verify_unknown_group_is_a_usage_error(capsys, suite, known):
    code, out, err = run(capsys, "verify", "--suite", suite, "--group", "zz")
    assert code == 2
    assert out == ""
    assert "'zz'" in err and known in err


def test_verify_negative_max_degree_is_a_usage_error(capsys):
    # not a budget skip: zmod4 levels have rank 1
    code, out, err = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                         "--coeff", "zmod4", "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "max_degree must be at least 0" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_a_usage_error(capsys, budget):
    # not a row of "exceeds the dense budget" skips with exit 0
    for argv in (["loday", "run", "--kind", "polygon", "--m", "1",
                  "--coeff", "gaussian", "--truncation", "2"],
                 ["bench", "--kind", "polygon", "--m", "1",
                  "--coeff", "gaussian", "--truncation", "2"]):
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 2
        assert out == ""
        assert f"--budget must be at least 1, got {budget}" in err
    code, out, err = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                         "--coeff", "gaussian", "--max-degree", "0",
                         "--budget", budget)
    assert code == 2
    assert out == ""
    assert "budget must be at least 1" in err


def test_budget_of_one_still_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                       "--coeff", "zmod4", "--max-degree", "0",
                       "--budget", "1")
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("command", ["loday", "bench", "verify"])
def test_budget_help_names_the_default(capsys, command):
    # the parser leaves --budget None; its help spells the default out
    with pytest.raises(SystemExit):
        make_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    budget_help = text.rsplit("--budget BUDGET", 1)[1].split(" --", 1)[0]
    assert f"(default {DENSE_BUDGET})" in budget_help


def test_no_budget_runs_as_the_default_budget(capsys):
    argv = ("loday", "run", "--kind", "polygon", "--m", "2", "--coeff",
            "gaussian", "--truncation", "3", "--subgroups", "classes")
    code, default, _ = run(capsys, *argv)
    assert code == 0
    assert any(r["status"] == "skipped" for r in json.loads(default)["homology"])
    code, explicit, _ = run(capsys, *argv, "--budget", "5000")
    assert code == 0
    assert default == explicit


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("degree,message", [
    ("-1", "--max-degree must be at least 0, got -1"),
    ("-3", "--max-degree must be at least 0, got -3"),
    ("5", "--max-degree 5 needs level 6, beyond truncation 2"),
])
def test_loday_max_degree_out_of_range_is_a_usage_error(capsys, command,
                                                        degree, message):
    # neither an empty table (exit 0) nor a traceback (exit 1)
    argv = (["loday", "run"] if command == "run" else ["bench"])
    code, out, err = run(capsys, *argv, "--kind", "polygon", "--m", "1",
                         "--coeff", "zmod4", "--truncation", "2",
                         "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("suite,flag,value,key", [
    ("one-isotropy", "--group", "zz", "group"),
    ("normal-subgroups", "--m", "2", "m"),
    ("two-isotropy", "--coeff", "zmod4", "coeff"),
    ("xi-diagonal-counterexample", "--m", "1", "m"),
    ("counit", "--truncation", "2", "truncation"),
    ("conjugate-switch", "--budget", "10", "budget"),
    ("realhh", "--group", "c2", "group"),
    ("esigma", "--subgroups", "all", "subgroups"),
])
def test_verify_unread_param_is_a_usage_error(capsys, suite, flag, value, key):
    code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
    assert code == 2
    assert out == ""
    assert f"{key!r} is not a parameter of suite {suite!r}" in err


def test_verify_internal_error_exits_three(capsys, monkeypatch):
    # a ValueError from deep inside a suite is a bug, not a bad parameter
    import equiloday.homology as homology

    def broken(*args, **kwargs):
        raise ValueError("carving went wrong")

    monkeypatch.setattr(homology, "_restricted", broken)
    code, out, err = run(capsys, "verify", "--suite", "realhh", "--m", "1",
                         "--coeff", "zmod4", "--truncation", "2",
                         "--max-degree", "1")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.endswith("internal error in suite realhh: ValueError: "
                        "carving went wrong\n")


@pytest.mark.parametrize("command,patched", [
    ("loday", "LevelComplex"),
    ("bench", "LevelComplex"),
])
def test_internal_error_outside_verify_exits_three(capsys, monkeypatch,
                                                   command, patched):
    # exit 1 means a verification failure; a crash in any command is exit 3.
    # The commands import the homology layer when they run, so the broken
    # class is planted where they read it.
    import equiloday.homology as homology

    def broken(*args, **kwargs):
        raise ValueError("carving went wrong")

    monkeypatch.setattr(homology, patched, broken)
    argv = ["loday", "run"] if command == "loday" else ["bench"]
    code, out, err = run(capsys, *argv, "--kind", "polygon", "--m", "1",
                         "--coeff", "zmod4")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.endswith(f"internal error in {command}: ValueError: "
                        "carving went wrong\n")


def test_verify_failure_exits_one(capsys, monkeypatch):
    # the suite runner is replaced by one whose report fails, where
    # ``cmd_verify`` reads it
    from equiloday import verify

    def broken(name, params=None):
        return {"suite": name, "failures": 1, "skipped": 0,
                "passed": False,
                "checks": [{"name": "x", "status": "fail",
                            "witness": {"lhs": [1], "rhs": [2]}}]}
    monkeypatch.setattr(verify, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "--suite", "counit")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == {"lhs": [1], "rhs": [2]}
    code, out, _ = run(capsys, "verify", "--suite", "counit",
                       "--format", "csv")
    assert code == 1
    assert '"lhs"' in out  # the witness rides along in the CSV, too


def test_verify_deterministic_bytes(capsys):
    argv = ("verify", "--suite", "counit", "--group", "c2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# bench


def test_bench_dims_deterministic_and_predicted(capsys):
    argv = ("bench", "--kind", "polygon", "--m", "2", "--coeff", "zmod4",
            "--subgroups", "all")
    code, first, err = run(capsys, *argv)
    assert code == 0
    assert "s" in err  # timings go to stderr only
    code, second, _ = run(capsys, *argv)
    assert first == second
    obj = json.loads(first)
    for lv in obj["levels"]:
        assert lv["rank"] == lv["predicted"]
    assert all(b["rows"] >= 0 for b in obj["boundaries"])


def test_bench_names_the_budget_each_subgroup_hit(capsys):
    # the over-budget rows on stdout are bare; stderr says what size hit
    # which budget, before the timings
    code, out, err = run(capsys, "bench", "--kind", "polygon", "--m", "2",
                         "--coeff", "gaussian", "--truncation", "3",
                         "--subgroups", "classes", "--budget", "300")
    assert code == 0
    rows = json.loads(out)["boundaries"]
    assert [(b["boundary"], b["rows"], b["cols"]) for b in rows] == [(0, -1, -1)] * 5
    lines = err.splitlines()
    assert lines[:5] == [f"subgroup {b['subgroup']}: expanded rank 2^12 exceeds budget 300"
                         for b in rows]
    assert [line.split(":")[0] for line in lines[5:]] == [
        "build space+coefficient", "build pipeline", "fixed-point complexes"]


def test_usage_error_no_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# import layering


# runs one command in a fresh interpreter and prints its exit status, the
# equiloday modules it loaded and ``dataclasses`` if it loaded that module,
# each counted only when the bare interpreter had not loaded it already.
# A module split off another (see _SPLIT) also counts as loaded when a
# loaded module holds one of the names it defines, so folding it back into
# the module it left, or importing it there, reads as loading it.
_LOADED = r"""
import json, sys
bare = set(sys.modules)
import contextlib, io
from equiloday import cli
with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as e:  # a usage error the parser reports
        code = e.code
new = {m for m in set(sys.modules) - bare
       if m.startswith("equiloday.") or m == "dataclasses"}
held = {"equiloday." + split for split, names in json.loads(sys.argv[1]).items()
        if any(hasattr(sys.modules[m], name) for m in new for name in names)}
print(code, *sorted(new | held))
"""

_FAMILIES = {"suites_structured", "suites_isotropy", "suites_realhh"}
_LAYERS = {"homology", "loday", "simpgset"}
# split-off module -> names defined there: norms left gring and loday, and
# spaces left simpgset
_SPLIT = {"norms": ["NormRing", "tensor_induce", "psi_level"],
          "spaces": ["build_cayley", "build_sigma_circle"]}


def _loaded(*argv) -> tuple[int, set[str]]:
    """Exit status of one command run in a fresh interpreter, and the
    package's modules it loaded."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(_SPLIT), *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, *modules = proc.stdout.split()
    assert "dataclasses" not in modules
    return int(code), {m.split(".")[-1] for m in modules}


def test_importing_the_cli_loads_no_other_module_of_the_package():
    # the parser needs no maths layer: each command loads its own
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; bare = set(sys.modules); import equiloday.cli; "
         "print(*sorted(m for m in set(sys.modules) - bare "
         "if m.startswith('equiloday.')))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.stdout.split() == ["equiloday.cli"]


@pytest.mark.parametrize("argv,absent,present", [
    (["verify", "--suite", "xi"],
     _LAYERS | {"spaces"} | (_FAMILIES - {"suites_structured"}),
     {"verify", "suites_structured", "gring"}),
    (["verify", "--suite", "counit"],
     _LAYERS | {"spaces"} | (_FAMILIES - {"suites_structured"}),
     {"verify", "suites_structured", "gring"}),
    (["verify", "--suite", "conjugate-switch", "--group", "s3"],
     _LAYERS | {"spaces"} | (_FAMILIES - {"suites_structured"}),
     {"verify", "suites_structured", "gring"}),
    (["verify", "--suite", "one-isotropy"],
     {"homology"} | (_FAMILIES - {"suites_isotropy"}),
     {"verify", "loday", "simpgset", "suites_isotropy", "gring"}),
    (["verify", "--suite", "realhh", "--m", "1", "--coeff", "z"],
     (_FAMILIES - {"suites_realhh"}) | {"spaces"},
     {"verify", "suites_realhh", "gring"} | _LAYERS),
    (["group", "info", "s3"],
     _LAYERS | _FAMILIES | {"verify", "norms", "spaces", "gring"},
     {"commands"}),
])
def test_commands_load_only_the_layers_they_run(argv, absent, present):
    code, loaded = _loaded(*argv)
    assert code == 0
    assert "cli" in loaded
    assert ("commands" in loaded) == (argv[0] != "verify")
    assert not absent & loaded
    assert present <= loaded


@pytest.mark.parametrize("argv,loads", [
    # an unknown suite is named before any family loads
    (["verify", "--suite", "nope"], {"cli", "verify"}),
    # a flag the command would ignore is refused right after parsing
    (["group", "export", "s3", "--format", "csv"], {"cli"}),
    (["loday", "run", "--kind", "sigma", "--coeff", "z", "--emit-complex",
      "--format", "csv"], {"cli"}),
])
def test_usage_errors_load_no_layer_of_the_command(argv, loads):
    assert _loaded(*argv) == (2, loads)


def test_run_as_a_module_the_commands_raise_the_usage_error_main_catches():
    # ``python -m equiloday.cli`` runs cli.py as ``__main__``; ``commands``
    # imports ``equiloday.cli`` by name, and must get that same module (one
    # UsageError class, and no second compile of cli.py): exit 2, not 3
    proc = subprocess.run(
        [sys.executable, "-m", "equiloday.cli", "group", "info", "zz"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: unknown group 'zz'")
