"""Command-line driver: exit codes, output formats, determinism."""

import json

import pytest

from equiloday import cli
from equiloday.cli import main


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


def test_loday_normal_mode(capsys):
    code, out, _ = run(capsys, "loday", "run", "--kind", "coset-cayley",
                       "--group", "d8", "--sub", "0,4", "--gens", "1",
                       "--isotropy", "normal", "--coeff", "zmod4",
                       "--max-degree", "0", "--check", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith(",ok")


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
    # exit 1 means a verification failure; a crash in any command is exit 3
    def broken(*args, **kwargs):
        raise ValueError("carving went wrong")

    monkeypatch.setattr(cli, patched, broken)
    argv = ["loday", "run"] if command == "loday" else ["bench"]
    code, out, err = run(capsys, *argv, "--kind", "polygon", "--m", "1",
                         "--coeff", "zmod4")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.endswith(f"internal error in {command}: ValueError: "
                        "carving went wrong\n")


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(params=None):
        return {"suite": "broken", "failures": 1, "skipped": 0,
                "passed": False,
                "checks": [{"name": "x", "status": "fail",
                            "witness": {"lhs": [1], "rhs": [2]}}]}
    monkeypatch.setitem(cli.SUITES, "broken", broken)
    code, out, _ = run(capsys, "verify", "--suite", "broken")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == {"lhs": [1], "rhs": [2]}
    code, out, _ = run(capsys, "verify", "--suite", "broken",
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


def test_usage_error_no_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
