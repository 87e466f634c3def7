"""Every registered verification suite runs green at its smallest size."""

import pytest

from equiloday import suites_isotropy, suites_realhh, suites_structured
from equiloday.gring import DENSE_BUDGET
from equiloday.verify import SUITES, run_suite

SMOKE = [
    ("counit", {"group": "c2"}),
    ("psi", {"group": "c2"}),
    ("xi", {"group": "s3"}),
    ("xi-diagonal-counterexample", {}),
    ("weyl", {"group": "s3"}),
    ("weyl", {"group": "a4"}),
    ("conjugate-switch", {"group": "s3"}),
    ("one-isotropy", {}),
    ("normal-subgroups", {}),
    ("two-isotropy", {}),
    ("realhh", {"m": 1, "coeff": "zmod4", "truncation": 3}),
    # free levels: takes the signed-orbit carving, which zmod4 never does
    ("realhh", {"m": 1, "coeff": "gaussian", "truncation": 3, "max_degree": 2}),
    ("esigma", {"m": 1}),
]


def test_smoke_roster_covers_every_suite():
    assert {name for name, _ in SMOKE} == set(SUITES)


def test_each_suite_body_sits_in_the_family_its_registry_entry_names():
    families = {"structured": suites_structured, "isotropy": suites_isotropy,
                "realhh": suites_realhh}
    for family, module in families.items():
        assert set(module.BODIES) == {name for name, (f, _) in SUITES.items()
                                      if f == family}, family


@pytest.mark.parametrize("name,params", SMOKE,
                         ids=[f"{n}-{'-'.join(map(str, p.values())) or 'default'}"
                              for n, p in SMOKE])
def test_suite_passes_at_smallest_params(name, params):
    report = run_suite(name, dict(params))
    assert report["checks"]
    assert report["passed"], [c for c in report["checks"]
                              if c["status"] != "pass"]


@pytest.mark.parametrize("m", [2, 3])
def test_esigma_past_the_budget_skips_instead_of_crashing(m):
    # level 1 of the quaternion 2m-gon has rank 4^(4m) > the default budget,
    # so the tables are one skip, not an internal error, and the skip names
    # that rank and the budget as homology.budget_skip words it
    report = run_suite("esigma", {"m": m})
    assert report["passed"] and report["skipped"] == 1
    skips = [c for c in report["checks"] if c["status"] == "skip"]
    assert [c["name"] for c in skips] == [f"quaternion-pipeline-m{m}/homology-tables"]
    assert skips[0]["witness"] == {
        "reason": f"level rank {4 ** (4 * m)} exceeds the dense budget {DENSE_BUDGET}"}


@pytest.mark.parametrize("name", ["weyl", "conjugate-switch"])
def test_norm_suites_build_the_gaussian_coefficient_once(monkeypatch, name):
    # every subgroup's actions dress the one coefficient the suite loaded,
    # instead of re-reading gaussian.json per subgroup
    calls = []
    build = suites_structured.gaussian

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(suites_structured, "gaussian", counted)
    assert run_suite(name, {"group": "s3"})["passed"]
    assert len(calls) == 1
