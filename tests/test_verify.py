"""Every registered verification suite runs green at its smallest size."""

import pytest

from equiloday.verify import SUITES, run_suite

# esigma is left out: its quaternion polygon pipeline has no parameter that
# brings it under about 70 s, far past a tier-1 budget.
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
]


def test_smoke_roster_covers_every_suite():
    assert {name for name, _ in SMOKE} | {"esigma"} == set(SUITES)


@pytest.mark.parametrize("name,params", SMOKE,
                         ids=[f"{n}-{'-'.join(map(str, p.values())) or 'default'}"
                              for n, p in SMOKE])
def test_suite_passes_at_smallest_params(name, params):
    report = run_suite(name, dict(params))
    assert report["checks"]
    assert report["passed"], [c for c in report["checks"]
                              if c["status"] != "pass"]
