"""Named verification suites over fixed rosters of groups and rings.

Each suite replays one family of structural identities in exact integer
arithmetic and returns a plain report dict that the command line driver can
serialize::

    {"suite": str,
     "checks": [{"name": str, "status": "pass" | "fail" | "skip",
                 "witness": <json-able or None>}],
     "failures": int, "skipped": int, "passed": bool}

A failing check carries enough data (group label, subgroup, element index,
the offending columns) to replay the single equation that broke.  Work that
would blow the dense-matrix budget is reported as an explicit skip, never
silently dropped.  Parameters a suite cannot use (a group label its roster
lacks, a coefficient without an involution, a negative degree, ...) or never
reads (each ``SUITES`` entry carries the set it reads) raise
``SuiteParameterError``; any other exception is a bug, not a verdict.

The suite bodies live in ``suites_structured``, ``suites_isotropy`` and
``suites_realhh``; ``run_suite`` imports the one family that holds the
named suite.  This module keeps the report helpers and the registry.
"""

from __future__ import annotations

from typing import Optional


class SuiteParameterError(ValueError):
    """A suite was given parameters it cannot run with: the caller's fault."""


# ---------------------------------------------------------------------------
# report plumbing


def _new_report(suite: str) -> dict:
    return {"suite": suite, "checks": [], "failures": 0, "skipped": 0,
            "passed": True}


def _check(report: dict, name: str, ok: bool, witness=None):
    status = "pass" if ok else "fail"
    entry = {"name": name, "status": status}
    if witness is not None:
        entry["witness"] = witness
    report["checks"].append(entry)
    if not ok:
        report["failures"] += 1
        report["passed"] = False


def _skip(report: dict, name: str, reason: str):
    report["checks"].append({"name": name, "status": "skip",
                             "witness": {"reason": reason}})
    report["skipped"] += 1


# ---------------------------------------------------------------------------
# registry


# suite name -> (its family module, the parameters it reads); ``run_suite``
# rejects any other parameter instead of silently ignoring it
SUITES = {
    "counit": ("structured", ("group",)),
    "psi": ("structured", ("group",)),
    "xi": ("structured", ("group",)),
    "xi-diagonal-counterexample": ("structured", ("group",)),
    "weyl": ("structured", ("group",)),
    "conjugate-switch": ("structured", ("group",)),
    "one-isotropy": ("isotropy", ()),
    "normal-subgroups": ("isotropy", ()),
    "two-isotropy": ("isotropy", ()),
    "realhh": ("realhh", ("m", "coeff", "truncation", "max_degree", "budget",
                          "subgroups")),
    "esigma": ("realhh", ("m",)),
}


def run_suite(name: str, params: Optional[dict] = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    family, reads = SUITES[name]
    for key in params or {}:
        if key not in reads:
            raise SuiteParameterError(
                f"{key!r} is not a parameter of suite {name!r} "
                f"(it reads: {', '.join(sorted(reads)) or 'none'})")
    if family == "structured":
        from .suites_structured import BODIES
    elif family == "isotropy":
        from .suites_isotropy import BODIES
    else:
        from .suites_realhh import BODIES
    return BODIES[name](params)
