"""Batch driver: build groups, spaces, and coefficient actions, run the
Loday pipelines, and execute the named verification suites.

Exit codes: 0 everything passed, 1 a verification/validation failure (with a
serialized witness on stdout), 2 a usage error (bad flags, flags the command
would ignore, missing files, unknown names, suite parameters the suite
rejects or never reads), 3 an internal error: a command raised anything
else, which is a bug rather than a verdict (its traceback and a one-line
summary go to stderr, nothing to stdout).  For fixed inputs and flags the bytes written to stdout are
deterministic; ``bench`` keeps that promise by sending its wall-clock
timings to stderr and only the (reproducible) dimension statistics to
stdout.

``verify`` and the parser live here.  The bodies of ``group``, ``ring``,
``space``, ``loday`` and ``bench`` live in ``commands``, imported only to
run one of them; the suites are reached through ``verify.run_suite``.

What loads when: importing this module loads no other module of the
package, so ``--help``, a usage error the parser or ``main`` reports, and an
unknown suite compile none of the maths layers.  A command that runs loads
its own layers: ``verify`` imports ``verify`` and then the one suite family
``run_suite`` picks, every other command imports ``commands``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .coeffs import Coefficient

OK, FAILED, USAGE, INTERNAL = 0, 1, 2, 3

# ``gring.DENSE_BUDGET`` is the default; the parser leaves ``--budget`` None
# so that parsing loads no maths layer, and a test pins this literal to it
_BUDGET_HELP = ("largest rank of each expanded level a fixed-point complex "
               "builds; degrees that need a bigger level print as skips "
               "(default 5000)")


class UsageError(Exception):
    """Bad input that is the caller's fault: exit 2, message on stderr."""


# ---------------------------------------------------------------------------
# output plumbing


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2, sort_keys=True))
    out.write("\n")


def _emit_csv(header: Sequence[str], rows, out) -> None:
    import csv
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)


# ---------------------------------------------------------------------------
# name resolution


def resolve_coefficient(spec: str) -> Coefficient:
    """A bundled name, or a path to a coefficient JSON file
    (``coeffs.resolve``)."""
    from .coeffs import resolve
    try:
        return resolve(spec)
    except ValueError as e:
        raise UsageError(str(e))


# ---------------------------------------------------------------------------
# cmd: verify


def cmd_verify(args, out) -> int:
    from .verify import SUITES, SuiteParameterError, run_suite
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; known: {', '.join(SUITES)}")
    params = {}
    for key in ("group", "m", "coeff", "truncation", "max_degree", "budget",
                "subgroups"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    try:
        report = run_suite(args.suite, params)
    except SuiteParameterError as e:
        raise UsageError(f"suite {args.suite!r} rejected its parameters: {e}")
    if args.format == "json":
        _emit_json(report, out)
    else:
        _emit_csv(
            ["suite", "check", "status", "witness"],
            [(report["suite"], c["name"], c["status"],
              json.dumps(c.get("witness"), sort_keys=True)
              if c.get("witness") is not None else "")
             for c in report["checks"]],
            out)
    return OK if report["passed"] else FAILED


# ---------------------------------------------------------------------------
# parser


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True,
                   choices=["sigma", "rot", "polygon", "cayley",
                            "coset-cayley", "permutohedron"])
    p.add_argument("--n", type=int, help="size for rot / permutohedron")
    p.add_argument("--m", type=int, help="half the polygon's vertex count")
    p.add_argument("--group", help="ambient group for cayley kinds")
    p.add_argument("--gens", help="comma-separated generator elements")
    p.add_argument("--sub", help="comma-separated subgroup elements")
    p.add_argument("--isotropy", choices=["one-conjugacy-class", "normal"],
                   default="one-conjugacy-class",
                   help="coset-cayley only: which isotropy regime the "
                        "vertices carry")
    p.add_argument("--truncation", type=int, default=4)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeff", required=True,
                   help="bundled coefficient name or JSON file path")
    p.add_argument("--inner", choices=["flip", "diagonal"], default="flip",
                   help="inner action for free-mode spaces")
    p.add_argument("--action", choices=["trivial", "cyclic", "involution"],
                   default="trivial",
                   help="which declared action dresses the coefficient")
    p.add_argument("--subgroups", choices=["free", "all", "classes"],
                   default="free")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="equiloday",
        description="Exact equivariant Loday constructions and their "
                    "verification suites")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=lambda **kw: argparse.ArgumentParser(
                                 parents=[common], **kw))

    p = sub.add_parser("group", help="inspect or export finite groups")
    p.add_argument("action", choices=["list", "info", "export"])
    p.add_argument("name", nargs="?",
                   help="group name (c<n>, d<order>, s<n>, klein, q8, a4) "
                        "or JSON file")

    p = sub.add_parser("ring", help="inspect bundled or file coefficients")
    p.add_argument("action", choices=["list", "info"])
    p.add_argument("name", nargs="?",
                   help="bundled coefficient name or JSON file")

    p = sub.add_parser("space", help="build a simplicial group-set")
    p.add_argument("action", choices=["build"])
    _add_space_flags(p)
    p.add_argument("--check", action="store_true",
                   help="run the simplicial/equivariance validator")

    p = sub.add_parser("loday", help="run a Loday pipeline end to end")
    p.add_argument("action", choices=["run"])
    _add_space_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--check", action="store_true",
                   help="check the space's isotropy mode and validate the "
                        "simplicial ring before computing")
    p.add_argument("--emit-complex", action="store_true",
                   help="include face maps and the normalized complex's boundaries "
                        "under 'moore_boundaries' (JSON only): on every level these "
                        "are the boundaries of C^H/D(C^H), the quotient by the "
                        "degenerate part, on the basis of nondegenerate orbit sums "
                        "where the levels allow it and on the fixed coordinates "
                        "elsewhere")

    p = sub.add_parser("verify", help="run one named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--group", help="restrict roster suites to one group")
    p.add_argument("--m", type=int, help="polygon size for realhh")
    p.add_argument("--coeff", help="coefficient for realhh")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="realhh: " + _BUDGET_HELP)
    p.add_argument("--subgroups", choices=["all", "classes"], default=None)

    p = sub.add_parser("bench", help="timing and matrix-size statistics")
    _add_space_flags(p)
    _add_pipeline_flags(p)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "action", None) in ("info", "export") and args.name is None:
        parser.error(f"{args.command} {args.action} needs a name")
    if args.format == "csv":
        if getattr(args, "emit_complex", False):
            parser.error("--emit-complex writes JSON only; drop --format csv")
        if args.command == "group" and args.action == "export":
            parser.error("group export writes JSON only; drop --format csv")
    try:
        if args.command == "verify":
            return cmd_verify(args, sys.stdout)
        from .commands import COMMANDS
        return COMMANDS[args.command](args, sys.stdout)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        return OK
    except Exception as e:
        import traceback  # only on this path: keeps it out of start-up time
        traceback.print_exc()
        where = f"suite {args.suite}" if args.command == "verify" else args.command
        print(f"internal error in {where}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    # run as ``python -m equiloday.cli``: ``commands`` imports this module by
    # name, which must find this one instead of compiling a second copy
    sys.modules.setdefault("equiloday.cli", sys.modules[__name__])
    sys.exit(main())
