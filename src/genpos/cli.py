"""Command-line front end.

Subcommands::

    gp <spec>                         exact gp value plus witness
    check <spec> <set>                general-position verdict for a set
    count <spec>                      number of maximum sets
    formula grid-count|cylinder|torus|hamming <params>
    construct cycle|cylinder|torus6|torus7 <params>
    p <spec>                          exact bad-triple probability
    power-sample <factor> <n> --seed K [--retries T]
    verify-paper [--quick]            run the full claims registry

Set literals are semicolon-separated coordinate tuples, e.g.
``"(0,1);(1,4);(2,0)"`` (quote them so the shell leaves the parentheses
alone; spaces inside are ignored).

Common flags on every subcommand: ``--json`` emits a single JSON document
with stable key order ``{tool_version, command, spec, result, elapsed_ms,
seed?}``; ``--cap`` overrides the vertex cap that ``gp``, ``count`` and
``check`` build their host under (200, 64 and 10^6); ``--time-limit``
budgets each search; ``--out FILE`` writes the output to a file instead
of stdout.

Exit codes: 0 success, 1 computation or claim failed (or the reader of
standard output closed it early), 2 usage or parse error.  A search
stopped by a budget exits 0 with an explicit ``skipped-budget`` marker
unless ``--strict`` is given; a ``count`` stopped by ``--time-limit`` has
no partial answer and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .formulas import (
    cycle_gp_triple,
    cylinder_gp_value,
    cylinder_witness,
    grid_gp_count,
    hamming_lower_bound,
    torus_gp_bounds,
    torus_witness6,
    torus_witness7,
)
from .graphs import DEFAULT_VERTEX_CAP, GraphSpecError, VertexCapError, build, parse_spec
from .position import find_violating_triple
from .randomized import first_moment_construct, p_exact
from .solver import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SEARCH_CAP,
    BudgetExhausted,
    SearchLimits,
    count_maximum_gp_sets,
    gp_exact,
)
from .verify import DISCREPANCY, FAIL, PASS, SKIPPED, overall_status, run_claims


class UsageError(Exception):
    pass


def parse_vertex_set(text: str) -> list[tuple[int, ...]]:
    """Parse ``"(0,1);(1,4)"`` into coordinate tuples."""
    text = text.replace(" ", "")
    if not text:
        raise UsageError("empty vertex set literal")
    out = []
    for chunk in text.split(";"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise UsageError(f"bad coordinate tuple {chunk!r}; expected like (0,1)")
        body = chunk[1:-1]
        try:
            out.append(tuple(int(part) for part in body.split(",")) if body else ())
        except ValueError:
            raise UsageError(f"bad coordinate tuple {chunk!r}; entries must be integers")
    return out


def _coords_json(members) -> list[list[int]]:
    return [list(v) for v in members]


def _fraction_json(p) -> dict:
    return {"num": p.numerator, "den": p.denominator, "decimal": p.numerator / p.denominator}


def _limits(args) -> SearchLimits | None:
    if args.time_limit is not None:
        return SearchLimits(time_limit=args.time_limit)
    return None


def _at_least(lo, kind=int, what="an integer"):
    """An argparse type for numbers of ``kind`` >= ``lo`` (NaN is refused),
    so an out-of-range option or argument is a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = float("nan")
        if not value >= lo:
            raise argparse.ArgumentTypeError(f"expected {what} >= {lo}, got {text!r}")
        return value

    return parse


# ----------------------------------------------------------------------
# subcommand implementations: each returns (result_dict, spec_str, exit_code)

def _cmd_gp(args):
    cap = DEFAULT_SEARCH_CAP if args.cap is None else args.cap  # also bounds the build
    g = build(args.spec, cap=cap)
    res = gp_exact(g, limits=_limits(args), cap=cap)
    result = {
        "gp": res.gp_value,
        "witness": _coords_json(res.witness),
        "nodes": res.nodes_explored,
        "complete": res.complete,
    }
    if not res.complete:
        result["status"] = SKIPPED
        return result, g.spec, 1 if args.strict else 0
    return result, g.spec, 0


def _cmd_check(args):
    g = build(args.spec, cap=DEFAULT_VERTEX_CAP if args.cap is None else args.cap)
    members = parse_vertex_set(args.set)
    bad = find_violating_triple(g, members)
    result = {
        "general_position": bad is None,
        "violating_triple": None if bad is None else _coords_json(bad),
        "set": _coords_json(sorted(set(tuple(v) for v in members))),
    }
    return result, g.spec, 0 if bad is None else 1


def _cmd_count(args):
    cap = DEFAULT_ENUM_CAP if args.cap is None else args.cap
    g = build(args.spec, cap=cap)
    value, count = count_maximum_gp_sets(g, cap=cap, limits=_limits(args))
    return {"gp": value, "count": count}, g.spec, 0


def _cmd_formula(args):
    which = args.which
    params = args.params
    if which == "grid-count":
        r, s = _expect_ints(params, 2, "formula grid-count needs r s")
        return {"kind": which, "value": grid_gp_count(r, s)}, None, 0
    if which == "cylinder":
        r, s = _expect_ints(params, 2, "formula cylinder needs r s")
        return {"kind": which, "value": cylinder_gp_value(r, s)}, None, 0
    if which == "torus":
        r, s = _expect_ints(params, 2, "formula torus needs r s")
        bounds = torus_gp_bounds(r, s)
        return {"kind": which, "lower": bounds.lower, "upper": bounds.upper}, None, 0
    if which == "hamming":
        sizes = _expect_ints(params, None, "formula hamming needs n1 n2 [n3 ...]")
        if len(sizes) < 2:
            raise UsageError("formula hamming needs at least two sizes")
        return {"kind": which, "value": hamming_lower_bound(sizes)}, None, 0
    raise UsageError(f"unknown formula {which!r}")


def _cmd_construct(args):
    which = args.which
    params = args.params
    if which == "cycle":
        (s,) = _expect_ints(params, 1, "construct cycle needs s")
        w = cycle_gp_triple(s)
    elif which == "cylinder":
        r, s = _expect_ints(params, 2, "construct cylinder needs r s")
        w = cylinder_witness(r, s)
    elif which == "torus6":
        r, s = _expect_ints(params, 2, "construct torus6 needs r s")
        w = torus_witness6(r, s)
    elif which == "torus7":
        _expect_ints(params, 0, "construct torus7 takes no parameters")
        w = torus_witness7()
    else:
        raise UsageError(f"unknown construction {which!r}")
    result = {
        "witness": _coords_json(w),
        "size": len(w),
        "certified": w.certified,
        "note": w.note,
    }
    return result, w.host.spec, 0


def _cmd_p(args):
    # p multiplies factor probabilities, so ``--cap`` does not apply; the
    # spec's limits on factors still do
    g = build(args.spec, cap=None)
    return _fraction_json(p_exact(g)), g.spec, 0


def _cmd_power_sample(args):
    spec = parse_spec(args.factor)
    if len(spec.factors) != 1:
        raise UsageError(f"power-sample needs a single factor, got {args.factor!r}")
    factor = spec.factors[0].build()
    run = first_moment_construct(factor, args.n, seed=args.seed, retries=args.retries)
    result = {
        "M": run.M,
        "distinct": run.M - run.duplicates,
        "bad_triples": run.bad_triples,
        "deletions": _coords_json(run.deletions),
        "witness": _coords_json(run.result),
        "size": len(run.result),
        "target": run.target,
        "success": run.success,
        "attempts": run.attempts,
        "run_seed": run.seed,
    }
    spec_str = f"{spec.factors[0].token}^{args.n}"
    return result, spec_str, 0


def _cmd_verify(args):
    records = run_claims(quick=args.quick, time_limit=args.time_limit)
    counts = {
        "pass": sum(r.status == PASS for r in records),
        "fail": sum(r.status == FAIL for r in records),
        "skipped-budget": sum(r.status == SKIPPED for r in records),
        "discrepancy-documented": sum(r.status == DISCREPANCY for r in records),
    }
    result = {
        "claims": [r.to_json() for r in records],
        "counts": counts,
        "overall": overall_status(records),
    }
    code = 0
    if result["overall"] == FAIL:
        code = 1
    elif args.strict and counts["skipped-budget"]:
        code = 1
    return result, None, code


def _expect_ints(params, count, message):
    try:
        values = [int(p) for p in params]
    except ValueError:
        raise UsageError(message)
    if count is not None and len(values) != count:
        raise UsageError(message)
    return values


# ----------------------------------------------------------------------
# rendering

def emit_json(payload: dict) -> str:
    """Single JSON document; key order is the payload's insertion order,
    so output is stable across runs."""
    return json.dumps(payload, indent=2)


def _coords_str(coords) -> str:
    return " ".join("(" + ",".join(str(c) for c in v) + ")" for v in coords)


def render_human(payload: dict) -> str:
    """Human-readable rendering of a result payload (the same dict that
    --json emits, so the two views always agree)."""
    cmd = payload["command"]
    result = payload["result"]
    spec = payload.get("spec")
    lines = []
    if cmd == "gp":
        suffix = "" if result["complete"] else "   [skipped-budget: best found so far]"
        lines.append(f"gp({spec}) = {result['gp']}{suffix}")
        lines.append(f"witness: {_coords_str(result['witness'])}")
        lines.append(f"nodes explored: {result['nodes']}")
    elif cmd == "check":
        lines.append(f"general position: {'yes' if result['general_position'] else 'no'}")
        if result["violating_triple"]:
            mid, a, b = result["violating_triple"]
            lines.append(
                f"violation: {_coords_str([mid])} lies between {_coords_str([a])} and {_coords_str([b])}"
            )
    elif cmd == "count":
        lines.append(f"gp({spec}) = {result['gp']}")
        lines.append(f"maximum general position sets: {result['count']}")
    elif cmd == "formula":
        if result["kind"] == "torus":
            lower = result["lower"]
            lines.append(
                f"lower bound: {lower if lower is not None else 'not claimed'}; upper bound: {result['upper']}"
            )
        else:
            lines.append(f"{result['kind']}: {result['value']}")
    elif cmd == "construct":
        lines.append(f"witness on {spec} ({result['size']} vertices, certified): {_coords_str(result['witness'])}")
        if result.get("note"):
            lines.append(f"note: {result['note']}")
    elif cmd == "p":
        lines.append(f"p({spec}) = {result['num']}/{result['den']} = {result['decimal']:.6g}")
    elif cmd == "power-sample":
        lines.append(
            f"sampled M={result['M']} vertices of {spec} (seed {payload['seed']}, run seed {result['run_seed']})"
        )
        lines.append(
            f"distinct {result['distinct']}, bad triples {result['bad_triples']}, deletions {len(result['deletions'])}"
        )
        lines.append(
            f"result size {result['size']} (target {result['target']}): "
            f"{'success' if result['success'] else 'below target'}"
        )
        lines.append(f"witness: {_coords_str(result['witness'])}")
    elif cmd == "verify-paper":
        width = max(len(r["id"]) for r in result["claims"]) if result["claims"] else 10
        for r in result["claims"]:
            lines.append(f"{r['id']:<{width}}  {r['status']:<22}  {r['elapsed_ms']:>10.1f} ms  {r['claim']}")
        counts = result["counts"]
        lines.append(
            f"overall: {result['overall']}  "
            f"(pass {counts['pass']}, fail {counts['fail']}, "
            f"skipped {counts['skipped-budget']}, documented discrepancies {counts['discrepancy-documented']})"
        )
    else:
        lines.append(json.dumps(result))
    return "\n".join(lines)


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--cap", type=_at_least(0), default=None, help="vertex cap override")
    common.add_argument("--time-limit", type=_at_least(0, float, "a number of seconds"), default=None,
                        help="seconds per exact search (>= 0)")
    common.add_argument("--strict", action="store_true", help="budget exhaustion becomes exit code 1")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="genpos",
        description="Exact general position toolkit for Cartesian products of graphs.",
    )
    parser.add_argument("--version", action="version", version=f"genpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gp", parents=[common], help="exact gp value and witness")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_gp)

    p = sub.add_parser("check", parents=[common], help="test a set for general position")
    p.add_argument("spec")
    p.add_argument("set", help='semicolon-separated tuples, e.g. "(0,1);(1,4)"')
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("count", parents=[common], help="count maximum general position sets")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("formula", parents=[common], help="closed-form values and bounds")
    p.add_argument("which", choices=["grid-count", "cylinder", "torus", "hamming"])
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("construct", parents=[common], help="explicit certified witness sets")
    p.add_argument("which", choices=["cycle", "cylinder", "torus6", "torus7"])
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("p", parents=[common], help="exact bad-triple probability")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_p)

    p = sub.add_parser("power-sample", parents=[common], help="first-moment construction on a power")
    p.add_argument("factor")
    p.add_argument("n", type=_at_least(1))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--retries", type=_at_least(0), default=20)
    p.set_defaults(fn=_cmd_power_sample)

    p = sub.add_parser("verify-paper", parents=[common], help="run the full claims registry")
    p.add_argument("--quick", action="store_true", help="skip the two heavy torus searches")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    started = time.monotonic()
    try:
        result, spec_str, code = args.fn(args)
    except (GraphSpecError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VertexCapError, ValueError, ArithmeticError, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.monotonic() - started) * 1000

    payload = {
        "tool_version": __version__,
        "command": args.command,
        "spec": spec_str,
        "result": result,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    if args.command == "power-sample":
        payload["seed"] = args.seed

    text = emit_json(payload) if args.json else render_human(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        return code
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``genpos ... | head``); point stdout at the
        # null device so that the flush at exit cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 1
    return code


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
