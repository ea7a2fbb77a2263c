"""Command-line front end.

Subcommands, with the flags that only some of them read::

    gp <spec> [--cap V] [--time-limit S] [--strict]    exact gp value plus witness
    check <spec> <set> [--cap V]                       general-position verdict for a set
    count <spec> [--cap V] [--time-limit S]            number of maximum sets
    formula grid-count|cylinder|torus|hamming <params>
    construct cycle|cylinder|torus6|torus7 <params>
    p <spec>                                           exact bad-triple probability
    power-sample <factor> <n> --seed K [--retries T]
    verify-paper [--time-limit S] [--strict]           run the full claims registry

Set literals are semicolon-separated coordinate tuples, e.g.
``"(0,1);(1,4);(2,0)"`` (quote them so the shell leaves the parentheses
alone; spaces inside are ignored).

Every subcommand takes ``--json``, which emits a single JSON document
with stable key order ``{tool_version, command, spec, result, elapsed_ms,
seed?}``, and ``--out FILE``, which writes the output to a file instead
of stdout.  ``--cap`` overrides the vertex cap that ``gp``, ``count`` and
``check`` build their host under (200, 64 and 10^6); ``--time-limit``
budgets each search of ``gp``, ``count`` and ``verify-paper``;
``--strict`` is read by ``gp`` and ``verify-paper``.  A subcommand given
a flag it does not read refuses it as a usage error.

Each subcommand is declared once, by the ``_command`` decorator on its
runner, with its help, its own arguments and its human view.

Exit codes: 0 success, 1 computation or claim failed (or the reader of
standard output closed it early), 2 usage or parse error.  A search
stopped by a budget exits 0 with an explicit ``skipped-budget`` marker
unless ``--strict`` is given; ``verify-paper`` puts the marker on every
claim whose search or count the budget stops.  A ``count`` stopped by
``--time-limit`` has no partial answer and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .formulas import (cycle_gp_triple, cylinder_gp_value, cylinder_witness, grid_gp_count,
                       hamming_lower_bound, torus_gp_bounds, torus_witness6, torus_witness7)
from .graphs import DEFAULT_VERTEX_CAP, GraphSpecError, VertexCapError, build, parse_spec
from .position import find_violating_triple
from .randomized import first_moment_construct, p_exact
from .solver import (DEFAULT_ENUM_CAP, DEFAULT_SEARCH_CAP, BudgetExhausted, SearchLimits,
                     count_maximum_gp_sets, gp_exact)
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
# the subcommand registry

class Command(NamedTuple):
    help: str
    arguments: tuple  # (names, options) pairs for ``add_argument``
    run: Callable  # parsed arguments -> (result, spec text or None, exit code)
    view: Callable  # the --json payload -> the lines of the human view


COMMANDS: dict[str, Command] = {}


def _command(name: str, help: str, *arguments, view):
    """Register the decorated runner as subcommand ``name``, in the order
    the parser lists them."""
    def register(run):
        COMMANDS[name] = Command(help, arguments, run, view)
        return run
    return register


def _arg(*names, **options):
    return names, options


def _cap(default):
    return _arg("--cap", type=_at_least(0), default=default, help="vertex cap override")


_SPEC = _arg("spec")
_TIME_LIMIT = _arg("--time-limit", type=_at_least(0, float, "a number of seconds"), default=None,
                   help="seconds per exact search (>= 0)")
_STRICT = _arg("--strict", action="store_true", help="budget exhaustion becomes exit code 1")


def _coords_str(coords) -> str:
    return " ".join("(" + ",".join(str(c) for c in v) + ")" for v in coords)


# ----------------------------------------------------------------------
# subcommands; coordinate tuples go into results as they are, since JSON
# writes a tuple as an array

def _gp_view(payload):
    result = payload["result"]
    suffix = "" if result["complete"] else "   [skipped-budget: best found so far]"
    return [f"gp({payload['spec']}) = {result['gp']}{suffix}",
            f"witness: {_coords_str(result['witness'])}",
            f"nodes explored: {result['nodes']}"]


@_command("gp", "exact gp value and witness", _SPEC, _cap(DEFAULT_SEARCH_CAP), _TIME_LIMIT, _STRICT,
          view=_gp_view)
def _gp(args):
    g = build(args.spec, cap=args.cap)  # the search cap also bounds the build
    res = gp_exact(g, limits=SearchLimits(time_limit=args.time_limit), cap=args.cap)
    result = {"gp": res.gp_value, "witness": res.witness.members, "nodes": res.nodes_explored,
              "complete": res.complete}
    if res.complete:
        return result, g.spec, 0
    result["status"] = SKIPPED
    return result, g.spec, 1 if args.strict else 0


def _check_view(payload):
    result = payload["result"]
    lines = [f"general position: {'yes' if result['general_position'] else 'no'}"]
    if result["violating_triple"]:
        mid, a, b = result["violating_triple"]
        lines.append(f"violation: {_coords_str([mid])} lies between {_coords_str([a])} and {_coords_str([b])}")
    return lines


@_command("check", "test a set for general position", _SPEC,
          _arg("set", help='semicolon-separated tuples, e.g. "(0,1);(1,4)"'), _cap(DEFAULT_VERTEX_CAP),
          view=_check_view)
def _check(args):
    g = build(args.spec, cap=args.cap)
    members = parse_vertex_set(args.set)
    bad = find_violating_triple(g, members)  # refuses a repeated vertex
    result = {"general_position": bad is None, "violating_triple": bad, "set": sorted(members)}
    return result, g.spec, 0 if bad is None else 1


@_command("count", "count maximum general position sets", _SPEC, _cap(DEFAULT_ENUM_CAP), _TIME_LIMIT,
          view=lambda payload: ["gp({spec}) = {result[gp]}".format_map(payload),
                                "maximum general position sets: {result[count]}".format_map(payload)])
def _count(args):
    g = build(args.spec, cap=args.cap)
    value, count = count_maximum_gp_sets(g, cap=args.cap, limits=SearchLimits(time_limit=args.time_limit))
    return {"gp": value, "count": count}, g.spec, 0


def _hamming(*sizes):
    if len(sizes) < 2:
        raise UsageError("formula hamming needs at least two sizes")
    return {"value": hamming_lower_bound(sizes)}


# name -> (parameter names, function of the integer parameters); a last
# name in brackets stands for any number of further parameters
FORMULAS = {
    "grid-count": (("r", "s"), lambda r, s: {"value": grid_gp_count(r, s)}),
    "cylinder": (("r", "s"), lambda r, s: {"value": cylinder_gp_value(r, s)}),
    "torus": (("r", "s"), lambda r, s: torus_gp_bounds(r, s)._asdict()),
    "hamming": (("n1", "n2", "[n3 ...]"), _hamming),
}
CONSTRUCTIONS = {
    "cycle": (("s",), cycle_gp_triple),
    "cylinder": (("r", "s"), cylinder_witness),
    "torus6": (("r", "s"), torus_witness6),
    "torus7": ((), torus_witness7),
}


def _apply(table, args):
    """Call ``table``'s entry for ``args.which`` on the integers in
    ``args.params``; a parameter list that does not fit is a usage error
    naming the parameters."""
    names, fn = table[args.which]
    usage = f"{args.command} {args.which} " + (f"needs {' '.join(names)}" if names else "takes no parameters")
    try:
        values = [int(p) for p in args.params]
    except ValueError:
        raise UsageError(usage)
    if len(values) != len(names) and not (names and names[-1].startswith("[")):
        raise UsageError(usage)
    return fn(*values)


def _formula_view(payload):
    result = payload["result"]
    if "value" in result:
        return [f"{result['kind']}: {result['value']}"]
    lower = result["lower"]
    return [f"lower bound: {lower if lower is not None else 'not claimed'}; upper bound: {result['upper']}"]


@_command("formula", "closed-form values and bounds", _arg("which", choices=FORMULAS), _arg("params", nargs="*"),
          view=_formula_view)
def _formula(args):
    return {"kind": args.which, **_apply(FORMULAS, args)}, None, 0


def _construct_view(payload):
    result = payload["result"]
    lines = [f"witness on {payload['spec']} ({result['size']} vertices, certified): {_coords_str(result['witness'])}"]
    if result.get("note"):
        lines.append(f"note: {result['note']}")
    return lines


@_command("construct", "explicit certified witness sets", _arg("which", choices=CONSTRUCTIONS),
          _arg("params", nargs="*"), view=_construct_view)
def _construct(args):
    w = _apply(CONSTRUCTIONS, args)
    return {"witness": w.members, "size": len(w), "certified": w.certified, "note": w.note}, w.host.spec, 0


@_command("p", "exact bad-triple probability", _SPEC,
          view=lambda payload: ["p({spec}) = {result[num]}/{result[den]} = {result[decimal]:.6g}".format_map(payload)])
def _p(args):
    # p multiplies factor probabilities, so no vertex cap applies; the
    # spec's limits on factors still do
    g = build(args.spec, cap=None)
    p = p_exact(g)
    return {"num": p.numerator, "den": p.denominator, "decimal": p.numerator / p.denominator}, g.spec, 0


def _power_sample_view(payload):
    result = payload["result"]
    return [
        f"sampled M={result['M']} vertices of {payload['spec']} "
        f"(seed {payload['seed']}, run seed {result['run_seed']})",
        f"distinct {result['distinct']}, bad triples {result['bad_triples']}, deletions {len(result['deletions'])}",
        f"result size {result['size']} (target {result['target']}): "
        f"{'success' if result['success'] else 'below target'}",
        f"witness: {_coords_str(result['witness'])}",
    ]


@_command("power-sample", "first-moment construction on a power", _arg("factor"), _arg("n", type=_at_least(1)),
          _arg("--seed", type=int, required=True), _arg("--retries", type=_at_least(0), default=20),
          view=_power_sample_view)
def _power_sample(args):
    spec = parse_spec(args.factor)
    if len(spec.factors) != 1:
        raise UsageError(f"power-sample needs a single factor, got {args.factor!r}")
    factor = build(spec, cap=None).factors[0]
    run = first_moment_construct(factor, args.n, seed=args.seed, retries=args.retries)
    result = {"M": run.M, "distinct": run.M - run.duplicates, "bad_triples": run.bad_triples,
              "deletions": run.deletions, "witness": run.result.members, "size": len(run.result),
              "target": run.target, "success": run.success, "attempts": run.attempts, "run_seed": run.seed}
    return result, run.result.host.spec, 0  # the host's spec, rendered as every spec is


def _verify_view(payload):
    result = payload["result"]
    width = max(len(r["id"]) for r in result["claims"]) if result["claims"] else 10
    lines = [f"{r['id']:<{width}}  {r['status']:<22}  {r['elapsed_ms']:>10.1f} ms  {r['claim']}"
             for r in result["claims"]]
    counts = result["counts"]
    lines.append(
        f"overall: {result['overall']}  "
        f"(pass {counts['pass']}, fail {counts['fail']}, "
        f"skipped {counts['skipped-budget']}, documented discrepancies {counts['discrepancy-documented']})"
    )
    return lines


@_command("verify-paper", "run the full claims registry", _TIME_LIMIT, _STRICT, view=_verify_view)
def _verify(args):
    records = run_claims(limits=SearchLimits(time_limit=args.time_limit))
    counts = {status: sum(r.status == status for r in records) for status in (PASS, FAIL, SKIPPED, DISCREPANCY)}
    overall = overall_status(records)
    result = {"claims": [r.to_json() for r in records], "counts": counts, "overall": overall}
    failed = overall == FAIL or (args.strict and counts[SKIPPED])
    return result, None, 1 if failed else 0


# ----------------------------------------------------------------------
# rendering

def render_human(payload: dict) -> str:
    """Human-readable rendering of a result payload (the same dict that
    --json emits, so the two views always agree)."""
    return "\n".join(COMMANDS[payload["command"]].view(payload))


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genpos",
        description="Exact general position toolkit for Cartesian products of graphs.",
    )
    parser.add_argument("--version", action="version", version=f"genpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        for names, options in command.arguments:
            p.add_argument(*names, **options)
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    started = time.monotonic()
    try:
        result, spec_str, code = COMMANDS[args.command].run(args)
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
    if "seed" in args:
        payload["seed"] = args.seed

    # one JSON document in the payload's key order, stable across runs
    text = json.dumps(payload, indent=2) if args.json else render_human(payload)
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
