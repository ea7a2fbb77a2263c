"""The four workloads: their hosts, their operations and the checks on each
operation's output.

An op is one public genpos call (``gp_exact`` on one host, one sampler
seed, one verify-paper claim).  Ops call genpos through module attributes
(``solver.gp_exact``), so a :class:`tracer.Tracer` installed around a pass
sees every call.  Each op returns an :class:`Outcome` whose ``out`` holds
only deterministic outputs (values, counts, nodes, witnesses), so two
passes with the same seed must produce identical ``out`` dictionaries.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from genpos import graphs, randomized, solver, verify

import oracle

# Per-pass composition.  Times are single-threaded on a 2-core x86 VM with
# Python 3.11 and numpy 2.4; raw times move by up to 2x with host load.
PAPER = ("P5xP5", "P6xC7", "C7xC7", "C8xC7", "K5xK5")  # 3-50 ms each
PAPER_SWEEPS = 10  # 50 short calls a pass: enough samples for p50 and p90
STRESS = ("C9xC9", "C10xC10", "P3^4", "K4^3")  # 0.5-4 s each
SEARCH_BUDGET = ("C5^3", 400_000)  # does not finish in 60 s unbudgeted

COUNT_HOSTS = (
    "P4xP4", "P4xP5", "P5xP5", "P6xP6", "P8xP8",  # grids
    "P6xC6", "C8xC7", "C8xC8", "C7xC9",  # cylinders and tori
    "K2^6", "P4^3", "C4^3",  # cube-like
)  # 1-300 ms each
ENUMERATE = ("P5xP5", "C7xC7")
COUNT_SWEEPS = 3  # six samples a run for each short op
COUNT_HEAVY = ("K4^3",)  # Hamming, 4-7 s
COUNT_BUDGET = ("K8xK8", 400_000)

# (factor, power, sampler seeds per pass); C7^10 has M = 115.  A C5^10 call
# takes 125-180 ms depending on its sampler seed, and both percentiles fall
# among the C5^10 calls, so eighteen of them keep the percentiles from
# following the few inputs one workload seed draws.
SAMPLE_HOSTS = (("C7", 10, 1), ("K2", 30, 2), ("C5", 10, 18))


@dataclass
class Outcome:
    status: str  # "ok", "skipped-budget" or "error"
    out: dict  # deterministic outputs, compared across passes
    raw: object = None  # full result, kept for the oracle


@dataclass
class Op:
    key: str
    span: str  # span name of the whole call in a traced pass
    fn: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]  # None, or why the output is wrong


@dataclass
class Workload:
    name: str
    nominal_pass_s: float  # reference-core seconds; sets the pass count for --seconds
    setup: Callable  # (tracer or None) -> context
    ops: Callable  # (context, seed) -> list[Op], one pass


def _build_hosts(specs, tracer=None) -> dict:
    """Parse and build every host, then fill its factor distance tables."""
    hosts = {}
    for spec in specs:
        g = graphs.build(spec)
        if tracer is None:
            g.factor_dist_tables()
        else:
            tracer.span("graphs.factor_dist", g.factor_dist_tables)
        hosts[spec] = g
    return hosts


def _json_normal(value):
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _check_witness(spec: str, gp: int, witness) -> str | None:
    if len(witness) != gp:
        return f"witness has {len(witness)} vertices, value says {gp}"
    err = oracle.gp_violation(oracle.Metric.of(spec), witness)
    return f"witness rejected: {err}" if err else None


# ----------------------------------------------------------------------
# search

def _gp_op(spec: str, g, max_nodes: int | None = None) -> Op:
    limits = solver.SearchLimits(max_nodes=max_nodes) if max_nodes else None
    ref = oracle.GP_REFERENCE[spec][0]

    def run():
        res = solver.gp_exact(g, limits=limits)
        out = {
            "gp": res.gp_value,
            "complete": res.complete,
            "nodes": res.nodes_explored,
            "witness": [list(v) for v in res.witness],
        }
        return Outcome("ok" if res.complete else "skipped-budget", out)

    def check(o):
        gp = o.out["gp"]
        if o.out["complete"] and gp != ref:
            return f"gp {gp}, reference {ref}"
        if gp > ref:
            return f"budget-stopped best {gp} exceeds the exact value {ref}"
        return _check_witness(spec, gp, o.out["witness"])

    key = f"gp_exact {spec}" + (f" max_nodes={max_nodes}" if max_nodes else "")
    return Op(key, "op.gp_exact", run, check)


def _search_setup(tracer=None):
    return _build_hosts(PAPER + STRESS + (SEARCH_BUDGET[0],), tracer)


def _search_ops(hosts, seed):
    ops = [_gp_op(spec, hosts[spec]) for spec in PAPER] * PAPER_SWEEPS
    ops += [_gp_op(spec, hosts[spec]) for spec in STRESS]
    spec, budget = SEARCH_BUDGET
    ops.append(_gp_op(spec, hosts[spec], budget))
    return ops


# ----------------------------------------------------------------------
# count

_brute_force_cache: dict[str, tuple[int, int]] = {}


def _count_reference(spec: str) -> tuple[int, int | None]:
    gp = oracle.GP_REFERENCE[spec][0]
    count = oracle.COUNT_REFERENCE.get(spec)
    if spec in oracle.BRUTE_FORCE_COUNT:
        if spec not in _brute_force_cache:
            _brute_force_cache[spec] = oracle.brute_force_max_count(spec)
        brute = _brute_force_cache[spec]
        if brute != (gp, count):
            raise ValueError(f"reference table disagrees with brute force on {spec}: {brute}")
    return gp, count


def _count_op(spec: str, g, max_nodes: int | None = None) -> Op:
    limits = solver.SearchLimits(max_nodes=max_nodes) if max_nodes else None

    def run():
        try:
            gp, count = solver.count_maximum_gp_sets(g, limits=limits)
        except solver.BudgetExhausted:
            return Outcome("skipped-budget", {"complete": False})
        return Outcome("ok", {"gp": gp, "count": count, "complete": True})

    def check(o):
        if o.status != "ok":
            return None
        gp, count = _count_reference(spec)
        if o.out["gp"] != gp:
            return f"gp {o.out['gp']}, reference {gp}"
        if count is not None and o.out["count"] != count:
            return f"count {o.out['count']}, reference {count}"
        return None

    key = f"count {spec}" + (f" max_nodes={max_nodes}" if max_nodes else "")
    return Op(key, "op.count", run, check)


def _enumerate_op(spec: str, g) -> Op:
    def run():
        gp, sets = solver.enumerate_maximum_gp_sets(g)
        digest = hashlib.sha256(json.dumps(sets).encode()).hexdigest()
        return Outcome("ok", {"gp": gp, "count": len(sets), "sets_sha256": digest}, raw=sets)

    def check(o):
        gp, count = _count_reference(spec)
        sets = o.raw
        if o.out["gp"] != gp or len(sets) != count:
            return f"({o.out['gp']}, {len(sets)} sets), reference ({gp}, {count})"
        if len({tuple(map(tuple, s)) for s in sets}) != len(sets):
            return "a set is listed twice"
        for s in sets:
            err = _check_witness(spec, gp, s)
            if err:
                return err
        return None

    return Op(f"enumerate {spec}", "op.enumerate", run, check)


def _count_setup(tracer=None):
    return _build_hosts(COUNT_HOSTS + ENUMERATE + COUNT_HEAVY + (COUNT_BUDGET[0],), tracer)


def _count_ops(hosts, seed):
    short = [_count_op(spec, hosts[spec]) for spec in COUNT_HOSTS]
    short += [_enumerate_op(spec, hosts[spec]) for spec in ENUMERATE]
    ops = short * COUNT_SWEEPS + [_count_op(spec, hosts[spec]) for spec in COUNT_HEAVY]
    spec, budget = COUNT_BUDGET
    ops.append(_count_op(spec, hosts[spec], budget))
    return ops


# ----------------------------------------------------------------------
# verify

# The median op of verify is a ~7 ms claim whose scaled time still moves a
# few percent from sample to sample; twelve samples a run steady it.
VERIFY_SWEEPS = 6


def _claim_op(claim_id: str) -> Op:
    def run():
        (record,) = verify.run_claims(only={claim_id})
        out = _json_normal({"status": record.status, "computed": record.computed})
        return Outcome("ok", out)

    def check(o):
        want = oracle.EXPECTED_STATUS[claim_id]
        if o.out["status"] != want:
            return f"status {o.out['status']}, expected {want}"
        computed = o.out["computed"]
        if claim_id == "grid-count-formula":
            for rs, exact in (("4x4", 36), ("4x5", 120), ("5x5", 400)):
                if computed[rs]["enumerated"] != exact:
                    return f"P{rs} enumerated {computed[rs]['enumerated']}, exact {exact}"
        if claim_id == "torus-gp-8x7":
            if computed["gp"] != 7:
                return f"gp(C8xC7) = {computed['gp']}, exact 7"
            return _check_witness("C8xC7", 7, computed["witness"])
        return None

    return Op(f"claim {claim_id}", f"verify.{claim_id}", run, check)


def _verify_setup(tracer=None):
    return [claim.id for claim in verify.CLAIMS]


def _verify_ops(claim_ids, seed):
    # checker-equivalence takes ~95% of the registry; the other 14 claims
    # take ~0.25 s together on the reference core and are swept.
    heavy = "checker-equivalence"
    short = [_claim_op(cid) for cid in claim_ids if cid != heavy]
    return short * VERIFY_SWEEPS + [_claim_op(heavy)]


# ----------------------------------------------------------------------
# sample

_sample_size_cache: dict[tuple[str, int], int] = {}


def _sample_op(token: str, factor, power: int, seed: int) -> Op:
    def run():
        r = randomized.first_moment_construct(factor, power, seed=seed, retries=0)
        out = {
            "M": r.M,
            "distinct": r.M - r.duplicates,
            "bad_triples": r.bad_triples,
            "deletions": len(r.deletions),
            "success": r.success,
            "attempts": r.attempts,
            "result": [list(v) for v in r.result],
        }
        return Outcome("ok", out, raw=r)

    def check(o):
        r = o.raw
        key = (token, power)
        if key not in _sample_size_cache:
            _sample_size_cache[key] = oracle.sample_size(token, power)
        if r.M != _sample_size_cache[key]:
            return f"M = {r.M}, reference {_sample_size_cache[key]}"
        metric = oracle.Metric([token] * power)
        distinct = sorted(set(r.samples))
        if len(r.samples) != r.M or not all(metric.in_range(v) for v in distinct):
            return "samples malformed"
        result = [tuple(v) for v in r.result]
        if not set(result) <= set(distinct) or len(result) != len(distinct) - len(r.deletions):
            return "result is not the samples minus the deletions"
        if r.success != (len(result) >= (r.M + 1) // 2):
            return "success flag disagrees with the result size"
        bad = oracle.bad_triple_count(metric, distinct)
        if r.bad_triples != bad:
            return f"{r.bad_triples} bad triples reported, oracle counts {bad}"
        err = oracle.gp_violation(metric, result)
        return f"result rejected: {err}" if err else None

    return Op(f"sample {token}^{power} seed={seed}", "op.sample", run, check)


def _sample_setup(tracer=None):
    hosts = _build_hosts(tuple(token for token, _, _ in SAMPLE_HOSTS), tracer)
    return {token: g.factors[0] for token, g in hosts.items()}


def _sample_ops(factors, seed):
    rng = random.Random(seed)
    return [
        _sample_op(token, factors[token], power, rng.getrandbits(32))
        for token, power, runs in SAMPLE_HOSTS
        for _ in range(runs)
    ]


WORKLOADS = {
    "search": Workload("search", 6.5, _search_setup, _search_ops),
    "count": Workload("count", 7.0, _count_setup, _count_ops),
    "verify": Workload("verify", 6.0, _verify_setup, _verify_ops),
    "sample": Workload("sample", 5.3, _sample_setup, _sample_ops),
}
