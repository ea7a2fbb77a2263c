"""Layered benchmark for genpos.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 12 --trace 0

Workloads: search, count, verify, sample (see perfbench/README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones, taken from one traced pass of
every workload, plus the tracing overhead on the named workload.

Single process, single-threaded.  The only other processes are the fresh
interpreters that time set-up, started and awaited one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run, spread before, between and after the
# passes; setup_s is their median.
SETUP_RUNS = 8


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=str), flush=True)


# ----------------------------------------------------------------------
# provenance

def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "genpos").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


# ----------------------------------------------------------------------
# running ops

class Ledger:
    """Every op's timings and outcomes, keyed by op."""

    def __init__(self):
        self.ops = {}  # key -> Op
        self.first = {}  # key -> first Outcome
        self.outs = {}  # key -> set of serialized outs
        self.ms = {}  # key -> [ms, ...]
        self.statuses = {}  # key -> status of the first outcome

    def record(self, op, outcome, ms: float) -> None:
        key = op.key
        if key not in self.first:
            self.ops[key] = op
            self.first[key] = outcome
            self.statuses[key] = outcome.status
            self.outs[key] = set()
            self.ms[key] = []
        self.outs[key].add(json.dumps([outcome.status, outcome.out], sort_keys=True))
        self.ms[key].append(ms)

    def attempted(self) -> int:
        return sum(len(values) for values in self.ms.values())

    def check(self) -> dict[str, str]:
        """Key -> reason for every op whose output is wrong."""
        failures = {}
        for key, op in self.ops.items():
            first = self.first[key]
            if len(self.outs[key]) > 1:
                failures[key] = "outputs differ between passes with the same seed"
            elif first.status == "error":
                failures[key] = first.out["error"]
            else:
                try:
                    reason = op.check(first)
                except Exception as exc:  # a crashing check is a failed op
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason:
                    failures[key] = reason
        return failures


def execute(op, tracer=None):
    from workloads import Outcome

    try:
        if tracer is None:
            return op.fn()
        return tracer.span(op.span, op.fn)
    except Exception as exc:  # an op that raises is a failed op
        return Outcome("error", {"error": f"{type(exc).__name__}: {exc}"})


def run_pass(ops, order_seed: str, ledger: Ledger, tracer=None) -> tuple[float, float]:
    """One pass over ``ops`` in a seeded order.  Each op's time is scaled
    to the reference core by the calibration kernel timed before, during
    and after it (see speed.py).  Returns the sums of the pass's scaled
    and of its raw op times, in seconds."""
    order = list(ops)
    random.Random(order_seed).shuffle(order)
    ref_total = raw_total = 0.0
    with speed.Sampler() as sampler:
        sampler.sample()
        for op in order:
            first, spent = len(sampler.times) - 1, sampler.spent_ns
            t0 = time.perf_counter_ns()
            outcome = execute(op, tracer)
            raw_ms = (time.perf_counter_ns() - t0 - (sampler.spent_ns - spent)) / 1e6
            sampler.sample()
            ref_ms = raw_ms * speed.scale(sampler.times[first:])
            ledger.record(op, outcome, ref_ms)
            ref_total += ref_ms
            raw_total += raw_ms
    return ref_total / 1e3, raw_total / 1e3


def tail_percentile(n: int) -> int:
    """Highest percentile, at most 90, with at least ten samples beyond it
    under the 'exclusive' quantile method."""
    for q in range(90, 0, -1):
        if n - int((n + 1) * q / 100) >= 10:
            return q
    raise ValueError(f"{n} samples are too few for a percentile with ten beyond it")


def report_ops(ledger: Ledger, failures: dict) -> None:
    for key in ledger.ops:
        out = dict(ledger.first[key].out)
        if "result" in out:  # sampler sets: print the size, the digest covers them
            out["result"] = f"{len(out['result'])} vertices"
        emit({
            "op": key,
            "status": "failed" if key in failures else ledger.statuses[key],
            "reason": failures.get(key),
            "samples": len(ledger.ms[key]),
            "ms_median": statistics.median(ledger.ms[key]),
            "out": out,
        })


def digests(ledger: Ledger) -> dict:
    """Output digests: one over values, counts and witnesses, one over node
    counts.  Equal digests across runs or commits mean identical outputs."""
    outputs, nodes = {}, {}
    for key in sorted(ledger.first):
        out = dict(ledger.first[key].out)
        if "nodes" in out:
            nodes[key] = out.pop("nodes")
        outputs[key] = [ledger.statuses[key], out]

    def sha(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    return {"outputs_sha256": sha(outputs), "nodes_sha256": sha(nodes)}


# ----------------------------------------------------------------------
# end-to-end run

class SetupTimer:
    """Times fresh interpreters that import genpos and build the workload's
    hosts.  The runs are spread over the measurement, between passes.

    Set-up is plain wall time, not scaled by the calibration kernel: it is
    interpreter start, imports and numpy, which the host's slow phases
    barely touch (0.26-0.36 s while the kernel time in the same child moved
    0.32-0.65 ms), so scaling it would add the kernel's swing instead of
    removing one."""

    def __init__(self, workload: str):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload]
        self.times: list[float] = []
        self._start()  # unmeasured: fills the bytecode cache

    def _start(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0

    def measure(self, slot: int, slots: int) -> None:
        """This slot's share of the SETUP_RUNS timed starts."""
        self.times += [self._start() for _ in range(slot, SETUP_RUNS, slots)]


def end_to_end(args, wl) -> tuple[dict, Ledger, dict, dict]:
    setup = SetupTimer(wl.name)
    ctx = wl.setup()
    ops = wl.ops(ctx, args.seed)
    passes = max(2, int(args.seconds / wl.nominal_pass_s))
    ledger = Ledger()
    walls = []
    raw_walls = []
    for p in range(passes):
        setup.measure(p, passes + 1)
        ref_wall, raw_wall = run_pass(ops, f"{args.seed}/{p}", ledger)
        walls.append(ref_wall)
        raw_walls.append(raw_wall)
    setup.measure(passes, passes + 1)
    # Every op is deterministic, so the spread of one op's samples is host
    # noise: each sample enters the percentiles as its op's median latency.
    samples = [statistics.median(ms) for ms in ledger.ms.values() for _ in ms]
    q = tail_percentile(len(samples))
    failures = ledger.check()
    n = len(samples)
    failed = sum(len(ledger.ms[key]) for key in failures)

    def with_status(status):
        return sum(len(ledger.ms[key]) for key, st in ledger.statuses.items() if st == status)

    decided = with_status("ok")
    metrics = {
        "setup_s": statistics.median(setup.times),
        "wall_s": statistics.median(walls),
        "op_ms.p50": statistics.median(samples),
        "op_ms.tail": statistics.quantiles(samples, n=100)[q - 1],
        "decided_frac": decided / n,
        "ok_frac": 1 - failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = {
        "passes": passes,
        "pass_ref_s": walls,
        "pass_raw_s": raw_walls,
        "op_samples": n,
        "tail_percentile": q,
        "failed_frac": failed / n,
        "skipped_budget": with_status("skipped-budget"),
        "setup_runs_s": setup.times,
    }
    return metrics, ledger, summary, failures


# ----------------------------------------------------------------------
# traced run

def layer_metrics(traces: dict, ledgers: dict) -> dict:
    """Per-layer numbers, each from the traced pass of the workload whose
    end-to-end metrics it should move (see README.md)."""
    from oracle import EXPECTED_STATUS

    s, c, v, r = (traces[w] for w in ("search", "count", "verify", "sample"))

    def outs(workload, prefix):
        ledger = ledgers[workload]
        return [ledger.first[k] for k in ledger.first if k.startswith(prefix)]

    nodes = sum(o.out["nodes"] for o in outs("search", "gp_exact"))
    budget_stops = sum(
        1 for w in ("search", "count") for o in outs(w, "") if o.status == "skipped-budget"
    )
    runs = [o.raw for o in outs("sample", "sample")]
    is_gp = v.get("position.is_gp")
    charac = v.get("position.characterization")
    metrics = {
        "graphs.build.ms": s.ms("graphs.build"),
        "graphs.factor_dist.ms": s.ms("graphs.factor_dist"),
        "solver.distance_matrix.ms": s.ms("solver.distance_matrix"),
        "solver.index_build.ms": s.ms("solver.index_build"),
        "solver.allowed_tables.ms": s.ms("solver.allowed_tables"),
        "solver.gp_exact.ms": s.ms("solver.gp_exact"),
        "solver.search.nodes": nodes,
        # gp_exact self time: minus index build, allowed tables and certify
        "solver.search.ns_per_node": s.get("solver.gp_exact").self_ns * s.scale / nodes,
        "solver.count.ms": c.ms("solver.count"),
        "solver.count.max_sets": sum(o.out.get("count", 0) for o in outs("count", "count")),
        "solver.enumerate.ms": c.ms("solver.enumerate"),
        "solver.budget_stops": budget_stops,
        "position.certify.ms": s.ms("position.certify"),
        "position.is_gp.ms": v.ms("position.is_gp"),
        "position.is_gp.calls": is_gp.calls,
        "position.characterization.ms": v.ms("position.characterization"),
        "position.characterization.calls": charac.calls,
        "position.triples_checked": is_gp.work,
        "randomized.p_exact.ms": r.ms("randomized.p_exact"),
        "randomized.choose_M.ms": r.ms("randomized.choose_M"),
        "randomized.construct.ms": r.ms("randomized.construct"),
        "randomized.bad_triples": sum(run.bad_triples for run in runs),
        "randomized.triples_examined": sum(comb(run.M - run.duplicates, 3) for run in runs),
        "randomized.success_ratio": sum(run.success for run in runs) / sum(run.attempts for run in runs),
        **{f"verify.{cid}.ms": v.ms(f"verify.{cid}") for cid in EXPECTED_STATUS},
        "verify.status_mismatches": sum(
            1 for key, o in ledgers["verify"].first.items()
            if o.out.get("status") != EXPECTED_STATUS[key.removeprefix("claim ")]
        ),
    }
    return metrics


def traced(args, workloads) -> tuple[dict, dict, dict, dict]:
    from tracer import Tracer

    named = workloads[args.workload]
    ctx = named.setup()
    # The untraced and traced passes share a ledger, so the bit-identity
    # guard also proves that tracing leaves every output unchanged.
    ledgers = {named.name: Ledger()}
    untraced_wall, _ = run_pass(named.ops(ctx, args.seed), f"{args.seed}/0", ledgers[named.name])
    order = [named] + [wl for name, wl in workloads.items() if name != named.name]
    traces, walls = {}, {}
    for wl in order:
        ledger = ledgers.setdefault(wl.name, Ledger())
        with Tracer() as tracer:
            ctx = wl.setup(tracer)
            ops = wl.ops(ctx, args.seed)
            walls[wl.name], raw = run_pass(ops, f"{args.seed}/0", ledger, tracer)
        # span times are scaled by the pass's overall calibration factor
        tracer.scale = walls[wl.name] / raw
        traces[wl.name] = tracer
    failures = {name: ledger.check() for name, ledger in ledgers.items()}
    metrics = layer_metrics(traces, ledgers)
    metrics["trace.overhead_s"] = walls[named.name] - untraced_wall
    summary = {
        "untraced_ref_s": untraced_wall,
        "traced_ref_s": walls,
        "spans": {name: tracer.table() for name, tracer in traces.items()},
    }
    return metrics, ledgers, summary, failures


# ----------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "count", "verify", "sample"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genpos" / "__init__.py").is_file():
        print(f"perfbench: no genpos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup()
        return 0

    emit({"stamp": stamp(args)})
    if args.trace:
        metrics, ledgers, summary, failures = traced(args, WORKLOADS)
    else:
        metrics, ledger, summary, failures = end_to_end(args, wl)
        ledgers, failures = {wl.name: ledger}, {wl.name: failures}
    # Metric names and units are defined once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for name, ledger in ledgers.items():
        report_ops(ledger, failures[name])
        emit({"digests": {name: digests(ledger)}})
    emit({"summary": summary})
    attempted = sum(ledger.attempted() for ledger in ledgers.values())
    failed = sum(len(ledgers[w].ms[k]) for w, fs in failures.items() for k in fs)
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
