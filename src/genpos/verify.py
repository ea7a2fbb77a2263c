"""Claims registry: every checkable quantitative claim, run and scored.

Each claim couples a statement about gp values, counts, probabilities or
constructions with an independent way of computing it (exact search,
exhaustive enumeration, or direct counting).  ``run_claims`` executes the
registry and returns one record per claim id with status ``pass``,
``fail``, ``skipped-budget`` (a budget or --quick cut the computation
short) or ``discrepancy-documented`` (the expected outcome for the claims
whose published value exact computation refutes: ``grid-count-formula``,
``torus-gp-8x7`` and ``star-formula-discrepancy``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .formulas import (
    grid_gp_count,
    torus_quadrant_cover,
    torus_witness6,
    torus_witness7,
)
from .graphs import FactorGraph, ProductGraph, build, explicit_adjacency
from .position import _clique_partition, bad_triples, is_general_position
from .randomized import (
    choose_M,
    first_moment_construct,
    gp_box_lower_bound,
    p_closed_form,
    p_exact,
    p_exact_restricted,
    p_power,
    star_formula_quoted,
)
from .solver import (
    BudgetExhausted,
    SearchLimits,
    count_maximum_gp_sets,
    gp_exact,
    isometric_cover_bound,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-budget"
DISCREPANCY = "discrepancy-documented"


@dataclass
class ClaimRecord:
    """One verified claim: what was asserted, what came out, and how."""

    id: str
    claim: str
    params: dict
    expected: object
    computed: object
    status: str
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class RunContext:
    time_limit: float | None = None
    quick: bool = False


def _frac(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _limits(ctx: RunContext) -> SearchLimits | None:
    """The search budget of a run; a time limit of 0 is a budget too."""
    return None if ctx.time_limit is None else SearchLimits(time_limit=ctx.time_limit)


def _search_value(spec: str, ctx: RunContext):
    """gp_exact through the budget; returns (value or None, complete)."""
    res = gp_exact(build(spec), limits=_limits(ctx))
    return (res.gp_value if res.complete else None), res.complete


# ----------------------------------------------------------------------
# claim runners: each returns (expected, computed, status)

def _search_table(ctx: RunContext, shown, values: dict[str, int]):
    """Search each spec of ``values`` in order and compare with its value;
    the first incomplete search stops the claim as skipped-budget.
    ``shown`` is the record's expected field."""
    computed = {}
    for spec in values:
        value, complete = _search_value(spec, ctx)
        computed[spec] = value
        if not complete:
            return shown, computed, SKIPPED
    return shown, computed, PASS if computed == values else FAIL


def _claim_grid_gp(ctx: RunContext):
    return _search_table(ctx, 4, {f"P{r}xP{s}": 4 for r in range(3, 7) for s in range(3, 7)})


# Enumerations where the published closed form is provably short: its case
# analysis misses gp-sets whose second projection has size 3, so for
# r, s >= 4 it undercounts.  These truths are frozen from two independent
# exhaustive enumerations.
GRID_COUNT_ENUM_TRUTH = {(4, 4): 36, (4, 5): 120, (5, 5): 400}


def _claim_grid_counts(ctx: RunContext):
    pairs = [(r, s) for r in range(2, 6) for s in range(r, 6)] + [(2, s) for s in range(6, 9)]
    computed = {}
    surprises = False
    known_mismatch = False
    for r, s in pairs:
        formula = grid_gp_count(r, s)
        try:
            _, enumerated = count_maximum_gp_sets(build(f"P{r}xP{s}"), limits=_limits(ctx))
        except BudgetExhausted:
            return "formula equals enumeration", computed, SKIPPED
        computed[f"{r}x{s}"] = {"formula": formula, "enumerated": enumerated}
        if (r, s) in GRID_COUNT_ENUM_TRUTH:
            if enumerated == GRID_COUNT_ENUM_TRUTH[(r, s)] and enumerated != formula:
                known_mismatch = True
            else:
                surprises = True
        elif formula != enumerated:
            surprises = True
    status = FAIL if surprises else (DISCREPANCY if known_mismatch else PASS)
    return "formula equals enumeration", computed, status


CYLINDER_TABLE = [
    (2, 3, 3),
    (2, 4, 4),
    (3, 3, 4),
    (4, 6, 4),
    (4, 7, 4),
    (5, 6, 4),
    (5, 7, 5),
    (5, 8, 4),
    (5, 9, 5),
    (6, 7, 5),
]


def _claim_cylinders(ctx: RunContext):
    values = {f"P{r}xC{s}": e for r, s, e in CYLINDER_TABLE}
    return _search_table(ctx, values, values)


def _torus_claim(spec: str, expected: int):
    def run(ctx: RunContext):
        if ctx.quick:
            return expected, None, SKIPPED
        value, complete = _search_value(spec, ctx)
        if not complete:
            return expected, value, SKIPPED
        return expected, value, PASS if value == expected else FAIL

    return run


def _claim_torus_8x7(ctx: RunContext):
    """The published value is 6 ("checked by computer"), but the search finds
    a certified 7-point set, e.g. {(i, 2i mod 7) : i = 0..6}; together with
    the upper bound 7 this pins the value at 7.  Documented, not fixed."""
    expected = 6
    if ctx.quick:
        return expected, None, SKIPPED
    res = gp_exact(build("C8xC7"), limits=_limits(ctx))
    if not res.complete:
        return expected, res.gp_value, SKIPPED
    computed = {"gp": res.gp_value, "witness": [list(v) for v in res.witness]}
    if res.gp_value == expected:
        return expected, computed, PASS
    if res.gp_value == 7:
        return expected, computed, DISCREPANCY
    return expected, computed, FAIL


def _claim_torus6_family(ctx: RunContext):
    cases = [(r, s) for r in range(6, 10) for s in (3, 5, 6, 7) if s <= r]
    computed = {}
    ok = True
    for r, s in cases:
        w = torus_witness6(r, s)
        good = w.certified and len(w) == 6
        computed[f"C{r}xC{s}"] = "certified" if good else "FAILED"
        ok &= good
    return "certified 6-set", computed, PASS if ok else FAIL


def _claim_torus7(ctx: RunContext):
    w = torus_witness7()
    dists = sorted(
        w.host.distance(u, v) for u, v in combinations(list(w), 2)
    )
    computed = {"certified": w.certified, "distance_range": [dists[0], dists[-1]]}
    ok = w.certified and len(w) == 7 and dists[0] == 3 and dists[-1] == 5
    return {"certified": True, "distance_range": [3, 5]}, computed, PASS if ok else FAIL


def _claim_hamming(ctx: RunContext):
    values = {f"K{n1}xK{n2}": n1 + n2 - 2 for n1 in range(2, 6) for n2 in range(2, 6)}
    return _search_table(ctx, "n1 + n2 - 2", values)


def _claim_probability_forms(ctx: RunContext):
    computed = {}
    ok = True
    for n in range(2, 9):
        direct = p_exact(FactorGraph.complete(n))
        ok &= direct == p_closed_form("complete", n)
        computed[f"K{n}"] = _frac(direct)
    for m in range(3, 13):
        direct = p_exact(FactorGraph.cycle(m))
        ok &= direct == p_closed_form("cycle", m)
        computed[f"C{m}"] = _frac(direct)
    for k in range(2, 9):
        star = FactorGraph.star(k)
        restricted = p_exact_restricted(star, range(1, k + 1))
        ok &= restricted == p_closed_form("star_leaf_restricted", k)
        computed[f"S{k}-leaves"] = _frac(restricted)
    anchors = {"K2": "3/4", "C4": "9/16", "C5": "11/25"}
    for key, val in anchors.items():
        ok &= computed[key] == val
    return anchors, computed, PASS if ok else FAIL


def _claim_star_discrepancy(ctx: RunContext):
    enumerated = p_exact(FactorGraph.star(2))
    quoted = star_formula_quoted(2)
    computed = {"enumerated": _frac(enumerated), "quoted_formula": _frac(quoted)}
    expected = {"enumerated": "17/27", "quoted_formula": "19/27"}
    if enumerated == Fraction(17, 27) and quoted == Fraction(19, 27):
        return expected, computed, DISCREPANCY
    return expected, computed, FAIL


def _claim_product_rule(ctx: RunContext):
    factors = {
        "K2": FactorGraph.complete(2),
        "K3": FactorGraph.complete(3),
        "C5": FactorGraph.cycle(5),
        "P3": FactorGraph.path(3),
    }
    computed = {}
    ok = True
    for name, f in factors.items():
        rule = p_power(f, 2)
        explicit = p_exact(explicit_adjacency(ProductGraph([f, f])))
        computed[name] = {"rule": _frac(rule), "explicit": _frac(explicit)}
        ok &= rule == explicit
    return "power rule equals explicit count", computed, PASS if ok else FAIL


def _claim_sampler(ctx: RunContext):
    cases = [
        ("K2", FactorGraph.complete(2), 10),
        ("K3", FactorGraph.complete(3), 6),
        ("C5", FactorGraph.cycle(5), 4),
    ]
    computed = {}
    ok = True
    for name, f, n in cases:
        M = choose_M(p_exact(f), n)
        successes = 0
        min_success_size = None
        for seed in range(100):
            run = first_moment_construct(f, n, seed=seed, retries=0)
            if not run.result.certified or not is_general_position(run.result.host, list(run.result)):
                ok = False
            if run.success:
                successes += 1
                size = len(run.result)
                if min_success_size is None or size < min_success_size:
                    min_success_size = size
        computed[f"{name}^{n}"] = {
            "M": M,
            "successes": successes,
            "min_success_size": min_success_size,
        }
        if name == "K2":
            ok &= M == 5
            ok &= min_success_size is not None and min_success_size >= 3
    return "every run certified; K2^10 successes reach size 3", computed, PASS if ok else FAIL


CORPUS_FACTORS = ["P2", "P3", "P4", "C3", "C4", "C5", "K2", "K3", "K4"]


def corpus_products(max_vertices: int = 25):
    """All two-factor products over the small corpus, deduplicated up to
    factor order, with at most ``max_vertices`` vertices."""
    out = []
    for a, b in combinations_with_replacement(CORPUS_FACTORS, 2):
        g = build(f"{a}x{b}")
        if g.total_vertices <= max_vertices:
            out.append((f"{a}x{b}", g))
    return out


def _claim_checker_equivalence(ctx: RunContext):
    # Both deciders' cores on every subset of each host's flat ids: flat
    # order is coordinate order, so the subsets and verdicts are those of
    # the public wrappers, without validating each subset again.
    tested = mismatches = 0
    for _, g in corpus_products():
        ids, D = g.distance_table(list(g.vertices()))
        for size in range(6):
            for subset in combinations(ids, size):
                direct = next(bad_triples(subset, D), None) is None
                structural = _clique_partition(subset, D) is not None
                tested += 1
                mismatches += direct != structural
    computed = {"subsets_tested": tested, "mismatches": mismatches}
    return {"mismatches": 0}, computed, PASS if not mismatches else FAIL


def _claim_power_bound(ctx: RunContext):
    from math import log2

    got = gp_box_lower_bound(FactorGraph.complete(2))
    want = 1 - 0.5 * log2(3)
    computed = {"bound": got, "reference": want, "abs_error": abs(got - want)}
    ok = abs(got - want) <= 1e-12
    return {"bound": want, "tolerance": 1e-12}, computed, PASS if ok else FAIL


def _claim_cover_bound(ctx: RunContext):
    expected = "verified cover bound >= exact gp"
    try:
        bound = isometric_cover_bound(build("C6xC6"), torus_quadrant_cover(6, 6), limits=_limits(ctx))
    except BudgetExhausted:
        return expected, None, SKIPPED
    exact, complete = _search_value("C6xC6", ctx)
    computed = {"cover_bound": bound, "gp_exact": exact}
    if not complete:
        return expected, computed, SKIPPED
    return expected, computed, PASS if bound >= exact else FAIL


@dataclass(frozen=True)
class Claim:
    id: str
    claim: str
    params: dict
    runner: object


CLAIMS: list[Claim] = [
    Claim(
        "grid-gp-values",
        "gp of a grid with both sides >= 3 is 4",
        {"r": "3..6", "s": "3..6"},
        _claim_grid_gp,
    ),
    Claim(
        "grid-count-formula",
        "number of maximum general position sets in a grid matches the closed form",
        {"pairs": "2<=r<=s<=5 and (2,s) for s<=8"},
        _claim_grid_counts,
    ),
    Claim(
        "cylinder-gp-table",
        "cylinder gp values: 3 at (2,3); 5 for r>=5 with s=7 or s>=9; else 4",
        {"instances": [f"P{r}xC{s}" for r, s, _ in CYLINDER_TABLE]},
        _claim_cylinders,
    ),
    Claim(
        "torus-gp-7x7",
        "gp of the 7x7 torus is 7",
        {"spec": "C7xC7"},
        _torus_claim("C7xC7", 7),
    ),
    Claim(
        "torus-gp-8x7",
        "gp of the 8x7 torus is 6",
        {"spec": "C8xC7"},
        _claim_torus_8x7,
    ),
    Claim(
        "torus-6set-family",
        "the explicit 6-point torus construction is in general position",
        {"r": "6..9", "s": "3,5,6,7 with s <= r"},
        _claim_torus6_family,
    ),
    Claim(
        "torus-7set",
        "the explicit 7-point set on the 7x7 torus is certified with distances in [3,5]",
        {},
        _claim_torus7,
    ),
    Claim(
        "hamming-two-factor",
        "gp of a product of two complete graphs is n1 + n2 - 2",
        {"n1": "2..5", "n2": "2..5"},
        _claim_hamming,
    ),
    Claim(
        "probability-closed-forms",
        "closed forms for the bad-triple probability match direct enumeration",
        {"complete": "2..8", "cycle": "3..12", "star leaves": "2..8"},
        _claim_probability_forms,
    ),
    Claim(
        "star-formula-discrepancy",
        "the quoted unrestricted-star closed form disagrees with enumeration",
        {"k": 2},
        _claim_star_discrepancy,
    ),
    Claim(
        "product-rule",
        "bad-triple probability multiplies across Cartesian factors",
        {"factors": ["K2", "K3", "C5", "P3"]},
        _claim_product_rule,
    ),
    Claim(
        "sampler-soundness",
        "every sample-and-delete run yields a certified general position set",
        {"cases": ["K2^10", "K3^6", "C5^4"], "seeds": "0..99"},
        _claim_sampler,
    ),
    Claim(
        "checker-equivalence",
        "direct and structural general-position checkers agree on all small subsets",
        {"corpus": "two-factor products of P2..P4, C3..C5, K2..K4", "subset size": "<=5"},
        _claim_checker_equivalence,
    ),
    Claim(
        "power-bound-k2",
        "growth-exponent lower bound for K2 equals 1 - (1/2) log2 3",
        {"tolerance": 1e-12},
        _claim_power_bound,
    ),
    Claim(
        "cover-bound-torus6",
        "four isometric grid quadrants give a verified upper bound on the 6x6 torus",
        {"spec": "C6xC6"},
        _claim_cover_bound,
    ),
]


def run_claims(
    quick: bool = False,
    time_limit: float | None = None,
    only: set[str] | None = None,
) -> list[ClaimRecord]:
    """Execute the registry; every claim id appears exactly once."""
    ctx = RunContext(time_limit=time_limit, quick=quick)
    records = []
    for claim in CLAIMS:
        if only is not None and claim.id not in only:
            continue
        start = time.monotonic()
        try:
            expected, computed, status = claim.runner(ctx)
        except Exception as exc:  # a crash is a failed claim, not a crashed report
            expected, computed, status = None, f"error: {exc}", FAIL
        elapsed_ms = (time.monotonic() - start) * 1000
        records.append(ClaimRecord(
            id=claim.id,
            claim=claim.claim,
            params=claim.params,
            expected=expected,
            computed=computed,
            status=status,
            elapsed_ms=elapsed_ms,
        ))
    return records


def overall_status(records: list[ClaimRecord]) -> str:
    return FAIL if any(r.status == FAIL for r in records) else PASS
