"""Structure and semantics of the claims registry."""

import json
from dataclasses import replace
from itertools import combinations
from math import log2
from types import SimpleNamespace

import numpy as np
import pytest

import genpos.verify as verify
from genpos.verify import (
    CLAIMS,
    DISCREPANCY,
    FAIL,
    PASS,
    SKIPPED,
    corpus_products,
    overall_status,
    run_claims,
)
from genpos.formulas import cylinder_gp_value, hamming_lower_bound
from genpos.graphs import PAIR_CHUNK_CELLS
from genpos.position import bad_triples
from genpos.solver import BudgetExhausted, SearchLimits


def test_registry_ids_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(c.claim for c in CLAIMS)


# every claim's id, statement, params and expectation, in registry order
CLAIM_SNAPSHOT = [
    ("grid-gp-values", "gp of a grid with both sides >= 3 is 4", {"r": "3..6", "s": "3..6"}, 4),
    (
        "grid-count-formula",
        "number of maximum general position sets in a grid matches the closed form",
        {"pairs": "2<=r<=s<=5 and (2,s) for s<=8"},
        "formula equals enumeration",
    ),
    (
        "cylinder-gp-table",
        "cylinder gp values: 3 at (2,3); 5 for r>=5 with s=7 or s>=9; else 4",
        {"instances": ["P2xC3", "P2xC4", "P3xC3", "P4xC6", "P4xC7", "P5xC6", "P5xC7", "P5xC8", "P5xC9", "P6xC7"]},
        {"P2xC3": 3, "P2xC4": 4, "P3xC3": 4, "P4xC6": 4, "P4xC7": 4,
         "P5xC6": 4, "P5xC7": 5, "P5xC8": 4, "P5xC9": 5, "P6xC7": 5},
    ),
    ("torus-gp-7x7", "gp of the 7x7 torus is 7", {"spec": "C7xC7"}, 7),
    ("torus-gp-8x7", "gp of the 8x7 torus is 6", {"spec": "C8xC7"}, 6),
    (
        "torus-6set-family",
        "the explicit 6-point torus construction is in general position",
        {"r": "6..9", "s": "3,5,6,7 with s <= r"},
        "certified 6-set",
    ),
    (
        "torus-7set",
        "the explicit 7-point set on the 7x7 torus is certified with distances in [3,5]",
        {},
        {"certified": True, "distance_range": [3, 5]},
    ),
    (
        "hamming-two-factor",
        "gp of a product of two complete graphs is n1 + n2 - 2",
        {"n1": "2..5", "n2": "2..5"},
        "n1 + n2 - 2",
    ),
    (
        "probability-closed-forms",
        "closed forms for the bad-triple probability match direct enumeration",
        {"complete": "2..8", "cycle": "3..12", "star leaves": "2..8"},
        {"K2": "3/4", "C4": "9/16", "C5": "11/25"},
    ),
    (
        "star-formula-discrepancy",
        "the quoted unrestricted-star closed form disagrees with enumeration",
        {"k": 2},
        {"enumerated": "17/27", "quoted_formula": "19/27"},
    ),
    (
        "product-rule",
        "bad-triple probability multiplies across Cartesian factors",
        {"factors": ["K2", "K3", "C5", "P3"]},
        "power rule equals explicit count",
    ),
    (
        "sampler-soundness",
        "every sample-and-delete run yields a certified general position set",
        {"cases": ["K2^10", "K3^6", "C5^4"], "seeds": "0..99"},
        "every run certified; K2^10 successes reach size 3",
    ),
    (
        "checker-equivalence",
        "direct and structural general-position checkers agree on all small subsets",
        {"corpus": "two-factor products of P2..P4, C3..C5, K2..K4", "subset size": "<=5"},
        {"mismatches": 0},
    ),
    (
        "power-bound-k2",
        "growth-exponent lower bound for K2 equals 1 - (1/2) log2 3",
        {"tolerance": 1e-12},
        {"bound": 1 - 0.5 * log2(3), "tolerance": 1e-12},
    ),
    (
        "cover-bound-torus6",
        "four isometric grid quadrants give a verified upper bound on the 6x6 torus",
        {"spec": "C6xC6"},
        "verified cover bound >= exact gp",
    ),
]

# each claim's status without a budget
UNTIMED_STATUS = {
    "grid-gp-values": PASS,
    "grid-count-formula": DISCREPANCY,
    "cylinder-gp-table": PASS,
    "torus-gp-7x7": PASS,
    "torus-gp-8x7": DISCREPANCY,
    "torus-6set-family": PASS,
    "torus-7set": PASS,
    "hamming-two-factor": PASS,
    "probability-closed-forms": PASS,
    "star-formula-discrepancy": DISCREPANCY,
    "product-rule": PASS,
    "sampler-soundness": PASS,
    "checker-equivalence": PASS,
    "power-bound-k2": PASS,
    "cover-bound-torus6": PASS,
}


def test_registry_declares_every_claim_in_order():
    assert [(c.id, c.claim, c.params, c.expected) for c in CLAIMS] == CLAIM_SNAPSHOT
    assert list(UNTIMED_STATUS) == [c.id for c in CLAIMS]


def test_formula_claims_read_their_expected_values_from_formulas():
    # the claims check the values that `genpos formula` prints, at every
    # instance; a wrong value turning a claim to fail is tested below
    by_id = {c.id: c for c in CLAIMS}
    cylinders = by_id["cylinder-gp-table"].expected
    assert list(cylinders) == by_id["cylinder-gp-table"].params["instances"]
    for spec, value in cylinders.items():
        r, s = map(int, spec[1:].split("xC"))
        assert value == cylinder_gp_value(r, s)
    assert verify._HAMMING_VALUES == {
        f"K{n1}xK{n2}": hamming_lower_bound((n1, n2)) for n1 in range(2, 6) for n2 in range(2, 6)
    }


def test_sampler_soundness_rechecks_with_the_structural_decider(monkeypatch):
    monkeypatch.setattr(verify, "_clique_partition", lambda ids, D: None)
    (record,) = run_claims(only={"sampler-soundness"})
    assert record.status == FAIL


def test_the_torus_searches_pass_and_document_the_discrepancy():
    records = run_claims(only={"torus-gp-7x7", "torus-gp-8x7"})
    by_id = {r.id: r for r in records}
    assert by_id["torus-gp-7x7"].status == PASS
    assert by_id["torus-gp-7x7"].computed == {"C7xC7": 7}
    rec = by_id["torus-gp-8x7"]
    assert rec.status == DISCREPANCY
    assert rec.expected == 6 and rec.computed["gp"] == 7
    # the refuting witness is part of the record
    assert len(rec.computed["witness"]) == 7


def test_time_limit_marks_searches_skipped():
    records = run_claims(only={"torus-gp-7x7"}, limits=SearchLimits(time_limit=1e-5))
    assert records[0].status == SKIPPED


# the claims that run a search or a count, each stopped by a zero budget
SEARCHING_CLAIMS = {
    "grid-gp-values",
    "grid-count-formula",
    "cylinder-gp-table",
    "torus-gp-7x7",
    "torus-gp-8x7",
    "hamming-two-factor",
    "cover-bound-torus6",
}


def test_a_zero_time_limit_is_a_budget():
    # the cover-bound searches take fewer nodes than the clock poll interval
    zero = run_claims(limits=SearchLimits(time_limit=0))
    tiny = run_claims(limits=SearchLimits(time_limit=1e-9))
    assert [(r.id, r.status) for r in zero] == [(r.id, r.status) for r in tiny]
    assert [r.id for r in zero] == [c.id for c in CLAIMS]
    for r in zero:
        assert r.status == (SKIPPED if r.id in SEARCHING_CLAIMS else UNTIMED_STATUS[r.id]), r.id
    # a stopped claim keeps what its runner filled before the stop
    by_id = {r.id: r.computed for r in zero}
    assert by_id["grid-gp-values"] == {"P3xP3": None}
    assert by_id["torus-gp-7x7"] == {"C7xC7": None}
    assert by_id["torus-gp-8x7"] == {"gp": 1, "witness": [[0, 0]]}
    assert by_id["cover-bound-torus6"] == {}


def test_the_time_limit_bounds_the_grid_counts():
    # the first count, P2xP2, stops at its first node, which polls the clock
    (record,) = run_claims(only={"grid-count-formula"}, limits=SearchLimits(time_limit=0))
    assert record.status == SKIPPED
    assert record.computed == {}


@pytest.mark.parametrize(
    "max_nodes",
    # one node stops the first cover piece; 150 would finish the 133-node
    # search of C6xC6 itself, but each piece takes 169-185 nodes (the plain
    # search, so no symmetry)
    [1, 150],
)
def test_the_budget_bounds_the_cover_bound_searches(max_nodes):
    (record,) = run_claims(only={"cover-bound-torus6"}, limits=SearchLimits(max_nodes=max_nodes))
    assert (record.status, record.computed) == (SKIPPED, {})


def test_a_budget_that_stops_only_the_exact_search_keeps_the_cover_bound(monkeypatch):
    # 200 nodes finish every cover piece and the 133-node search of C6xC6
    # alike, so one shared budget cannot stop the search alone: stop it here
    def stopped(spec, limits):
        raise BudgetExhausted(f"search of {spec} stopped by its budget")

    monkeypatch.setattr(verify, "_search_value", stopped)
    (record,) = run_claims(only={"cover-bound-torus6"}, limits=SearchLimits(max_nodes=200))
    assert (record.status, record.computed) == (SKIPPED, {"cover_bound": 16, "gp_exact": None})


def test_checker_equivalence_runs_the_structural_core(monkeypatch):
    # P2xP2 has 16 subsets of at most 5 vertices, 11 of them (every set of
    # at most two) in general position: a structural core that rejects
    # every set disagrees with the direct one on exactly those
    monkeypatch.setattr(verify, "corpus_products", lambda: [("P2xP2", verify.build("P2xP2"))])
    (record,) = run_claims(only={"checker-equivalence"})
    assert (record.status, record.computed) == (PASS, {"subsets_tested": 16, "mismatches": 0})
    monkeypatch.setattr(verify, "_clique_partition", lambda ids, D: None)
    (record,) = run_claims(only={"checker-equivalence"})
    assert (record.status, record.computed) == (FAIL, {"subsets_tested": 16, "mismatches": 11})


PATTERN_HOSTS = ["P2xP2", "P4xP3", "C5xK3", "P4xC4", "K4xP3"]


def _plain_equivalence(hosts):
    """The claim's counts from both cores on every subset, with no memo."""
    tested = mismatches = 0
    for _, g in hosts:
        ids, D = g.distance_table(list(g.vertices()))
        for size in range(6):
            for subset in combinations(ids, size):
                direct = next(bad_triples(subset, D), None) is None
                structural = verify._clique_partition(subset, D) is not None
                tested += 1
                mismatches += direct != structural
    return {"subsets_tested": tested, "mismatches": mismatches}


def test_checker_equivalence_counts_every_subset_from_its_pattern(monkeypatch):
    hosts = [(spec, verify.build(spec)) for spec in PATTERN_HOSTS]
    monkeypatch.setattr(verify, "corpus_products", lambda: hosts)
    (record,) = run_claims(only={"checker-equivalence"})
    assert record.status == PASS
    assert record.computed == _plain_equivalence(hosts) == {"subsets_tested": 15017, "mismatches": 0}

    # a structural core that also rejects every 4-set holding a distance of
    # 3: it disagrees on some patterns only, and each of their subsets counts
    real = verify._clique_partition

    def mutant(ids, D):
        if len(ids) == 4 and any(D[x][y] == 3 for x, y in combinations(ids, 2)):
            return None
        return real(ids, D)

    monkeypatch.setattr(verify, "_clique_partition", mutant)
    (record,) = run_claims(only={"checker-equivalence"})
    plain = _plain_equivalence(hosts)
    assert record.status == FAIL
    assert record.computed == plain == {"subsets_tested": 15017, "mismatches": 271}
    assert 271 < sum(1 for _, g in hosts for _ in combinations(range(g.total_vertices), 4))


def test_checker_equivalence_runs_the_cores_once_a_pattern(monkeypatch):
    # a structural core that also rejects every 5-set holding a distance of
    # 2: the patterns it disagrees on come back in later blocks of C5xK3
    # and K3xC5, and K3xC5 repeats three of C5xK3's.  Each of their subsets
    # counts, and the cores run exactly once on each distinct (size,
    # distances) pattern of the corpus
    hosts = [(spec, verify.build(spec)) for spec in PATTERN_HOSTS + ["K3xC5"]]
    monkeypatch.setattr(verify, "corpus_products", lambda: hosts)
    real, calls = verify._clique_partition, []

    def mutant(ids, D):
        calls.append(len(ids))
        if len(ids) == 5 and any(D[x][y] == 2 for x, y in combinations(ids, 2)):
            return None
        return real(ids, D)

    monkeypatch.setattr(verify, "_clique_partition", mutant)
    (record,) = run_claims(only={"checker-equivalence"})
    ran = len(calls)
    assert record.status == FAIL
    assert record.computed == _plain_equivalence(hosts) == {"subsets_tested": 19961, "mismatches": 64}
    tables = [g.distance_table(list(g.vertices())) for _, g in hosts]
    width = max(int(D.max()) for _, D in tables).bit_length()
    patterns = set()
    for ids, D in tables:
        D = D.tolist()
        patterns |= {(len(s), tuple(D[x][y] for x, y in combinations(s, 2))) for s, _ in _distance_patterns(ids, D, width)}
    assert ran == len(patterns)


def _distance_patterns(ids, D, width):
    """``(subset, code)`` for every subset of ``ids`` with at most 5 members,
    by a depth-first Python walk that extends a prefix's code one member at
    a time: the engine-free oracle for the claim's block walk."""
    yield (), 0
    stack = [((), 0, list(ids), [0] * len(ids))]
    while stack:
        # digits[i]: cand[i]'s distances to the prefix, packed
        prefix, code, cand, digits = stack.pop()
        shift = width * len(prefix) + 1
        for i, x in enumerate(cand):
            subset = prefix + (x,)
            key = code << shift | digits[i] << 1 | 1
            yield subset, key
            if len(subset) < 5:
                row = D[x]
                rest = cand[i + 1:]
                stack.append((subset, key, rest, [d << width | row[y] for d, y in zip(digits[i + 1:], rest)]))


def test_distance_pattern_codes_match_the_upper_triangles(monkeypatch):
    # the claim's block walk, with the claim's digit width: every subset of
    # at most 5 vertices once, in blocks of at most PAIR_CHUNK_CELLS
    # (subset, member pair) cells; equal codes iff equal size and ordered
    # upper-triangle distances, across hosts too; and the same (subset,
    # code) pairs as the Python walk
    hosts = [(spec, verify.build(spec)) for spec in PATTERN_HOSTS + ["C5xC5"]]
    monkeypatch.setattr(verify, "corpus_products", lambda: hosts)
    walks = []
    blocks = verify._pattern_blocks

    def recording(T, width):
        walks.append((width, list(blocks(T, width))))
        return iter(walks[-1][1])

    monkeypatch.setattr(verify, "_pattern_blocks", recording)
    run_claims(only={"checker-equivalence"})
    assert len(walks) == len(hosts)
    code_of, pattern_of = {}, {}  # (host, subset) -> code, size and distances
    for h, ((_, g), (width, walked)) in enumerate(zip(hosts, walks)):
        ids, D = g.distance_table(list(g.vertices()))
        D = D.tolist()  # the Python walk packs Python ints
        pairs = []
        for subsets, codes in walked:
            k = subsets.shape[1]
            assert subsets.dtype == np.uint8 and codes.dtype == np.int64
            assert len(codes) * max(1, k * (k - 1) // 2) <= PAIR_CHUNK_CELLS
            pairs += [(tuple(ids[p] for p in row), code) for row, code in zip(subsets.tolist(), codes.tolist())]
        assert sorted(s for s, _ in pairs) == sorted(s for k in range(6) for s in combinations(ids, k))
        assert set(pairs) == set(_distance_patterns(ids, D, width))
        for s, code in pairs:
            code_of[h, s] = code
            pattern_of[h, s] = len(s), tuple(D[x][y] for x, y in combinations(s, 2))
    pairs = set(zip(code_of.values(), pattern_of.values()))
    assert len(pairs) == len(set(code_of.values())) == len(set(pattern_of.values()))


def test_checker_equivalence_refuses_codes_wider_than_int64(monkeypatch):
    # a distance of 40 takes 6-bit digits, and a 5-member code 10 digits
    # and 5 separator bits: 65 bits
    g = verify.build("P2xP2")
    ids, D = g.distance_table(list(g.vertices()))
    far = D.copy()
    far[ids[0], ids[3]] = far[ids[3], ids[0]] = 40
    host = SimpleNamespace(vertices=g.vertices, distance_table=lambda members: (ids, far))
    monkeypatch.setattr(verify, "corpus_products", lambda: [("P2xP2", host)])
    (record,) = run_claims(only={"checker-equivalence"})
    assert record.status == FAIL
    assert record.computed == "error: digit width 6 bits: 5-member codes need 65 bits, above int64's 63"


def test_checker_equivalence_refuses_an_asymmetric_table(monkeypatch):
    g = verify.build("P2xP2")
    ids, D = g.distance_table(list(g.vertices()))
    skewed = D.copy()
    skewed[0, 1] += 1
    host = SimpleNamespace(vertices=g.vertices, distance_table=lambda members: (ids, skewed))
    monkeypatch.setattr(verify, "corpus_products", lambda: [("P2xP2", host)])
    (record,) = run_claims(only={"checker-equivalence"})
    assert record.status == FAIL
    assert record.computed == "error: P2xP2: distance table is not symmetric with a zero diagonal"


def test_an_unknown_claim_id_is_refused():
    with pytest.raises(ValueError, match="no-such-claim, torus-gp-9x9"):
        run_claims(only={"torus-gp-9x9", "no-such-claim", "power-bound-k2"})


def test_overall_status_ignores_documented_discrepancies():
    records = run_claims(only={"star-formula-discrepancy", "power-bound-k2"})
    assert {r.status for r in records} == {DISCREPANCY, PASS}
    assert overall_status(records) == PASS


def test_records_are_json_serializable():
    records = run_claims(
        only={
            "grid-count-formula",
            "star-formula-discrepancy",
            "power-bound-k2",
            "torus-7set",
            "product-rule",
        }
    )
    blob = json.dumps([r.to_json() for r in records])
    parsed = json.loads(blob)
    assert {r["id"] for r in parsed} == {
        "grid-count-formula",
        "star-formula-discrepancy",
        "power-bound-k2",
        "torus-7set",
        "product-rule",
    }
    for r in parsed:
        assert list(r) == ["id", "claim", "params", "expected", "computed", "status", "elapsed_ms"]


def test_corpus_is_the_45_products_capped_at_25_vertices():
    products = corpus_products()
    assert len(products) == 45
    assert all(g.total_vertices <= 25 for _, g in products)


def _only_runner(monkeypatch, runner):
    """Make the registry one claim, power-bound-k2's entry with ``runner``."""
    claim = next(c for c in verify.CLAIMS if c.id == "power-bound-k2")
    monkeypatch.setattr(verify, "CLAIMS", [replace(claim, runner=runner)])
    return claim


def test_a_crashing_claim_becomes_a_failed_record(monkeypatch):
    claim = _only_runner(monkeypatch, lambda limits, computed: 1 / 0)
    records = verify.run_claims()
    assert records[0].status == FAIL
    assert records[0].computed == "error: division by zero"
    assert records[0].expected == claim.expected


@pytest.mark.parametrize(
    "limits,status,computed",
    [
        # a budget stop with no budget given is a fault, not a skip
        (None, FAIL, "error: out of nodes"),
        (SearchLimits(time_limit=60), SKIPPED, {"partial": 1}),
    ],
    ids=["no-budget", "budget"],
)
def test_a_budget_stop_is_skipped_only_under_a_budget(monkeypatch, limits, status, computed):
    def runner(limits, computed):
        computed["partial"] = 1
        raise BudgetExhausted("out of nodes")

    _only_runner(monkeypatch, runner)
    (record,) = verify.run_claims(limits=limits)
    assert (record.status, record.computed) == (status, computed)


@pytest.mark.parametrize(
    "claim_id,spec,searches",
    [("grid-gp-values", "P4xP5", 16), ("cylinder-gp-table", "P4xC6", 10), ("hamming-two-factor", "K3xK4", 16)],
)
def test_a_search_table_claim_stops_at_a_budget_and_fails_on_a_wrong_value(monkeypatch, claim_id, spec, searches):
    search = verify._search_value

    def stopped_at_spec(s, limits):
        if s == spec:
            raise BudgetExhausted(f"search of {s} stopped by its budget")
        return search(s, limits)

    monkeypatch.setattr(verify, "_search_value", stopped_at_spec)
    record = run_claims(only={claim_id}, limits=SearchLimits(time_limit=60))[0]
    assert record.status == SKIPPED
    assert list(record.computed)[-1] == spec and record.computed[spec] is None
    assert None not in list(record.computed.values())[:-1]

    monkeypatch.setattr(verify, "_search_value", lambda s, limits: search(s, limits) + (s == spec))
    record = run_claims(only={claim_id})[0]
    assert record.status == FAIL and len(record.computed) == searches
