"""Structure and semantics of the claims registry."""

import json

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
from genpos.solver import SearchLimits


def test_registry_ids_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(c.claim for c in CLAIMS)


def test_quick_mode_skips_only_the_torus_searches():
    records = run_claims(
        quick=True,
        only={"torus-gp-7x7", "torus-gp-8x7", "power-bound-k2"},
    )
    by_id = {r.id: r for r in records}
    assert by_id["torus-gp-7x7"].status == SKIPPED
    assert by_id["torus-gp-8x7"].status == SKIPPED
    assert by_id["power-bound-k2"].status == PASS


def test_full_mode_documents_the_torus_discrepancy():
    records = run_claims(only={"torus-gp-7x7", "torus-gp-8x7"})
    by_id = {r.id: r for r in records}
    assert by_id["torus-gp-7x7"].status == PASS
    assert by_id["torus-gp-7x7"].computed == 7
    rec = by_id["torus-gp-8x7"]
    assert rec.status == DISCREPANCY
    assert rec.expected == 6 and rec.computed["gp"] == 7
    # the refuting witness is part of the record
    assert len(rec.computed["witness"]) == 7


def test_time_limit_marks_searches_skipped():
    records = run_claims(only={"torus-gp-7x7"}, time_limit=1e-5)
    assert records[0].status == SKIPPED


def test_a_zero_time_limit_is_a_budget():
    # the cover-bound searches take fewer nodes than the clock poll interval
    only = {"torus-gp-7x7", "grid-gp-values", "cover-bound-torus6"}
    zero, tiny = run_claims(only=only, time_limit=0), run_claims(only=only, time_limit=1e-9)
    assert [(r.id, r.status) for r in zero] == [(r.id, r.status) for r in tiny]
    assert [r.status for r in zero] == [SKIPPED, SKIPPED, SKIPPED]


def test_the_time_limit_bounds_the_grid_counts():
    # the first count, P2xP2, stops at its first node, which polls the clock
    (record,) = run_claims(only={"grid-count-formula"}, time_limit=0)
    assert record.status == SKIPPED
    assert record.computed == {}


@pytest.mark.parametrize(
    "max_nodes,computed",
    # one node stops the first cover piece; 200 finish every piece (explicit
    # graphs, so no symmetry) but not the 324-node search of C6xC6 itself
    [(1, None), (200, {"cover_bound": 16, "gp_exact": None})],
)
def test_the_budget_bounds_the_cover_bound_searches(monkeypatch, max_nodes, computed):
    monkeypatch.setattr(verify, "_limits", lambda ctx: SearchLimits(max_nodes=max_nodes))
    (record,) = run_claims(only={"cover-bound-torus6"})
    assert (record.status, record.computed) == (SKIPPED, computed)


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
        assert set(r) == {"id", "claim", "params", "expected", "computed", "status", "elapsed_ms"}


def test_corpus_is_the_45_products_capped_at_25_vertices():
    products = corpus_products()
    assert len(products) == 45
    assert all(g.total_vertices <= 25 for _, g in products)


def test_a_crashing_claim_becomes_a_failed_record(monkeypatch):
    claim = next(c for c in verify.CLAIMS if c.id == "power-bound-k2")
    monkeypatch.setattr(
        verify,
        "CLAIMS",
        [type(claim)(claim.id, claim.claim, claim.params, lambda ctx: 1 / 0)],
    )
    records = verify.run_claims()
    assert records[0].status == FAIL
    assert "error" in records[0].computed


@pytest.mark.parametrize(
    "claim_id,spec,searches",
    [("grid-gp-values", "P4xP5", 16), ("cylinder-gp-table", "P4xC6", 10), ("hamming-two-factor", "K3xK4", 16)],
)
def test_a_search_table_claim_stops_at_a_budget_and_fails_on_a_wrong_value(monkeypatch, claim_id, spec, searches):
    search = verify._search_value
    monkeypatch.setattr(verify, "_search_value", lambda s, ctx: (None, False) if s == spec else search(s, ctx))
    record = run_claims(only={claim_id})[0]
    assert record.status == SKIPPED
    assert list(record.computed)[-1] == spec and record.computed[spec] is None
    assert None not in list(record.computed.values())[:-1]

    def off_by_one(s, ctx):
        value, complete = search(s, ctx)
        return value + (s == spec), complete

    monkeypatch.setattr(verify, "_search_value", off_by_one)
    record = run_claims(only={claim_id})[0]
    assert record.status == FAIL and len(record.computed) == searches
