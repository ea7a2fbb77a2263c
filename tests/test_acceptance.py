"""Acceptance gate: one test (or parametrized family) per criterion.

All comparisons are exact except the growth-exponent bound (1e-12).  The
terminal summary (conftest) prints one aggregated pass/fail line per
criterion.

A published value that exact computation refutes is asserted as a
documented discrepancy against an independent oracle, never re-encoded:
the star probability formula (c08), the grid gp-set count for r, s >= 4
(c02: enumeration 36/120/400, formula 28/100/300, short by exactly
2 C(r,4) C(s,3)) and gp(C8xC7) (c04: published 6, a certified 7-point set
meets the upper bound 7).  See the project README.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, log2

import pytest

from genpos.graphs import FactorGraph, ProductGraph, build, explicit_adjacency
from genpos.position import characterization_check, is_general_position
from genpos.formulas import (
    grid_gp_count,
    torus_gp_bounds,
    torus_quadrant_cover,
    torus_witness6,
    torus_witness7,
)
from genpos.randomized import (
    choose_M,
    first_moment_construct,
    gp_box_lower_bound,
    p_closed_form,
    p_exact,
    p_power,
    star_formula_quoted,
)
from genpos.solver import count_maximum_gp_sets, gp_exact, isometric_cover_bound
from genpos.verify import CLAIMS, corpus_products, run_claims
from helpers import bfs_distance_table, naive_count_maximum, subset_in_general_position


# 1. grid gp values -----------------------------------------------------

@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("s", range(3, 7))
def test_c01_grid_gp_values(r, s):
    res = gp_exact(build(f"P{r}xP{s}"))
    assert res.complete and res.gp_value == 4


# 2. grid enumeration formula ------------------------------------------

GRID_COUNT_PAIRS = [(r, s) for r in range(2, 6) for s in range(r, 6)] + [
    (2, s) for s in range(6, 9)
]


@pytest.fixture(scope="module")
def grid_count_record():
    (record,) = run_claims(only={"grid-count-formula"})
    return record


@pytest.mark.parametrize("r,s", GRID_COUNT_PAIRS)
def test_c02_grid_count_matches_formula(r, s, grid_count_record):
    g = build(f"P{r}xP{s}")
    value, count = count_maximum_gp_sets(g)
    formula = grid_gp_count(r, s)
    if min(r, s) <= 3:
        assert count == formula
        return
    # The published form misses 2 C(r,4) C(s,3) maximum sets (README); check
    # the count against the bitset-free oracle and the shortfall exactly.
    assert (value, count) == naive_count_maximum(g)
    assert count - formula == 2 * comb(r, 4) * comb(s, 3)
    assert grid_count_record.status == "discrepancy-documented"
    assert grid_count_record.computed[f"{r}x{s}"] == {"formula": formula, "enumerated": count}


def test_c02_anchor_values():
    assert grid_gp_count(2, 2) == 6
    assert count_maximum_gp_sets(build("P2xP2")) == (2, 6)
    assert count_maximum_gp_sets(build("P3xP3")) == (4, 1)
    assert count_maximum_gp_sets(build("P3xP4")) == (4, 6)


# 3. cylinder table ------------------------------------------------------

@pytest.mark.parametrize(
    "r,s,value",
    [
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
    ],
)
def test_c03_cylinder_values(r, s, value):
    res = gp_exact(build(f"P{r}xC{s}"))
    assert res.complete and res.gp_value == value


# 4. torus exact values --------------------------------------------------

# Published value -> exact value, for the one torus whose published value is
# refuted: a certified 7-point set meets the upper bound 7 (README).
TORUS_REFUTED = {"C8xC7": 7}


@pytest.mark.parametrize("spec,value", [("C7xC7", 7), ("C8xC7", 6)])
def test_c04_torus_exact_values(spec, value):
    g = build(spec)
    res = gp_exact(g)
    assert res.complete
    exact = TORUS_REFUTED.get(spec, value)
    assert res.gp_value == exact
    if exact == value:
        return
    assert len(res.witness) == exact
    D = bfs_distance_table(g)
    assert subset_in_general_position(D, [g.encode(v) for v in res.witness])
    bounds = torus_gp_bounds(*(f.n for f in g.factors))
    assert (bounds.lower, bounds.upper) == (6, 7)
    assert bounds.lower <= res.gp_value <= bounds.upper
    assert value < res.gp_value


# 5. torus constructions --------------------------------------------------

@pytest.mark.parametrize(
    "r,s", [(r, s) for r in range(6, 10) for s in (3, 5, 6, 7) if s <= r]
)
def test_c05_torus_six_point_construction(r, s):
    w = torus_witness6(r, s)
    assert w.certified and len(w) == 6


def test_c05_torus_seven_point_construction():
    w = torus_witness7()
    assert w.certified and len(w) == 7
    dists = sorted(w.host.distance(u, v) for u, v in combinations(list(w), 2))
    assert dists[0] == 3 and dists[-1] == 5


# 6. Hamming tightness ----------------------------------------------------

@pytest.mark.parametrize("n1", range(2, 6))
@pytest.mark.parametrize("n2", range(2, 6))
def test_c06_hamming_tightness(n1, n2):
    res = gp_exact(build(f"K{n1}xK{n2}"))
    assert res.complete and res.gp_value == n1 + n2 - 2


# 7. probability closed forms ----------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_c07_complete_closed_forms(n):
    assert p_exact(FactorGraph.complete(n)) == p_closed_form("complete", n)


@pytest.mark.parametrize("m", range(3, 13))
def test_c07_cycle_closed_forms(m):
    assert p_exact(FactorGraph.cycle(m)) == p_closed_form("cycle", m)


def test_c07_anchor_values():
    assert p_exact(FactorGraph.complete(2)) == Fraction(3, 4)
    assert p_exact(FactorGraph.cycle(4)) == Fraction(9, 16)
    assert p_exact(FactorGraph.cycle(5)) == Fraction(11, 25)


# 8. documented star discrepancy -------------------------------------------

def test_c08_star_discrepancy_documented():
    enumerated = p_exact(FactorGraph.star(2))
    quoted = star_formula_quoted(2)
    assert enumerated == Fraction(17, 27)
    assert quoted == Fraction(19, 27)
    assert enumerated != quoted
    records = run_claims(only={"star-formula-discrepancy"})
    assert len(records) == 1
    assert records[0].status == "discrepancy-documented"
    assert records[0].computed == {"enumerated": "17/27", "quoted_formula": "19/27"}


# 9. product rule -----------------------------------------------------------

@pytest.mark.parametrize(
    "name,factor",
    [
        ("K2", FactorGraph.complete(2)),
        ("K3", FactorGraph.complete(3)),
        ("C5", FactorGraph.cycle(5)),
        ("P3", FactorGraph.path(3)),
    ],
)
def test_c09_product_rule(name, factor):
    square = explicit_adjacency(ProductGraph([factor, factor]))
    assert p_power(factor, 2) == p_exact(square)


# 10. sampler soundness ------------------------------------------------------

def _hamming_distance(u, v):
    """Distance in a power of a complete graph."""
    return sum(a != b for a, b in zip(u, v))


def _cyclic5_distance(u, v):
    """Distance in a power of the 5-cycle: cyclic distances summed."""
    return sum(min((a - b) % 5, (b - a) % 5) for a, b in zip(u, v))


@pytest.mark.parametrize(
    "name,factor,n",
    [
        ("K2", FactorGraph.complete(2), 10),
        ("K3", FactorGraph.complete(3), 6),
        ("C5", FactorGraph.cycle(5), 4),
    ],
)
def test_c10_sampler_soundness(name, factor, n):
    # each set is re-checked on a metric written here, not the engine's
    metric = _cyclic5_distance if name == "C5" else _hamming_distance
    for seed in range(100):
        run = first_moment_construct(factor, n, seed=seed, retries=0)
        assert run.result.certified
        members = list(run.result)
        D = [[metric(u, v) for v in members] for u in members]
        assert subset_in_general_position(D, range(len(members)))
        if name == "K2" and run.success:
            assert len(run.result) >= 3
    if name == "K2":
        assert choose_M(p_exact(factor), n) == 5


# 11. checker equivalence -----------------------------------------------------

@pytest.mark.parametrize("name,g", corpus_products(), ids=[n for n, _ in corpus_products()])
def test_c11_checker_equivalence(name, g):
    verts = list(g.vertices())
    for size in range(6):
        for subset in combinations(verts, size):
            direct = is_general_position(g, subset)
            structural, cert = characterization_check(g, subset)
            assert direct == structural, f"{name}: checkers disagree on {subset}"
            assert (cert is not None) == structural


# 12. bound sanity -------------------------------------------------------------

def test_c12_power_bound_value():
    got = gp_box_lower_bound(FactorGraph.complete(2))
    assert abs(got - (1 - 0.5 * log2(3))) <= 1e-12


def test_c12_cover_bound_on_the_6x6_torus():
    g = build("C6xC6")
    bound = isometric_cover_bound(g, torus_quadrant_cover(6, 6))
    assert bound >= gp_exact(g).gp_value


# registry hygiene -------------------------------------------------------------

def test_claim_ids_are_unique_and_complete():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids)) == 15
