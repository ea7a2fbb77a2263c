"""Closed forms, bounds, and explicit constructions."""

from itertools import combinations

import pytest

from genpos.graphs import build
from genpos.position import is_general_position
from genpos.formulas import (
    cycle_gp_triple,
    cylinder_gp_value,
    cylinder_witness,
    grid_gp_count,
    hamming_lower_bound,
    torus_gp_bounds,
    torus_witness6,
    torus_witness7,
    TORUS7_MEMBERS,
)
from genpos.solver import gp_exact


# ----------------------------------------------------------------------
# grid count formula

@pytest.mark.parametrize(
    "r,s,value",
    [
        (2, 2, 6),
        (2, 3, 2),
        (2, 8, 112),
        (3, 4, 6),
        (3, 3, 1),
        (4, 4, 28),
        (5, 5, 300),
    ],
)
def test_grid_gp_count_branches(r, s, value):
    assert grid_gp_count(r, s) == value
    assert grid_gp_count(s, r) == value  # auto-swap


@pytest.mark.parametrize("s", range(3, 12))
def test_three_row_specialization(s):
    assert grid_gp_count(3, s) == s * (s - 2) * (s - 1) ** 2 // 12


def test_grid_gp_count_rejects_tiny_grids():
    with pytest.raises(ValueError):
        grid_gp_count(1, 5)


# ----------------------------------------------------------------------
# cylinder values

@pytest.mark.parametrize(
    "r,s,value",
    [
        (2, 3, 3),
        (5, 8, 4),
        (6, 9, 5),
        (5, 7, 5),
        (9, 7, 5),
        (4, 100, 4),
        (5, 100, 5),
        (2, 4, 4),
        (3, 3, 4),
    ],
)
def test_cylinder_gp_value_table(r, s, value):
    assert cylinder_gp_value(r, s) == value


def test_cylinder_gp_value_domain():
    with pytest.raises(ValueError):
        cylinder_gp_value(1, 5)
    with pytest.raises(ValueError):
        cylinder_gp_value(3, 2)


# ----------------------------------------------------------------------
# torus bounds

@pytest.mark.parametrize(
    "r,s,lower,upper",
    [
        (7, 7, 6, 7),
        (8, 7, 6, 7),
        (5, 3, None, 7),
        (3, 6, 6, 7),   # sorted internally
        (9, 4, None, 7),  # smaller length 4 excluded
        (3, 3, None, 7),
    ],
)
def test_torus_bounds(r, s, lower, upper):
    assert torus_gp_bounds(r, s) == (lower, upper)


def test_torus_bounds_domain():
    with pytest.raises(ValueError):
        torus_gp_bounds(2, 7)


# ----------------------------------------------------------------------
# Hamming bound

def test_hamming_lower_bound():
    assert hamming_lower_bound([3, 4]) == 5
    assert hamming_lower_bound([2, 2, 2]) == 3
    assert hamming_lower_bound([2] * 10) == 10
    with pytest.raises(ValueError):
        hamming_lower_bound([5])
    with pytest.raises(ValueError):
        hamming_lower_bound([2, 1])


# ----------------------------------------------------------------------
# cycle triples

def test_cycle_triple_values():
    assert list(cycle_gp_triple(3)) == [(0,), (1,), (2,)]
    assert list(cycle_gp_triple(7)) == [(0,), (2,), (4,)]
    with pytest.raises(ValueError):
        cycle_gp_triple(4)


def test_no_3_subset_of_c4_is_in_general_position():
    g = build("C4")
    for sub in combinations([(i,) for i in range(4)], 3):
        assert not is_general_position(g, sub)


@pytest.mark.parametrize("s", [3, 5, 6, 7, 8, 9, 12, 13])
def test_cycle_triples_certified(s):
    w = cycle_gp_triple(s)
    assert w.certified and len(w) == 3


# ----------------------------------------------------------------------
# cylinder witnesses

def test_cylinder_witness_explicit_sets():
    assert list(cylinder_witness(5, 7)) == [(0, 0), (1, 2), (2, 4), (3, 6), (4, 1)]
    assert list(cylinder_witness(3, 3)) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_cylinder_witness_2x3_is_the_triangle_layer():
    w = cylinder_witness(2, 3)
    assert list(w) == [(0, 0), (0, 1), (0, 2)] and w.certified
    assert w.note == "triangle layer"


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("s", range(3, 10))
def test_cylinder_witness_matches_value_and_search(r, s):
    w = cylinder_witness(r, s)
    assert w.certified
    assert len(w) == cylinder_gp_value(r, s) == gp_exact(build(f"P{r}xC{s}")).gp_value


# ----------------------------------------------------------------------
# torus witnesses

def test_torus_witness6_matches_bolded_figure_set():
    w = torus_witness6(6, 3)
    assert sorted(w) == sorted([(0, 0), (3, 0), (1, 1), (4, 1), (2, 2), (5, 2)])


def test_torus_witness6_hypotheses():
    with pytest.raises(ValueError):
        torus_witness6(6, 4)
    with pytest.raises(ValueError):
        torus_witness6(5, 3)  # larger length below 6
    assert len(torus_witness6(7, 5)) == 6


def test_torus_witness6_respects_caller_factor_order():
    swapped = torus_witness6(3, 6)
    assert swapped.host.spec == "C3xC6"
    assert sorted(swapped) == sorted((b, a) for a, b in torus_witness6(6, 3))


def test_torus_witness7():
    w = torus_witness7()
    assert tuple(sorted(w)) == TORUS7_MEMBERS
    assert w.certified
    dists = [w.host.distance(u, v) for u, v in combinations(list(w), 2)]
    assert min(dists) == 3 and max(dists) == 5


def test_torus_witness6_certifies_lower_bound_where_claimed():
    for r in range(6, 10):
        for s in (3, 5, 6, 7):
            if s <= r:
                lower, upper = torus_gp_bounds(r, s)
                assert lower == 6
                w = torus_witness6(r, s)
                assert len(w) == 6 and w.certified


def test_hamming_tightness_on_two_factors():
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            assert gp_exact(build(f"K{n1}xK{n2}")).gp_value == hamming_lower_bound([n1, n2])

