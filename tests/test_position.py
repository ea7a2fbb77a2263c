"""Betweenness, the two general-position checkers, and F(X)."""

import random
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.graphs import FLAT_TABLE_MAX_VERTICES, build
from genpos.position import (
    GpSet,
    characterization_check,
    find_violating_triple,
    forbidden_set,
    independence_check,
    is_between,
    is_general_position,
)
from genpos.solver import enumerate_maximum_gp_sets, gp_exact
from helpers import bfs_distance_table, naive_first_violation, subset_in_general_position

FIG5 = [(0, 1), (1, 4), (2, 0), (3, 3), (4, 6), (5, 2), (6, 5)]


# ----------------------------------------------------------------------
# betweenness

def test_is_between_examples():
    assert is_between(build("P3xP3"), (1, 1), (0, 0), (2, 2))
    c4 = build("C4")
    assert is_between(c4, (1,), (0,), (2,))
    assert is_between(c4, (3,), (0,), (2,))
    # degenerate: x = y always lies between
    assert is_between(build("P5xC7"), (2, 3), (2, 3), (4, 0))


def test_is_between_brute_force_on_c4():
    c4 = build("C4")
    between = {
        (y, z): {x for x in range(4) if is_between(c4, (x,), (y,), (z,))}
        for y in range(4)
        for z in range(4)
    }
    assert between[(0, 2)] == {0, 1, 2, 3}
    assert between[(0, 1)] == {0, 1}
    assert between[(1, 1)] == {1}


# ----------------------------------------------------------------------
# direct checker

def test_general_position_examples():
    assert is_general_position(build("C7xC7"), FIG5)
    for r, s in [(2, 4), (3, 5), (4, 6), (2, 7)]:
        g = build(f"P{r}xC{s}")
        quad = [(0, 0), (1, 1), (0, s // 2), (1, s // 2 + 1)]
        assert is_general_position(g, quad)
    assert not is_general_position(build("P3xP3"), [(0, 0), (1, 1), (2, 2)])


def test_small_sets_are_always_general_position():
    g = build("K3xC4")
    vs = list(g.vertices())
    assert is_general_position(g, [])
    assert is_general_position(g, vs[:1])
    for pair in combinations(vs[:6], 2):
        assert is_general_position(g, pair)


def test_violating_triple_is_lex_first_and_middle_first():
    p5 = build("P5")
    bad = find_violating_triple(p5, [(0,), (1,), (2,), (3,)])
    # lexicographically first violating 3-subset is {0,1,2}, middle 1
    assert bad == ((1,), (0,), (2,))


def test_input_validation():
    # every public entry point validates its input before any core runs
    g = build("P3xP3")
    for check in (is_general_position, find_violating_triple, characterization_check, GpSet.certify):
        with pytest.raises(ValueError, match="duplicate"):
            check(g, [(0, 0), (1, 2), (0, 0)])
        with pytest.raises(ValueError, match="out of range"):
            check(g, [(0, 0), (0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            check(g, [(-1, 0)])
        for wrong_arity in [(0,), (0, 0, 0)]:
            with pytest.raises(ValueError, match="expected 2"):
                check(g, [(1, 1), wrong_arity])
        for not_int in [(True, 0), (0, 1.0)]:
            with pytest.raises(ValueError, match="must be integers"):
                check(g, [(1, 1), not_int])
        # numpy integers are converted
        check(g, [(np.int64(0), np.int64(0)), (np.int64(1), 2)])
    assert is_general_position(g, [(np.int64(0), np.int64(0)), (np.int64(1), 2)])
    assert find_violating_triple(g, [(np.int64(0), 0), (0, 1), (np.int64(0), 2)]) == ((0, 1), (0, 0), (0, 2))
    ok, cert = characterization_check(g, [(np.int64(0), np.int64(0)), (0, 1)])
    assert ok and cert.parts == (((0, 0), (0, 1)),) and type(cert.parts[0][0][0]) is int
    assert GpSet.certify(g, [(np.int64(2), np.int64(2))]).members == ((2, 2),)


def test_monotonicity_subsets_stay_general_position():
    rnd = random.Random(3)
    for spec in ["P4xC5", "K3xK4", "C5xC5"]:
        g = build(spec)
        witness = list(gp_exact(g).witness)
        for _ in range(20):
            k = rnd.randrange(len(witness) + 1)
            sub = rnd.sample(witness, k)
            assert is_general_position(g, sub)


# ----------------------------------------------------------------------
# structural checker

def test_characterization_examples():
    g = build("P4xC6")
    ok, cert = characterization_check(g, [(0, 0), (0, 1)])
    assert ok and len(cert.parts) == 1  # one 2-clique part

    cyl = build("P5xC7")
    five = [(0, 0), (1, 2), (2, 4), (3, 6), (4, 1)]
    ok, cert = characterization_check(cyl, five)
    assert ok and len(cert.parts) == 5
    assert all(len(p) == 1 for p in cert.parts)

    ok, cert = characterization_check(build("P3xP3"), [(0, 0), (0, 1), (2, 2)])
    assert not ok and cert is None


def test_characterization_certificate_distances():
    g = build("C3")
    ok, cert = characterization_check(g, [(0,), (1,), (2,)])
    assert ok and len(cert.parts) == 1  # the triangle is one clique part
    ok, cert = characterization_check(build("P5"), [(0,), (4,)])
    assert ok and cert.part_distances[0][1] == 4


def test_checkers_agree_on_random_subsets():
    rnd = random.Random(11)
    for spec in ["P3xC5", "K3xK3", "S3xP3", "C4xC4"]:
        g = build(spec)
        vs = list(g.vertices())
        for _ in range(300):
            sub = rnd.sample(vs, rnd.randrange(min(7, len(vs))))
            direct = is_general_position(g, sub)
            structural, cert = characterization_check(g, sub)
            assert direct == structural
            assert (cert is not None) == structural


# ----------------------------------------------------------------------
# both distance-table paths against BFS distances

# P3^4 and C3xP3xP3xP3 read the cached flat matrix; P3^5 and K2^8 sum the
# distances between the members of each query.
TABLE_HOSTS = ["P3^4", "C3xP3xP3xP3", "P3^5", "K2^8"]


@cache
def _host_and_bfs(spec):
    g = build(spec)
    return g, bfs_distance_table(g)


def test_table_hosts_cover_both_sides_of_the_split():
    sizes = [_host_and_bfs(spec)[0].total_vertices for spec in TABLE_HOSTS]
    assert min(sizes) <= FLAT_TABLE_MAX_VERTICES < max(sizes)


def _naive_certificate(D, flats):
    """Components of the induced subgraph (sorted), with the distances
    between their first members: the certificate of a general position set."""
    parts, seen = [], set()
    for v in flats:
        if v in seen:
            continue
        part, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in flats:
                if w not in part and D[u][w] == 1:
                    part.add(w)
                    stack.append(w)
        seen |= part
        parts.append(sorted(part))
    parts.sort()
    return parts, [[D[p[0]][q[0]] for q in parts] for p in parts]


@pytest.mark.parametrize("spec", TABLE_HOSTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checkers_match_bfs_oracle_on_both_table_paths(spec, data):
    g, D = _host_and_bfs(spec)
    n = g.total_vertices
    flats = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=9)))
    members = [g.decode(i) for i in flats]
    data.draw(st.randoms(use_true_random=False)).shuffle(members)

    want = naive_first_violation(D, flats)
    got = find_violating_triple(g, members)
    assert got == (None if want is None else tuple(g.decode(i) for i in want))

    ok, cert = characterization_check(g, members)
    assert ok == subset_in_general_position(D, flats) == (want is None)
    if ok:
        parts, dists = _naive_certificate(D, flats)
        assert [[g.encode(v) for v in part] for part in cert.parts] == parts
        assert [list(row) for row in cert.part_distances] == dists
    else:
        assert cert is None


@pytest.mark.parametrize("spec", TABLE_HOSTS)
def test_distance_table_matches_bfs(spec):
    g, D = _host_and_bfs(spec)
    rnd = random.Random(spec)
    flats = rnd.sample(range(g.total_vertices), 12)
    ids, table = g.distance_table([g.decode(i) for i in flats])
    if g.total_vertices <= FLAT_TABLE_MAX_VERTICES:
        assert ids == flats  # flat indices into the host's cached matrix
        assert g.distance_table([])[1] is table
    else:
        assert ids == list(range(12))  # positions in a members-only table
    for a, b in combinations(range(12), 2):
        assert table[ids[a]][ids[b]] == table[ids[b]][ids[a]] == D[flats[a]][flats[b]]
    assert all(table[i][i] == 0 for i in ids)


# ----------------------------------------------------------------------
# forbidden sets

def test_forbidden_set_midpoint_of_path():
    assert forbidden_set(build("P3"), [(0,), (2,)]) == frozenset({(1,)})


def test_forbidden_set_adjacent_pair_blocks_everything():
    # two vertices adjacent along the path direction of a cylinder
    g = build("P4xC6")
    x = {(1, 2), (2, 2)}
    assert forbidden_set(g, x) == frozenset(set(g.vertices()) - x)


def test_forbidden_set_cycle_adjacent_pair_odd_cycle():
    # adjacent along an odd cycle: everything except the opposite path layer
    g = build("P3xC5")
    x = {(1, 0), (1, 1)}
    opposite_layer = {(i, 3) for i in range(3)}
    assert forbidden_set(g, x) == frozenset(set(g.vertices()) - x - opposite_layer)


def test_forbidden_set_region_structure_on_p4xc6():
    # F((0,0),(0,2)) derived from the forbidden-region description:
    # all rows in columns {0, 2, 3, 5} plus (0,1), minus the pair itself.
    g = build("P4xC6")
    expected = {(i, j) for i in range(4) for j in (0, 2, 3, 5)} | {(0, 1)}
    expected -= {(0, 0), (0, 2)}
    assert forbidden_set(g, [(0, 0), (0, 2)]) == frozenset(expected)
    # the survivors are the two middle columns except (0,1)
    survivors = set(g.vertices()) - expected - {(0, 0), (0, 2)}
    assert survivors == {(i, j) for i in range(4) for j in (1, 4)} - {(0, 1)}


def test_forbidden_set_requires_general_position_input():
    g = build("P3xP3")
    with pytest.raises(ValueError, match="not a general position set"):
        forbidden_set(g, [(0, 0), (1, 1), (2, 2)])


def test_forbidden_set_accepts_certified_gpset():
    g = build("P3")
    x = GpSet.certify(g, [(0,), (2,)])
    assert forbidden_set(g, x) == frozenset({(1,)})


# ----------------------------------------------------------------------
# independence

def test_independence_check():
    assert independence_check(build("C7xC7"), FIG5)
    assert not independence_check(build("P2"), [(0,), (1,)])
    assert independence_check(build("P2"), [])


def test_fig5_minimum_pairwise_distance_is_3():
    g = build("C7xC7")
    dists = [g.distance(u, v) for u, v in combinations(FIG5, 2)]
    assert min(dists) == 3 and max(dists) == 5


# ----------------------------------------------------------------------
# grid structure facts

@pytest.mark.parametrize("r,s", [(r, s) for r in range(2, 6) for s in range(r, 6)])
def test_corner_caps_general_position_sets_at_3(r, s):
    # a degree-2 vertex in a grid admits no general position 4-set around it
    g = build(f"P{r}xP{s}")
    corners = [v for v in g.vertices() if sum(len(f.adj[c]) for f, c in zip(g.factors, v)) == 2]
    assert corners
    others = [v for v in g.vertices() if v != corners[0]]
    for trip in combinations(others, 3):
        assert not is_general_position(g, [corners[0], *trip])


@pytest.mark.parametrize("r,s", [(3, 3), (3, 5), (4, 4), (5, 5)])
def test_triples_through_origin_have_distinct_coordinates(r, s):
    g = build(f"P{r}xP{s}")
    others = [v for v in g.vertices() if v != (0, 0)]
    for (i, i2), (j, j2) in combinations(others, 2):
        if is_general_position(g, [(0, 0), (i, i2), (j, j2)]):
            assert i != j and i2 != j2


def test_bipartite_maximum_sets_are_independent():
    for spec in ["P3xP3", "P3xP4", "P4xP4", "K2^3", "K2^4", "P2xP4"]:
        g = build(spec)
        value, sets = enumerate_maximum_gp_sets(g)
        if value >= 3:
            for members in sets:
                assert independence_check(g, members)
