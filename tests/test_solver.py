"""Exact search, enumeration, and cover bounds against independent oracles."""

import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.graphs import (
    FLAT_TABLE_MAX_VERTICES,
    FactorGraph,
    FactorSpec,
    ProductGraph,
    VertexCapError,
    build,
)
from genpos.position import PAIR_CHUNK_CELLS, independence_check, is_general_position
from genpos.formulas import cylinder_witness, grid_gp_count, torus_quadrant_cover
from genpos import solver
from genpos.solver import (
    BadTripleIndex,
    BudgetExhausted,
    SearchLimits,
    _Symmetry,
    count_maximum_gp_sets,
    enumerate_maximum_gp_sets,
    flat_distance_matrix,
    gp_exact,
    isometric_cover_bound,
)
from helpers import (
    bfs_distance_table,
    naive_count_maximum,
    naive_gp,
    naive_lex_first_max,
    naive_maximum_sets,
    subset_in_general_position,
    triple_is_bad,
)

SMALL_CORPUS = [
    "P2xP2",
    "P2xP3",
    "P3xP3",
    "P2xC3",
    "P3xC4",
    "K2xK4",
    "K3xK3",
    "S3xP2",
    "C4xC4",
    "K2^3",
    "C3xC5",
    "P4xP4",
    "S2xS2",
]


# ----------------------------------------------------------------------
# exact values

@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_gp_exact_matches_naive_enumeration(spec):
    g = build(spec)
    res = gp_exact(g)
    assert res.complete
    assert res.gp_value == naive_gp(g)
    assert res.witness.certified and len(res.witness) == res.gp_value


@pytest.mark.parametrize(
    "spec,value",
    [("P4xP5", 4), ("P5xC8", 4), ("K3xK4", 5), ("P2xP2", 2), ("P5xC7", 5)],
)
def test_gp_exact_known_values(spec, value):
    assert gp_exact(build(spec)).gp_value == value


@pytest.mark.parametrize(
    "a,b", [("P3xC5", "C5xP3"), ("K3xP4", "P4xK3"), ("P2xC4", "C4xP2")]
)
def test_factor_order_symmetry(a, b):
    assert gp_exact(build(a)).gp_value == gp_exact(build(b)).gp_value


def _plain_maximum_sets(g):
    """(gp, every maximum set in lexicographic order) from the search core
    run with no symmetry state: every node branches on every candidate, so
    no keep filter can drop a set."""
    n = g.total_vertices
    sets: list[list[int]] = []
    best = solver._dfs(BadTripleIndex.build(g), [([], (1 << n) - 1, 1, None)], [], None, slack=0, sets=sets)[0]
    return best, [tuple(map(g.decode, s)) for s in sets]


def _plain_lex_first_maximum_set(g):
    """(gp, lex-first maximum set) from the plain max-search: no symmetry
    state, so neither the keep filter nor the leader test runs, and the
    first set of the largest size reached is the lex-first one."""
    n = g.total_vertices
    best, _, witness, _, _ = solver._dfs(BadTripleIndex.build(g), [([], (1 << n) - 1, 1, None)], [], None, slack=1)
    return best, tuple(map(g.decode, witness))


def test_witness_is_lex_first_maximum_set():
    # gp_exact and enumeration both run the keep filter, so both are checked
    # against the plain all-vertex search; the last four hosts are above the
    # naive oracles' reach, with stabilizer chains several levels deep
    for spec in ["P3xC4", "K3xK3", "P4xP4", "K3^3", "K4xK4xK2", "C6xC6", "C7xC7"]:
        g = build(spec)
        best, plain = _plain_maximum_sets(g)
        res = gp_exact(g)
        assert (res.gp_value, tuple(res.witness)) == (best, plain[0])
        assert enumerate_maximum_gp_sets(g) == (best, plain)
    # the setwise leader test prunes on C9xC9 (14,924 nodes without it), so
    # its witness is checked too; its 9,072 maximum sets are not enumerated
    g = build("C9xC9")
    res = gp_exact(g)
    assert (res.gp_value, tuple(res.witness)) == _plain_lex_first_maximum_set(g)
    assert res.nodes_explored < 14_924


# ----------------------------------------------------------------------
# symmetry: orbit-minimal first vertices

_PAW = [[1], [0, 2, 3], [1, 3], [1, 2]]  # asymmetric apart from swapping 2 and 3
_P4_EXPLICIT = [[1], [0, 2], [1, 3], [2]]  # symmetric, but explicit factors get no automorphism

SYMMETRY_CORPUS = {
    "P5": build("P5"),  # odd path: the middle vertex is its own mirror
    "P4xP3": build("P4xP3"),  # even and odd path
    "C5xP3": build("C5xP3"),
    "K4xP3": build("K4xP3"),
    "S3xP3": build("S3xP3"),
    "S2xS2": build("S2xS2"),
    "C3xP2xC3": build("C3xP2xC3"),  # same-label factors, not adjacent
    "P3xK2xP3": build("P3xK2xP3"),
    "paw x P3": ProductGraph([FactorGraph.explicit(_PAW), FactorGraph.path(3)]),
    "C4 x explicit P4": ProductGraph([FactorGraph.cycle(4), FactorGraph.explicit(_P4_EXPLICIT)]),
    "paw x explicit P4": ProductGraph([FactorGraph.explicit(_PAW), FactorGraph.explicit(_P4_EXPLICIT)]),
}


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_witness_is_naive_lex_first_maximum_set(name):
    g = SYMMETRY_CORPUS[name]
    res = gp_exact(g)
    assert res.complete
    assert (res.gp_value, tuple(res.witness)) == naive_lex_first_max(g)


def _root_orbit_table(g):
    """The whole group's orbit table, as counting reads it: the least flat
    index of each vertex's orbit, and the orbit size of each orbit-minimal
    vertex.  A trivial group leaves every vertex its own orbit."""
    n = g.total_vertices
    root = _Symmetry(g).root()
    if root is None:
        return list(range(n)), dict.fromkeys(range(n), 1)
    return root.low, {r: orbit.bit_count() for r, orbit in root.orbit.items()}


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_canonical_form_has_the_same_distance_profile(name):
    g = SYMMETRY_CORPUS[name]
    D = bfs_distance_table(g)
    low, _ = _root_orbit_table(g)
    for i, v in enumerate(g.vertices()):
        c = g.decode(low[i])
        assert c <= v
        assert sorted(D[i]) == sorted(D[low[i]]), (v, c)


def test_orbit_minimal_roots():
    assert _root_orbit_table(build("C5xC5"))[1] == {0: 25}  # vertex-transitive
    assert _root_orbit_table(build("K2^4"))[1] == {0: 16}
    g = build("P3xP4")
    roots = _root_orbit_table(g)[1]
    assert [g.decode(i) for i in roots] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(roots.values()) == [4, 4, 2, 2]
    g = build("P3xP3")  # same-label factors: (0, 1) and (1, 0) share an orbit
    roots = _root_orbit_table(g)[1]
    assert {g.decode(i): k for i, k in roots.items()} == {(0, 0): 4, (0, 1): 4, (1, 1): 1}
    explicit = SYMMETRY_CORPUS["C4 x explicit P4"]
    roots = _root_orbit_table(explicit)[1]
    assert [explicit.decode(i) for i in roots] == [(0, j) for j in range(4)]
    assert list(roots.values()) == [4, 4, 4, 4]


def _assert_orbits_meet_equally_many_maximum_sets(g):
    """The lemma behind orbit-weighted counting: each vertex lies on as many
    maximum sets as the least vertex of its orbit, and the orbits partition
    V."""
    _, sets = naive_maximum_sets(g)
    on = {v: 0 for v in g.vertices()}
    for members in sets:
        for v in members:
            on[v] += 1
    low, roots = _root_orbit_table(g)
    for i, v in enumerate(g.vertices()):
        assert on[v] == on[g.decode(low[i])], v
    assert sum(roots.values()) == g.total_vertices
    assert list(roots) == sorted(roots)
    assert sorted(set(low)) == list(roots)


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_orbits_meet_equally_many_maximum_sets(name):
    _assert_orbits_meet_equally_many_maximum_sets(SYMMETRY_CORPUS[name])


_small_factor = st.one_of(
    st.builds(FactorSpec, st.just("P"), st.integers(1, 6)),
    st.builds(FactorSpec, st.just("C"), st.integers(3, 6)),
    st.builds(FactorSpec, st.just("K"), st.integers(1, 4)),
    st.builds(FactorSpec, st.just("S"), st.integers(1, 3)),
)


# powers repeat a label, so the search also prunes by position swaps
_small_power = st.builds(lambda f, k: [f] * k, _small_factor, st.integers(2, 3))


_random_product = st.one_of(st.lists(_small_factor, min_size=1, max_size=3), _small_power).filter(
    lambda fs: prod(f.size + (f.family == "S") for f in fs) <= 27
)


@settings(max_examples=30, deadline=None)
@given(_random_product)
def test_witness_is_lex_first_on_random_products(factors):
    g = ProductGraph([f.build() for f in factors])
    res = gp_exact(g)
    assert (res.gp_value, tuple(res.witness)) == naive_lex_first_max(g)


@pytest.mark.parametrize("spec", ["P3xC4", "K2^4", "S2xS2", "C3xP2xC3"])
def test_lex_first_oracle_is_the_first_subset_in_combinations_order(spec):
    g = build(spec)
    D = bfs_distance_table(g)
    value, first = naive_lex_first_max(g)
    plain = next(s for s in combinations(range(len(D)), value) if subset_in_general_position(D, s))
    assert first == tuple(g.decode(i) for i in plain)
    assert not any(subset_in_general_position(D, s) for s in combinations(range(len(D)), value + 1))


# ----------------------------------------------------------------------
# symmetry: prefix stabilizers

STABILIZER_HOSTS = {
    **SYMMETRY_CORPUS,
    **{spec: build(spec) for spec in ("P3^3", "C5xC5", "K3^3", "S2^3", "K2^5", "C4xP3xC4")},
}


def _lowering_candidates(g):
    """Explicit permutations of the flat indices, built from coordinates
    alone: at one position, every reflection x -> c - x (mod n), the
    reversal of a path among them, and every transposition of two factor
    vertices; and every swap of two positions of equal size.  Which of them
    are automorphisms is left to the distance check."""
    verts = list(g.vertices())

    def flat(fn):
        return tuple(g.encode(fn(v)) for v in verts)

    def at(p, m):
        return flat(lambda v: v[:p] + (m(v[p]),) + v[p + 1:])

    out = []
    sizes = [f.n for f in g.factors]
    for p, n in enumerate(sizes):
        out += [at(p, lambda x, c=c, n=n: (c - x) % n) for c in range(n)]
        out += [at(p, lambda x, a=a, b=b: b if x == a else a if x == b else x)
                for a, b in combinations(range(n), 2)]
    for p, q in combinations(range(len(sizes)), 2):
        if sizes[p] == sizes[q]:
            out.append(flat(lambda v, p=p, q=q: tuple(
                v[q] if i == p else v[p] if i == q else c for i, c in enumerate(v)
            )))
    return out


def _random_gp_prefix(D, rng: random.Random) -> list[int]:
    """Up to four vertices in general position, drawn at random, ascending
    as on a search path."""
    size = rng.randint(1, 4)
    prefix: list[int] = []
    for v in rng.sample(range(len(D)), len(D)):
        if len(prefix) < size and subset_in_general_position(D, prefix + [v]):
            prefix.append(v)
    return sorted(prefix)


@pytest.mark.parametrize("name", STABILIZER_HOSTS)
def test_every_dropped_vertex_is_lowered_by_a_prefix_automorphism(name):
    """Soundness of the per-prefix filter against an engine-free oracle: for
    each vertex a prefix's state drops, some explicit permutation preserves
    every BFS distance, fixes the prefix pointwise and maps the vertex
    below itself.  The state's transversal of every vertex is such a
    permutation too, and maps the vertex onto the least of its orbit."""
    g = STABILIZER_HOSTS[name]
    D = bfs_distance_table(g)
    n = g.total_vertices
    automorphisms = [
        s for s in _lowering_candidates(g)
        if all(D[s[a]][s[b]] == D[a][b] for a in range(n) for b in range(a + 1, n))
    ]
    sym = _Symmetry(g)
    root = sym.root()
    assert [v for v in range(n) if root is None or root.mask >> v & 1] == list(_root_orbit_table(g)[1])
    rng = random.Random(name)
    for prefix in [[]] + [_random_gp_prefix(D, rng) for _ in range(12)]:
        state = root
        for v in prefix:
            state = None if state is None else state[v]
        if state is None:
            continue  # nothing is dropped
        for v in range(n):
            if not state.mask >> v & 1:
                assert any(
                    s[v] < v and all(s[u] == u for u in prefix) for s in automorphisms
                ), (prefix, g.decode(v))
            tau = sym.transversal(state, v)
            assert tau[v] == state.low[v] and all(tau[u] == u for u in prefix), (prefix, g.decode(v))
            assert all(D[tau[a]][tau[b]] == D[a][b] for a in range(n) for b in range(a + 1, n))


def _spec_group_generators(g):
    """Generators of the group the search reads off the spec, built from
    coordinates and the factors' kinds and labels alone: at one position a
    cycle's rotation and reflection, a path's reversal, or a transposition
    (a, a + 1) of a complete graph's vertices or of a star's leaves (an
    explicit factor gets none); and the swap of two same-label positions."""
    verts = list(g.vertices())

    def flat(fn):
        return tuple(g.encode(fn(v)) for v in verts)

    def at(p, m):
        return flat(lambda v: v[:p] + (m(v[p]),) + v[p + 1:])

    out = []
    for p, f in enumerate(g.factors):
        n = f.n
        if f.kind == "cycle":
            out += [at(p, lambda x, n=n: (x + 1) % n), at(p, lambda x, n=n: -x % n)]
        elif f.kind == "path":
            out.append(at(p, lambda x, n=n: n - 1 - x))
        elif f.kind in ("complete", "star"):
            out += [at(p, lambda x, a=a: a + 1 if x == a else a if x == a + 1 else x)
                    for a in range(f.kind == "star", n - 1)]
    for p, q in combinations(range(len(g.factors)), 2):
        if g.factors[p].label is not None and g.factors[p].label == g.factors[q].label:
            out.append(flat(lambda v, p=p, q=q: tuple(
                v[q] if i == p else v[p] if i == q else c for i, c in enumerate(v)
            )))
    return out


def _closure(gens, start, act):
    """Every image of ``start`` under the group generated by ``gens``, where
    act(s, x) is the image of x under the permutation s."""
    seen = {start}
    todo = [start]
    while todo:
        x = todo.pop()
        for s in gens:
            image = act(s, x)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def _move_vertex(s, x):
    return s[x]


def _move_set(s, U):
    return frozenset(s[u] for u in U)


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_generators_are_automorphisms_closing_to_the_root_orbits(name):
    """Each generator preserves every BFS distance, each vertex's closure is
    its orbit in ``root.orbit``, and random general position sets have the
    same orbits under the generators as under the engine-free
    :func:`_spec_group_generators` (equal vertex orbits alone would miss a
    lost reflection, say, as a cycle's rotation reaches all its vertices)."""
    g = SYMMETRY_CORPUS[name]
    D = bfs_distance_table(g)
    n = g.total_vertices
    sym = _Symmetry(g)
    gens = sym.generators()
    for h in gens:
        assert sorted(h) == list(range(n))
        assert all(D[h[x]][h[y]] == D[x][y] for x in range(n) for y in range(n))
    root = sym.root()
    orbits = {r: 1 << r for r in range(n)} if root is None else root.orbit
    low = range(n) if root is None else root.low
    for x in range(n):
        closure = _closure(gens, x, _move_vertex)
        assert sum(1 << y for y in closure) == orbits[low[x]], g.decode(x)
    spec_gens = _spec_group_generators(g)
    rng = random.Random(name)
    for _ in range(8):
        members = frozenset(_random_gp_prefix(D, rng))
        assert _closure(gens, members, _move_set) == _closure(spec_gens, members, _move_set), sorted(members)


def _assert_witness_prefixes_pass_the_leader_test(g):
    """The lemma behind the max-search's setwise leader test: every prefix
    P of the lex-first maximum set S* is the least set of its orbit under
    the whole group, as sorted(h(S*)) < S* would follow from sorted(h(P)) <
    P.  The witness comes from the naive oracle and the orbits from the
    engine-free generators; the engine's test passes every prefix and
    refuses the largest set of each prefix's orbit when that is not P."""
    _, first = naive_lex_first_max(g)
    witness = [g.encode(v) for v in first]
    sym = _Symmetry(g)
    root = sym.root()
    gens = _spec_group_generators(g)
    for k in range(1, len(witness) + 1):
        prefix = witness[:k]
        orbit = [sorted(U) for U in _closure(gens, frozenset(prefix), _move_set)]
        assert min(orbit) == prefix
        if root is None:
            assert orbit == [prefix]
            continue
        assert sym.orbit_weight(root, prefix) == len(orbit)
        if max(orbit) != prefix:
            assert sym.orbit_weight(root, max(orbit)) == 0


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_witness_prefixes_pass_the_leader_test(name):
    _assert_witness_prefixes_pass_the_leader_test(SYMMETRY_CORPUS[name])


@settings(max_examples=30, deadline=None)
@given(_random_product)
def test_witness_prefixes_pass_the_leader_test_on_random_products(factors):
    _assert_witness_prefixes_pass_the_leader_test(ProductGraph([f.build() for f in factors]))


@pytest.mark.parametrize("spec", ["C5xC5", "K3^3", "C4xK3", "C3xK2xC5"])
def test_search_pairs_are_orbit_leaders_on_cycles_and_complete_graphs(spec):
    """Why the max-search skips the leader test on prefixes of two: every
    pair (s1, s2) it can reach (s1 orbit-minimal, s2 kept by s1's branch
    and orbit-minimal under s1's stabilizer) is the least set of its orbit
    when an automorphism swaps the two, as on these hosts."""
    g = build(spec)
    n = g.total_vertices
    sym = _Symmetry(g)
    root = sym.root()
    gens = _spec_group_generators(g)
    for s1 in range(n):
        if not root.mask >> s1 & 1:
            continue
        state = root[s1]
        for s2 in range(s1 + 1, n):
            if root.keep[s1] >> s2 & 1 and (state is None or state.mask >> s2 & 1):
                assert min(sorted(U) for U in _closure(gens, frozenset((s1, s2)), _move_set)) == [s1, s2]
                assert sym.orbit_weight(root, [s1, s2])


@pytest.mark.parametrize("spec", ["P1", "K1xP1", "P1^3", "S1xP1"])
def test_a_trivial_group_has_no_generators(spec):
    # one-vertex factors, and a star whose one leaf has no other leaf to swap with
    sym = _Symmetry(build(spec))
    assert sym.root() is None and sym.generators() == []


def _compose(s, h):
    return tuple(s[a] for a in h)


NAMED_FACTORS = (
    [FactorGraph.cycle(n) for n in range(3, 9)]
    + [FactorGraph.path(n) for n in range(1, 9)]
    + [FactorGraph.complete(n) for n in range(1, 9)]
    + [FactorGraph.star(k) for k in range(1, 8)]
)


@pytest.mark.parametrize("f", NAMED_FACTORS, ids=lambda f: f.label)
def test_factor_orbits_are_the_pointwise_stabilizer_orbits(f):
    """For every bitset of fixed vertices, ``_factor_orbits`` against an
    engine-free oracle: the pointwise stabilizer is every element of the
    closure of :func:`_spec_group_generators` on the factor alone that
    fixes the bitset.  Each low is the least image of its vertex under that
    stabilizer, each move (the product of generators along a vertex's
    steps) is an element of it taking its vertex to the low and preserving
    every BFS distance, and the generators of ``_factor_generators``
    generate exactly that stabilizer."""
    n = f.n
    g = ProductGraph([f])  # flat indices are the factor's vertices
    D = bfs_distance_table(g)
    group = _closure(_spec_group_generators(g), tuple(range(n)), _compose)
    by_fixed_points: dict[int, list] = {}
    for s in group:
        by_fixed_points.setdefault(sum(1 << a for a in range(n) if s[a] == a), []).append(s)
    for fixed in range(1 << n):
        stabilizer = {s for points, elements in by_fixed_points.items()
                      if points & fixed == fixed for s in elements}
        gens = solver._factor_generators(f.kind, n, fixed)
        assert _closure(gens, tuple(range(n)), _compose) == stabilizer, fixed
        lows, steps = solver._factor_orbits(f.kind, n, fixed)
        assert list(lows) == [min(s[x] for s in stabilizer) for x in range(n)], fixed
        for x in range(n):
            h, y = tuple(range(n)), x
            while steps[y] is not None:
                s, y = steps[y]
                assert s in gens
                h = _compose(s, h)
            assert h in stabilizer and h[x] == lows[x], (fixed, x)
            assert all(h[u] == u for u in range(n) if fixed >> u & 1)
            assert all(D[h[a]][h[b]] == D[a][b] for a in range(n) for b in range(n))


def _stabilizer_orbit(gens, r, members):
    """The images of the set ``members`` under the elements fixing r of the
    group generated by ``gens``: close the pair (r, members) under the
    generators and keep the pairs that still start with r."""
    pairs = _closure(gens, (r, frozenset(members)), lambda s, xU: (s[xU[0]], _move_set(s, xU[1])))
    return {U for x, U in pairs if x == r}


ORBIT_ORACLE_HOSTS = {**SYMMETRY_CORPUS, **{spec: build(spec) for spec in ("K3^3", "K2^4", "S2^3")}}


@pytest.mark.parametrize("name", ORBIT_ORACLE_HOSTS)
def test_leaf_weight_matches_an_explicit_orbit_closure(name):
    """The leaf test against an engine-free oracle: for random general
    position sets T through an orbit-minimal root r, ``orbit_weight`` is
    the size of T's orbit under the stabilizer of r when T is the least set
    of that orbit and 0 otherwise, where the orbit is the closure of T under
    explicit coordinate permutations."""
    g = ORBIT_ORACLE_HOSTS[name]
    D = bfs_distance_table(g)
    n = g.total_vertices
    gens = _spec_group_generators(g)
    for s in gens:  # every generator is an automorphism
        assert all(D[s[a]][s[b]] == D[a][b] for a in range(n) for b in range(n))
    sym = _Symmetry(g)
    root = sym.root()
    roots = list(_root_orbit_table(g)[1])
    rng = random.Random(name)
    for trial in range(30):
        r = roots[trial % len(roots)]
        members = [r]
        for v in rng.sample(range(n), n):
            if v != r and subset_in_general_position(D, members + [v]):
                members.append(v)
            if len(members) > rng.randint(2, 6):
                break
        T = sorted(members[1:])
        if not T:
            continue
        orbit = _stabilizer_orbit(gens, r, T)
        least = min(sorted(U - {r}) for U in orbit)
        state = None if root is None else root[r]
        if state is None:  # r's stabilizer moves nothing: no test is made
            assert len(orbit) == 1
            continue
        weight = sym.orbit_weight(state, T)
        assert weight == (len(orbit) if T == least else 0), (r, T)
        # the orbit's least set itself always passes, with the orbit's size
        assert sym.orbit_weight(state, least) == len(orbit)


@pytest.mark.parametrize(
    "spec,value,parent_nodes",
    # nodes when only the first vertex was restricted to orbit minima
    [("K4^3", 16, 512_766), ("K3^4", 12, 938_112), ("K2^7", 9, 2_031_155)],
)
def test_prefix_stabilizers_cut_the_hamming_searches_tenfold(spec, value, parent_nodes):
    res = gp_exact(build(spec))
    assert res.complete and res.gp_value == value
    assert res.nodes_explored * 10 <= parent_nodes


# lex-first witnesses as flat ids, as the search found them before the
# setwise leader test
PINNED_WITNESSES = {
    "C8xC7": [0, 9, 18, 27, 29, 38, 47],
    "C9xC9": [0, 11, 23, 34, 37, 48, 60],
    "C10xC10": [0, 3, 21, 26, 62, 67],
    "P3^4": [0, 5, 15, 19, 34, 38, 48, 67],
    "K4^3": [0, 5, 10, 15, 17, 20, 27, 30, 34, 39, 40, 45, 51, 54, 57, 60],
    "C5^3": [0, 6, 13, 27, 40, 64, 71, 78, 85, 92, 109, 123],
}


@pytest.mark.parametrize(
    "spec,value,nodes",
    [("C8xC7", 7, 2_235), ("C9xC9", 7, 13_610), ("C10xC10", 6, 14_600),
     ("P3^4", 8, 5_935), ("K4^3", 16, 4_143), ("C5^3", 12, 318_875)],
)
def test_max_search_node_counts_are_pinned(spec, value, nodes):
    # node counts are deterministic: a change to the stabilizers' branching
    # or to the leader test's gate shows here, not only in the benchmark
    g = build(spec)
    res = gp_exact(g)
    assert (res.complete, res.gp_value, res.nodes_explored) == (True, value, nodes)
    assert [g.encode(v) for v in res.witness] == PINNED_WITNESSES[spec]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(_small_factor, min_size=1, max_size=3).filter(
        lambda fs: prod(f.size + (f.family == "S") for f in fs) <= 16
    )
)
def test_orbits_meet_equally_many_maximum_sets_on_random_products(factors):
    _assert_orbits_meet_equally_many_maximum_sets(ProductGraph([f.build() for f in factors]))


def test_single_vertex_graph():
    res = gp_exact(build("P1"))
    assert res.gp_value == 1 and list(res.witness) == [(0,)]


def test_search_cap():
    with pytest.raises(VertexCapError):
        gp_exact(build("P3^5"))  # 243 vertices over the search cap
    with pytest.raises(VertexCapError):
        count_maximum_gp_sets(build("K3^4"))  # 81 over the enumeration cap


# ----------------------------------------------------------------------
# budgets

def test_node_budget_reports_incomplete_but_certified():
    res = gp_exact(build("P4xP4"), limits=SearchLimits(max_nodes=3))
    assert not res.complete and res.nodes_explored == 3
    assert res.witness.certified and len(res.witness) == res.gp_value


def test_a_zero_node_budget_explores_no_node():
    res = gp_exact(build("P4xP4"), limits=SearchLimits(max_nodes=0))
    assert res.nodes_explored == 0 and res.complete is False
    assert res.witness.certified and len(res.witness) == res.gp_value
    assert gp_exact(build("P4xP4"), limits=SearchLimits(max_nodes=1)).nodes_explored == 1
    with pytest.raises(BudgetExhausted):
        count_maximum_gp_sets(build("P2xP2"), limits=SearchLimits(max_nodes=0))


def test_an_expired_time_limit_stops_a_small_search_at_its_first_node():
    # P4xP4 takes 47 nodes, fewer than the clock poll interval
    g = build("P4xP4")
    res = gp_exact(g, limits=SearchLimits(time_limit=0))
    assert res.complete is False and res.nodes_explored == 1
    assert res.witness.certified and len(res.witness) == res.gp_value
    # polling the clock changes no node count
    full = gp_exact(g)
    assert full.nodes_explored == 47
    assert gp_exact(g, limits=SearchLimits(time_limit=60)).nodes_explored == 47
    assert gp_exact(g, limits=SearchLimits(max_nodes=3, time_limit=60)).nodes_explored == 3


def test_every_prefix_state_is_truthy():
    # a state with no child derived yet is an empty dict, and still a state
    root = _Symmetry(build("P3^4")).root()
    assert len(root) == 0 and root


def test_count_budget_counts_nodes_over_all_roots(monkeypatch):
    seen: list[int] = []  # nodes explored by each _dfs call
    dfs = solver._dfs

    def spy(*args, **kwargs):
        out = dfs(*args, **kwargs)
        seen.append(out[3])
        return out

    monkeypatch.setattr(solver, "_dfs", spy)
    with pytest.raises(BudgetExhausted):
        count_maximum_gp_sets(build("K4^3"), limits=SearchLimits(max_nodes=1000))
    assert seen == [1000]
    # P4^3 has four root orbits; a budget of as many nodes as the complete
    # search takes stops it at its last node, which no single root reaches
    g = build("P4^3")
    assert len(_root_orbit_table(g)[1]) == 4
    full = count_maximum_gp_sets(g)
    total = seen[-1]
    assert count_maximum_gp_sets(g, limits=SearchLimits(max_nodes=total + 1)) == full
    with pytest.raises(BudgetExhausted):
        count_maximum_gp_sets(g, limits=SearchLimits(max_nodes=total))
    assert seen[-1] == total


def test_orbit_leaders_cut_the_hamming_count_tenfold():
    # 900,274 nodes when counting restricted only the first vertex to orbit minima
    assert count_maximum_gp_sets(build("K4^3"), limits=SearchLimits(max_nodes=90_000)) == (16, 576)


def test_k8xk8_count_finishes_within_the_benchmark_budget():
    assert count_maximum_gp_sets(build("K8xK8"), limits=SearchLimits(max_nodes=400_000)) == (14, 64)


def test_leaf_tests_run_under_the_time_budget(monkeypatch):
    # the four edge midpoints of P3xP3 through its centre: each is a tie
    # of the first under the centre's stabilizer, the whole group
    g = build("P3xP3")
    sym = _Symmetry(g)
    state = sym.root()[g.encode((1, 1))]
    T = [g.encode(v) for v in [(0, 1), (1, 0), (1, 2), (2, 1)]]
    assert sym.orbit_weight(state, T) == 1
    with pytest.raises(BudgetExhausted):
        sym.orbit_weight(state, T, deadline=time.monotonic() - 1)
    # a count hands its deadline to every leaf test
    deadlines = []
    weigh = _Symmetry.orbit_weight

    def spy(self, state, T, deadline=None):
        deadlines.append(deadline)
        return weigh(self, state, T, deadline)

    monkeypatch.setattr(_Symmetry, "orbit_weight", spy)
    assert count_maximum_gp_sets(build("K8xK8"), limits=SearchLimits(time_limit=60)) == (14, 64)
    assert deadlines and None not in deadlines
    # an expired deadline stops the count at its first node
    with pytest.raises(BudgetExhausted):
        count_maximum_gp_sets(build("K8xK8"), limits=SearchLimits(time_limit=1e-9))


def test_time_budget_on_a_larger_search():
    res = gp_exact(build("C7xC7"), limits=SearchLimits(time_limit=1e-4))
    assert not res.complete
    assert res.gp_value <= 7 and res.witness.certified


@pytest.mark.parametrize(
    "fields", [{"time_limit": -1.0}, {"time_limit": float("nan")}, {"max_nodes": -1}]
)
def test_limits_refuse_a_negative_or_nan_budget(fields):
    with pytest.raises(ValueError):
        SearchLimits(**fields)


# ----------------------------------------------------------------------
# the compiled plain loop

def _both_loops(monkeypatch, run):
    """run() with the compiled plain loop, where it loads, and again with
    the loader forced to the Python loop; run() returns what the two must
    share."""
    compiled = run()
    with monkeypatch.context() as m:
        m.setattr(solver, "_plain_loop", lambda: None)
        python = run()
    return compiled, python


def _spied(monkeypatch, run):
    """(every _dfs 5-tuple of run(), what run() returns)."""
    seen = []
    dfs = solver._dfs

    def spy(*args, **kwargs):
        seen.append(dfs(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(solver, "_dfs", spy)
        out = run()
    return seen, out


def _max_search(monkeypatch, g, limits=None):
    """(every _dfs 5-tuple, gp_exact's value, nodes, completeness and
    witness) of one max-search."""
    def run():
        res = gp_exact(g, limits=limits)
        return res.gp_value, res.nodes_explored, res.complete, list(res.witness)

    return _spied(monkeypatch, run)


def _count(monkeypatch, g, limits=None, cap=solver.DEFAULT_ENUM_CAP):
    """(every _dfs 5-tuple, the count or the budget's message) of one
    count_maximum_gp_sets."""
    def run():
        try:
            return count_maximum_gp_sets(g, cap, limits)
        except BudgetExhausted as exc:
            return str(exc)

    return _spied(monkeypatch, run)


@pytest.mark.parametrize("spec", [*PINNED_WITNESSES, "K2^7", "K3^4", "P6xC7", "K5xK5", "P4xP4"])
def test_the_compiled_loop_matches_rec_node_for_node(spec, monkeypatch):
    g = build(spec)
    compiled, python = _both_loops(monkeypatch, lambda: _max_search(monkeypatch, g))
    assert compiled == python


@pytest.mark.parametrize("max_nodes", [0, 1, 1000, 318_874, 318_875])
def test_the_compiled_loop_stops_at_the_same_node(max_nodes, monkeypatch):
    # C5^3 takes 318,875 nodes, so the last two budgets stop it one node
    # before its last and at its last
    g = build("C5^3")
    limits = SearchLimits(max_nodes=max_nodes)
    compiled, python = _both_loops(monkeypatch, lambda: _max_search(monkeypatch, g, limits))
    assert compiled == python
    assert compiled[1][1:3] == (max_nodes, False)


def test_an_expired_time_limit_stops_the_compiled_loop_at_its_first_node(monkeypatch):
    # a start with no state runs the plain loop from its first node, as
    # the cover bound's pieces do
    g = build("C6xC6")
    index = BadTripleIndex.build(g)
    start = ([], (1 << g.total_vertices) - 1, 1, None)

    def run():
        return solver._dfs(index, [start], [0], SearchLimits(time_limit=0), slack=1)

    compiled, python = _both_loops(monkeypatch, run)
    assert compiled == python == (1, 0, [0], 1, False)  # stopped before its tie is counted
    searched, _ = _both_loops(monkeypatch, lambda: _max_search(monkeypatch, g, SearchLimits(time_limit=0)))
    assert searched[1][1:3] == (1, False)


COUNT_HOSTS = ["P4xP4", "P4xP5", "P5xP5", "P6xP6", "P8xP8", "P6xC6", "C8xC7", "C8xC8", "C7xC9", "K2^6", "P4^3",
               "C4^3"]  # the count benchmark's short hosts


@pytest.mark.parametrize("spec", [*COUNT_HOSTS, "K4^3", "K8xK8", "C7xC7", "K3^3", "P3xP3", "C9xC9"])
def test_counting_matches_rec_node_for_node(spec, monkeypatch):
    g = build(spec)  # C9xC9: 81 vertices, so two words a candidate set
    compiled, python = _both_loops(monkeypatch, lambda: _count(monkeypatch, g, cap=None))
    assert compiled == python


@pytest.mark.parametrize("spec", ["P5xP5", "C7xC7", "C8xC7", "P4^3", "K2^6", "C4^3", "C9xC9"])
def test_enumeration_matches_on_both_loops(spec, monkeypatch):
    # the symmetric enumeration and the stateless search that lists every
    # maximum set, each _dfs call with its nodes; C9xC9 takes two words a row
    g = build(spec)

    def run():
        return enumerate_maximum_gp_sets(g, cap=None), _plain_maximum_sets(g)

    compiled, python = _both_loops(monkeypatch, lambda: _spied(monkeypatch, run))
    assert compiled == python
    listed, plain = compiled[1]
    assert listed == plain


def _weighings(monkeypatch, run):
    """(run(), the number of orbit_weight calls made by the compiled
    loop's weigher)."""
    weigh = _Symmetry.orbit_weight
    calls = []

    def spy(self, state, T, deadline=None):
        calls.append(sys._getframe(1).f_code.co_name == "weigh")
        return weigh(self, state, T, deadline)

    with monkeypatch.context() as m:
        m.setattr(_Symmetry, "orbit_weight", spy)
        out = run()
    return out, sum(calls)


@pytest.mark.parametrize("max_nodes,weighed", [(19_561, 317), (19_562, 317), (19_563, 318), (20_004, 319)])
def test_counting_stops_inside_a_tie_tracking_subtree_on_both_loops(max_nodes, weighed, monkeypatch):
    # counting P4^3 takes 20,004 nodes and weighs 319 tied sets, all below
    # a trivial stabilizer, the last two at nodes 19,562 and 19,563; so the
    # budgets stop one node before a weighed set, at it (unweighed), right
    # after it and at the last node
    g = build("P4^3")
    limits = SearchLimits(max_nodes=max_nodes)
    compiled, python = _both_loops(monkeypatch, lambda: _weighings(monkeypatch, lambda: _count(monkeypatch, g, limits)))
    assert compiled[0] == python[0]
    assert compiled[0][0][-1][3:] == (max_nodes, False)
    assert compiled[1] == (weighed if solver.plain_loop_backend() == "c" else 0)
    assert python[1] == 0


def _rec_sym_calls_without_a_state(run) -> int:
    """run()'s calls of _dfs's rec_sym with ``state`` None, seen by a
    profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec_sym" and frame.f_locals["state"] is None:
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_tie_tracking_runs_in_the_compiled_loop(monkeypatch):
    # with the loop loaded no max-search, count or enumeration runs
    # rec_sym without a state, so no plain node runs in Python; the Python
    # loop does, which shows the hook sees them
    hosts = [build(spec) for spec in COUNT_HOSTS]
    runs = [gp_exact, count_maximum_gp_sets, enumerate_maximum_gp_sets]
    compiled, python = _both_loops(
        monkeypatch, lambda: [[_rec_sym_calls_without_a_state(lambda: run(g)) for run in runs] for g in hosts])
    if solver.plain_loop_backend() == "c":
        assert compiled == [[0] * len(runs)] * len(hosts)
    assert all(python[COUNT_HOSTS.index("P4^3")])


class _Clock:
    """A stand-in for the solver's ``time`` module whose clock reads 0
    until ``expire`` moves it past any deadline."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def expire(self):
        self.now = 1e9


def _stop_at_the_weighing(monkeypatch, at, stop):
    """Patch the solver so that orbit_weight call ``at`` (0-based) first
    runs ``stop()``; only the first node polls the node clock.  Returns the
    list of the callers' names, one per call."""
    weigh = _Symmetry.orbit_weight
    callers = []

    def spy(self, state, T, deadline=None):
        callers.append(sys._getframe(1).f_code.co_name)
        if len(callers) == at + 1:
            stop()
        return weigh(self, state, T, deadline)

    monkeypatch.setattr(_Symmetry, "orbit_weight", spy)
    monkeypatch.setattr(solver, "_TIME_CHECK_EVERY", solver._NO_LIMIT)
    return callers


def test_a_time_limit_expiring_in_a_weighing_stops_both_loops_alike(monkeypatch, capfd):
    # the 101st tied set of P4^3 is weighed below a trivial stabilizer:
    # the clock expires there, and its orbit_weight raises BudgetExhausted
    g = build("P4^3")

    def run():
        clock = _Clock()
        callers = _stop_at_the_weighing(monkeypatch, 100, clock.expire)
        monkeypatch.setattr(solver, "time", clock)
        out = _count(monkeypatch, g, SearchLimits(time_limit=1))
        return out, len(callers), callers[-1]

    compiled, python = _both_loops(monkeypatch, run)
    assert compiled[:2] == python[:2]
    assert compiled[0][1] == "count of maximum gp-sets: budget exhausted; the largest set reached had 6 vertices"
    assert compiled[0][0][-1][4] is False and compiled[1] == 101
    assert compiled[2] == ("weigh" if solver.plain_loop_backend() == "c" else "rec_sym")
    assert python[2] == "rec_sym"
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("error", [RuntimeError("orbit product 3 is not divisible by 2"), KeyboardInterrupt()])
def test_an_exception_in_a_weighing_reaches_the_caller_on_both_loops(error, monkeypatch, capfd):
    # ctypes would print an exception raised in its callback and return 0
    g = build("P4^3")

    def stop():
        raise error

    def run():
        callers = _stop_at_the_weighing(monkeypatch, 100, stop)
        with pytest.raises(type(error)) as raised:
            count_maximum_gp_sets(g)
        return raised.value, len(callers), callers[-1]

    compiled, python = _both_loops(monkeypatch, run)
    assert compiled[0] is python[0] is error
    assert compiled[1] == python[1] == 101
    assert compiled[2] == ("weigh" if solver.plain_loop_backend() == "c" else "rec_sym")
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("max_nodes", [0, 1, 1000, 26_448, 26_449])
def test_counting_stops_at_the_same_node_on_both_loops(max_nodes, monkeypatch):
    # counting P8xP8 takes 26,449 nodes, so the last two budgets stop it
    # one node before its last and at its last
    g = build("P8xP8")
    compiled, python = _both_loops(monkeypatch, lambda: _count(monkeypatch, g, SearchLimits(max_nodes=max_nodes)))
    assert compiled == python
    assert compiled[0][-1][3:] == (max_nodes, False)
    assert _count(monkeypatch, g)[0][-1][3:] == (26_449, True)


def test_an_expired_time_limit_stops_counting_at_its_first_node(monkeypatch):
    # a start with no state runs the plain loop from its first node, as a
    # counting root with a trivial stabilizer does
    g = build("P8xP8")
    index = BadTripleIndex.build(g)
    start = ([0], (1 << g.total_vertices) - 2, 4, None)

    def run():
        return solver._dfs(index, [start], [], SearchLimits(time_limit=0), slack=0)

    compiled, python = _both_loops(monkeypatch, run)
    assert compiled == python == (0, 0, [], 1, False)
    counted, _ = _both_loops(monkeypatch, lambda: _count(monkeypatch, g, SearchLimits(time_limit=0)))
    assert counted[0][-1][3:] == (1, False)


def test_a_stopped_count_names_the_count_and_only_a_reached_size():
    g = build("P8xP8")
    for max_nodes, reached in [(0, ""), (1000, "; the largest set reached had 4 vertices")]:
        with pytest.raises(BudgetExhausted) as stop:
            count_maximum_gp_sets(g, limits=SearchLimits(max_nodes=max_nodes))
        assert str(stop.value) == "count of maximum gp-sets: budget exhausted" + reached


def test_the_plain_reference_searches_agree_on_both_loops(monkeypatch):
    # with no state, the whole max-search runs in the plain loop: the
    # compiled one, or rec_sym without a state
    for spec in ["P4xP4", "C7xC7", "K3^3"]:
        g = build(spec)
        compiled, python = _both_loops(monkeypatch, lambda: _plain_lex_first_maximum_set(g))
        res = gp_exact(g)
        assert compiled == python == (res.gp_value, tuple(res.witness))


def test_the_cover_bound_agrees_on_both_loops(monkeypatch):
    g = build("C6xC6")
    cover = torus_quadrant_cover(6, 6)

    def run():
        bound = isometric_cover_bound(g, cover)
        with pytest.raises(BudgetExhausted):
            isometric_cover_bound(g, cover, limits=SearchLimits(max_nodes=1))
        return bound

    compiled, python = _both_loops(monkeypatch, lambda: _spied(monkeypatch, run))
    assert compiled == python
    assert compiled[1] == 16 and compiled[0][-1][3:] == (1, False)


@pytest.mark.parametrize("spec", ["K2^7", "P3xC5xK3xK2"])
def test_the_words_and_the_rows_made_from_them_match_the_oracle(spec, monkeypatch):
    # K2^7 has 128 vertices, two full words a row; P3xC5xK3xK2 has 90, a
    # partial second word.  A budgeted max-search runs on each loop, and
    # every pair of the word array, read without _word_ints, and every int
    # row the Python side made are checked against the oracle
    g = build(spec)
    n = g.total_vertices
    D = bfs_distance_table(g)
    full = (1 << n) - 1
    allowed = {(a, b): full ^ sum(1 << u for u in _bad_with_oracle(D, a, b))
               for a in range(n) for b in range(n) if a != b}

    def run():
        index = BadTripleIndex.build(g)
        start = ([], full, 1, _Symmetry(g).root())
        return solver._dfs(index, [start], [0], SearchLimits(max_nodes=3000), slack=1), index

    (compiled, on_c), (python, on_py) = _both_loops(monkeypatch, run)
    assert compiled == python
    assert set(on_c.allowed_tables()) <= set(on_py.allowed_tables())
    for index in (on_c, on_py):
        assert index.words.shape == (n, n, -(-n // 64))
        words = index.words.reshape(n * n, -1)  # pair (a, b) at a * n + b
        assert not words[:: n + 1].any()  # the diagonal is zero
        assert all(int.from_bytes(words[a * n + b].tobytes(), "little") == mask
                   for (a, b), mask in allowed.items())
        rows = index.allowed_tables()
        assert rows and all(rows[a][b] == allowed[a, b] for a in list(rows) for b in range(n) if b != a)


def _fresh_loader(monkeypatch, cache, cc=None):
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    if cc is not None:
        monkeypatch.setenv("CC", cc)
    monkeypatch.setattr(solver, "_loaded", None)


def test_without_a_compiler_the_search_falls_back_silently(monkeypatch, tmp_path, capfd):
    _fresh_loader(monkeypatch, tmp_path / "cache", cc=str(tmp_path / "no-such-cc"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver.plain_loop_backend() == "python"
        res = gp_exact(build("C9xC9"))
        assert count_maximum_gp_sets(build("P8xP8")) == (4, 38_416)
    assert (res.gp_value, res.nodes_explored) == (7, 13_610)
    assert [build("C9xC9").encode(v) for v in res.witness] == PINNED_WITNESSES["C9xC9"]
    assert capfd.readouterr() == ("", "")
    assert list((tmp_path / "cache" / "genpos").iterdir()) == []  # no temp file left


def test_the_loader_caches_by_the_source_hash(monkeypatch, tmp_path):
    # with a compiler the cache then holds the one library, reused by the
    # next process; without one it holds nothing
    _fresh_loader(monkeypatch, tmp_path)
    backend = solver.plain_loop_backend()
    digest = hashlib.sha256(resources.files("genpos").joinpath("_plain.c").read_bytes()).hexdigest()
    built = [p.name for p in (tmp_path / "genpos").iterdir()]
    assert built == ([f"plain-{digest[:16]}.so"] if backend == "c" else [])
    monkeypatch.setattr(solver, "_loaded", None)
    assert solver.plain_loop_backend() == backend
    # a cache that cannot be written gives a directory of this process
    blocked = tmp_path / "file"
    blocked.write_text("")
    _fresh_loader(monkeypatch, blocked)
    assert solver.plain_loop_backend() == backend


def test_the_c_source_ships_as_package_data():
    # pyproject.toml lists it, so a non-editable install can compile it
    source = resources.files("genpos").joinpath("_plain.c")
    assert source.is_file() and b"int genpos_plain(" in source.read_bytes()


def test_importing_genpos_neither_compiles_nor_loads_the_loop(tmp_path):
    code = "import genpos, genpos.cli, genpos.verify; from genpos import solver; print(solver._loaded)"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None\n", "")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# counting and enumeration

@pytest.mark.parametrize(
    "spec,expected",
    # a root start never reaches the one-vertex set itself, so P1 and K1
    # are answered directly
    [("P2xP2", (2, 6)), ("P2xP3", (3, 2)), ("P3xP3", (4, 1)),
     ("P1", (1, 1)), ("K1", (1, 1)), ("K2", (2, 1))],
)
def test_count_examples(spec, expected):
    assert count_maximum_gp_sets(build(spec)) == expected


@pytest.mark.parametrize("name", SYMMETRY_CORPUS)
def test_count_matches_naive_on_symmetry_corpus(name):
    g = SYMMETRY_CORPUS[name]
    assert count_maximum_gp_sets(g) == naive_count_maximum(g)


@pytest.mark.parametrize(
    "spec,expected",
    [
        # same-label one-vertex factors: swapping them moves no vertex
        ("P1xC5xP1", (3, 5)),
        ("K1xK3xK3", (4, 9)),
        # powers: large groups, many ties between positions
        ("P2^5", (6, 352)),
        ("S2^3", (6, 13)),
        ("K2^4", (5, 16)),
        ("C4xC4", None),
        ("K3xK3", (4, 9)),
        ("K4xK4", (6, 16)),
    ],
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_count_matches_naive_on_symmetric_hosts(spec, expected):
    g = build(spec)
    naive = naive_count_maximum(g)
    assert count_maximum_gp_sets(g) == naive
    assert expected is None or naive == expected


@pytest.mark.parametrize("spec", ["P3xP4", "K2^4", "S2xS2", "C3xP2xC3", "P1xC5xP1"])
def test_count_oracle_is_the_plain_subset_count(spec):
    g = build(spec)
    D = bfs_distance_table(g)
    sizes = [sum(1 for s in combinations(range(len(D)), k) if subset_in_general_position(D, s))
             for k in range(1, len(D) + 1)]
    value = max(k for k, c in enumerate(sizes, 1) if c)
    assert naive_count_maximum(g) == (value, sizes[value - 1])


def test_count_builds_one_symmetry_per_call(monkeypatch):
    # the root orbits and the root states come from the same _Symmetry
    built = []

    class Spy(_Symmetry):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(solver, "_Symmetry", Spy)
    assert count_maximum_gp_sets(build("P4xP4")) == (4, 36)
    assert len(built) == 1


def test_count_refuses_an_orbit_sum_not_divisible_by_gp(monkeypatch):
    # P3xP3's one maximum set holds the four edge midpoints, one orbit of
    # size 4, so its orbit-weighted sum is 4; one more is not divisible by 4
    g = build("P3xP3")
    dfs = solver._dfs

    def off_by_one(*args, **kwargs):
        best, count, *rest = dfs(*args, **kwargs)
        assert (best, count) == (4, 4)
        return (best, count + 1, *rest)

    monkeypatch.setattr(solver, "_dfs", off_by_one)
    with pytest.raises(RuntimeError, match="not divisible"):
        count_maximum_gp_sets(g)


@pytest.mark.parametrize("spec", ["P2xP2", "P2xP3", "P3xP3", "P2xC3", "K2xK3", "P3xP4"])
def test_count_matches_naive_enumeration(spec):
    g = build(spec)
    assert count_maximum_gp_sets(g) == naive_count_maximum(g)


@pytest.mark.parametrize("r,s", [(2, 4), (2, 8), (3, 4), (3, 5), (3, 6)])
def test_count_matches_formula_where_formula_is_sound(r, s):
    # the closed form is provably correct for r <= 3 (the unenumerated
    # family in its derivation is empty there)
    g = build(f"P{r}xP{s}")
    assert count_maximum_gp_sets(g)[1] == grid_gp_count(r, s)


def test_count_beyond_the_formula():
    # for r, s >= 4 the published closed form undercounts; these values are
    # frozen from two independent exhaustive enumerations
    assert count_maximum_gp_sets(build("P4xP4")) == (4, 36)
    assert count_maximum_gp_sets(build("P4xP5")) == (4, 120)
    assert count_maximum_gp_sets(build("P5xP5")) == (4, 400)


def test_enumerate_returns_all_maximum_sets():
    g = build("P3xP4")
    value, sets = enumerate_maximum_gp_sets(g)
    assert value == 4
    assert len(sets) == count_maximum_gp_sets(g)[1]
    assert sets == sorted(sets)
    for members in sets:
        assert is_general_position(g, members)


ENUMERATION_HOSTS = {
    **{spec: build(spec) for spec in
       ("P3xP4", "P3xC5", "K2xK3", "C3xP2xC3", "K2^4", "C4xC4", "S3xS3", "C3xC3xK2", "P2^5")},
    # explicit factors; the second host's group is trivial, so nothing is closed
    **{name: SYMMETRY_CORPUS[name] for name in ("C4 x explicit P4", "paw x explicit P4")},
}


@pytest.mark.parametrize("spec", ENUMERATION_HOSTS)
def test_enumeration_matches_naive_list(spec):
    g = ENUMERATION_HOSTS[spec]
    assert enumerate_maximum_gp_sets(g) == naive_maximum_sets(g)


@pytest.mark.parametrize("spec", ["P3xP4", "K2^4", "S2xS2", "C3xP2xC3", "P1xC5xP1"])
def test_maximum_sets_oracle_is_the_plain_subset_list(spec):
    g = build(spec)
    D = bfs_distance_table(g)
    value, sets = naive_maximum_sets(g)
    plain = [s for s in combinations(range(len(D)), value) if subset_in_general_position(D, s)]
    assert sets == [tuple(g.decode(i) for i in s) for s in plain]
    assert not any(subset_in_general_position(D, s) for s in combinations(range(len(D)), value + 1))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.lists(_small_factor, min_size=1, max_size=3), _small_power).filter(
        lambda fs: prod(f.size + (f.family == "S") for f in fs) <= 27
    )
)
def test_enumeration_matches_naive_on_random_products(factors):
    g = ProductGraph([f.build() for f in factors])
    value, sets = enumerate_maximum_gp_sets(g)
    assert (value, sets) == naive_maximum_sets(g)
    assert count_maximum_gp_sets(g) == (value, len(sets))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.lists(_small_factor, min_size=1, max_size=3), _small_power).filter(
        lambda fs: prod(f.size + (f.family == "S") for f in fs) <= 27
    )
)
def test_count_matches_naive_on_random_products(factors):
    g = ProductGraph([f.build() for f in factors])
    assert count_maximum_gp_sets(g) == naive_count_maximum(g)


def test_transposing_a_grid_preserves_the_count():
    assert count_maximum_gp_sets(build("P4xP5")) == count_maximum_gp_sets(build("P5xP4"))


# ----------------------------------------------------------------------
# structure of maximum sets in cylinders

@pytest.mark.parametrize("spec", ["P3xC4", "P3xC5", "P4xC4", "P4xC5"])
def test_cycle_layers_meet_maximum_sets_at_most_twice(spec):
    g = build(spec)
    value, sets = enumerate_maximum_gp_sets(g)
    assert value == 4
    for members in sets:
        per_layer = {}
        for i, _ in members:
            per_layer[i] = per_layer.get(i, 0) + 1
        assert max(per_layer.values()) <= 2


def test_five_point_cylinder_sets_use_distinct_layers():
    # a doubly-hit cycle layer forces |S| <= 4, so maximum 5-sets never have one
    g = build("P5xC7")
    value, sets = enumerate_maximum_gp_sets(g)
    assert value == 5
    for members in sets:
        firsts = [i for i, _ in members]
        assert len(set(firsts)) == 5


def test_witness_constructions_never_beat_the_solver():
    for r, s in [(2, 4), (3, 3), (4, 6), (5, 7), (5, 9)]:
        g = build(f"P{r}xC{s}")
        assert gp_exact(g).gp_value >= len(cylinder_witness(r, s))


# ----------------------------------------------------------------------
# bad-triple index

def _bad_with_oracle(D, a: int, b: int) -> set[int]:
    """Every u making {a, b, u} a bad triple of three distinct vertices."""
    if a == b:
        return set()
    return {u for u in range(len(D)) if u not in (a, b) and triple_is_bad(D, a, b, u)}


def test_between_sets_on_small_graphs():
    assert BadTripleIndex.build(build("P3")).bad_with(0, 2) == {1}
    c4 = BadTripleIndex.build(build("C4"))
    assert c4.bad_with(0, 2) == {1, 3}
    assert c4.bad_with(0, 1) == {2, 3}
    for spec in ("P3", "C4"):
        g = build(spec)
        D = bfs_distance_table(g)
        idx = BadTripleIndex.build(g)
        for a in range(g.total_vertices):
            for b in range(g.total_vertices):
                assert idx.bad_with(a, b) == _bad_with_oracle(D, a, b)
                assert idx.bad_with(a, b) == idx.bad_with(b, a)


def test_index_against_direct_betweenness():
    # P3xC5xK4 has 60 vertices, so every mask ends mid-byte; P3xC5xK3xK2
    # has 90, so every mask spans two 64-bit words, the last one partial
    for spec in ("P3xC4", "P3xC5xK4", "P3xC5xK3xK2"):
        g = build(spec)
        D = bfs_distance_table(g)
        idx = BadTripleIndex.build(g)
        allowed = idx.allowed_tables()
        for a in range(g.total_vertices):
            assert idx.bad_with(a, a) == set()
            for b in range(a + 1, g.total_vertices):
                assert idx.bad_with(a, b) == _bad_with_oracle(D, a, b)
                assert allowed[a][b] == allowed[b][a]  # the relation is symmetric in the pair
    # P3xC5xK3xK2's pairs fill more than two chunks of the build
    n = g.total_vertices
    assert n % 64 and n * (n - 1) // 2 > 2 * (PAIR_CHUNK_CELLS // n)


def test_index_past_the_narrow_distance_types():
    # C260 has diameter 130, past int8, so the build keeps its distances in
    # int16; the masks of the pairs through four vertices are checked
    g = build("C260")
    D = bfs_distance_table(g)
    idx = BadTripleIndex.build(g, cap=None)
    for a in (0, 1, 65, 130):
        for b in range(g.total_vertices):
            assert idx.bad_with(a, b) == _bad_with_oracle(D, a, b)


def test_index_build_never_holds_a_betweenness_cube():
    # tracemalloc sees numpy's buffers: an n^3 boolean cube of C16xC16 alone
    # is 16 MB, and a build through one peaked at 80 MB; the tables, the
    # distance matrix and one chunk take about 3 MB
    g = build("C16xC16")
    tracemalloc.start()
    try:
        BadTripleIndex.build(g, cap=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_the_index_holds_one_table():
    # the built index holds its word array (9 MB on C20xC20) and no int
    # row until a search reads one; eager int tables beside it held about
    # 7 MiB more
    g = build("C20xC20")
    tracemalloc.start()
    try:
        index = BadTripleIndex.build(g, cap=None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.allowed_tables()) == 0
    assert held <= index.words.nbytes + 2**20


# ----------------------------------------------------------------------
# isometric covers

def _induced_cover_bound(g, cover):
    """The cover bound through explicit induced subgraphs: each piece is
    rebuilt as a graph from the host's distance-1 pairs, its BFS distances
    must equal the host's (an isometric piece), and ``gp_exact`` searches it
    as a product of one factor."""
    total = 0
    for raw in cover:
        members = sorted(set(raw))
        ids, D = g.distance_table(members)
        piece = FactorGraph.explicit([[j for j, y in enumerate(ids) if D[x][y] == 1] for x in ids])
        assert [list(row) for row in piece.dist] == [[D[x][y] for y in ids] for x in ids]
        total += gp_exact(ProductGraph([piece])).gp_value
    return total


def test_cover_bound_identity():
    g = build("P4xP4")
    cover = [list(g.vertices())]
    assert isometric_cover_bound(g, cover) == _induced_cover_bound(g, cover) == 4


def test_cover_bound_two_overlapping_grid_halves():
    g = build("P3xP4")
    left = [(i, j) for i in range(3) for j in range(3)]
    right = [(i, j) for i in range(3) for j in range(1, 4)]
    assert isometric_cover_bound(g, [left, right]) == _induced_cover_bound(g, [left, right]) == 8


def test_cover_bound_torus_quadrants():
    g = build("C6xC6")
    bound = isometric_cover_bound(g, torus_quadrant_cover(6, 6))
    assert bound == _induced_cover_bound(g, torus_quadrant_cover(6, 6)) == 16
    assert bound >= gp_exact(g).gp_value


def test_cover_bound_refuses_a_partial_sum_under_a_budget():
    # one node per piece would have summed four best-found values to 4,
    # below gp(C6xC6) = 6
    g = build("C6xC6")
    with pytest.raises(BudgetExhausted):
        isometric_cover_bound(g, torus_quadrant_cover(6, 6), limits=SearchLimits(max_nodes=1))
    assert isometric_cover_bound(g, torus_quadrant_cover(6, 6), limits=SearchLimits(max_nodes=10_000)) == 16


def test_cover_bound_on_a_non_isometric_piece():
    # five consecutive cycle vertices induce a path P5 (gp 2), but under the
    # host's distances its two ends are at distance 1, and three of them,
    # such as 0, 2 and 4, are in general position
    g = build("C6")
    assert isometric_cover_bound(g, [[(i,) for i in range(5)], [(i,) for i in (4, 5, 0)]]) == 3 + 2


def test_cover_bound_rejects_non_covering_family():
    g = build("P3xP3")
    with pytest.raises(ValueError, match="misses"):
        isometric_cover_bound(g, [[(0, 0), (0, 1)]])


def test_cover_bound_rejects_empty_pieces_and_searches_disconnected_ones():
    g = build("P3xP3")
    whole = list(g.vertices())
    with pytest.raises(ValueError, match="empty cover set"):
        isometric_cover_bound(g, [whole, []])
    # two opposite corners induce no edge; under the host's distances they
    # are a 2-set in general position, added to gp(P3xP3) = 4
    assert isometric_cover_bound(g, [whole, [(0, 0), (2, 2)]]) == 4 + 2


def test_cover_bound_above_the_flat_table_split():
    # the 16 subcubes K2^4 of K2^8, one per value of the first four
    # coordinates, on a host whose flat matrix is not cached
    g = build("K2^8")
    assert g.total_vertices > FLAT_TABLE_MAX_VERTICES
    cubes = list(product(range(2), repeat=4))
    cover = [[head + tail for tail in cubes] for head in cubes]
    piece = gp_exact(build("K2^4")).gp_value
    assert isometric_cover_bound(g, cover) == _induced_cover_bound(g, cover) == 16 * piece == 80


def test_cover_bound_refuses_bad_coordinates_and_oversize_pieces():
    g = build("P3xP3")
    with pytest.raises(ValueError):
        isometric_cover_bound(g, [list(g.vertices()), [(0, 3)]])
    g = build("C15xC15", cap=None)
    with pytest.raises(VertexCapError, match=r"^bad-triple index refused for 225 vertices \(cap 200\)$"):
        isometric_cover_bound(g, [list(g.vertices())])


@st.composite
def _random_cover(draw):
    """A product of at most 30 vertices and a cover of it by k pieces:
    each vertex joins one piece, and a few join a second."""
    factors = draw(st.lists(_small_factor, min_size=1, max_size=3).filter(
        lambda fs: prod(f.size + (f.family == "S") for f in fs) <= 30
    ))
    g = ProductGraph([f.build() for f in factors])
    n = g.total_vertices
    k = draw(st.integers(1, n))
    pieces = [set() for _ in range(k)]
    for v in range(n):
        pieces[draw(st.integers(0, k - 1))].add(v)
    for v, i in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=n)):
        pieces[i].add(v)
    return g, [[g.decode(v) for v in sorted(p)] for p in pieces if p]


def _brute_force_gp(g, members):
    best = 0
    for size in range(1, len(members) + 1):
        if not any(is_general_position(g, s) for s in combinations(members, size)):
            break
        best = size
    return best


@settings(max_examples=30, deadline=None)
@given(_random_cover())
def test_cover_bound_on_random_covers(case):
    g, cover = case
    bound = isometric_cover_bound(g, cover)
    assert bound >= gp_exact(g).gp_value
    if all(len(piece) <= 10 for piece in cover):
        assert bound == sum(_brute_force_gp(g, piece) for piece in cover)


def test_quadrants_cover_and_have_grid_shape():
    for r, s in [(6, 6), (7, 5), (8, 7)]:
        quads = torus_quadrant_cover(r, s)
        union = set().union(*[set(q) for q in quads])
        assert len(union) == r * s
        assert all(len(q) == (r // 2 + 1) * (s // 2 + 1) for q in quads)


def test_independence_of_five_point_maximum_sets():
    # sets of size >= 5 in a cylinder are always independent
    from genpos.position import independence_check

    g = build("P5xC7")
    _, sets = enumerate_maximum_gp_sets(g)
    assert sets
    for members in sets:
        assert independence_check(g, members)


def test_flat_distance_matrix_is_cached_and_read_only():
    g = build("P3xC5xK4")
    D = flat_distance_matrix(g)
    assert flat_distance_matrix(g) is D
    assert not D.flags.writeable
    with pytest.raises(ValueError):
        D[0, 1] = 7
    assert D.tolist() == [list(row) for row in bfs_distance_table(g)]
    # the index build and the witness certification read the same matrix
    gp_exact(g)
    assert flat_distance_matrix(g) is D


def test_flat_distance_matrix_above_the_split_is_built_per_call():
    g = build("P3^5")
    assert g.total_vertices > FLAT_TABLE_MAX_VERTICES
    D = flat_distance_matrix(g)
    assert not D.flags.writeable
    assert flat_distance_matrix(g) is not D
    # the cap is the index build's, checked before the matrix is summed
    with pytest.raises(VertexCapError, match="refused for 243 vertices"):
        BadTripleIndex.build(g, cap=200)


@pytest.mark.parametrize(
    "operation,spec",
    [(gp_exact, "P3^5"), (count_maximum_gp_sets, "K3^4"), (enumerate_maximum_gp_sets, "K3^4")],
    ids=["gp_exact", "count", "enumerate"],
)
def test_an_over_cap_search_is_refused_before_any_distance_is_summed(operation, spec, monkeypatch):
    g = build(spec)
    monkeypatch.setattr(solver, "flat_distance_matrix", lambda g: pytest.fail("distances summed"))
    monkeypatch.setattr(ProductGraph, "flat_matrix", lambda self, members=None: pytest.fail("distances summed"))
    with pytest.raises(VertexCapError, match=f"bad-triple index refused for {g.total_vertices} vertices"):
        operation(g)
