"""Spec grammar, product construction, and metric sanity."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.graphs import (
    MAX_FACTOR_VERTICES,
    MAX_PRODUCT_FACTORS,
    FactorGraph,
    FactorSpec,
    GraphSpec,
    GraphSpecError,
    ProductGraph,
    VertexCapError,
    build,
    explicit_adjacency,
    parse_spec,
)
from helpers import bfs_distance_table


# ----------------------------------------------------------------------
# grammar

@pytest.mark.parametrize(
    "text,canonical,nverts",
    [
        ("P5xC7", "P5xC7", 35),
        ("K2^10", "K2^10", 1024),
        ("Q10", "K2^10", 1024),
        ("K3xK4", "K3xK4", 12),
        ("C7xC7", "C7^2", 49),
        ("P5", "P5", 5),
        ("S3", "S3", 4),
        ("S3xP2", "S3xP2", 8),
        ("P3xQ2", "P3xK2xK2", 12),
        ("C5^1", "C5", 5),
        ("Q3^2", "K2^6", 64),
        ("K2xK2", "K2^2", 4),
    ],
)
def test_parse_canonical_and_size(text, canonical, nverts):
    spec = parse_spec(text)
    assert spec.canonical() == canonical
    assert build(spec).total_vertices == nverts
    # canonical form is a fixed point of parse/format
    assert parse_spec(spec.canonical()).canonical() == canonical


def test_parse_structure():
    spec = parse_spec("P5xC7")
    assert [(f.family, f.size) for f in spec.factors] == [("P", 5), ("C", 7)]
    # a power and a hypercube list one entry per factor, like a product
    power = parse_spec("K2^10")
    assert power.factors == (FactorSpec("K", 2),) * 10
    assert parse_spec("Q10") == power == parse_spec("x".join(["K2"] * 10))
    assert parse_spec("P3xQ2").factors == (FactorSpec("P", 3), FactorSpec("K", 2), FactorSpec("K", 2))


@pytest.mark.parametrize(
    "text,offset",
    [
        ("C2", 0),       # constraint: cycle needs >= 3
        ("P0", 0),
        ("Q0", 0),
        ("", 0),         # empty
        ("P", 1),        # missing size
        ("P5y7", 2),     # bad separator
        ("P5x", 3),      # dangling product
        ("K2^", 3),      # missing exponent
        ("P5^0", 3),     # exponent >= 1
        ("x5", 0),       # not a factor letter
        ("P5xC2", 3),    # constraint inside a product
        ("P5^2x", 4),    # trailing text after power
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(GraphSpecError) as exc:
        parse_spec(text)
    assert exc.value.offset == offset


_factor_st = st.one_of(
    st.tuples(st.just("P"), st.integers(1, 9)),
    st.tuples(st.just("C"), st.integers(3, 9)),
    st.tuples(st.just("K"), st.integers(1, 9)),
    st.tuples(st.just("S"), st.integers(1, 9)),
    st.tuples(st.just("Q"), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(_factor_st, min_size=1, max_size=4).map(
            lambda fs: "x".join(f"{f}{n}" for f, n in fs)
        ),
        st.tuples(_factor_st, st.integers(1, 6)).map(lambda t: f"{t[0][0]}{t[0][1]}^{t[1]}"),
    )
)
def test_canonicalization_is_idempotent(text):
    # parse -> canonical -> parse is a round trip: the same product, and
    # the canonical text is a fixed point
    spec = parse_spec(text)
    canon = spec.canonical()
    again = parse_spec(canon)
    assert again.vertex_count() == spec.vertex_count()
    assert again.factors == spec.factors
    assert again.canonical() == canon


def test_lone_hypercube_parses_in_constant_time():
    # the parse refuses Q3000000 from its count, before listing a factor
    started = time.monotonic()
    with pytest.raises(VertexCapError, match="^Q3000000 has 3000000 factors, above the limit of 256$"):
        parse_spec("Q3000000")
    assert time.monotonic() - started < 0.05


FACTOR_COUNTS = {
    "Q3000000xP2": 3000001, "P2xQ256": 257, "Q200xQ57": 257, "x".join(["C5"] * 257): 257,
    "Q300": 300, "K2^300": 300, "Q300xP2": 301, "K2^1000000000": 1000000000,
}


@pytest.mark.parametrize("text", FACTOR_COUNTS)
def test_long_products_are_refused_before_the_list_grows(text):
    # a product, a power and Qn meet one check on their summed counts
    started = time.monotonic()
    with pytest.raises(VertexCapError) as refused:
        parse_spec(text)
    assert time.monotonic() - started < 0.05
    assert str(refused.value) == f"{text} has {FACTOR_COUNTS[text]} factors, above the limit of 256"


def test_a_factor_count_too_long_to_print_is_shown_by_its_power_of_two():
    # (10^4000 - 1)^2 factors: the count has about 8000 digits, past
    # Python's int-to-text limit, so the message must not print it
    text = "Q" + "9" * 4000 + "^" + "9" * 4000
    with pytest.raises(VertexCapError, match=r" has 2\^[0-9]+ or more factors, above the limit of 256$"):
        build(text)


def test_a_spec_built_directly_is_refused_above_the_factor_limit():
    with pytest.raises(VertexCapError, match=r"^C5\^257 has 257 factors, above the limit of 256$"):
        GraphSpec((FactorSpec("C", 5),) * 257)
    assert GraphSpec((FactorSpec("C", 5),) * 256).canonical() == "C5^256"


def test_a_product_may_list_256_factors():
    assert MAX_PRODUCT_FACTORS == 256
    assert parse_spec("Q200xQ56").canonical() == "K2^256"
    assert len(parse_spec("P3x" + "x".join(["C5"] * 255)).factors) == 256


# ----------------------------------------------------------------------
# building and caps

def test_build_cap():
    with pytest.raises(VertexCapError):
        build("Q25")  # 2^25 vertices over the default cap
    with pytest.raises(VertexCapError):
        build("P101", cap=100)
    assert build("Q25", cap=None).total_vertices == 2**25
    assert parse_spec("K2^256").vertex_count() == 2**256
    # equal factors are grouped, wherever they stand
    assert parse_spec("P3xK2xP3xC5xK2").vertex_count() == 3 * 2 * 3 * 5 * 2
    assert parse_spec("S2xC5").vertex_count() == 15
    # a power of more than 256 factors is refused for its factors, whatever the cap
    with pytest.raises(VertexCapError, match=r"K2\^1000000 has 1000000 factors, above the limit of 256"):
        build("K2^1000000")


def test_a_huge_power_is_refused_without_its_vertex_count():
    # computing 2^1000000000 itself took 7.4 s and 441 MB; the factor
    # count is checked first, so it is never computed
    started = time.monotonic()
    with pytest.raises(VertexCapError, match=r"K2\^1000000000 has 1000000000 factors, above the limit of 256"):
        build("K2^1000000000")
    assert time.monotonic() - started < 0.01
    # at most 256 factors: the count is exact, shown by its power of two
    # past 64 bits (5^30 has 70)
    with pytest.raises(VertexCapError, match=r"C5\^30 has 2\^69 or more vertices"):
        build("C5^30")
    with pytest.raises(VertexCapError, match=r"C5\^9 has 1953125 vertices"):
        build("C5^9")
    # at the bound, and a power below the cap builds
    assert build("K2^7", cap=128).total_vertices == 128
    with pytest.raises(VertexCapError, match=r"K2\^8 has 256 vertices, above the cap of 255"):
        build("K2^8", cap=255)
    with pytest.raises(VertexCapError, match=r"K2\^9 has 512 vertices, above the cap of 255"):
        build("K2^9", cap=255)


@pytest.mark.parametrize(
    "spec,shown",
    [("K99999^256", "2^4252 or more"), ("K2^256", "2^256 or more"),
     ("P3x" + "x".join(["C5"] * 255), "2^593 or more")],
    ids=["K99999^256", "K2^256", "P3xC5^255"],
)
def test_the_largest_specs_are_refused_at_once(spec, shown):
    # with at most 256 factors the exact vertex count is cheap
    started = time.monotonic()
    with pytest.raises(VertexCapError) as refused:
        build(spec, cap=1)
    assert time.monotonic() - started < 0.01
    assert str(refused.value).endswith(f" has {shown} vertices, above the cap of 1")


@pytest.mark.parametrize("spec", ["C2001", "K20000", "P3000", "S2000", "K5000xP3", "C2001^2"])
def test_a_factor_over_the_limit_is_refused_before_it_is_built(spec, monkeypatch):
    monkeypatch.setattr(FactorGraph, "__init__", lambda self, *a, **k: pytest.fail("a factor graph was built"))
    token = parse_spec(spec).factors[0].token
    with pytest.raises(VertexCapError, match=f"^{token} has [0-9]+ vertices, above the limit of {MAX_FACTOR_VERTICES}$"):
        build(spec, cap=None)


def test_a_factor_at_the_limit_builds():
    assert MAX_FACTOR_VERTICES == 2000
    for spec in ("P2000", "C2000", "S1999"):
        g = build(spec)
        assert g.total_vertices == 2000 and g.factors[0]._dist is None  # no table read


def test_an_explicit_factor_over_the_limit_has_no_table():
    # explicit factors skip the spec check; their all-pairs table is refused
    g = FactorGraph.explicit([[j for j in (i - 1, i + 1) if 0 <= j <= 2000] for i in range(2001)])
    assert g.n == 2001
    with pytest.raises(VertexCapError, match="^an explicit factor has 2001 vertices, above the limit of 2000$"):
        g.dist
    with pytest.raises(VertexCapError):
        ProductGraph([g]).distance((0,), (5,))


@pytest.mark.parametrize("cap", [None, 10**6])
def test_a_long_power_is_refused_before_its_factors_are_built(cap, monkeypatch):
    # P1^100000 has one vertex, so no vertex cap stops it; building it
    # used to make 100000 factor graphs (0.43 s, 52 MB)
    monkeypatch.setattr(FactorSpec, "build", lambda self: pytest.fail("a factor was built"))
    started = time.monotonic()
    with pytest.raises(VertexCapError, match=r"P1\^100000 has 100000 factors, above the limit of 256"):
        build("P1^100000", cap=cap)
    with pytest.raises(VertexCapError, match=r"C5\^257 has 257 factors"):
        build("C5^257", cap=None if cap is None else 5**257)
    assert time.monotonic() - started < 0.01


def test_a_power_of_256_factors_builds():
    g = build("P1^256")
    assert g.total_vertices == 1 and len(g.factors) == MAX_PRODUCT_FACTORS
    assert len(build(parse_spec("x".join(["P1"] * 256)), cap=None).factors) == 256


def test_equal_factors_share_one_graph():
    g = build("C7xC7")
    assert g.factors[0] is g.factors[1]
    g = build("P3xC5xP3")
    assert g.factors[0] is g.factors[2] and g.factors[0] is not g.factors[1]


def test_a_power_computes_its_factor_table_once(monkeypatch):
    # one shared C1000 is one table of 1000 BFS runs, where a graph per
    # position ran 8000
    import genpos.graphs
    from genpos.randomized import p_exact

    expected = p_exact(FactorGraph.cycle(1000)) ** 8
    g = build("C1000^8", cap=None)
    calls = []
    bfs = genpos.graphs._bfs_lengths
    monkeypatch.setattr(genpos.graphs, "_bfs_lengths", lambda adj, s: calls.append(s) or bfs(adj, s))
    assert p_exact(g) == expected
    assert len(calls) == 1000


def test_vertex_order_is_last_factor_fastest():
    g = build("P2xP3")
    assert list(g.vertices()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [g.encode(v) for v in g.vertices()] == list(range(6))


@pytest.mark.parametrize("spec", ["P5xC7", "K2^3", "P3^3", "K3xK4", "S3xP4", "C4xC6", "C7xC7"])
def test_encode_decode_bijection(spec):
    g = build(spec)
    for i in range(g.total_vertices):
        assert g.encode(g.decode(i)) == i


def test_coordinate_validation():
    g = build("P5xC7")
    with pytest.raises(ValueError):
        g.distance((0, 0), (5, 0))
    with pytest.raises(ValueError):
        g.distance((0,), (1, 1))
    with pytest.raises(ValueError):
        g.encode((0, -1))


def test_numpy_integer_coordinates_are_converted():
    g = build("P5xC7")
    v = g.check_coord((np.int64(2), np.int32(6)))
    assert v == (2, 6) and all(type(c) is int for c in v)
    assert g.encode(np.array([4, 1])) == 4 * 7 + 1
    assert g.distance((np.int64(0), 0), (4, np.int64(3))) == 7
    with pytest.raises(ValueError, match="out of range"):
        g.check_coord((np.int64(5), 0))


@pytest.mark.parametrize("bad", [(True, 0), (0, False), (1.0, 0), ("1", 0), (None, 0)])
def test_non_integer_coordinates_are_rejected(bad):
    g = build("P5xC7")
    with pytest.raises(ValueError, match="must be integers"):
        g.check_coord(bad)


# ----------------------------------------------------------------------
# distances: additive vs BFS oracle

@pytest.mark.parametrize("spec", ["P5xC7", "K2^3", "P3^3", "K3xK4", "S3xP4", "C4xC6", "C7xC7"])
def test_additive_distance_equals_bfs(spec):
    g = build(spec)
    D = bfs_distance_table(g)
    coords = list(g.vertices())
    for i in range(g.total_vertices):
        for j in range(g.total_vertices):
            assert g.distance(coords[i], coords[j]) == D[i][j]


def test_additive_distance_equals_bfs_sampled_hypercube():
    g = build("K2^10")
    ex = explicit_adjacency(g)
    rnd = random.Random(7)
    for _ in range(200):
        i, j = rnd.randrange(1024), rnd.randrange(1024)
        expected = bin(i ^ j).count("1")  # Hamming distance
        assert g.distance(g.decode(i), g.decode(j)) == expected
        assert ex.dist[i][j] == expected


def test_flat_matrix_of_members_equals_bfs():
    g = build("P3xC5xK4")
    D = bfs_distance_table(g)
    members = [(2, 4, 3), (0, 0, 0), (1, 3, 0), (2, 4, 3), (0, 2, 1), (1, 0, 2)]
    M = g.flat_matrix(members)
    assert M.shape == (6, 6) and not M.flags.writeable
    ids = [g.encode(v) for v in members]
    assert M.tolist() == [[D[a][b] for b in ids] for a in ids]
    # the member matrix is not cached, and the all-vertex matrix agrees
    assert g.flat_matrix(members) is not M
    assert g.flat_matrix().tolist() == [list(row) for row in D]
    assert g.flat_matrix([]).shape == (0, 0)


def test_flat_matrix_of_a_product_of_more_factors_than_numpy_dimensions():
    # numpy arrays have at most 64 axes; the matrix never needs one per factor
    g = ProductGraph([FactorGraph.complete(2)] * 2 + [FactorGraph.path(1)] * 70 + [FactorGraph.path(2)])
    members = [(1, 0) + (0,) * 70 + (1,), (0, 0) + (0,) * 70 + (0,)]
    assert g.flat_matrix()[[5, 0], [0, 5]].tolist() == [2, 2]
    assert g.flat_matrix(members).tolist() == [[0, 2], [2, 0]]


def test_distance_examples():
    assert build("P5xC7").distance((0, 0), (4, 3)) == 7
    assert build("C7").distance((0,), (5,)) == 2
    assert build("C7xC7").distance((0, 1), (3, 3)) == 5


@pytest.mark.parametrize("spec", ["P3xC5", "S2xK3"])
def test_distance_is_a_metric(spec):
    g = build(spec)
    adj = explicit_adjacency(g).adj
    vs = list(g.vertices())
    for u in vs:
        for v in vs:
            d = g.distance(u, v)
            assert d == g.distance(v, u)
            assert (d == 0) == (u == v)
            assert (d == 1) == (g.encode(v) in adj[g.encode(u)])
    for u in vs:
        for v in vs:
            for w in vs:
                assert g.distance(u, w) <= g.distance(u, v) + g.distance(v, w)


@pytest.mark.parametrize("s", range(3, 10))
def test_path_is_isometric_in_long_enough_cycle(s):
    cyc = FactorGraph.cycle(s)
    r = s // 2 + 1
    for i in range(r):
        for j in range(r):
            assert cyc.distance(i, j) == abs(i - j)


# ----------------------------------------------------------------------
# explicit materialization

def test_explicit_adjacency_p2p2_is_a_4_cycle():
    ex = explicit_adjacency(build("P2xP2"))
    assert [ex.degree(i) for i in range(4)] == [2, 2, 2, 2]
    assert sum(map(len, ex.adj)) // 2 == 4


def test_explicit_adjacency_cube_and_grid():
    cube = explicit_adjacency(build("K2^3"))
    assert all(cube.degree(i) == 3 for i in range(8))
    grid = explicit_adjacency(build("P3xP3"))
    assert sum(map(len, grid.adj)) // 2 == 12


def test_explicit_adjacency_cap():
    with pytest.raises(VertexCapError):
        explicit_adjacency(build("K2^12"), cap=1000)


# ----------------------------------------------------------------------
# factor graphs

def test_star_layout():
    s = FactorGraph.star(3)
    assert s.n == 4
    assert s.adj[0] == (1, 2, 3)
    assert all(s.adj[i] == (0,) for i in (1, 2, 3))
    assert s.distance(1, 2) == 2


def test_factor_validation():
    with pytest.raises(ValueError, match="symmetric"):
        FactorGraph.explicit([[1], []])
    with pytest.raises(ValueError, match="self-loop"):
        FactorGraph.explicit([[0, 1], [0]])
    with pytest.raises(ValueError, match="connected"):
        FactorGraph.explicit([[1], [0], [3], [2]])
    with pytest.raises(ValueError):
        FactorGraph.cycle(2)
    with pytest.raises(ValueError):
        FactorGraph.path(0)


@pytest.mark.parametrize(
    "adjacency,message",
    [
        # vertices in order, each vertex's neighbours in sorted order; the
        # first fault found is the one reported
        ([[2, 1], [], [0, 0]], "adjacency not symmetric: 0->1"),
        ([[1], [0, 7, 1]], "self-loop at vertex 1"),
        ([[1], [0, 7], [9]], "neighbor 7 of vertex 1 out of range"),
        ([[1], [0, 2], [0]], "adjacency not symmetric: 1->2"),
    ],
)
def test_factor_validation_reports_the_first_fault(adjacency, message):
    with pytest.raises(ValueError) as info:
        FactorGraph.explicit(adjacency)
    assert str(info.value) == message


def test_a_large_complete_factor_builds_in_quadratic_time():
    # the symmetry check reads one set per vertex; a scan of each
    # neighbour tuple made this cubic, about 9 s at n = 1000 on a 2-core VM
    started = time.monotonic()
    k = FactorGraph.complete(1000)
    assert time.monotonic() - started < 3
    assert k.degree(0) == 999 and k.adj[999][-1] == 998


def test_a_complete_factor_table_is_written_without_bfs():
    for n in range(1, 41):
        assert FactorGraph.complete(n).dist == FactorGraph.explicit(FactorGraph.complete(n).adj).dist
    # a BFS from every source made this cubic: K400 took 2.3 s on a 2-core VM
    k = FactorGraph.complete(1000)
    started = time.monotonic()
    assert k.dist[999][999] == 0 and k.dist[0][999] == 1
    assert time.monotonic() - started < 1


def test_product_needs_factors():
    with pytest.raises(ValueError):
        ProductGraph([])


@pytest.mark.parametrize(
    "factor",
    [
        FactorGraph.path(6),
        FactorGraph.cycle(7),
        FactorGraph.complete(5),
        FactorGraph.star(4),
        FactorGraph.explicit([[1, 2], [0, 2], [0, 1, 3], [2]]),
    ],
)
def test_factor_distance_table_invariants(factor):
    d = factor.dist
    for u in range(factor.n):
        assert d[u][u] == 0
        for v in range(factor.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 1) == (v in factor.adj[u])
            assert (d[u][v] == 0) == (u == v)
