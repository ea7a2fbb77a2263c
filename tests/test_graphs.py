"""Spec grammar, product construction, and metric sanity."""

import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genpos
from genpos.graphs import (
    FLAT_TABLE_MAX_VERTICES,
    MAX_FACTOR_VERTICES,
    MAX_PRODUCT_FACTORS,
    ONE_HOT_MAX_VERTICES,
    PAIR_CHUNK_CELLS,
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
from genpos.randomized import SplitMix64
from helpers import bfs_distance_table, pair_sum_table


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
    # a product, a power and Qn meet one check on their summed counts.  Each
    # refusal peaks under 28 KiB; listing Q3000000xP2's factors first would
    # allocate about 24 MB
    tracemalloc.start()
    try:
        with pytest.raises(VertexCapError) as refused:
            parse_spec(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
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
    "spec,refusal",
    [("K99999^256", "99999 vertices, above the limit of 2000"),
     ("K2000^256", "2^2807 or more vertices, above the cap of 1"),
     ("K2^256", "2^256 or more vertices, above the cap of 1"),
     ("P3x" + "x".join(["C5"] * 255), "2^593 or more vertices, above the cap of 1")],
    ids=["K99999^256", "K2000^256", "K2^256", "P3xC5^255"],
)
def test_the_largest_specs_are_refused_at_once(spec, refusal):
    # a factor over its limit is refused first; then, with at most 256
    # factors of at most 2000 vertices, the exact vertex count is cheap
    started = time.monotonic()
    with pytest.raises(VertexCapError) as refused:
        build(spec, cap=1)
    assert time.monotonic() - started < 0.01
    assert str(refused.value).endswith(f" has {refusal}")


@pytest.mark.parametrize("spec", ["C2001", "K20000", "P3000", "S2000", "K5000xP3", "C2001^2"])
def test_a_factor_over_the_limit_is_refused_before_it_is_built(spec, monkeypatch):
    monkeypatch.setattr(FactorGraph, "__init__", lambda self, *a, **k: pytest.fail("a factor graph was built"))
    token = parse_spec(spec).factors[0].token
    with pytest.raises(VertexCapError, match=f"^{token} has [0-9]+ vertices, above the limit of {MAX_FACTOR_VERTICES}$"):
        build(spec, cap=None)


@pytest.mark.parametrize(
    "spec,shown",
    [("P" + "9" * 4299 + "^256", "2^14280 or more"),
     ("x".join(f"P{'9' * 4290}{i:03d}" for i in range(256)), "2^14261 or more")],
    ids=["P4299digits^256", "256-distinct-4293-digit-paths"],
)
def test_a_huge_factor_is_refused_before_the_vertex_count(spec, shown, monkeypatch):
    # multiplying the sizes took 0.58 s on the power and 7.4 s on the 256
    # distinct factors; each factor is checked against the limit first
    monkeypatch.setattr(GraphSpec, "vertex_count", lambda self: pytest.fail("vertex count computed"))
    parsed = parse_spec(spec)
    started = time.monotonic()
    with pytest.raises(VertexCapError) as refused:
        build(parsed, cap=1)
    assert time.monotonic() - started < 0.05
    # the count is shown by its power of two, not by its 4300 digits
    assert str(refused.value) == f"{parsed.factors[0].token} has {shown} vertices, above the limit of 2000"


def test_a_factor_at_the_limit_builds():
    assert MAX_FACTOR_VERTICES == 2000
    for spec in ("P2000", "C2000", "S1999"):
        g = build(spec)
        assert g.total_vertices == 2000 and g.factors[0]._table is None  # no table read


def test_an_explicit_factor_over_the_limit_has_no_table():
    # explicit factors skip the spec check; their all-pairs table is refused
    g = FactorGraph.explicit([[j for j in (i - 1, i + 1) if 0 <= j <= 2000] for i in range(2001)])
    assert g.n == 2001
    with pytest.raises(VertexCapError, match="^an explicit factor has 2001 vertices, above the limit of 2000$"):
        g.table
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
        assert ex.table[i, j] == expected


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


@pytest.mark.parametrize(
    "spec,counts",
    [("P3xC5xP3xK4xC5", [0, 1, 2, 7, 40]), ("C7^30", [0, 1, 60, 300]), ("C32^30", [300]), ("C40^30", [0, 1, 60, 300])],
    ids=["mixed", "C7^30", "C32^30", "C40^30"],
)
def test_flat_matrix_of_members_equals_the_python_pair_sums(spec, counts):
    # factors up to ONE_HOT_MAX_VERTICES vertices take one product per chunk
    # of positions, larger ones one gather per chunk: C7^30 has one chunk
    # at m = 300, C32^30 five; C40^30 is gathered, its 30 positions split
    # 18 + 12 at m = 60 and one by one at m = 300; P3 and C5 each stand at
    # two positions apart
    g = build(spec, cap=None)
    assert g.total_vertices > FLAT_TABLE_MAX_VERTICES  # distance_table takes the members' own matrix
    for m in counts:
        members = sorted(set(SplitMix64(m).draw(g.sizes, m)))
        M = g.flat_matrix(members)
        assert M.dtype == np.int32 and M.shape == (len(members),) * 2
        assert M.tolist() == pair_sum_table(g, members)
        # the checkers' table above the cap is this matrix
        ids, D = g.distance_table(members)
        assert ids == list(range(len(members))) and D.tolist() == M.tolist()
    if spec == "C32^30":
        assert g.sizes[0] == ONE_HOT_MAX_VERTICES and PAIR_CHUNK_CELLS // (len(members) * 32) == 6
    if spec == "C40^30":
        assert g.sizes[0] > ONE_HOT_MAX_VERTICES


def test_one_hot_sums_are_exact_in_float32():
    # a float32 holds every integer up to 2^24, and no product sum exceeds
    # the distance sum of MAX_PRODUCT_FACTORS factors at the bound
    assert MAX_PRODUCT_FACTORS * (ONE_HOT_MAX_VERTICES - 1) < 2**24


@pytest.mark.parametrize("spec", ["C40xK3xP5", "C7^30", "K3xC40xK3"])
def test_flat_matrix_with_factors_on_both_sides_of_the_one_hot_bound(spec):
    g = build(spec, cap=None)
    assert {f.n <= ONE_HOT_MAX_VERTICES for f in g.factors} == ({True} if spec == "C7^30" else {True, False})
    for m in (0, 1, 2, 60, 300):
        members = sorted(set(SplitMix64(m + 1).draw(g.sizes, m)))
        assert g.flat_matrix(members).tolist() == pair_sum_table(g, members)
    if g.total_vertices <= 1000:
        assert g.flat_matrix().tolist() == [list(row) for row in bfs_distance_table(g)]


def test_a_thousand_member_table_holds_no_gather_index():
    # 1,000 members of C7^7: the int32 matrix takes 3.8 MiB; the gather's
    # m x m intp index and partial sums peaked at 12.5 MiB
    g = build("C7^7")
    members = [g.decode(i) for i in range(0, 97 * 1000, 97)]
    tracemalloc.start()
    try:
        D = g.flat_matrix(members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert D.shape == (1000, 1000)
    assert D[0].tolist() == [g.distance(members[0], v) for v in members]
    assert peak <= 6 * 2**20


def test_a_factor_keeps_one_read_only_numpy_table():
    # flat_matrix reads each factor's numpy table, made on first use and
    # kept: converting a table on every call once took 95 ms of a 111-ms
    # table of 776 members
    g = build("C2000xK3")
    c, k = g.factors
    members = [(x, x % 3) for x in range(0, 2000, 17)]
    D = g.flat_matrix(members)
    assert D.tolist() == pair_sum_table(g, members)
    assert c.table is c.table and k.table is k.table
    assert (c.table.dtype, k.table.dtype) == (np.uint16, np.uint8)
    assert not c.table.flags.writeable and not k.table.flags.writeable
    offset = np.abs(np.subtract.outer(np.arange(2000), np.arange(2000)))
    assert np.array_equal(c.table, np.minimum(offset, 2000 - offset))
    assert np.array_equal(g.flat_matrix(members), D)


def test_a_factor_table_is_its_only_all_pairs_table():
    # each BFS row is written straight into the uint16 table (7.6 MiB for
    # C2000); nested tuples of ints beside it peaked at 129.1 MiB
    c = FactorGraph.cycle(2000)
    tracemalloc.start()
    try:
        table = c.table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (2000, 2000) and table[0, 1000] == 1000
    assert peak <= 16 * 2**20
    # a host's distance is a Python int, not a numpy scalar from the tables,
    # so the records that verify-paper writes as JSON hold plain numbers
    assert type(build("C7xC7").distance((0, 1), (3, 3))) is int


def test_a_small_factor_keeps_read_only_one_hot_operands(monkeypatch):
    # flat_matrix's float32 table and one-hot of a factor of at most
    # ONE_HOT_MAX_VERTICES vertices are made on its first call and kept, so
    # a second call, or another host on the same factors, makes none
    eyes, eye = [], np.eye
    monkeypatch.setattr(np, "eye", lambda n, **kwargs: eyes.append(n) or eye(n, **kwargs))
    g = build("C7xK3xC7")
    c, k = g.factors[:2]
    members = [(0, 0, 0), (3, 1, 5), (6, 2, 2), (1, 2, 6)]
    D = g.flat_matrix(members)
    assert D.tolist() == pair_sum_table(g, members)
    assert sorted(eyes) == [3, 7]
    for f in (c, k):
        table, one_hot = f._operands()
        assert f._operands() is f._operands()
        assert table.dtype == one_hot.dtype == np.float32
        assert not table.flags.writeable and not one_hot.flags.writeable
        assert table.tolist() == f.table.tolist() and one_hot.tolist() == eye(f.n).tolist()
    assert np.array_equal(g.flat_matrix(members), D)
    assert np.array_equal(ProductGraph(g.factors).flat_matrix(members), D)
    g.flat_matrix()
    assert sorted(eyes) == [3, 7]


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
            assert cyc.table[i, j] == abs(i - j)


# ----------------------------------------------------------------------
# explicit materialization

def test_explicit_adjacency_p2p2_is_a_4_cycle():
    ex = explicit_adjacency(build("P2xP2"))
    assert [len(ex.adj[i]) for i in range(4)] == [2, 2, 2, 2]
    assert sum(map(len, ex.adj)) // 2 == 4


def test_explicit_adjacency_cube_and_grid():
    cube = explicit_adjacency(build("K2^3"))
    assert all(len(cube.adj[i]) == 3 for i in range(8))
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
    assert s.table[1, 2] == 2


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


@pytest.mark.parametrize("letter,family,least", [("P", "path", 1), ("C", "cycle", 3), ("K", "complete", 1), ("S", "star", 1)])
def test_a_named_family_and_the_parser_read_one_least_size(letter, family, least):
    # the constructor's refusal is the parser's, less the token and offset
    with pytest.raises(ValueError) as built:
        getattr(FactorGraph, family)(least - 1)
    with pytest.raises(GraphSpecError) as parsed:
        parse_spec(f"{letter}{least - 1}")
    assert str(parsed.value) == f"{built.value} (got {letter}{least - 1}) (at offset 0)"
    for size in range(least, least + 5):
        spec = FactorSpec(letter, size)
        assert spec.vertex_count() == spec.build().n == getattr(FactorGraph, family)(size).n


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
    # the symmetry check of explicit input reads one set per vertex; a scan
    # of each neighbour tuple made this cubic, about 9 s at n = 1000 on a
    # 2-core VM
    started = time.monotonic()
    k = FactorGraph.explicit(FactorGraph.complete(1000).adj)
    assert time.monotonic() - started < 3
    assert len(k.adj[0]) == 999 and k.adj[999][-1] == 998


@pytest.mark.parametrize("family,low", [("path", 1), ("cycle", 3), ("complete", 1), ("star", 1)])
def test_a_named_family_passes_the_explicit_checks(family, low):
    # the named constructors skip the range, self-loop, symmetry and
    # connectivity checks that explicit input goes through
    for n in range(low, low + 12):
        f = getattr(FactorGraph, family)(n)
        assert FactorGraph.explicit(f.adj).adj == f.adj


def test_the_largest_complete_factor_shares_its_vertex_ints():
    # a neighbour list, a set and a sorted tuple per vertex, each with its
    # own int objects, took 2.3 s and peaked at 447 MB on a 2-core VM
    started = time.monotonic()
    k = FactorGraph.complete(MAX_FACTOR_VERTICES)
    assert time.monotonic() - started < 1
    last = k.adj[0][-1]
    assert last == MAX_FACTOR_VERTICES - 1
    assert all(ns[-1] is last for ns in k.adj[:-1])


def test_a_complete_factor_table_is_written_without_bfs():
    for n in range(1, 41):
        k = FactorGraph.complete(n)
        assert k.table.tolist() == FactorGraph.explicit(k.adj).table.tolist()
    # a BFS from every source made this cubic: K400 took 2.3 s on a 2-core VM
    k = FactorGraph.complete(1000)
    started = time.monotonic()
    assert k.table[999, 999] == 0 and k.table[0, 999] == 1
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
    d = factor.table
    for u in range(factor.n):
        assert d[u][u] == 0
        for v in range(factor.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 1) == (v in factor.adj[u])
            assert (d[u][v] == 0) == (u == v)


def test_every_exported_name_resolves_once():
    assert len(genpos.__all__) == len(set(genpos.__all__))
    for name in genpos.__all__:
        assert getattr(genpos, name) is not None, name
