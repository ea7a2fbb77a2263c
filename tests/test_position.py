"""Betweenness, the two general-position checkers, and F(X)."""

import random
import time
import tracemalloc
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import position
from genpos.graphs import (
    DEFAULT_VERTEX_CAP,
    FLAT_TABLE_MAX_VERTICES,
    PAIR_CHUNK_CELLS,
    FactorGraph,
    ProductGraph,
    VertexCapError,
    build,
)
from genpos.position import (
    MAX_SET_MEMBERS,
    GpSet,
    bad_triples,
    characterization_check,
    find_violating_triple,
    forbidden_set,
    is_between,
    is_general_position,
)
from genpos.randomized import first_moment_construct
from genpos.solver import enumerate_maximum_gp_sets, gp_exact
from helpers import (
    bfs_distance_table,
    independent,
    naive_first_violation,
    pair_sum_table,
    subset_in_general_position,
    triple_is_bad,
)

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


@pytest.mark.parametrize("spec,members", [
    ("P3xP3", [(0, 0), (1, 2), (2, 1)]),
    ("C7^4", [(0, 0, 0, 0), (0, 3, 3, 0), (3, 3, 0, 0)]),
])
def test_the_deciders_return_python_scalars(spec, members):
    # P3xP3 is read from the host's cached numpy matrix, C7^4 (2,401
    # vertices) from its members' own; neither may hand out numpy scalars
    g = build(spec)
    assert (g.total_vertices <= FLAT_TABLE_MAX_VERTICES) == (spec == "P3xP3")
    k = len(g.sizes)
    assert is_between(g, (1,) * k, (0,) * k, (2,) * k) is True
    assert is_between(g, (0,) * k, (1,) * k, (2,) * k) is False
    ok, cert = characterization_check(g, members)
    assert ok and len(cert.parts) == 3
    assert all(type(d) is int for row in cert.part_distances for d in row)
    assert cert.part_distances[0][1] == g.distance(members[0], members[1])


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
    checks = (is_general_position, find_violating_triple, characterization_check, GpSet.certify)
    for check in checks:
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
# certification on a given distance table

def _certify_outcome(*args, **kwargs):
    """The certified members, or the text of the ValueError raised."""
    try:
        return GpSet.certify(*args, **kwargs).members
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "factor,n",
    [(FactorGraph.complete(2), 7), (FactorGraph.cycle(5), 3), (FactorGraph.cycle(5), 10), (FactorGraph.complete(2), 30)],
)
def test_certify_on_a_table_agrees_with_the_plain_path(factor, n):
    # the last two are above the default vertex cap of build
    g = ProductGraph([factor] * n)
    rnd = random.Random(n)
    outcomes = set()
    for _ in range(60):
        members = {tuple(rnd.randrange(s) for s in g.sizes) for _ in range(rnd.randrange(9))}
        if len(members) >= 2 and rnd.random() < 0.5:
            # each coordinate from one of two members: a vertex on a geodesic
            # between them
            x, y = rnd.sample(sorted(members), 2)
            members.add(tuple(rnd.choice(pair) for pair in zip(x, y)))
        members = sorted(members)
        # the table covers a sorted pool around the members, as in the sampler
        pool = sorted(set(members) | {tuple(rnd.randrange(s) for s in g.sizes) for _ in range(5)})
        ids = [pool.index(v) for v in members]
        table = (ids, g.flat_matrix(pool))

        plain = _certify_outcome(g, members)
        assert _certify_outcome(g, members, table=table) == plain
        outcomes.add(type(plain))
    assert outcomes == {tuple, str}  # both sides are exercised


def test_certify_on_a_table_refuses_bad_members():
    g = build("C5^3")
    members = [(0, 0, 0), (0, 2, 0), (3, 1, 4)]
    table = ([0, 1, 2], g.flat_matrix(members))
    assert GpSet.certify(g, members, table=table).members == tuple(members)
    cases = [
        (members[::-1], table, "sorted and distinct"),
        ([members[0], members[0], members[2]], table, "sorted and distinct"),
        (members[:2], table, "3 ids for 2 members"),
        (members, ([0, 1], table[1]), "2 ids for 3 members"),
        # every member is still validated
        ([(0, 0, 0), (0, 2, 0), (3, 1, 5)], table, "out of range"),
        ([(0, 0, 0), (0, 2), (3, 1, 4)], table, "expected 3"),
        ([(0, 0, 0), (0, 2, 0), (3, 1, True)], table, "must be integers"),
    ]
    for given_members, given_table, message in cases:
        with pytest.raises(ValueError, match=message):
            GpSet.certify(g, given_members, table=given_table)


# ----------------------------------------------------------------------
# the two certification forms: the Python loop below _BLOCK_MIN_MEMBERS
# members, numpy blocks from there on

def test_triple_blocks_cover_every_triple_once_in_order():
    for cells in (8, 64, 1000, PAIR_CHUNK_CELLS):
        for m in (3, 4, 5, 9, 17, 40):
            seen = []
            for A, B, c0 in position._triple_blocks(m, cells):
                a_range, b_range = range(m)[A], range(m)[B]
                assert len(a_range) * len(b_range) * (m - c0) <= max(cells, m)
                # every sorted triple of the block, in row-major order
                seen += [(a, b, c) for a in a_range for b in b_range for c in range(c0, m) if a < b < c]
            assert seen == list(combinations(range(m), 3)), (cells, m)


def test_the_blocks_take_over_at_the_threshold(monkeypatch):
    def refuse(ids, D):
        raise AssertionError(f"ran on {len(ids)} members")

    gp = _survivors(7, 10, None)
    t = position._BLOCK_MIN_MEMBERS
    for name, m in (("bad_triples", t), ("_first_bad_block", t - 1)):
        with monkeypatch.context() as patch:
            patch.setattr(position, name, refuse)
            assert GpSet.certify(gp.host, gp.members[:m]).members == gp.members[:m]


def _both_forms(monkeypatch, host, members, table):
    """GpSet.certify's outcome and the first violation on ``table``, with
    the loop forced and with the blocks forced, at the default cell budget
    and at 2^12 cells, where b runs in chunks from 64 members on as it does
    from 256 at the default.  All must agree.  The form left out is made to
    raise, so each run shows which form it took."""

    def refuse(ids, D):
        raise AssertionError(f"the other form ran on {len(ids)} members")

    outcomes = []
    forced = ((MAX_SET_MEMBERS + 1, PAIR_CHUNK_CELLS, "_first_bad_block"),
              (0, PAIR_CHUNK_CELLS, "bad_triples"), (0, 1 << 12, "bad_triples"))
    for threshold, cells, other in forced:
        with monkeypatch.context() as patch:
            patch.setattr(position, "_BLOCK_MIN_MEMBERS", threshold)
            patch.setattr(position, "PAIR_CHUNK_CELLS", cells)
            patch.setattr(position, other, refuse)
            outcomes.append((_certify_outcome(host, members), position._first_violation(members, *table)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0][1]


def _plant(host, members, lead, middle):
    """A gp set of a power of K2 or of a cycle of length at least 5, less
    its members with first coordinate ``lead``, plus three vertices with
    that first coordinate, one on a geodesic between the other two, which
    make the only bad triple of the set.  ``middle`` (0, 1 or 2) is the
    position of that one among the three in sorted order.  Returns the
    sorted set and the planted triple as find_violating_triple names it."""
    kept = [v for v in members if v[0] != lead]
    # coordinates 1 and 2 of the middle and the two ends set the sorted order
    head = {0: ((0, 0), (0, 1), (1, 0)), 1: ((1, 0), (0, 0), (2, 0)), 2: ((1, 1), (0, 1), (1, 0))}[middle]
    rnd = random.Random(len(members))
    for _ in range(100):
        # the ends far apart; the middle takes each further coordinate from one
        ends = [[rnd.randrange(s) for s in host.sizes[3:]] for _ in range(2)]
        tail = [rnd.choice(pair) for pair in zip(*ends)]
        mid, a, b = ((lead, *h, *t) for h, t in zip(head, [tail, *ends]))
        planted = sorted(kept + [mid, a, b])
        D = host.flat_matrix(planted).tolist()
        new = [planted.index(v) for v in (mid, a, b)]
        # kept is in general position, so a bad triple holds a planted vertex
        bad = {tuple(sorted((u, v, w))) for u in new for v, w in combinations(range(len(planted)), 2)
               if u not in (v, w) and triple_is_bad(D, u, v, w)}
        if bad == {tuple(sorted(new))}:
            return planted, (mid, a, b)
    raise AssertionError("no plant without a second bad triple")


@cache
def _survivors(k, n, sample_size):
    """A certified first-moment set of C_k^n (K2^n for k = 2)."""
    factor = FactorGraph.complete(2) if k == 2 else FactorGraph.cycle(k)
    return first_moment_construct(factor, n, seed=1, retries=0, sample_size=sample_size).result


def _sizes(top):
    t = position._BLOCK_MIN_MEMBERS
    return sorted({m for m in (t - 2, t - 1, t, t + 1, 2 * t, 40, 80, min(top, 150)) if 3 <= m <= top})


@pytest.mark.parametrize("k,n,sample_size", [(7, 10, None), (2, 30, None), (5, 10, None), (7, 14, 170)],
                         ids=["C7^10", "K2^30", "C5^10", "C7^14"])
def test_both_forms_agree_on_sampled_sets(monkeypatch, k, n, sample_size):
    gp = _survivors(k, n, sample_size)
    host, members = gp.host, list(gp.members)
    middles = (0, 2) if k == 2 else (0, 1, 2)
    for m in _sizes(len(members)):
        prefix = members[:m]  # a subset of a gp set is one
        assert _both_forms(monkeypatch, host, prefix, (list(range(m)), host.flat_matrix(prefix))) is None
        for lead, middle in product((0, k - 1), middles):
            planted, triple = _plant(host, prefix, lead, middle)
            found = _both_forms(monkeypatch, host, planted, (list(range(len(planted))), host.flat_matrix(planted)))
            # planted first (lead 0) or last (lead k - 1) in lex order
            assert found == triple
            first = planted.index(min(triple))
            assert first == (0 if lead == 0 else len(planted) - 3)


@pytest.mark.parametrize("spec", ["C7xC7", "C9xC11", "C5^3", "K2^8", "C13xC13"])
def test_both_forms_agree_on_random_sets_of_small_hosts(monkeypatch, spec):
    # flat-table hosts: ids index the host's cached all-vertex rows
    g = build(spec)
    vertices = list(g.vertices())
    rnd = random.Random(spec)
    for m in _sizes(min(150, len(vertices))):
        for _ in range(3):
            members = sorted(rnd.sample(vertices, m))
            ids, D = g.distance_table(members)
            assert _both_forms(monkeypatch, g, members, (ids, D)) is not None
    witness = list(gp_exact(g, cap=None).witness)
    assert _both_forms(monkeypatch, g, witness, g.distance_table(witness)) is None


def test_a_set_above_the_member_cap_is_refused_before_its_table(monkeypatch):
    g = build("C7^7")
    members = [g.decode(i) for i in range(0, 7**7, 97)][:MAX_SET_MEMBERS + 1]
    monkeypatch.setattr(ProductGraph, "distance_table", lambda self, members: pytest.fail("tabulated"))
    message = f"a set of {MAX_SET_MEMBERS + 1} vertices is above the cap of {MAX_SET_MEMBERS}"
    for check in (is_general_position, find_violating_triple, characterization_check, GpSet.certify):
        with pytest.raises(ValueError, match=message):
            check(g, members)


def test_a_set_at_the_member_cap_is_checked():
    # exactly MAX_SET_MEMBERS members of C7^7 are tabulated and checked,
    # and the violation named is the first on a table summed in Python.
    # The blocks read the members' own numpy matrix without a cut: listing
    # it and turning the lists back into numpy peaked at 19.3 MiB, cutting
    # it at 8.6 MiB, reading it as it is at 5.0 MiB
    g = build("C7^7")
    members = [g.decode(i) for i in range(0, 7**7, 97)][:MAX_SET_MEMBERS]
    assert len(members) == MAX_SET_MEMBERS and members == sorted(members)
    mid, a, b = next(bad_triples(list(range(MAX_SET_MEMBERS)), pair_sum_table(g, members)))
    tracemalloc.start()
    try:
        bad = find_violating_triple(g, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad == (members[mid], members[a], members[b])
    assert peak <= 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def _assert_certificate_matches_bfs(spec, members):
    g, D = _host_and_bfs(spec)
    flats = sorted(g.encode(v) for v in members)
    ok, cert = characterization_check(g, members)
    assert ok
    parts, dists = _naive_certificate(D, flats)
    assert [[g.encode(v) for v in part] for part in cert.parts] == parts
    assert [list(row) for row in cert.part_distances] == dists
    return cert


@pytest.mark.parametrize("spec", ["K4xK4", "P2xK4"])
def test_maximum_sets_with_clique_parts_match_the_bfs_oracle(spec):
    # every maximum set of these hosts has a part of two or more vertices
    _, sets = enumerate_maximum_gp_sets(build(spec))
    assert sets
    for members in sets:
        cert = _assert_certificate_matches_bfs(spec, list(members))
        assert max(len(part) for part in cert.parts) >= 2


def test_clique_parts_above_the_split_match_the_bfs_oracle():
    # two 3-cliques of K4^4 at distance 2, on the members-only table path
    assert _host_and_bfs("K4^4")[0].total_vertices > FLAT_TABLE_MAX_VERTICES
    members = [(0, 0, 0, i) for i in (1, 2, 3)] + [(0, 0, i, 0) for i in (1, 2, 3)]
    cert = _assert_certificate_matches_bfs("K4^4", members)
    assert [len(part) for part in cert.parts] == [3, 3]
    assert cert.part_distances == ((0, 2), (2, 0))


@pytest.mark.parametrize(
    "spec, members",
    [
        # an induced path: its component is not a clique
        ("K4xK4", [(0, 1), (0, 0), (1, 0)]),
        ("K4^4", [(0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0)]),
        # the hub (0, ..., 0) is adjacent to both 3-cliques
        ("K4xK4", [(0, 0)] + [(0, i) for i in (1, 2, 3)] + [(i, 0) for i in (1, 2, 3)]),
        ("K4^4", [(0, 0, 0, 0)] + [(0, 0, 0, i) for i in (1, 2, 3)] + [(0, 0, i, 0) for i in (1, 2, 3)]),
    ],
)
def test_characterization_rejects_non_clique_components(spec, members):
    g = build(spec)
    assert characterization_check(g, members) == (False, None)
    assert not is_general_position(g, members)


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


def test_forbidden_set_refuses_a_host_above_the_vertex_cap(monkeypatch):
    # C7^30 has 7^30 vertices, each of which the loop would test
    g = ProductGraph([FactorGraph.cycle(7)] * 30)
    monkeypatch.setattr(ProductGraph, "vertices", lambda self: pytest.fail("a vertex was visited"))
    started = time.monotonic()
    with pytest.raises(VertexCapError, match=f"above the cap of {DEFAULT_VERTEX_CAP}$"):
        forbidden_set(g, [(0,) * 30, (1,) + (0,) * 29])
    assert time.monotonic() - started < 0.01


# ----------------------------------------------------------------------
# independence

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
                assert independent(g, members)
