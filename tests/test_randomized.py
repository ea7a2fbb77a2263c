"""Exact probabilities, sample-size arithmetic, and the deletion sampler."""

import contextlib
import hashlib
import signal
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.graphs import (
    FLAT_TABLE_MAX_VERTICES,
    FactorGraph,
    ProductGraph,
    VertexCapError,
    build,
    explicit_adjacency,
    show_count,
)
from genpos import position, randomized
from genpos.position import GpSet, bad_pair_rows, bad_triples, is_general_position
from genpos.randomized import (
    MAX_SAMPLE_SIZE,
    SplitMix64,
    choose_M,
    first_moment_construct,
    gp_box_lower_bound,
    p_closed_form,
    p_exact,
    p_exact_restricted,
    p_power,
    star_formula_quoted,
)
from helpers import bfs_distance_table, pair_sum_table, triple_is_bad


def brute_force_p(g: FactorGraph, vertices=None) -> Fraction:
    """Ordered-triple census straight from the definition, over all of g's
    vertices or over the given ones."""
    d = g.dist
    vs = range(g.n) if vertices is None else sorted(set(vertices))
    bad = sum(
        1
        for x, y, z in product(vs, repeat=3)
        if d[y][z] == d[y][x] + d[x][z]
    )
    return Fraction(bad, len(vs) ** 3)


# a 6-cycle with one chord and a pendant vertex: not one of the named families
CHORDED_CYCLE = FactorGraph.explicit([[1, 5, 3], [0, 2], [1, 3], [2, 4, 0, 6], [3, 5], [4, 0], [3]])


# ----------------------------------------------------------------------
# the generator

def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert [rng.randbelow(1 << 64) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_determinism_and_range():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.randbelow(7) for _ in range(50)] == [b.randbelow(7) for _ in range(50)]
    assert all(0 <= SplitMix64(5).randbelow(k) < k for k in range(1, 40))
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)


def test_randbelow_refuses_a_range_above_two_to_the_64():
    # one 64-bit draw covers at most 2^64 values; for a larger k the
    # rejection limit would be 0 and no draw would ever be accepted
    assert 0 <= SplitMix64(7).randbelow(1 << 64) < 1 << 64
    with pytest.raises(ValueError, match="at most 2"):
        SplitMix64(7).randbelow((1 << 64) + 1)


def _splitmix64_replay(seed, sizes, count):
    """SplitMix64 from its definition, one 64-bit word at a time: step the
    state by the golden gamma, finalize, and redraw a word at or above the
    largest multiple of k that fits in 64 bits."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        row = []
        for k in sizes:
            while True:
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                if z < (1 << 64) // k * k:
                    row.append(z % k)
                    break
        out.append(tuple(row))
    return out


def test_randbelow_at_two_to_the_64_matches_a_scalar_replay():
    # 2^64 has no remainder; its limits are made on the first call and reused
    rng = SplitMix64(7)
    assert [rng.randbelow(1 << 64) for _ in range(4)] == [v for (v,) in _splitmix64_replay(7, (1 << 64,), 4)]


# 2^63 + 1 rejects almost half of all words, so the redraw path runs; 2^64
# has no rejection limit and no remainder
DRAW_SIZES = (2, 3, 7, 2000, 1 << 64, (1 << 63) + 1)


@contextlib.contextmanager
def _fails_after(seconds):
    """Raise inside the block once it has run ``seconds`` of wall-clock
    time: a draw that redraws one rejected word forever fails, not hangs."""
    def expire(signum, frame):
        raise TimeoutError(f"still drawing after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("count", [0, 1, 500])
@pytest.mark.parametrize("seed", [0, 1, 987654321, (1 << 64) - 1])
def test_draw_matches_a_scalar_replay(seed, count):
    # the rejecting size first, in the middle and last: a rejected word
    # redraws its slot at every place in a row
    for shift in (5, 3, 0):
        sizes = DRAW_SIZES[shift:] + DRAW_SIZES[:shift]
        expected = _splitmix64_replay(seed, sizes, count + 2)
        rng = SplitMix64(seed)
        # a second call carries on from where the first one stopped
        with _fails_after(5):
            drawn = rng.draw(sizes, count) + rng.draw(sizes, 2)
        assert drawn == expected
        # Python ints, not numpy integers: check_coord's fast path and
        # json.dumps both need them
        assert all(type(v) is int for row in drawn for v in row)
    # the loop ended on DRAW_SIZES itself; one randbelow per entry agrees
    rng = SplitMix64(seed)
    with _fails_after(5):
        assert [tuple(rng.randbelow(k) for k in DRAW_SIZES) for _ in range(count + 2)] == expected


@pytest.mark.parametrize("k,message", [(0, "positive"), (-3, "positive"), ((1 << 64) + 1, "at most 2")])
def test_draw_and_randbelow_refuse_a_bad_size(k, message):
    rng = SplitMix64(0)
    for count in (0, 1, 5):
        with pytest.raises(ValueError, match=message):
            rng.draw((2, k, 7), count)
    with pytest.raises(ValueError, match=message):
        rng.randbelow(k)
    # the limits of a size tuple are kept, but its sizes are checked on every call
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            rng.draw((k,), 1)
    # the sizes are checked before any word is drawn
    assert rng.randbelow(1 << 64) == 0xE220A8397B1DCDAF


# ----------------------------------------------------------------------
# exact probabilities

@pytest.mark.parametrize(
    "factor,expected",
    [
        (FactorGraph.complete(2), Fraction(3, 4)),
        (FactorGraph.path(3), Fraction(17, 27)),
        (FactorGraph.cycle(4), Fraction(9, 16)),
        (FactorGraph.cycle(5), Fraction(11, 25)),
        (FactorGraph.complete(3), Fraction(5, 9)),
        (FactorGraph.star(2), Fraction(17, 27)),
    ],
)
def test_p_exact_frozen_values(factor, expected):
    assert p_exact(factor) == expected


@pytest.mark.parametrize(
    "factor",
    [
        FactorGraph.path(1),
        FactorGraph.complete(1),
        FactorGraph.path(3),
        FactorGraph.path(4),
        FactorGraph.cycle(5),
        FactorGraph.cycle(6),
        FactorGraph.complete(4),
        FactorGraph.star(3),
        CHORDED_CYCLE,
    ],
)
def test_p_exact_matches_triple_census(factor):
    assert p_exact(factor) == brute_force_p(factor)


@pytest.mark.parametrize(
    "factor,vertices",
    [
        (FactorGraph.path(1), [0]),
        (FactorGraph.cycle(7), [4]),
        (FactorGraph.cycle(7), [0, 1]),
        (FactorGraph.cycle(8), [6, 0, 3, 5]),
        (FactorGraph.path(9), [8, 2, 5, 5, 0]),
        (FactorGraph.star(4), [1, 2, 3, 4]),
        (FactorGraph.star(4), [0, 2, 4]),
        (FactorGraph.star(4), np.arange(1, 4)),  # numpy integers are vertices too
        (FactorGraph.complete(5), [1, 3]),
        (CHORDED_CYCLE, [6, 1, 4]),
        (CHORDED_CYCLE, range(7)),
    ],
)
def test_p_exact_restricted_matches_triple_census(factor, vertices):
    assert p_exact_restricted(factor, vertices) == brute_force_p(factor, vertices)


@pytest.mark.parametrize(
    "vertices,match",
    [
        ([-1, 1], "out of range"),  # numpy would read -1 as the last vertex
        ([1, 3], "out of range"),
        ([True, 2], "must be integers"),
        ([1.0, 2], "must be integers"),
        (["1"], "must be integers"),
        ([], "empty"),
    ],
)
def test_p_exact_restricted_refuses_bad_vertices(vertices, match):
    with pytest.raises(ValueError, match=match):
        p_exact_restricted(FactorGraph.star(2), vertices)


def _explicit_path(n):
    return FactorGraph.explicit([[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)])


def test_p_exact_cap():
    # the factor's all-pairs table is refused above MAX_FACTOR_VERTICES,
    # also inside a product
    with pytest.raises(VertexCapError, match="above the limit of 2000"):
        p_exact(_explicit_path(2001))
    with pytest.raises(VertexCapError, match="above the limit of 2000"):
        p_exact(ProductGraph([FactorGraph.path(3), _explicit_path(2001)]))


def test_p_exact_is_counted_once_per_table(monkeypatch):
    p = p_exact(FactorGraph.path(11))
    # a second graph with the same table is served without a new count
    monkeypatch.setattr(randomized, "_count_bad_triples", lambda D: pytest.fail("counted again"))
    assert p_exact(FactorGraph.path(11)) == p == brute_force_p(FactorGraph.path(11))
    assert p_exact(_explicit_path(11)) == p
    # the table's limit is checked before any count
    with pytest.raises(VertexCapError):
        p_exact(_explicit_path(2001))


def test_odd_cycle_equals_complete_at_the_triangle():
    assert p_exact(FactorGraph.cycle(3)) == p_exact(FactorGraph.complete(3)) == Fraction(5, 9)


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_closed_form(n):
    assert p_closed_form("complete", n) == p_exact(FactorGraph.complete(n))


@pytest.mark.parametrize("m", range(3, 13))
def test_cycle_closed_form(m):
    assert p_closed_form("cycle", m) == p_exact(FactorGraph.cycle(m))


@pytest.mark.parametrize("k", range(2, 9))
def test_leaf_restricted_star_closed_form(k):
    star = FactorGraph.star(k)
    assert p_closed_form("star_leaf_restricted", k) == p_exact_restricted(
        star, range(1, k + 1)
    )


def test_unrestricted_star_is_refused_and_documented():
    with pytest.raises(ValueError, match="disagrees"):
        p_closed_form("star", 2)
    # the quoted closed form overshoots the enumerated value at k = 2
    assert star_formula_quoted(2) == Fraction(19, 27)
    assert p_exact(FactorGraph.star(2)) == Fraction(17, 27)
    assert star_formula_quoted(2) != p_exact(FactorGraph.star(2))


@pytest.mark.parametrize(
    "factor",
    [FactorGraph.cycle(6), FactorGraph.star(4), FactorGraph.path(5), FactorGraph.complete(5)],
)
def test_p_strictly_below_degenerate_ceiling(factor):
    n = factor.n
    assert p_exact(factor) < 1 - Fraction(n - 1, n**2)


def test_p_k2_attains_the_degenerate_ceiling():
    # with two vertices the only good triples are y = z != x, so equality
    assert p_exact(FactorGraph.complete(2)) == 1 - Fraction(1, 4)


# ----------------------------------------------------------------------
# product rule

def test_p_power_examples():
    k2 = FactorGraph.complete(2)
    assert p_power(k2, 2) == Fraction(9, 16)
    assert p_power(k2, 2) == p_exact(FactorGraph.cycle(4))  # K2^2 is the 4-cycle
    assert p_power(k2, 10) == Fraction(3, 4) ** 10


@pytest.mark.parametrize(
    "factor",
    [FactorGraph.complete(2), FactorGraph.complete(3), FactorGraph.cycle(3), FactorGraph.cycle(5), FactorGraph.path(3)],
)
def test_product_rule_against_explicit_squares(factor):
    square = ProductGraph([factor, factor])
    assert p_power(factor, 2) == p_exact(explicit_adjacency(square))


def test_p_exact_on_products_multiplies_factors():
    g = build("P3xC5")
    assert p_exact(g) == p_exact(FactorGraph.path(3)) * p_exact(FactorGraph.cycle(5))


# ----------------------------------------------------------------------
# sample size

@pytest.mark.parametrize(
    "p,n,M",
    [
        (Fraction(3, 4), 10, 5),
        (Fraction(3, 4), 2, 2),
        (Fraction(1, 4), 1, 3),
    ],
)
def test_choose_M_examples(p, n, M):
    assert choose_M(p, n) == M


def test_choose_M_is_exact_at_the_boundary():
    # (M-1)(M-2) <= p^-n must hold at the result and fail one step higher
    for p, n in [(Fraction(3, 4), 25), (Fraction(11, 25), 9), (Fraction(9, 16), 40)]:
        M = choose_M(p, n)
        target = Fraction(p.denominator, p.numerator) ** n
        assert (M - 1) * (M - 2) <= target
        assert M * (M - 1) > target


@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(1, 30),
    den=st.integers(2, 40),
    n=st.integers(1, 25),
)
def test_choose_M_monotone_in_the_exponent(num, den, n):
    if num >= den:
        num = den - 1
    p = Fraction(num, den)
    assert choose_M(p, n) <= choose_M(p, n + 1)


def test_choose_M_domain():
    with pytest.raises(ValueError):
        choose_M(Fraction(1), 3)
    with pytest.raises(ValueError):
        choose_M(Fraction(1, 2), 0)


# ----------------------------------------------------------------------
# sampler

def test_sampler_is_reproducible():
    k2 = FactorGraph.complete(2)
    a = first_moment_construct(k2, 10, seed=42)
    b = first_moment_construct(k2, 10, seed=42)
    assert a.samples == b.samples
    assert list(a.result) == list(b.result)
    assert (a.seed, a.M, a.bad_triples, a.deletions) == (b.seed, b.M, b.bad_triples, b.deletions)


def test_sampler_counters_are_consistent():
    c5 = FactorGraph.cycle(5)
    run = first_moment_construct(c5, 4, seed=9)
    distinct = run.M - run.duplicates
    assert len(run.result) + len(run.deletions) == distinct
    assert run.target == (run.M + 1) // 2
    assert run.success == (len(run.result) >= run.target)


def test_sampler_outputs_are_certified_across_seeds():
    k3 = FactorGraph.complete(3)
    host = ProductGraph([k3] * 6)
    for seed in range(25):
        run = first_moment_construct(k3, 6, seed=seed, retries=0)
        assert run.result.certified
        assert is_general_position(host, list(run.result))


def test_sampler_hypercube_success_means_at_least_3():
    k2 = FactorGraph.complete(2)
    assert choose_M(p_exact(k2), 10) == 5
    for seed in range(30):
        run = first_moment_construct(k2, 10, seed=seed, retries=0)
        if run.success:
            assert len(run.result) >= 3


def test_sampler_whole_triangle_sample_works():
    # on a single triangle any distinct sample is already in general position
    run = first_moment_construct(FactorGraph.complete(3), 1, seed=5)
    assert run.success and run.bad_triples <= 1 and len(run.result) >= 1


@pytest.mark.parametrize("sample_size", [0, -5])
def test_sampler_refuses_a_sample_size_below_one(sample_size):
    with pytest.raises(ValueError, match="sample_size must be >= 1"):
        first_moment_construct(FactorGraph.path(3), 2, seed=0, sample_size=sample_size)


def test_sampler_retries_exhaust_gracefully():
    # an oversized sample on a path power cannot reach its target
    run = first_moment_construct(FactorGraph.path(3), 1, seed=0, retries=2, sample_size=27)
    assert not run.success
    assert run.attempts == 3
    assert run.result.certified  # still a certified, honest set


def test_a_success_counts_the_attempts_it_took():
    # K2^10 at choose_M's M = 5: seed 0 succeeds at once, seeds 11 and 12
    # fail and 13 succeeds; the run returned is the successful one
    for seed, attempts in ((0, 1), (12, 2), (11, 3)):
        run = first_moment_construct(FactorGraph.complete(2), 10, seed=seed, retries=5)
        assert (run.success, run.attempts, run.seed) == (True, attempts, seed + attempts - 1)


def test_sampler_runs_match_their_golden_digest():
    # every field of the runs on the benchmark's sampler hosts, over fixed
    # seeds; the oversized samples take retries, some of them all three
    digest = hashlib.sha256()
    for factor, n in ((FactorGraph.cycle(7), 10), (FactorGraph.complete(2), 30), (FactorGraph.cycle(5), 10)):
        for seed, M in [(seed, None) for seed in range(5)] + [(seed, 120) for seed in range(3)]:
            r = first_moment_construct(factor, n, seed=seed, retries=2, sample_size=M)
            fields = (r.seed, r.M, r.samples, r.duplicates, r.bad_triples, r.deletions,
                      r.result.members, r.result.note, r.target, r.success, r.attempts)
            digest.update(repr(fields).encode())
    assert digest.hexdigest() == "3939ec4d8d9de6f71443e42a6893f635e7cb6874da83fa4de9a15314064ac47a"


@pytest.mark.parametrize("factor,n", [(FactorGraph.complete(2), 8), (FactorGraph.path(3), 5)])
def test_sampler_deletions_match_bfs_oracle_above_the_split(factor, n):
    host = ProductGraph([factor] * n)
    assert host.total_vertices > FLAT_TABLE_MAX_VERTICES
    D = bfs_distance_table(host)
    # 80 samples give 10-20 times the bad triples of 30, nearly all of them
    # passed over by the sequential rule below for a member already deleted
    for seed, sample_size in product(range(3), (30, 80)):
        run = first_moment_construct(factor, n, seed=seed, retries=0, sample_size=sample_size)
        distinct = sorted({host.encode(v) for v in run.samples})
        bad = [t for t in combinations(distinct, 3) if triple_is_bad(D, *t)]
        alive, deletions = set(distinct), []
        for t in bad:  # lex order; the lowest member goes
            if alive.issuperset(t):
                alive.remove(t[0])
                deletions.append(t[0])
        assert bad  # a sample this dense on these hosts has bad triples
        assert run.bad_triples == len(bad)
        assert [host.encode(v) for v in run.deletions] == deletions
        assert [host.encode(v) for v in run.result] == sorted(alive)


@pytest.mark.parametrize(
    "factor,n,line",
    [
        # 125 vertices: flat ids into the cached matrix
        (FactorGraph.cycle(5), 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0)]),
        # 256 vertices: a table over the members
        (FactorGraph.complete(2), 8, [(0,) * 8, (1,) * 4 + (0,) * 4, (1,) * 8]),
        (FactorGraph.path(3), 5, [(0,) * 5, (1,) * 5, (2,) * 5]),
        # twice the diameter of the power is past int8
        (FactorGraph.cycle(7), 30, [(0,) * 30, (3,) * 15 + (0,) * 15, (3,) * 30]),
        # the factor's own diameter is past int8
        (FactorGraph.cycle(260), 1, [(0,), (65,), (130,)]),
    ],
)
def test_sample_scan_matches_the_python_core(factor, n, line):
    host = ProductGraph([factor] * n)

    def both_scans(distinct):
        # the scan counts the core's triples and marks their least members
        core = [tuple(sorted(t)) for t in bad_triples(*host.distance_table(distinct))]
        count, least = randomized._least_members(host.flat_matrix(distinct))
        least = np.flatnonzero(least).tolist()
        assert count == len(core) and least == sorted({t[0] for t in core})
        return count, least

    # three members on one shortest path form one bad triple
    assert both_scans(line) == (1, [0])
    rng = SplitMix64(n)
    for M in (1, 2, 3, 4, 12, 40):
        # samples drawn with repetition, so the larger ones hold duplicates
        both_scans(sorted({tuple(rng.randbelow(factor.n) for _ in range(n)) for _ in range(M)}))
    # pair rows over several chunks, so each chunk's own row indices count
    distinct = sorted(set(rng.draw(host.sizes, 120)))
    assert len(list(bad_pair_rows(host.flat_matrix(distinct)))) >= 2
    both_scans(distinct)


@pytest.mark.parametrize("factor,n", [(FactorGraph.complete(2), 10), (FactorGraph.complete(3), 6), (FactorGraph.cycle(5), 4)])
def test_small_samples_take_the_python_core_with_the_scan_result(monkeypatch, factor, n):
    # choose_M draws 5-7 members on these hosts, below the scan's size, and
    # the core must give the count and mask the pair-row scan gives
    host = ProductGraph([factor] * n)
    M = choose_M(p_exact(factor), n)
    seen = set()
    for seed in range(100):
        D = host.flat_matrix(sorted(set(SplitMix64(seed).draw(host.sizes, M))))
        assert D.shape[0] < position._BLOCK_MIN_MEMBERS
        with monkeypatch.context() as patch:
            patch.setattr(randomized, "bad_pair_rows", lambda D: pytest.fail("the scan ran"))
            count, least = randomized._least_members(D)
        with monkeypatch.context() as patch:
            patch.setattr(randomized, "_BLOCK_MIN_MEMBERS", 0)
            patch.setattr(randomized, "bad_triples", lambda ids, D: pytest.fail("the core ran"))
            scan_count, scan_least = randomized._least_members(D)
        assert count == scan_count and least.tolist() == scan_least.tolist()
        seen.add(count > 0)
    assert seen == {True, False}


@pytest.mark.parametrize("M", [1, 2, 3, 10])
def test_sampler_on_samples_with_duplicates(M):
    # K2^2 has four vertices, so ten draws repeat some
    host = ProductGraph([FactorGraph.complete(2)] * 2)
    for seed in range(8):
        run = first_moment_construct(FactorGraph.complete(2), 2, seed=seed, retries=0, sample_size=M)
        distinct = sorted(set(run.samples))
        assert run.duplicates == M - len(distinct)
        assert run.bad_triples == len(list(bad_triples(*host.distance_table(distinct))))
        assert len(run.result) + len(run.deletions) == len(distinct)


def _record_certify_calls(monkeypatch):
    """Make every distance sum other than a members' flat matrix raise, and
    record each ``(members, table)`` that ``GpSet.certify`` is given."""
    calls = []
    certify = GpSet.certify.__func__
    flat_matrix = ProductGraph.flat_matrix

    def recording_certify(cls, host, members, note=None, table=None):
        calls.append((list(members), table))
        return certify(cls, host, members, note=note, table=table)

    def members_only(self, members=None):
        if members is None:
            raise AssertionError("the sampler built an all-vertex flat matrix")
        return flat_matrix(self, members)

    def no_table(self, members):
        raise AssertionError("the sampler summed a distance table")

    monkeypatch.setattr(GpSet, "certify", classmethod(recording_certify))
    monkeypatch.setattr(ProductGraph, "flat_matrix", members_only)
    monkeypatch.setattr(ProductGraph, "distance_table", no_table)
    return calls


@pytest.mark.parametrize(
    "factor,n",
    [
        (FactorGraph.cycle(7), 10),
        (FactorGraph.complete(2), 30),
        (FactorGraph.cycle(5), 10),
        # at most 200 vertices, where distance_table would read a host matrix
        (FactorGraph.complete(2), 7),
        (FactorGraph.cycle(5), 3),
    ],
)
def test_sampler_certifies_on_the_scan_matrix(monkeypatch, factor, n):
    with monkeypatch.context() as patch:
        calls = _record_certify_calls(patch)
        runs = [first_moment_construct(factor, n, seed=seed, retries=0) for seed in range(10)]
    assert len(calls) == len(runs)
    for run, (members, (ids, D)) in zip(runs, calls):
        host = run.result.host
        assert members == list(run.result.members)
        # the table holds the Python-summed distances between the survivors
        assert [[D[x][y] for y in ids] for x in ids] == pair_sum_table(host, members)
        assert GpSet.certify(host, members).members == run.result.members
    assert any(run.deletions for run in runs)


def test_sampler_largest_sample_recertifies():
    # C7^30 at the M cap, certified again, where the blocks run, and once
    # more by the Python loop on a table summed in Python, not by flat_matrix
    run = first_moment_construct(FactorGraph.cycle(7), 30, seed=1, retries=0, sample_size=MAX_SAMPLE_SIZE)
    host, members = run.result.host, run.result.members
    assert GpSet.certify(host, members).members == members
    assert next(bad_triples(list(range(len(members))), pair_sum_table(host, members)), None) is None


def test_sampler_at_the_cap_keeps_no_triple_list():
    # K2^10 at the M cap has 1,571,828 bad triples; listed as tuples they
    # peaked at 160 MiB, the scan's mask and chunks take about 3 MiB
    tracemalloc.start()
    try:
        run = first_moment_construct(FactorGraph.complete(2), 10, seed=1, retries=0, sample_size=MAX_SAMPLE_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (run.bad_triples, len(run.deletions), len(run.result)) == (1_571_828, 385, 3)
    assert peak <= 16 * 2**20


def test_certifying_a_few_survivors_lists_only_their_cells():
    # K2^10 at the M cap keeps 3 of its 388 distinct samples; listing the
    # whole 388 x 388 scan matrix for the Python loop peaked at 1.17 MiB
    run = first_moment_construct(FactorGraph.complete(2), 10, seed=1, retries=0, sample_size=MAX_SAMPLE_SIZE)
    host, members = run.result.host, list(run.result.members)
    distinct = sorted(set(run.samples))
    D = host.flat_matrix(distinct)
    ids = [distinct.index(v) for v in members]
    assert (D.shape, len(ids)) == ((388, 388), 3)
    tracemalloc.start()
    try:
        assert list(GpSet.certify(host, members, table=(ids, D))) == members
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_sampled_sets_are_certified_without_the_python_loop(monkeypatch):
    def refuse(ids, D):
        raise AssertionError(f"the Python loop ran on {len(ids)} members")

    monkeypatch.setattr(position, "bad_triples", refuse)
    for seed in range(3):
        run = first_moment_construct(FactorGraph.cycle(7), 10, seed=seed, retries=0)
        assert len(run.result) >= position._BLOCK_MIN_MEMBERS
        assert GpSet.certify(run.result.host, run.result.members).members == run.result.members


@pytest.mark.parametrize("factor,n", [(FactorGraph.complete(2), 7), (FactorGraph.cycle(5), 10)])
def test_sampler_certification_names_the_violation_it_is_shown(monkeypatch, factor, n):
    # with the scan stubbed out nothing is deleted, so certification on the
    # scan matrix must reject the sample with the plain path's message
    monkeypatch.setattr(randomized, "_least_members", lambda D: (0, np.zeros(D.shape[0], dtype=bool)))
    rejected = 0
    for seed in range(10):
        with monkeypatch.context() as patch:
            calls = _record_certify_calls(patch)
            try:
                first_moment_construct(factor, n, seed=seed, retries=0)
                message = None
            except ValueError as exc:
                message = str(exc)
        ((members, _),) = calls
        host = ProductGraph([factor] * n)
        try:
            GpSet.certify(host, members)
            assert message is None
        except ValueError as exc:
            assert message == str(exc)
            rejected += 1
    assert rejected


@pytest.mark.parametrize("factor", [FactorGraph.complete(1), FactorGraph.path(1)])
def test_sampler_refuses_a_one_vertex_factor(factor):
    for sample_size in (None, 3):
        with pytest.raises(ValueError, match="factor has one vertex, so its power has one vertex"):
            first_moment_construct(factor, 3, seed=1, sample_size=sample_size)


def test_sample_size_refusal_names_the_power_of_two_of_the_exact_M():
    # from M > 2^64 on, the refusal comes from a logarithmic bound on M, not
    # from choose_M; either way the message shows the same power of two
    p = p_exact(FactorGraph.cycle(7))
    for n in range(90, 100):  # M crosses 2^64 at n = 94
        message = f"M = {show_count(choose_M(p, n))} is above the cap of {MAX_SAMPLE_SIZE}"
        with pytest.raises(VertexCapError, match=message.replace("^", r"\^")):
            first_moment_construct(FactorGraph.cycle(7), n, seed=1)


# ----------------------------------------------------------------------
# growth-exponent bound

def test_gp_box_lower_bound_k2():
    from math import log2

    assert abs(gp_box_lower_bound(FactorGraph.complete(2)) - (1 - 0.5 * log2(3))) <= 1e-12


def test_gp_box_lower_bound_k3():
    from math import log

    want = 0.5 * log(Fraction(9, 5)) / log(3)
    assert abs(gp_box_lower_bound(FactorGraph.complete(3)) - want) <= 1e-12


@pytest.mark.parametrize(
    "factor",
    [FactorGraph.complete(2), FactorGraph.cycle(7), FactorGraph.star(5), FactorGraph.path(4)],
)
def test_gp_box_lower_bound_below_one(factor):
    assert 0 < gp_box_lower_bound(factor) < 1


def test_gp_box_needs_two_vertices():
    with pytest.raises(ValueError):
        gp_box_lower_bound(FactorGraph.complete(1))


@pytest.mark.parametrize(
    "factor",
    [FactorGraph.path(4), FactorGraph.cycle(6), FactorGraph.star(3), FactorGraph.complete(4)],
)
def test_p_is_a_reduced_probability(factor):
    p = p_exact(factor)
    from math import gcd

    assert 0 < p <= 1
    assert gcd(p.numerator, p.denominator) == 1
