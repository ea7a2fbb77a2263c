"""Exact probabilities, sample-size arithmetic, and the deletion sampler."""

from fractions import Fraction
from itertools import combinations, product

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
from genpos.position import is_general_position
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
from helpers import bfs_distance_table, triple_is_bad


def brute_force_p(g: FactorGraph) -> Fraction:
    """Ordered-triple census straight from the definition."""
    d = g.dist
    n = g.n
    bad = sum(
        1
        for x, y, z in product(range(n), repeat=3)
        if d[y][z] == d[y][x] + d[x][z]
    )
    return Fraction(bad, n**3)


# ----------------------------------------------------------------------
# the generator

def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
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
        FactorGraph.path(3),
        FactorGraph.path(4),
        FactorGraph.cycle(5),
        FactorGraph.cycle(6),
        FactorGraph.complete(4),
        FactorGraph.star(3),
    ],
)
def test_p_exact_matches_triple_census(factor):
    assert p_exact(factor) == brute_force_p(factor)


def test_p_exact_cap():
    with pytest.raises(VertexCapError):
        p_exact(FactorGraph.path(11), cap=10)


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


@pytest.mark.parametrize("factor,n", [(FactorGraph.complete(2), 8), (FactorGraph.path(3), 5)])
def test_sampler_deletions_match_bfs_oracle_above_the_split(factor, n):
    host = ProductGraph([factor] * n)
    assert host.total_vertices > FLAT_TABLE_MAX_VERTICES
    D = bfs_distance_table(host)
    for seed in range(3):
        run = first_moment_construct(factor, n, seed=seed, retries=0, sample_size=30)
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
