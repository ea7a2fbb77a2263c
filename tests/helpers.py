"""Shared independent oracles for the test suite.

Everything in here deliberately avoids the solver's bitset engine,
genpos's own distance tables and numpy: distances come from a BFS of
its own, in Python lists, on the materialized product, or on hosts too
large for that from Python sums of the factors' BFS rows, and subsets
from itertools.  Slow but unarguable.
"""

from __future__ import annotations

from itertools import combinations

from genpos.graphs import ProductGraph, explicit_adjacency


def bfs_row(adj, source: int) -> list[int]:
    """Distances from ``source`` by breadth-first search over adjacency lists."""
    row = [-1] * len(adj)
    row[source] = 0
    reached = [source]
    for u in reached:
        for w in adj[u]:
            if row[w] < 0:
                row[w] = row[u] + 1
                reached.append(w)
    return row


def bfs_distance_table(g: ProductGraph):
    """All-pairs distances of a product via BFS on its explicit form."""
    adj = explicit_adjacency(g).adj
    return [bfs_row(adj, s) for s in range(len(adj))]


def pair_sum_table(g: ProductGraph, members):
    """Distances between the given coordinate tuples, in their order, each
    pair summed in Python over BFS rows of the factors from the members'
    coordinates: a reference for ``ProductGraph.flat_matrix`` on hosts too
    large to materialize."""
    rows = {}
    for u in members:
        for f, a in zip(g.factors, u):
            if (f, a) not in rows:
                rows[f, a] = bfs_row(f.adj, a)
    m = len(members)
    D = [[0] * m for _ in range(m)]
    for i, u in enumerate(members):
        for j in range(i + 1, m):
            D[i][j] = D[j][i] = sum(rows[f, a][b] for f, a, b in zip(g.factors, u, members[j]))
    return D


def independent(g: ProductGraph, members) -> bool:
    """True iff no two of the members are adjacent, by ``g.distance``."""
    return all(g.distance(u, v) != 1 for u, v in combinations(members, 2))


def triple_is_bad(D, u: int, v: int, w: int) -> bool:
    return (
        D[u][w] == D[u][v] + D[v][w]
        or D[v][w] == D[v][u] + D[u][w]
        or D[u][v] == D[u][w] + D[w][v]
    )


def subset_in_general_position(D, subset) -> bool:
    return not any(triple_is_bad(D, u, v, w) for u, v, w in combinations(subset, 3))


def naive_gp(g: ProductGraph) -> int:
    """Maximum general position set size by plain subset enumeration.

    Grows k until no k-subset qualifies; valid because subsets of general
    position sets stay in general position.
    """
    D = bfs_distance_table(g)
    n = len(D)
    best = min(n, 2)
    k = best + 1
    while k <= n:
        if not any(
            subset_in_general_position(D, sub) for sub in combinations(range(n), k)
        ):
            break
        best = k
        k += 1
    return best


def naive_count_maximum(g: ProductGraph) -> tuple[int, int]:
    """(gp value, count of maximum sets), read off :func:`naive_maximum_sets`."""
    value, sets = naive_maximum_sets(g)
    return value, len(sets)


def naive_lex_first_max(g: ProductGraph) -> tuple[int, tuple]:
    """(gp value, lexicographically first maximum set as coordinate tuples).

    For each size k, the first k-subset in ``itertools.combinations`` order
    (which is lexicographic on flat indices) that is in general position;
    the last size with one is the gp value.  The subsets are walked in that
    order by backtracking, which skips every subset whose chosen prefix
    already holds a bad triple: no later choice can repair it.
    """
    D = bfs_distance_table(g)
    n = len(D)

    def first_of_size(k: int, chosen: list[int], start: int):
        if len(chosen) == k:
            return tuple(chosen)
        for v in range(start, n - (k - len(chosen)) + 1):
            if not any(triple_is_bad(D, a, b, v) for a, b in combinations(chosen, 2)):
                found = first_of_size(k, chosen + [v], v + 1)
                if found is not None:
                    return found
        return None

    first: tuple[int, ...] = ()
    for k in range(1, n + 1):
        found = first_of_size(k, [], 0)
        if found is None:
            break
        first = found
    return len(first), tuple(g.decode(i) for i in first)


def naive_maximum_sets(g: ProductGraph) -> tuple[int, list[tuple]]:
    """(gp value, every maximum set as a tuple of coordinate tuples), the sets
    in ``itertools.combinations`` order, i.e. lexicographic on flat indices.

    The subsets are walked in lexicographic order by backtracking, which
    skips every subset whose chosen prefix already holds a bad triple:
    subsets of general position sets stay in general position, so every
    general position subset is still met exactly once, and those of one
    size in ``itertools.combinations`` order.  Only the sets of the largest
    size met so far are kept.
    """
    D = bfs_distance_table(g)
    n = len(D)
    best: list[tuple[int, ...]] = [()]

    def walk(chosen: list[int], start: int):
        for v in range(start, n):
            if not any(triple_is_bad(D, a, b, v) for a, b in combinations(chosen, 2)):
                sub = chosen + [v]
                if len(sub) > len(best[0]):
                    best[:] = [tuple(sub)]
                elif len(sub) == len(best[0]):
                    best.append(tuple(sub))
                walk(sub, v + 1)

    walk([], 0)
    return len(best[0]), [tuple(g.decode(i) for i in sub) for sub in best]


def naive_first_violation(D, subset):
    """First bad 3-subset of ``subset`` in ``itertools.combinations`` order
    of the sorted flat indices, middle vertex first, or None.

    For distinct vertices at most one of the three can be in the middle:
    two middles would force a zero distance between them.
    """
    for t in combinations(sorted(subset), 3):
        if triple_is_bad(D, *t):
            for mid in t:
                a, b = (x for x in t if x != mid)
                if D[a][b] == D[a][mid] + D[mid][b]:
                    return (mid, a, b)
    return None
