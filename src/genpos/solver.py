"""Exact gp-number computation and gp-set enumeration.

The search is a depth-first branch and bound over vertices in flat-index
order.  A precomputed :class:`BadTripleIndex` stores, for every vertex
pair, the bitset of vertices completing a bad triple with that pair;
extending the current set by v filters the candidate set with one AND per
already-chosen vertex.  Subtrees that cannot beat (or, when counting,
cannot tie) the incumbent are cut with the bound |S| + |candidates|.
One DFS core, :func:`_dfs`, serves the max-search, counting and
enumeration.

Determinism: vertices are branched in increasing flat index, and the
first chosen vertex is only ever an *orbit-minimal* one: the smallest
flat index in its orbit under the automorphisms read off the spec
(dihedral on ``C n``, all of S_n on ``K n``, reversal on ``P n``, leaf
permutations on ``S k``, none on explicit factors, and permutations of
factors with the same label; see :func:`orbit_canonical`).  The reported
witness is still the lexicographically first maximum set S*: if an
automorphism sigma mapped min(S*) below itself, sigma(S*) would be a
lex-smaller maximum set, so min(S*) is orbit-minimal and its subtree is
searched.  Every set also has an image whose minimum is orbit-minimal,
so the value is unchanged.  The search runs in one process, so the value,
the witness and the node count are the same on every run; a node budget
stops it at the same node every time.

Counting double counts over the same orbits.  For each orbit-minimal r
the DFS starts from {r} with every other vertex as a candidate, so it
reaches each maximum set through r exactly once; call their number c_r.
An automorphism maps maximum sets through r onto maximum sets through
its image, so every vertex of r's orbit lies on c_r of them, and a
maximum set is met once per member.  Hence

    #max = (sum over orbit-minimal r of |orbit(r)| * c_r) / gp,

an exact identity: each leaf adds its root's orbit size, and a sum that
gp does not divide means the orbits or the search are wrong, so it
raises instead of being rounded.  Enumeration lists the sets themselves
and keeps one root over every vertex.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import Coord, FactorGraph, ProductGraph, VertexCapError
from .position import GpSet

DEFAULT_SEARCH_CAP = 200
DEFAULT_ENUM_CAP = 64

_TIME_CHECK_EVERY = 1024  # nodes between polls of the budget clock
_NO_LIMIT = 1 << 62  # a node count no search reaches


class BudgetExhausted(Exception):
    """Internal: unwinds the search when a node/time budget runs out."""


@dataclass(frozen=True)
class SearchLimits:
    """Optional search budget; omitted fields are unlimited."""

    max_nodes: int | None = None
    time_limit: float | None = None  # seconds


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search.

    ``complete`` is False when a budget ran out; then ``gp_value`` is only
    the best size found, never claimed maximum.
    """

    gp_value: int
    witness: GpSet
    nodes_explored: int
    elapsed: float
    complete: bool

    def __str__(self):
        status = "" if self.complete else " (budget exhausted; best found)"
        return f"gp = {self.gp_value}{status}, witness {list(self.witness)}"


def flat_distance_matrix(g: ProductGraph, cap: int | None = 20000) -> np.ndarray:
    """Read-only distance matrix on flat indices (``ProductGraph.flat_matrix``),
    refused above ``cap`` vertices.  On hosts of at most
    ``FLAT_TABLE_MAX_VERTICES`` vertices it is the host's cached matrix, so
    the index build and witness certification share one build."""
    n = g.total_vertices
    if cap is not None and n > cap:
        raise VertexCapError(f"distance matrix refused for {n} vertices (cap {cap})")
    return g.flat_matrix()


def _pack_rows(rows: np.ndarray) -> list[int]:
    """Pack boolean rows into Python-int bitsets (bit i = row[i])."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class BadTripleIndex:
    """Pair-indexed bitsets describing all bad triples of a host graph.

    ``bad_with(a, b)`` holds every u such that {a, b, u} is a bad triple,
    whichever of the three is in the middle.
    """

    __slots__ = ("n", "_bad_with")

    def __init__(self, n: int, bad_with: list[list[int]]):
        self.n = n
        self._bad_with = bad_with

    @classmethod
    def build(cls, g: ProductGraph | np.ndarray, cap: int | None = DEFAULT_SEARCH_CAP) -> "BadTripleIndex":
        if isinstance(g, np.ndarray):
            D = g
        else:
            D = flat_distance_matrix(g, cap=cap)
        n = D.shape[0]
        # btw[x, y, z]: x strictly between y and z
        btw = D[None, :, :] == D[:, :, None] + D[:, None, :]
        idx = np.arange(n)
        btw[idx, idx, :] = False
        btw[idx, :, idx] = False
        bad = (
            np.transpose(btw, (1, 2, 0))
            | np.transpose(btw, (0, 2, 1))
            | np.transpose(btw, (1, 0, 2))
        ).reshape(n * n, n)
        bad_flat = _pack_rows(bad)
        return cls(n, [bad_flat[i * n:(i + 1) * n] for i in range(n)])

    def bad_with(self, a: int, b: int) -> set[int]:
        return _bits(self._bad_with[a][b])

    def allowed_tables(self) -> list[list[int]]:
        """Complement masks: allowed[a][b] = vertices NOT completing a bad
        triple with the pair (a, b).  This is what the search intersects."""
        full = (1 << self.n) - 1
        return [[full & ~m for m in row] for row in self._bad_with]


def _bits(mask: int) -> set[int]:
    out = set()
    while mask:
        b = mask & -mask
        out.add(b.bit_length() - 1)
        mask ^= b
    return out


# ----------------------------------------------------------------------
# symmetry

def _factor_orbit_min(f: FactorGraph, i: int) -> int:
    """Smallest vertex in the orbit of ``i`` under the factor's automorphisms
    used here: all of C n and K n is one orbit, P n pairs i with n-1-i,
    the leaves of S k form one orbit, an explicit factor is taken as
    asymmetric."""
    if f.kind in ("cycle", "complete"):
        return 0
    if f.kind == "path":
        return min(i, f.n - 1 - i)
    if f.kind == "star":
        return min(i, 1)
    return i


def _canonical_map(g: ProductGraph):
    """:func:`orbit_canonical` for ``g`` as a one-argument function, with the
    factor orbit minima and the same-label groups read off ``g`` once."""
    mins = [[_factor_orbit_min(f, i) for i in range(f.n)] for f in g.factors]
    groups: dict[str, list[int]] = {}
    for pos, f in enumerate(g.factors):
        if f.label is not None:
            groups.setdefault(f.label, []).append(pos)
    shared = [positions for positions in groups.values() if len(positions) > 1]

    def canonical(v: Coord) -> Coord:
        out = [m[c] for m, c in zip(mins, v)]
        for positions in shared:
            for pos, c in zip(positions, sorted([out[p] for p in positions])):
                out[pos] = c
        return tuple(out)

    return canonical


def orbit_canonical(g: ProductGraph, v: Coord) -> Coord:
    """Lexicographically smallest vertex in the orbit of ``v`` under the
    factor automorphisms and the permutations of same-label factors.

    Each coordinate goes to the smallest vertex of its factor orbit, then
    the values on the positions of each group of same-label factors are
    sorted ascending.  ``v`` is orbit-minimal iff it equals the result.
    """
    return _canonical_map(g)(v)


def _root_orbits(g: ProductGraph) -> dict[int, int]:
    """Orbit size of each orbit-minimal vertex, keyed by flat index in
    ascending order: the only first vertices the max-search and counting
    branch on."""
    sizes = Counter(map(_canonical_map(g), g.vertices()))
    # a vertex's canonical form is never after it, so keys arrive ascending
    return {g.encode(c): k for c, k in sizes.items()}


def _above(v: int, n: int) -> int:
    """Bitset of the vertices v+1..n-1."""
    return ((1 << n) - 1) >> (v + 1) << (v + 1)


# ----------------------------------------------------------------------
# search core

def _dfs(allowed, starts, witness, limits, slack, sets=None):
    """Depth-first branch and bound behind the max-search, counting and
    enumeration.

    ``starts`` lists the (S, cand, weight) roots, searched in order;
    ``witness`` is the incumbent set, so the search starts from
    best = len(witness).  A subtree is cut unless it can reach best + slack
    vertices: ``slack=1`` only looks for larger sets, ``slack=0`` also
    reaches every set that ties the best.  ``sets``, when given, receives
    every set of the final best size reached, in the order reached
    (lexicographic).  Until a larger set resets it, ``sets`` also holds the
    ties of each smaller best size met on the way.  The node budget in
    ``limits`` counts the nodes of all roots together.

    Returns (best, count, witness, nodes, complete): ``count`` sums the
    weight of the root under which each set of size best was reached,
    ``witness`` is the first of them (the given one if none beat it), and
    ``complete`` is False when the budget ran out.
    """
    best = len(witness)
    bar = best + slack
    count = 0
    nodes = 0
    complete = True
    max_nodes = _NO_LIMIT
    deadline = None
    if limits is not None:
        if limits.max_nodes is not None:
            max_nodes = limits.max_nodes
        if limits.time_limit is not None:
            deadline = time.monotonic() + limits.time_limit
    step = _TIME_CHECK_EVERY if deadline is not None else _NO_LIMIT
    check_at = min(max_nodes, step)  # next node count at which the budget is polled

    def rec(S, rows, cand):
        nonlocal best, bar, count, witness, nodes, check_at
        k = len(S)
        k1 = k + 1
        while cand:
            if k + cand.bit_count() < bar:
                return
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            nodes += 1
            if nodes >= check_at:
                if nodes >= max_nodes or time.monotonic() > deadline:
                    raise BudgetExhausted
                check_at = min(max_nodes, nodes + step)
            nc = cand
            for row in rows:
                nc &= row[v]
            if k1 > best:
                best = k1
                bar = best + slack
                count = weight
                witness = S + [v]
                if sets is not None:
                    sets[:] = [witness]
            elif k1 == best:
                count += weight
                if sets is not None:
                    sets.append(S + [v])
            if nc and k1 + nc.bit_count() >= bar:
                S.append(v)
                rows.append(allowed[v])
                rec(S, rows, nc)
                rows.pop()
                S.pop()

    try:
        for S, cand, weight in starts:
            rec(list(S), [allowed[v] for v in S], cand)
    except BudgetExhausted:
        complete = False
    return best, count, witness, nodes, complete


# ----------------------------------------------------------------------
# public operations

def _as_product(g) -> ProductGraph:
    if isinstance(g, ProductGraph):
        return g
    if isinstance(g, FactorGraph):
        return ProductGraph([g])
    raise TypeError(f"expected ProductGraph or FactorGraph, got {type(g).__name__}")


def _allowed_tables(g: ProductGraph, cap: int | None, what: str) -> list[list[int]]:
    """The search's allowed masks for ``g``, refused above ``cap`` vertices."""
    n = g.total_vertices
    if cap is not None and n > cap:
        raise VertexCapError(f"{what} refused for {n} vertices (cap {cap})")
    return BadTripleIndex.build(g, cap=cap).allowed_tables()


def gp_exact(
    g,
    limits: SearchLimits | None = None,
    cap: int | None = DEFAULT_SEARCH_CAP,
) -> SearchResult:
    """Exact maximum general position set of ``g``.

    Deterministic: the witness is the lexicographically first maximum set
    in flat-index order; only orbit-minimal vertices are tried as the
    first vertex (see the module docstring).  With a budget, an exhausted
    search returns ``complete=False`` and the best set found.
    """
    g = _as_product(g)
    n = g.total_vertices
    started = time.monotonic()
    allowed = _allowed_tables(g, cap, "exact search")

    if n == 1:
        best, witness, nodes, complete = 1, [0], 1, True
    else:
        starts = [([v], _above(v, n), 1) for v in _root_orbits(g)]
        best, _, witness, nodes, complete = _dfs(allowed, starts, [0], limits, slack=1)
    elapsed = time.monotonic() - started
    members = [g.decode(i) for i in witness]
    return SearchResult(
        gp_value=best,
        witness=GpSet.certify(g, members, note="solver witness"),
        nodes_explored=nodes,
        elapsed=elapsed,
        complete=complete,
    )


def count_maximum_gp_sets(
    g,
    cap: int | None = DEFAULT_ENUM_CAP,
    limits: SearchLimits | None = None,
) -> tuple[int, int]:
    """(gp value, number of distinct maximum general position sets).

    Counts the maximum sets through each orbit-minimal vertex and weights
    them by its orbit size (see the module docstring).
    """
    g = _as_product(g)
    n = g.total_vertices
    allowed = _allowed_tables(g, cap, "enumeration")
    if n == 1:
        return 1, 1
    full = (1 << n) - 1
    starts = [([r], full ^ (1 << r), size) for r, size in _root_orbits(g).items()]
    best, count, _, _, complete = _dfs(allowed, starts, [], limits, slack=0)
    if not complete:
        raise BudgetExhausted(f"enumeration budget exhausted; best found {best}")
    if count % best:
        raise RuntimeError(f"orbit-weighted count {count} is not divisible by gp {best}")
    return best, count // best


def enumerate_maximum_gp_sets(g, cap: int | None = DEFAULT_ENUM_CAP) -> tuple[int, list[tuple[Coord, ...]]]:
    """All maximum general position sets, as sorted coordinate tuples.

    Convenience for property checks on small hosts; the count always
    matches :func:`count_maximum_gp_sets`, and the sets come in
    lexicographic order.
    """
    g = _as_product(g)
    allowed = _allowed_tables(g, cap, "enumeration")
    root = ([], (1 << g.total_vertices) - 1, 1)
    sets: list[list[int]] = []
    best = _dfs(allowed, [root], [], None, slack=0, sets=sets)[0]
    return best, [tuple(g.decode(i) for i in s) for s in sets]


def _induced_subgraph(g: ProductGraph, D: np.ndarray, flats: list[int]):
    """Explicit induced subgraph on the given flat indices; raises if it is
    disconnected or not isometric in g (reporting a violating pair)."""
    pos = {v: i for i, v in enumerate(flats)}
    adj = [[] for _ in flats]
    for i, u in enumerate(flats):
        for v in flats[i + 1:]:
            if D[u, v] == 1:
                adj[i].append(pos[v])
                adj[pos[v]].append(i)
    try:
        sub = FactorGraph.explicit(adj)
    except ValueError as exc:
        raise ValueError(f"cover set is not usable: {exc}") from exc
    for i, u in enumerate(flats):
        row = sub.dist[i]
        for j in range(i + 1, len(flats)):
            if row[j] != D[u, flats[j]]:
                raise ValueError(
                    f"subgraph not isometric: pair {g.decode(u)}, {g.decode(flats[j])} "
                    f"has induced distance {row[j]} but host distance {D[u, flats[j]]}"
                )
    return sub


def isometric_cover_bound(
    g,
    cover,
    limits: SearchLimits | None = None,
) -> int:
    """Upper bound on gp(g) from an isometric cover.

    Each element of ``cover`` is a collection of coordinate tuples.  Every
    set must induce a connected isometric subgraph and together they must
    cover all vertices; the bound is the sum of the exact gp values of the
    induced subgraphs.
    """
    g = _as_product(g)
    D = flat_distance_matrix(g)
    flat_sets = []
    covered: set[int] = set()
    for raw in cover:
        flats = sorted({g.encode(v) for v in raw})
        if not flats:
            raise ValueError("empty cover set")
        flat_sets.append(flats)
        covered.update(flats)
    if len(covered) != g.total_vertices:
        missing = next(i for i in range(g.total_vertices) if i not in covered)
        raise ValueError(f"cover misses vertex {g.decode(missing)}")
    total = 0
    for flats in flat_sets:
        sub = _induced_subgraph(g, D, flats)
        total += gp_exact(ProductGraph([sub]), limits=limits).gp_value
    return total
