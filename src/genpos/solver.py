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
max-search prunes by symmetry at every depth.  At a node with prefix
S = (s1..sk) it branches only on vertices that are the smallest in their
orbit under K_S, a group of automorphisms fixing s1..sk pointwise that is
read off the spec (see :class:`_Symmetry`); each factor family's group is
named once, by generators (:func:`_factor_generators`), and its orbits are
derived from them (:func:`_factor_orbits`).  The reported witness is still
the lexicographically first maximum set S*: along its path, if some sigma
in K_S mapped s_{k+1} below itself, sigma(S*) would be a lex-smaller
maximum set.  It keeps s1..sk and gains sigma(s_{k+1}), which
lies below every member of S* that it lacks.  So S* is searched, and the
value is unchanged.  For the same reason a node branching on v drops
every candidate whose orbit under K_S starts below v.  Let S* be the
lex-first maximum set through S + v, and suppose some sigma in K_S maps a
later member t of S* to sigma(t) < v.  As sigma fixes S pointwise,
sigma(t) is not in S, so sigma(S*) holds S + sigma(t) and is a lex-smaller
maximum set than S*, which holds S + v.  So no member of S* is dropped,
and the witness and the value do not change.  One orbit table per prefix
state (:meth:`_Symmetry.orbits`) decides which vertices are orbit-minimal
and which candidates each branch keeps; at the empty prefix K_S is the
whole group, whose table also gives counting its roots.  Once K_S acts
trivially, the subtree runs the plain loop.  The search runs in one
process, so the value, the witness and the node count are the same on
every run; a node budget stops it at the same node every time.

Counting double counts over the same orbits.  Let c_r be the number of
maximum sets through an orbit-minimal r.  An automorphism maps maximum
sets through r onto maximum sets through its image, so every vertex of
r's orbit lies on c_r of them, and a maximum set is met once per member.
Hence

    #max = (sum over orbit-minimal r of |orbit(r)| * c_r) / gp,

an exact identity: a sum that gp does not divide means the orbits or the
search are wrong, so it raises instead of being rounded.

Each c_r is counted by orbit leaders.  The DFS starts from {r} with every
other vertex as a candidate and branches on the same prefix stabilizers
as the max-search, from K = K_{(r)}, the stabilizer of r.  A maximum set
{r} + T adds |K T| when T is the lexicographically least set of its
K-orbit (its leader) and nothing otherwise, so c_r = sum over leaders T
of |K T|.  Along a leader T = (t1..tm), each t_{i+1} is the least of its
orbit under K_i, the state of (r, t1..ti), and K_{i+1} = Stab_{K_i}(t_{i+1}):
an element of K_i that fixes a vertex c whose values are the least of
their factor orbits permutes only same-label positions where c's values
agree (same-label positions share their factor group, so two values in
one orbit are equal) and fixes c's value at each position, which is
exactly the group of the state of the prefix extended by c.  So the
states along T form a stabilizer chain, and the orbit-stabilizer theorem
gives

    |K T| = prod_i |K_i t_{i+1}| / prod_i reach_i,

where reach_i counts the members of T that some element of K_i maps onto
t_{i+1} while mapping T onto itself.  No group order is computed and no
group element is enumerated.  A member with an image below t_{i+1} under
K_i would show that T is no leader, so each node drops the candidates
whose orbit under its state starts below the vertex it branches on, the
filter the max-search applies too.  Another member in t_{i+1}'s orbit
under K_i is a tie.  A set without ties has every reach_i = 1 and weighs
the product of its members' orbit sizes, carried down the search; a set
with one runs the leaf test (:meth:`_Symmetry.orbit_weight`), a min-image
backtrack over the states' orbit tables and cached transversal
permutations that stops at the first element mapping T onto itself.  A
root whose stabilizer moves nothing weighs |orbit(r)| per set, and once
no stabilizer and no tie is left, a subtree runs the plain loop with its
constant weight.

Enumeration runs the max-search's symmetric DFS from the empty prefix,
keeping ties.  By the argument above the lexicographically least set of
each orbit of maximum sets under the whole group is reached, as its path
is never cut, so closing the reached sets under the group's generators
(:meth:`_Symmetry.generators`) lists every maximum set.  The closure walks
the orbits of the sets themselves, so its cost is the size of the output;
no group element beyond the generators is formed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Coord, FactorGraph, ProductGraph, VertexCapError
from .position import GpSet

DEFAULT_SEARCH_CAP = 200
DEFAULT_ENUM_CAP = 64

_TIME_CHECK_EVERY = 1024  # nodes between polls of the budget clock
_NO_LIMIT = 1 << 62  # a node count no search reaches


class BudgetExhausted(Exception):
    """A node/time budget ran out: unwinds the search, and is raised by the
    operations that have no partial answer (counting, cover bounds)."""


@dataclass(frozen=True)
class SearchLimits:
    """Optional search budget; omitted fields are unlimited."""

    max_nodes: int | None = None
    time_limit: float | None = None  # seconds

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        if self.time_limit is not None and not self.time_limit >= 0:  # refuses NaN too
            raise ValueError(f"time_limit must be >= 0 seconds, got {self.time_limit}")


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


def flat_distance_matrix(g: ProductGraph, cap: int | None) -> np.ndarray:
    """Read-only distance matrix on flat indices (``ProductGraph.flat_matrix``),
    refused above ``cap`` vertices.  On hosts of at most
    ``FLAT_TABLE_MAX_VERTICES`` vertices it is the host's cached matrix, so
    the index build and witness certification share one build."""
    n = g.total_vertices
    if cap is not None and n > cap:
        raise VertexCapError(f"distance matrix refused for {n} vertices (cap {cap})")
    return g.flat_matrix()


# (pair, vertex) cells per chunk of the index build: its numpy buffers stay
# under a megabyte on every host instead of growing with n^3
INDEX_CHUNK_CELLS = 1 << 16


def _pack_rows(rows: np.ndarray) -> list[int]:
    """Pack boolean rows into Python-int bitsets (bit i = row[i]).

    The packed bytes are zero-padded to whole 64-bit words, read as
    little-endian words, and a row of several words is combined from its
    top word down."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width = packed.shape[1]
    if width % 8:
        padded = np.zeros((len(packed), width + (-width % 8)), np.uint8)
        padded[:, :width] = packed
        packed = padded
    words = packed.view("<u8")
    out = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        out = [x << 64 | w for x, w in zip(out, words[:, k].tolist())]
    return out


class BadTripleIndex:
    """Pair-indexed bitsets describing all bad triples of a host graph.

    ``bad_with(a, b)`` holds every u such that {a, b, u} is a bad triple,
    whichever of the three is in the middle.  The build walks the pairs
    a < b in chunks of about ``INDEX_CHUNK_CELLS`` (pair, vertex) cells,
    reading each pair's two distance rows, so besides the tables themselves
    it holds the distance matrix and one chunk at a time.
    """

    __slots__ = ("n", "_allowed")

    def __init__(self, n: int, allowed: list[list[int]]):
        self.n = n
        self._allowed = allowed

    @classmethod
    def build(cls, g: ProductGraph, cap: int | None = DEFAULT_SEARCH_CAP) -> "BadTripleIndex":
        D = flat_distance_matrix(g, cap)
        n = D.shape[0]
        # the narrowest signed type holding the sum of two distances
        D = D.astype(np.min_scalar_type(-2 * int(D.max()) - 1))
        v = np.arange(n)
        a, b = np.nonzero(v[:, None] < v)  # the pairs a < b, row by row
        full = (1 << n) - 1  # a vertex paired with itself forbids nothing
        allowed = [[full] * n for _ in range(n)]
        step = max(1, INDEX_CHUNK_CELLS // n)
        rows = np.arange(step)
        for lo in range(0, len(a), step):
            A = a[lo:lo + step]
            B = b[lo:lo + step]
            DA = D[A]
            DB = D[B]
            dab = D[A, B][:, None]
            # u completes a bad triple with (a, b) when it lies between them
            # (DA + DB == dab) or one of them lies between it and the other
            # (|DA - DB| == dab); a and b themselves are never forbidden
            ok = DA + DB != dab
            DA -= DB
            np.abs(DA, out=DA)
            ok &= DA != dab
            r = rows[:len(A)]
            ok[r, A] = True
            ok[r, B] = True
            for x, y, mask in zip(A.tolist(), B.tolist(), _pack_rows(ok)):
                allowed[x][y] = allowed[y][x] = mask
        return cls(n, allowed)

    def bad_with(self, a: int, b: int) -> set[int]:
        return _bits(((1 << self.n) - 1) ^ self._allowed[a][b])

    def allowed_tables(self) -> list[list[int]]:
        """allowed[a][b] = vertices NOT completing a bad triple with the
        pair (a, b).  This is what the search intersects; the tables are
        the index's own, not a copy."""
        return self._allowed


def _bits(mask: int) -> set[int]:
    out = set()
    while mask:
        b = mask & -mask
        out.add(b.bit_length() - 1)
        mask ^= b
    return out


# ----------------------------------------------------------------------
# symmetry

@functools.cache
def _factor_generators(kind: str, n: int, fixed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphisms of a ``kind`` factor on n vertices
    that the search uses, restricted to those fixing every vertex in the
    bitset ``fixed``; the only place a factor family's group is named.

    ``C n``: the rotation and a reflection while nothing is fixed, then the
    reflection x -> c - x (mod n) if one fixes every fixed vertex.  ``P n``:
    the reversal, while every fixed vertex is the middle one.  ``K n`` and
    the leaves of ``S k``: a transposition and a cycle of the vertices not
    fixed (one permutation when two are moved).  An explicit factor is
    taken as asymmetric.  No generator is the identity, so the group is
    trivial exactly when there is none.
    """
    fixed_at = [u for u in range(n) if fixed >> u & 1]
    if kind == "cycle":
        if not fixed_at:
            return tuple((a + 1) % n for a in range(n)), tuple(-a % n for a in range(n))
        c = 2 * fixed_at[0] % n
        if all(2 * u % n == c for u in fixed_at):
            return (tuple((c - a) % n for a in range(n)),)
    elif kind == "path":
        if n > 1 and all(2 * u == n - 1 for u in fixed_at):
            return (tuple(range(n - 1, -1, -1)),)
    elif kind in ("complete", "star"):
        moved = [a for a in range(kind == "star", n) if not fixed >> a & 1]  # a star's centre stays put
        if len(moved) >= 2:
            swap, cycle = list(range(n)), list(range(n))
            swap[moved[0]], swap[moved[1]] = moved[1], moved[0]
            for a, b in zip(moved, moved[1:] + moved[:1]):
                cycle[a] = b
            return (tuple(swap),) if len(moved) == 2 else (tuple(swap), tuple(cycle))
    return ()


@functools.cache
def _factor_orbits(kind: str, n: int, fixed: int) -> tuple[tuple[int, ...], tuple]:
    """(lows, steps) for the group of :func:`_factor_generators`.  ``lows[x]``
    is the smallest vertex of x's orbit.  ``steps`` is a Schreier vector:
    None at each orbit's smallest vertex, else (h, h[x]) for a generator h,
    one step nearer to it, so following the steps from x composes a product
    of generators taking x to ``lows[x]``.  A walk from each smallest vertex
    over the generators' inverse images records both, in O(n) memory where
    whole permutations per vertex would take O(n^2)."""
    gens = _factor_generators(kind, n, fixed)
    inverses = [sorted(range(n), key=h.__getitem__) for h in gens]
    lows = [-1] * n
    steps: list = [None] * n
    for x in range(n):
        if lows[x] < 0:
            lows[x] = x
            todo = [x]
            for y in todo:
                for h, inv in zip(gens, inverses):
                    z = inv[y]
                    if lows[z] < 0:
                        lows[z] = x
                        steps[z] = (h, y)
                        todo.append(z)
    return tuple(lows), tuple(steps)


class _Prefix(dict):
    """Stabilizer state of one search prefix, with its orbit table
    (:meth:`_Symmetry.orbits`), built when the state is created: ``mask``
    is the bitset of its orbit-minimal vertices.  Item v is the state of
    the prefix extended by v, or None once the stabilizer acts trivially,
    derived on first use; ``tau`` caches the transversals of
    :meth:`_Symmetry.transversal`."""

    __slots__ = ("sym", "fixed", "classes", "mask", "low", "orbit", "keep", "tau")

    def __init__(self, sym: "_Symmetry", fixed, classes):
        self.sym = sym
        self.fixed = fixed
        self.classes = classes
        self.tau = {}
        sym.orbits(self)

    def __bool__(self):
        return True  # a state is a state even before any child is derived

    def __missing__(self, v: int) -> "_Prefix | None":
        child = self[v] = self.sym.extend(self, v)
        return child


class _Symmetry:
    """The automorphisms of a product read off its spec, and the pointwise
    stabilizers of search prefixes.

    For a prefix S, the group K_S is generated by the factor automorphisms
    of :func:`_factor_generators` at each position p that fix every value S
    uses at p, and by the permutations of same-label positions whose columns
    in S are identical; the empty prefix gives the whole group.  A vertex is
    the smallest in its K_S-orbit iff each coordinate is the smallest in
    its factor orbit and the coordinates on each class of positions are
    non-decreasing; :meth:`orbits` applies that rule to every vertex at
    once.  A prefix's state keeps the values used at each position as
    bitsets and its classes, so a child's state follows from its parent's
    in O(#factors).  States are memoised for the search, and the factor
    orbits of :func:`_factor_orbits` for the process.
    """

    def __init__(self, g: ProductGraph):
        self.g = g
        n = g.total_vertices
        self.full = (1 << n) - 1
        groups: dict[str, list[int]] = {}
        for p, f in enumerate(g.factors):
            if f.label is not None and f.n > 1:  # one-vertex positions swap no vertex
                groups.setdefault(f.label, []).append(p)
        self.classes = tuple(tuple(ps) for ps in groups.values() if len(ps) > 1)
        self.families = [(f.kind, f.n) for f in g.factors]
        self._states: dict[tuple, _Prefix] = {}
        # coordinates of every vertex, one row each
        self._grid = np.arange(n)[:, None] // g.strides % g.sizes

    def root(self) -> _Prefix | None:
        """State of the empty prefix."""
        return self._state([(p, 0) for p in range(len(self.g.factors))], self.classes)

    def extend(self, state: _Prefix, v: int) -> _Prefix | None:
        coords = self.g.decode(v)
        classes = []
        for cls in state.classes:
            by_value: dict[int, list[int]] = {}
            for p in cls:
                by_value.setdefault(coords[p], []).append(p)
            classes += [tuple(ps) for ps in by_value.values() if len(ps) > 1]
        return self._state([(p, u | 1 << coords[p]) for p, u in state.fixed], tuple(sorted(classes)))

    def _state(self, fixed, classes) -> _Prefix | None:
        """The state for the given (position, fixed values) pairs and
        classes, or None when its group is trivial.  A position whose
        factor group is already trivial stays trivial as values are added,
        so it is dropped from the state."""
        live = tuple((p, u) for p, u in fixed if _factor_generators(*self.families[p], u))
        if not live and not classes:
            return None
        key = (live, classes)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _Prefix(self, live, classes)
        return state

    # -- orbit leaders -------------------------------------------------

    def orbits(self, state: _Prefix) -> None:
        """Fill ``state.low`` (the smallest vertex of each vertex's orbit
        under the state's group), ``state.orbit`` (each orbit's bitset, by
        its smallest vertex), ``state.keep`` (by the same key t, the bitset
        of the vertices whose orbit's smallest vertex is at least t) and
        ``state.mask`` (the bitset of those keys, the orbit-minimal
        vertices).  A vertex's minimum takes each coordinate to the smallest
        vertex of its factor orbit, then sorts each class's values
        ascending; numpy does this for every vertex at once."""
        X = self._grid.copy()
        for p, u in state.fixed:
            X[:, p] = np.asarray(_factor_orbits(*self.families[p], u)[0])[X[:, p]]
        for cls in state.classes:
            X[:, cls] = np.sort(X[:, cls], axis=1)
        low = (X @ self.g.strides).tolist()
        orbit: dict[int, int] = {}
        for x, c in enumerate(low):
            orbit[c] = orbit.get(c, 0) | 1 << x
        keep = {}
        rest = self.full
        mask = 0
        for c in sorted(orbit):
            keep[c] = rest
            rest ^= orbit[c]
            mask |= 1 << c
        state.low, state.orbit, state.keep, state.mask = low, orbit, keep, mask

    def transversal(self, state: _Prefix, v: int) -> list[int]:
        """A permutation of the flat indices, taken from ``state``'s group,
        that maps ``v`` to the smallest vertex of its orbit.  Per position
        the product of generators along the steps of :func:`_factor_orbits`
        takes the coordinate to its orbit minimum; then each class's
        positions are permuted so that its values ascend."""
        tau = state.tau.get(v)
        if tau is not None:
            return tau
        maps: list = [range(size) for size in self.g.sizes]
        w = list(self.g.decode(v))
        for p, u in state.fixed:
            steps = _factor_orbits(*self.families[p], u)[1]
            while steps[w[p]] is not None:
                h, w[p] = steps[w[p]]
                maps[p] = [h[a] for a in maps[p]]
        dest = list(range(len(maps)))
        for cls in state.classes:
            for q, p in zip(cls, sorted(cls, key=lambda p: (w[p], p))):
                dest[p] = q
        tau = state.tau[v] = self._flat_map(maps, dest)
        return tau

    def generators(self) -> list[list[int]]:
        """Permutations of the flat indices that generate the whole group
        (the root's): per position the generators of
        :func:`_factor_generators`, and per class the transpositions of
        adjacent positions.  Empty when the group is trivial."""
        same = list(range(len(self.g.sizes)))
        plain = [range(size) for size in self.g.sizes]
        gens = []
        for p, family in enumerate(self.families):
            for h in _factor_generators(*family):
                gens.append(self._flat_map(plain[:p] + [h] + plain[p + 1:], same))
        for cls in self.classes:
            for p, q in zip(cls, cls[1:]):
                dest = list(same)
                dest[p], dest[q] = q, p
                gens.append(self._flat_map(plain, dest))
        return gens

    def _flat_map(self, maps, dest) -> list[int]:
        """The permutation of the flat indices that takes a vertex x to the
        vertex whose coordinate at position dest[p] is maps[p][x_p]."""
        tau = [0]
        for p, h in enumerate(maps):
            stride = self.g.strides[dest[p]]
            tau = [a + b * stride for a in tau for b in h]
        return tau

    def orbit_weight(self, state: _Prefix, T: list[int], deadline: float | None = None) -> int:
        """|orbit of T| under ``state``'s group K if the ascending set ``T``
        is the lexicographically least set of that orbit, else 0.

        Level i works in K_i, the pointwise stabilizer of T[:i] in K, and
        asks for the least value T[i] can take in an image of T.  If a
        member of T maps below T[i], T is not least; the other members
        mapping onto T[i] are its ties.  Along T's own path, where every
        T[i] is the least of its K_i-orbit, K_{i+1} is the state of
        T[:i+1], so the orbit-stabilizer theorem gives
        |K| = |K_m| * prod_i |K_i T[i]| and |Stab_K(T)| = |K_m| * prod_i
        reach_i, where reach_i counts T[i] and the ties from which some
        element of K_i maps T onto itself.  The orbit size is the ratio of
        the two products, so no group order and no stabilizer element is
        needed.  :meth:`_image_search` settles each tie and stops at the
        first element mapping T onto itself; it polls the clock, so the
        search's time budget covers the test.
        """
        bits = 0
        for x in T:
            bits |= 1 << x
        chain: list[_Prefix] = []
        ties = []
        for t in T:  # bits holds T from t on
            keep = state.keep.get(t)
            if keep is None or bits & ~keep:
                return 0
            bits ^= 1 << t
            ties.append(bits & state.orbit[t])
            chain.append(state)
            if not bits:
                break
            state = state[t]
            if state is None:
                break
        size = reach = 1
        for i, tie in enumerate(ties):
            size *= chain[i].orbit[T[i]].bit_count()
            onto = 1
            while tie:
                y = (tie & -tie).bit_length() - 1
                tie &= tie - 1
                tau = self.transversal(chain[i], y)
                found = self._image_search(chain, i + 1, [tau[u] for u in T], T, deadline)
                if found < 0:
                    return 0
                onto += found
            reach *= onto
        weight, rest = divmod(size, reach)
        if rest:
            raise RuntimeError(f"orbit product {size} is not divisible by {reach}")
        return weight

    def _image_search(self, chain, j: int, U: list[int], T: list[int], deadline) -> int:
        """Compare the images of the set ``U`` (which holds T[:j]) under
        ``chain[j]`` with T: -1 if one is smaller, else 1 if one equals T,
        else 0.  It returns at the first image equal to T: then U and T
        share an orbit, whose smaller images level j of
        :meth:`orbit_weight` already looks for."""
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted
        image = sorted(U)
        if image == T or j == len(chain):
            return -1 if image < T else int(image == T)
        state = chain[j]
        t = T[j]
        done = T[:j]
        rest = [x for x in U if x not in done]
        lows = [state.low[x] for x in rest]
        if min(lows) != t:
            return -1 if min(lows) < t else 0
        for y, c in zip(rest, lows):
            if c == t:
                tau = self.transversal(state, y)
                found = self._image_search(chain, j + 1, [tau[u] for u in U], T, deadline)
                if found:
                    return found
        return 0


# ----------------------------------------------------------------------
# search core

def _dfs(allowed, starts, witness, limits, slack, sets=None):
    """Depth-first branch and bound behind the max-search, counting and
    enumeration.

    ``starts`` lists the (S, cand, weight, state) roots, searched in order;
    ``witness`` is the incumbent set, so the search starts from
    best = len(witness).  A subtree is cut unless it can reach best + slack
    vertices: ``slack=1`` only looks for larger sets, ``slack=0`` also
    reaches every set that ties the best.  ``sets``, when given, receives
    every set of the final best size reached, in the order reached
    (lexicographic).  Until a larger set resets it, ``sets`` also holds the
    ties of each smaller best size met on the way.  The node budget in
    ``limits`` counts the nodes of all roots together; 0 stops before any.

    ``state`` is None, or the :class:`_Prefix` of S: then each node
    branches only on the orbit-minimal vertices of its prefix's stabilizer
    and drops the candidates whose orbit starts below the branch vertex,
    until a prefix's stabilizer acts trivially and its subtree runs the
    plain loop.  The filter keeps the lex-first maximum set for the
    max-search and the orbit leaders for counting and enumeration (see the
    module docstring).  Counting keeps ties under a state (``slack=0``
    without ``sets``, with S = [r]) by orbit leaders: a set S + T adds its
    root's weight times the size of T's orbit under the state's group if T
    is the orbit's lexicographically least set, else nothing.  Under a
    state, ``sets`` receives only the sets the filter reaches, the least
    set of every orbit among them, for the caller to close under the
    group.

    Returns (best, count, witness, nodes, complete): ``count`` sums the
    weight of each set of size best reached, an argument of ``rec`` and
    ``rec_sym``: the start's weight, times T's orbit sizes once a counting
    subtree runs the plain loop.  ``witness`` is the first of those sets
    (the given one if none beat it), and ``complete`` is False when the
    budget ran out.
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
    # next node count at which the budget is polled: under a deadline the
    # first node polls the clock, so an expired limit stops a small search
    check_at = min(max_nodes, 1 if deadline is not None else step)

    def rec(S, rows, cand, weight):
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
                rec(S, rows, nc, weight)
                rows.pop()
                S.pop()

    def rec_sym(S, rows, cand, state, size, tie, chosen, weight):
        # rec for a prefix whose stabilizer moves some vertex: branch only
        # on the orbit-minimal candidates, and pass down from v only the
        # candidates whose orbit starts at or above v.  When counting (lead
        # is set), T is S without its root and ``chosen`` is T as a bitset;
        # ``size`` is the product of the orbit sizes of T's members, each
        # under the state it was chosen in, and ``tie`` the union of those
        # orbits less the members themselves.  A set that meets no tie is
        # the leader of an orbit of ``size`` sets; one that does goes to
        # orbit_weight.  Below a trivial stabilizer with a tie still within
        # reach, state is None.
        nonlocal best, bar, count, witness, nodes, check_at
        k = len(S)
        k1 = k + 1
        branch = cand if state is None else cand & state.mask
        while branch:
            bit = branch & -branch
            cand &= -bit  # the candidates below v are skipped or done
            if k + cand.bit_count() < bar:
                return
            branch ^= bit
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
            vsize, vtie = size, tie
            if state is not None:
                nc &= state.keep[v]  # a set with a member below v's orbit is not least
                if lead is not None:
                    orbit = state.orbit[v]
                    vsize *= orbit.bit_count()
                    vtie |= orbit ^ bit
            if k1 >= best:
                w = weight
                if lead is not None:
                    w *= orbit_weight(lead, S[1:] + [v], deadline) if (chosen | bit) & tie else vsize
                if k1 > best:
                    best = k1
                    bar = best + slack
                    count = w
                    witness = S + [v]
                    if sets is not None:
                        sets[:] = [witness]
                else:
                    count += w
                    if sets is not None:
                        sets.append(S + [v])
            if nc and k1 + nc.bit_count() >= bar:
                S.append(v)
                rows.append(allowed[v])
                child = None if state is None else state[v]
                if child is not None or vtie & (chosen | bit | nc):
                    rec_sym(S, rows, nc, child, vsize, vtie, chosen | bit, weight)
                else:  # no symmetry and no tie within reach: every set below weighs the same
                    rec(S, rows, nc, weight * vsize)
                rows.pop()
                S.pop()

    lead = orbit_weight = None  # when counting, the root's state and its weigher
    try:
        if max_nodes == 0:
            raise BudgetExhausted
        for S, cand, weight, state in starts:
            lead = state if slack == 0 and sets is None else None
            if lead is not None:
                orbit_weight = lead.sym.orbit_weight
            rows = [allowed[v] for v in S]
            if state is None:
                rec(list(S), rows, cand, weight)
            else:
                rec_sym(list(S), rows, cand, state, 1, 0, 0, weight)
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
    return BadTripleIndex.build(g, cap=None).allowed_tables()  # cap checked above


def gp_exact(
    g,
    limits: SearchLimits | None = None,
    cap: int | None = DEFAULT_SEARCH_CAP,
) -> SearchResult:
    """Exact maximum general position set of ``g``.

    Deterministic: the witness is the lexicographically first maximum set
    in flat-index order; each node branches only on the orbit-minimal
    vertices of its prefix's stabilizer (see the module docstring).  With a
    budget, an exhausted search returns ``complete=False`` and the best set
    found.
    """
    g = _as_product(g)
    n = g.total_vertices
    started = time.monotonic()
    allowed = _allowed_tables(g, cap, "exact search")
    start = ([], (1 << n) - 1, 1, _Symmetry(g).root())
    best, _, witness, nodes, complete = _dfs(allowed, [start], [0], limits, slack=1)
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
    root = _Symmetry(g).root()
    # keys ascend, as low[x] <= x; a trivial group leaves every vertex its own orbit
    orbits = {r: 1 << r for r in range(n)} if root is None else root.orbit
    starts = [([r], full ^ (1 << r), orbit.bit_count(), None if root is None else root[r])
              for r, orbit in orbits.items()]
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
    lexicographic order.  The symmetric DFS reaches the least set of every
    orbit of maximum sets, and a closure under the group's generators adds
    the rest of each orbit (see the module docstring).
    """
    g = _as_product(g)
    allowed = _allowed_tables(g, cap, "enumeration")
    sym = _Symmetry(g)
    start = ([], (1 << g.total_vertices) - 1, 1, sym.root())
    sets: list[list[int]] = []
    best = _dfs(allowed, [start], [], None, slack=0, sets=sets)[0]
    seen = set(map(tuple, sets))  # each set as its ascending tuple
    todo = list(seen)
    gens = sym.generators()
    while todo:
        members = todo.pop()
        for h in gens:
            image = tuple(sorted(map(h.__getitem__, members)))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    coords = list(g.vertices())
    return best, [tuple(map(coords.__getitem__, s)) for s in sorted(seen)]


def _induced_subgraph(g: ProductGraph, members: list[Coord]):
    """Explicit induced subgraph on the given validated coordinates; raises
    if it is disconnected or not isometric in g (reporting a violating pair)."""
    ids, D = g.distance_table(members)
    adj = [[j for j, y in enumerate(ids) if D[x][y] == 1] for x in ids]
    try:
        sub = FactorGraph.explicit(adj)
    except ValueError as exc:
        raise ValueError(f"cover set is not usable: {exc}") from exc
    for i, x in enumerate(ids):
        row, host = sub.dist[i], D[x]
        for j in range(i + 1, len(ids)):
            if row[j] != host[ids[j]]:
                raise ValueError(
                    f"subgraph not isometric: pair {members[i]}, {members[j]} "
                    f"has induced distance {row[j]} but host distance {host[ids[j]]}"
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
    induced subgraphs.  Raises :class:`BudgetExhausted` when ``limits``
    stops the search of any of them.
    """
    g = _as_product(g)
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
        piece = _induced_subgraph(g, [g.decode(i) for i in flats])
        res = gp_exact(ProductGraph([piece]), limits=limits)
        if not res.complete:  # a piece's best found is no upper bound
            raise BudgetExhausted(f"cover bound budget exhausted on a piece of {len(flats)} vertices")
        total += res.gp_value
    return total
