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
read off the spec (see :class:`_Symmetry`).  The reported witness is
still the lexicographically first maximum set S*: along its path, if some
sigma in K_S mapped s_{k+1} below itself, sigma(S*) would be a
lex-smaller maximum set.  It keeps s1..sk and gains sigma(s_{k+1}), which
lies below every member of S* that it lacks.  So S* is searched, and the
value is unchanged.  One orbit table per prefix state
(:meth:`_Symmetry.orbits`) decides which vertices are orbit-minimal; at
the empty prefix K_S is the whole group, whose table also gives counting
its roots.  Once K_S acts trivially, the subtree runs the plain loop.
The search runs in one process, so the value, the witness and the node
count are the same on every run; a node budget stops it at the same node
every time.

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
whose orbit under its state starts below the vertex it branches on.
Another member in t_{i+1}'s orbit under K_i is a tie.  A set without
ties has every
reach_i = 1 and weighs the product of its members' orbit sizes, carried
down the search; a set with one runs the leaf test
(:meth:`_Symmetry.orbit_weight`), a min-image backtrack over the states'
orbit tables and cached transversal permutations that stops at the first
element mapping T onto itself.  A root whose stabilizer moves nothing
weighs |orbit(r)| per set, and once no stabilizer and no tie is left, a
subtree runs the plain loop with its constant weight.  Enumeration lists
the sets themselves and keeps one root over every vertex.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import Coord, FactorGraph, ProductGraph, VertexCapError
from .position import GpSet, between

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

    __slots__ = ("n", "_allowed")

    def __init__(self, n: int, allowed: list[list[int]]):
        self.n = n
        self._allowed = allowed

    @classmethod
    def build(cls, g: ProductGraph, cap: int | None = DEFAULT_SEARCH_CAP) -> "BadTripleIndex":
        D = flat_distance_matrix(g, cap=cap)
        n = D.shape[0]
        btw = between(D, slice(None))  # btw[y, x, z]: x between y and z
        idx = np.arange(n)
        btw[idx, idx, :] = False
        btw[:, idx, idx] = False
        # bad[a, b, u]: u between a and b, a between u and b, or b between a and u
        bad = (
            np.transpose(btw, (0, 2, 1))
            | np.transpose(btw, (1, 2, 0))
            | btw
        ).reshape(n * n, n)
        # packbits pads with zero bits, so no mask reaches past vertex n-1
        allowed_flat = _pack_rows(~bad)
        return cls(n, [allowed_flat[i * n:(i + 1) * n] for i in range(n)])

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

def _orbit_lows(f: FactorGraph, fixed: int) -> tuple[int, ...]:
    """``lo[x]`` is the smallest vertex in the orbit of x under the
    automorphisms of ``f`` used here that fix every vertex in the bitset
    ``fixed``.

    ``C n``: all rotations and reflections while nothing is fixed, then the
    reflection x -> c - x (mod n) if one fixes every fixed vertex.  ``P n``:
    the reversal, while every fixed vertex is the middle one.  ``K n`` and
    the leaves of ``S k``: every permutation of the vertices not fixed.  An
    explicit factor is taken as asymmetric.
    """
    n = f.n
    if f.kind == "cycle":
        if not fixed:
            return (0,) * n
        centres = {2 * u % n for u in range(n) if fixed >> u & 1}
        if len(centres) == 1:
            c = centres.pop()
            return tuple([min(x, (c - x) % n) for x in range(n)])
    elif f.kind == "path":
        if all(2 * u == n - 1 for u in range(n) if fixed >> u & 1):
            return tuple([min(x, n - 1 - x) for x in range(n)])
    elif f.kind in ("complete", "star"):
        first = 1 if f.kind == "star" else 0  # a star's centre stays put
        moved = [x for x in range(first, n) if not fixed >> x & 1]
        lows = list(range(n))
        for x in moved:
            lows[x] = moved[0]
        return tuple(lows)
    return tuple(range(n))


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
    of :func:`_orbit_lows` at each position p that fix every value S uses
    at p, and by the permutations of same-label positions whose columns in
    S are identical; the empty prefix gives the whole group.  A vertex is
    the smallest in its K_S-orbit iff each coordinate is the smallest in
    its factor orbit and the coordinates on each class of positions are
    non-decreasing; :meth:`orbits` applies that rule to every vertex at
    once.  A prefix's state keeps the values used at each position as
    bitsets and its classes, so a child's state follows from its parent's
    in O(#factors).  States and factor orbits are memoised for the search.
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
        self._lows: dict[tuple[str, int, int], tuple[int, ...]] = {}  # by (kind, n, fixed)
        self._states: dict[tuple, _Prefix] = {}
        # coordinates of every vertex, one row each
        self._grid = np.arange(n)[:, None] // g.strides % g.sizes

    def lows(self, p: int, fixed: int) -> tuple[int, ...]:
        f = self.g.factors[p]
        key = (f.kind, f.n, fixed)
        if key not in self._lows:
            self._lows[key] = _orbit_lows(f, fixed)
        return self._lows[key]

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
        live = tuple((p, u) for p, u in fixed if self.lows(p, u) != tuple(range(self.g.sizes[p])))
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
            X[:, p] = np.asarray(self.lows(p, u))[X[:, p]]
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
        that maps ``v`` to the smallest vertex of its orbit.  Per position a
        factor automorphism fixing the prefix's values there moves the
        coordinate to its orbit minimum; then each class's positions are
        permuted so that its values ascend."""
        tau = state.tau.get(v)
        if tau is not None:
            return tau
        maps: list = [range(size) for size in self.g.sizes]
        w = list(self.g.decode(v))
        for p, u in state.fixed:
            lo = self.lows(p, u)[w[p]]
            if lo != w[p]:
                maps[p] = _factor_move(self.g.factors[p], w[p], lo)
                w[p] = lo
        dest = list(range(len(maps)))
        for cls in state.classes:
            for q, p in zip(cls, sorted(cls, key=lambda p: (w[p], p))):
                dest[p] = q
        tau = [0]
        for p, h in enumerate(maps):
            stride = self.g.strides[dest[p]]
            tau = [a + b * stride for a in tau for b in h]
        state.tau[v] = tau
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


def _factor_move(f: FactorGraph, x: int, lo: int) -> tuple[int, ...]:
    """An automorphism of ``f`` taking x to lo, where lo != x is the least
    of x's orbit under a group of :func:`_orbit_lows`, chosen from that
    group: on a cycle or a path the reflection a -> x + lo - a (on a cycle
    the only one moving a vertex once some vertex is fixed, on a path the
    reversal), and on ``K n`` and the leaves of ``S k`` the transposition."""
    n = f.n
    if f.kind in ("cycle", "path"):
        return tuple((x + lo - a) % n for a in range(n))
    h = list(range(n))
    h[x], h[lo] = lo, x
    return tuple(h)


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
    branches only on the orbit-minimal vertices of its prefix's stabilizer,
    until a prefix's stabilizer acts trivially and its subtree runs the
    plain loop.  Keeping ties under a state (``slack=0``: counting, with
    S = [r]) needs orbit leaders, as the module docstring describes: a set
    S + T adds its root's weight times the size of T's orbit under the
    state's group if T is the orbit's lexicographically least set, else
    nothing.

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
        # on the orbit-minimal candidates.  When counting (lead is set), T
        # is S without its root and ``chosen`` is T as a bitset; ``size``
        # is the product of the orbit sizes of T's members, each under the
        # state it was chosen in, and ``tie`` the union of those orbits
        # less the members themselves.  A set that meets no tie is the
        # leader of an orbit of ``size`` sets; one that does goes to
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
            if lead is not None and state is not None:
                orbit = state.orbit[v]
                vsize *= orbit.bit_count()
                vtie |= orbit ^ bit
                nc &= state.keep[v]  # a set with a member below v's orbit is not least
            if k1 >= best:
                w = weight
                if lead is not None:
                    w *= orbit_weight(lead, S[1:] + [v], deadline) if (chosen | bit) & tie else vsize
                if k1 > best:
                    best = k1
                    bar = best + slack
                    count = w
                    witness = S + [v]
                else:
                    count += w
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
            lead = state if slack == 0 else None
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
    return BadTripleIndex.build(g, cap=cap).allowed_tables()


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
    lexicographic order.
    """
    g = _as_product(g)
    allowed = _allowed_tables(g, cap, "enumeration")
    root = ([], (1 << g.total_vertices) - 1, 1, None)
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
    induced subgraphs.  Raises :class:`BudgetExhausted` when ``limits``
    stops the search of any of them.
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
        res = gp_exact(ProductGraph([_induced_subgraph(g, D, flats)]), limits=limits)
        if not res.complete:  # a piece's best found is no upper bound
            raise BudgetExhausted(f"cover bound budget exhausted on a piece of {len(flats)} vertices")
        total += res.gp_value
    return total
