"""Exact gp-number computation and gp-set enumeration.

The search is a depth-first branch and bound over vertices in flat-index
order.  A precomputed :class:`BadTripleIndex` holds one word array: for
every vertex pair, the bitset of vertices completing no bad triple with
it, packed from the pair-row test :func:`~genpos.position.bad_pair_rows`
that the sampler shares.  The compiled loop reads the words; the Python
loop makes a row of ints from them when it first reads it.  Extending the
current set by v filters the candidate set with one AND per
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
trivially, the subtree runs the plain loop.

Before the max-search enters that plain subtree, it tests S setwise
(Margot's pruning by isomorphism, once per search path): S is skipped
when some automorphism h of the whole group makes sorted(h(S)) < S.  No
prefix P of S* is skipped.  h(P) lies in h(S*), so the j-th least member
of h(S*) is at most the j-th least of h(P) for every j; at the first
place where sorted(h(P)) falls below P, sorted(h(S*)) falls below S*
unless it already did earlier, and h(S*) is a maximum set, against S*
being the first.  The test drops subtrees and reaches no new set, so the
value and the witness do not change.  It is the min-image backtrack of
:meth:`_Symmetry.orbit_weight` run from the empty prefix's state and
costs tens of microseconds, so it runs only on subtrees with at least
``_LEADER_TEST_MIN_SPARE`` spare candidates, beyond those the bound needs
to beat the incumbent.  That gate was tuned against the Python plain
loop and has not been re-measured against the compiled one.  Nor does
it run on prefixes of one or two members, which pass it whenever some
automorphism t swaps the two, as on every product of cycles and
complete graphs.  s1 is the least of its orbit, no image of s2 lies
below s1 (the keep filter), and s2 is the least of its orbit under
Stab(s1).  So an image below (s1, s2) can only be {s1, g(s1)} with
g(s2) = s1; then gt fixes s1, and g(s1) = gt(s2) >= s2.  Counting and
enumeration do not run the test.

The search runs in one process, so the value, the witness and the node
count are the same on every run; a node budget stops it at the same node
every time.

Every plain subtree, of the max-search, counting, enumeration and the
cover bound's pieces, runs compiled: ``_plain.c`` is the plain loop in C,
with the Python loop's branching order, cut, node count, budget polls,
witness and tie updates, so values, counts, witnesses, set lists and node
counts do not change.  The sets that need Python go back to it through a
callback: counting weighs each set that meets a tie
(:meth:`_Symmetry.orbit_weight`), and enumeration lists every set.  The
loop is compiled and loaded on the first plain subtree
(:func:`_load_plain`); if that fails, the one Python loop, ``rec_sym``,
runs those subtrees without a state, and :func:`plain_loop_backend` says
which one does.  The node and time budgets are polled inside the
compiled loop, and a callback's exceptions, the time budget's among
them, reach the caller unchanged; but a Ctrl-C lands only at the next
callback or when its subtree returns.

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
root whose stabilizer moves nothing weighs |orbit(r)| per set.  Once no
stabilizer is left, a subtree runs the plain loop: each set weighs the
subtree's constant weight, or the leaf test's if it meets a tie.

Enumeration runs the max-search's symmetric DFS from the empty prefix,
keeping ties.  By the argument above the lexicographically least set of
each orbit of maximum sets under the whole group is reached, as its path
is never cut, so closing the reached sets under the group's generators
(:meth:`_Symmetry.generators`) lists every maximum set.  The closure walks
the orbits of the sets themselves, so its cost is the size of the output;
no group element beyond the generators is formed.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import importlib.resources
import os
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Coord, FactorGraph, ProductGraph, VertexCapError
from .position import GpSet, bad_pair_rows

DEFAULT_SEARCH_CAP = 200
DEFAULT_ENUM_CAP = 64

_TIME_CHECK_EVERY = 1024  # nodes between polls of the budget clock
_NO_LIMIT = 1 << 62  # a node count no search reaches
_LEADER_TEST_MIN_SPARE = 20  # spare candidates a plain subtree needs for the setwise test


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


def flat_distance_matrix(g: ProductGraph) -> np.ndarray:
    """Read-only distance matrix on flat indices (``ProductGraph.flat_matrix``).
    On hosts of at most ``FLAT_TABLE_MAX_VERTICES`` vertices it is the
    host's cached matrix, so the index build and witness certification
    share one build."""
    return g.flat_matrix()


def _word_ints(words: np.ndarray) -> list[int]:
    """Rows of 64-bit words (:func:`_allowed_tables`) as Python-int
    bitsets, each combined from its top word down."""
    out = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        out = [x << 64 | w for x, w in zip(out, words[:, k].tolist())]
    return out


def _refuse_above(n: int, cap: int | None) -> None:
    """The search's size check, run before any distance is summed."""
    if cap is not None and n > cap:
        raise VertexCapError(f"bad-triple index refused for {n} vertices (cap {cap})")


def _allowed_tables(D: np.ndarray) -> np.ndarray:
    """The (n, n, W) uint64 word array of the vertices 0..n-1 of the
    distance matrix ``D``: words[a, b] is the bitset of vertices completing
    no bad triple with a and b, bit u in bit u % 64 of word u // 64,
    packed from the chunks of :func:`~genpos.position.bad_pair_rows`.  Its
    diagonal, which no search reads, is left zero."""
    n = D.shape[0]
    w = -(-n // 64)
    table = np.zeros((n, n, w), np.uint64)
    for A, B, bad in bad_pair_rows(D):
        ok = np.logical_not(bad, out=bad)
        # a and b themselves are never forbidden
        r = np.arange(len(A))
        ok[r, A] = True
        ok[r, B] = True
        packed = np.zeros((len(A), 8 * w), np.uint8)  # little-endian words, zero-padded
        packed[:, :-(-n // 8)] = np.packbits(ok, axis=1, bitorder="little")
        table[A, B] = table[B, A] = packed.view("<u8")
    return table


class _IntRows(dict):
    """Row a of the Python loop's int tables, made from words[a] when first read and kept."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def __missing__(self, a: int) -> list[int]:
        row = self[a] = _word_ints(self.words[a])
        return row


class BadTripleIndex:
    """Pair-indexed bitsets describing all bad triples of a host graph.

    ``bad_with(a, b)`` holds every u such that {a, b, u} is a bad triple,
    whichever of the three is in the middle.  Its one table is ``words``
    (:func:`_allowed_tables`), which the compiled plain loop reads; the
    build holds besides it the distance matrix and one chunk of
    :func:`~genpos.position.bad_pair_rows` at a time.  :meth:`build` is
    the size check of the exact search, counting and enumeration.
    """

    __slots__ = ("n", "words", "_rows")

    def __init__(self, words: np.ndarray):
        self.n = len(words)
        self.words = words
        self._rows = _IntRows(words)

    @classmethod
    def build(cls, g: ProductGraph, cap: int | None = DEFAULT_SEARCH_CAP) -> "BadTripleIndex":
        """The index of ``g``, refused above ``cap`` vertices before any
        distance is summed (``cap=None`` disables the guard)."""
        _refuse_above(g.total_vertices, cap)
        return cls(_allowed_tables(flat_distance_matrix(g)))

    def bad_with(self, a: int, b: int) -> set[int]:
        return _bits(((1 << self.n) - 1) ^ self._rows[a][b]) if a != b else set()

    def allowed_tables(self) -> dict[int, list[int]]:
        """allowed[a][b] = vertices NOT completing a bad triple with the
        pair (a, b), a != b.  This is what the Python loop intersects; its
        rows are made from ``words`` as they are first read."""
        return self._rows


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
        search's time budget covers the test.  From the empty prefix's
        state, a nonzero weight is the max-search's setwise leader test.
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
# compiled plain loop

_loaded = None  # the compiled loop once loaded, False when it cannot be
_WEIGHER = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int64)  # the loop's callback for a tied set


def _plain_loop():
    """``genpos_plain`` from ``_plain.c``, compiled and loaded on first use,
    or None if that fails; the search then runs the Python loop, with the
    same results."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = _load_plain()
        except Exception:  # no compiler, no cache, no loader: the fallback is exact
            _loaded = False
    return _loaded or None


def plain_loop_backend() -> str:
    """"c" when the plain subtrees of searches without a set list run
    compiled, else "python" (loads the compiled loop if no search has
    yet)."""
    return "c" if _plain_loop() else "python"


def _load_plain():
    """Compile ``_plain.c`` with ``$CC`` (default ``cc``) into
    ``$XDG_CACHE_HOME/genpos`` (default ``~/.cache/genpos``), keyed by the
    source's sha256, or into a directory for this process when the cache
    cannot be written, and load it."""
    import hashlib  # imported here, as importing genpos need not pay for it

    source = importlib.resources.files(__package__).joinpath("_plain.c").read_bytes()
    name = f"plain-{hashlib.sha256(source).hexdigest()[:16]}.so"
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "genpos")
    path = os.path.join(cache, name)
    if not os.path.isfile(path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:
            cache = tempfile.mkdtemp(prefix="genpos-")
            atexit.register(shutil.rmtree, cache, True)
            path = os.path.join(cache, name)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        import shlex
        import subprocess

        try:
            cc = shlex.split(os.environ.get("CC") or "cc")
            subprocess.run(cc + ["-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", tmp],
                           input=source, capture_output=True, check=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    fn = ctypes.CDLL(path).genpos_plain
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = ctypes.c_int
    return fn


class _PlainCall:
    """One search's buffer for the compiled loop, in the int64 words that
    ``_plain.c`` reads: n, W, the weigher's address, improved, ties; k,
    best, nodes, check_at, max_nodes, step, timed, slack, tied and the
    seconds remaining (a double); then the prefix (n words), the witness
    (n), the tie mask (W) and the candidate stack.  A bytearray, not a
    ctypes array: ctypes keeps an array type only while an array of it
    lives, and building the type again cost about 20 us a search.  The
    remaining time and the weigher go in the buffer, not as arguments:
    ctypes converted each in about 0.2-0.4 us a call.

    ``weigh(S)`` weighs a tied set, given its whole path S + [v]; the loop
    calls it back through ``_weigh``, which sums the weights of the tied
    sets of the largest size reached.  An exception in ``weigh`` stops the
    loop and is handed back to be raised: left to ctypes, it would be
    printed and dropped, and the count would be wrong."""

    def __init__(self, loop, words, slack, weigh):
        n, _, w = words.shape
        self.loop = loop
        self.width = 8 * w
        self.witness = 120 + 8 * n  # byte offsets of the witness,
        self.tie_at = 120 + 16 * n  # the tie mask
        self.cand = self.tie_at + self.width  # and the candidate stack
        self.buf = bytearray(self.cand + (n + 1) * self.width)
        self.slack = slack
        self.tie = 0  # the tie mask in the buffer
        self.weigh = weigh
        self.error = None  # the exception that stopped the weigher
        self.callback = _WEIGHER(self._weigh)  # kept while the loop may call it
        struct.pack_into("2qQ", self.buf, 0, n, w, ctypes.cast(self.callback, ctypes.c_void_p).value)
        self.views = (ctypes.c_char.from_buffer(words), ctypes.c_char.from_buffer(self.buf))
        self.args = tuple(map(ctypes.addressof, self.views))

    def _weigh(self, k1):
        # a tied set of k1 >= best members, S[:k1] in the buffer; a larger
        # set than the last one weighed starts a new sum, as a new best
        # resets the count
        try:
            w = self.weigh(list(struct.unpack_from(f"{k1}q", self.buf, 120)))
            if k1 > self.weighed:
                self.weighed, self.weight = k1, w
            else:
                self.weight += w
        except BaseException as exc:  # KeyboardInterrupt and the budget's stop too
            self.error = exc
            return 1
        return 0

    def __call__(self, S, cand, tie, tied, best, nodes, check_at, max_nodes, step, remaining):
        """The plain subtree of S and ``cand`` in C, with the search's
        slack, weighing the sets that meet ``tie`` (``tied``: S already
        does): (best, nodes, check_at, the last new best's witness or
        None, untied sets and the summed weights of tied ones of the final
        best size, and what stopped the loop: 0 nothing, 1 the budget, 2
        ``self.error``)."""
        buf = self.buf
        k = len(S)
        struct.pack_into(f"9qd{k}q", buf, 40, k, best, nodes, check_at, max_nodes, step, remaining is not None,
                         self.slack, tied, remaining or 0.0, *S)
        if tie != self.tie:
            buf[self.tie_at:self.cand] = tie.to_bytes(self.width, "little")
            self.tie = tie
        buf[self.cand:self.cand + self.width] = cand.to_bytes(self.width, "little")
        self.weighed = self.weight = 0  # size and summed weight of the largest tied sets reached
        stopped = self.loop(*self.args)
        improved, ties, _, best, nodes, check_at = struct.unpack_from("6q", buf, 24)
        witness = list(struct.unpack_from(f"{best}q", buf, self.witness)) if improved else None
        weight = self.weight if self.weighed == best else 0
        return best, nodes, check_at, witness, ties, weight, stopped


# ----------------------------------------------------------------------
# search core

def _dfs(index, starts, witness, limits, slack, sets=None):
    """Depth-first branch and bound behind the max-search, counting and
    enumeration, on the :class:`BadTripleIndex` ``index``: the compiled
    loop reads its words, the Python loop the int rows made from them.

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
    module docstring).  In the max-search (``slack=1`` from the empty
    prefix, whose state is the whole group's), a prefix S whose subtree
    runs the plain loop is first tested setwise: if S has at least three
    members and at least ``_LEADER_TEST_MIN_SPARE`` candidates beyond the
    bound's need (|S| + |cand| - bar), the subtree is skipped unless S is
    the lexicographically least set of its orbit under the whole group
    (:meth:`_Symmetry.orbit_weight` from that state); every prefix of the
    lex-first maximum set passes.  Counting keeps ties under a state
    (``slack=0`` without ``sets``, with S = [r]) by orbit leaders: a set
    S + T adds its root's weight times the size of T's orbit under the
    state's group if T is the orbit's lexicographically least set, else
    nothing.  Under a state, ``sets`` receives only the sets the filter
    reaches, the least set of every orbit among them, for the caller to
    close under the group.

    Returns (best, count, witness, nodes, complete): ``count`` sums the
    weight of each set of size best reached: the start's weight, times T's
    orbit sizes once a counting subtree runs the plain loop.  ``witness``
    is the first of those sets (the given one if none beat it), and
    ``complete`` is False when the budget ran out.

    Every subtree below a trivial stabilizer runs in the compiled loop of
    ``_plain.c`` when it loads, with the same slack: the same nodes in the
    same order, the same budget polls, and the same returns.  The sets
    that need Python go back to it through the loop's weigher, called for
    each set of at least the best size that meets the subtree's tie mask,
    before the best is updated.  Counting's mask is the union of its
    members' orbits: the loop counts the untied sets at the subtree's
    weight, and the weigher runs ``orbit_weight`` on each tied one.
    Enumeration's mask holds every vertex, so the weigher lists each set in
    ``sets``.  An exception raised there stops the loop and is raised again
    from ``rec_plain`` once the nodes, best and count so far are read back.
    Without the compiled loop, the same subtrees run ``rec_sym`` without a
    state, which visits the same nodes.
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

    allowed = index.allowed_tables()
    plain = None  # the compiled loop's buffers, made at the first plain subtree; False: the Python loop

    def weigh(S):
        # a tied set the compiled loop reached: counting weighs it without
        # its root; enumeration lists it (a larger set starts a new list)
        # and counts it once, as rec_sym does
        if sets is None:
            return orbit_weight(lead, S[1:], deadline)
        if not sets or len(S) > len(sets[0]):
            sets[:] = [S]
        else:
            sets.append(S)
        return 1

    def rec_plain(S, rows, cand, weight, size=1, tie=0, chosen=0):
        # a subtree below a trivial stabilizer: in the compiled loop when it
        # loads, else rec_sym without a state
        nonlocal best, bar, count, witness, nodes, check_at, plain
        if plain is None:
            loop = _plain_loop()
            plain = _PlainCall(loop, index.words, slack, weigh) if loop else False
        if not plain:
            return rec_sym(S, rows, cand, None, size, tie, chosen, weight)
        if sets is not None:
            tie = (1 << index.n) - 1  # every set goes to the weigher, which lists it
        elif not tie & (chosen | cand):
            tie = 0
        remaining = None if deadline is None else deadline - time.monotonic()
        best, nodes, check_at, found, ties, tied, stopped = plain(
            S, cand, tie, bool(tie & chosen), best, nodes, check_at, max_nodes, step, remaining)
        bar = best + slack
        if found is not None:
            witness = found
            count = 0
        count += weight * (size * ties + tied)
        if stopped:
            raise BudgetExhausted if stopped == 1 else plain.error

    def rec_sym(S, rows, cand, state, size, tie, chosen, weight):
        # the Python loop.  With a state, whose stabilizer moves some
        # vertex, branch only on the orbit-minimal candidates, and pass down
        # from v only the candidates whose orbit starts at or above v; with
        # none, below a trivial stabilizer when the compiled loop is not
        # there, branch on every candidate.  When counting (lead is set), T
        # is S without its root and ``chosen`` is T as a bitset; ``size`` is
        # the product of the orbit sizes of T's members, each under the
        # state it was chosen in, and ``tie`` the union of those orbits less
        # the members themselves.  A set that meets no tie is the leader of
        # an orbit of ``size`` sets; one that does goes to orbit_weight.
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
                if child is not None or state is None:
                    # a subtree already plain goes on in this loop: the
                    # setwise test below runs once per path
                    rec_sym(S, rows, nc, child, vsize, vtie, chosen | bit, weight)
                elif group is None or k1 < 3 or k1 + nc.bit_count() - bar < _LEADER_TEST_MIN_SPARE \
                        or orbit_weight(group, S, deadline):
                    # no symmetry: every set below weighs vsize unless it
                    # meets a tie; the max-search first drops S if some
                    # automorphism maps it below itself
                    rec_plain(S, rows, nc, weight, vsize, vtie, chosen | bit)
                rows.pop()
                S.pop()

    # counting's root state, the max-search's whole-group state, and the
    # orbit weigher that both call
    lead = group = orbit_weight = None
    try:
        if max_nodes == 0:
            raise BudgetExhausted
        for S, cand, weight, state in starts:
            lead = state if slack == 0 and sets is None else None
            group = state if slack and not S else None
            if state is not None:
                orbit_weight = state.sym.orbit_weight
            rows = [allowed[v] for v in S]
            if state is None:
                rec_plain(list(S), rows, cand, weight)
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
    index = BadTripleIndex.build(g, cap)
    start = ([], (1 << n) - 1, 1, _Symmetry(g).root())
    best, _, witness, nodes, complete = _dfs(index, [start], [0], limits, slack=1)
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
    index = BadTripleIndex.build(g, cap)
    if n == 1:
        return 1, 1
    full = (1 << n) - 1
    root = _Symmetry(g).root()
    # keys ascend, as low[x] <= x; a trivial group leaves every vertex its own orbit
    orbits = {r: 1 << r for r in range(n)} if root is None else root.orbit
    starts = [([r], full ^ (1 << r), orbit.bit_count(), None if root is None else root[r])
              for r, orbit in orbits.items()]
    best, count, _, _, complete = _dfs(index, starts, [], limits, slack=0)
    if not complete:
        reached = f"; the largest set reached had {best} vertices" if best else ""
        raise BudgetExhausted(f"count of maximum gp-sets: budget exhausted{reached}")
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
    index = BadTripleIndex.build(g, cap)
    sym = _Symmetry(g)
    start = ([], (1 << g.total_vertices) - 1, 1, sym.root())
    sets: list[list[int]] = []
    best = _dfs(index, [start], [], None, slack=0, sets=sets)[0]
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


def isometric_cover_bound(
    g,
    cover,
    limits: SearchLimits | None = None,
) -> int:
    """Upper bound on gp(g) from a cover of its vertices.

    Each element of ``cover`` is a collection of coordinate tuples, and
    together they must cover all vertices.  A gp-set S of g meets each set
    V_i in a set in general position under g's distances d_G, so
    |S| <= sum_i gp_G(V_i), and gp_G(V_i) = gp(G[V_i]) whenever G[V_i] is
    isometric (the paper's cover lemma).  Each gp_G(V_i) is a plain DFS
    on the index of d_G among V_i, refused above ``DEFAULT_SEARCH_CAP``
    vertices.  Raises :class:`BudgetExhausted` when ``limits`` stops the
    search of any set, as a best-found value is no upper bound.
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
        m = len(flats)
        _refuse_above(m, DEFAULT_SEARCH_CAP)
        index = BadTripleIndex(_allowed_tables(g.flat_matrix([g.decode(i) for i in flats])))
        best, _, _, _, complete = _dfs(index, [([], (1 << m) - 1, 1, None)], [0], limits, slack=1)
        if not complete:
            raise BudgetExhausted(f"cover bound budget exhausted on a piece of {m} vertices")
        total += best
    return total
