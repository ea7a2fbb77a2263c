"""Graph families, Cartesian products, and exact distances.

Factor graphs (paths, cycles, complete graphs, stars, or explicit
adjacency) are small: their all-pairs distances are computed on first
use, cached, and refused above ``MAX_FACTOR_VERTICES`` vertices.  A spec
is its list of at most ``MAX_PRODUCT_FACTORS`` factors, and ``build``
refuses a factor over that limit, then a product over its vertex cap,
before building the one factor graph that each distinct factor shares.
Products are never materialized for metric queries: the distance between
two product vertices is the sum of the factor distances, coordinate by
coordinate.  ``ProductGraph.flat_matrix`` is the only code that sums them
into a table, over all vertices (cached on products with at most
``FLAT_TABLE_MAX_VERTICES`` vertices) or over given members, with one
sum per distinct factor over all its positions: a float32 matrix product
of the members' one-hot coordinates with its table's rows on a factor of
at most ``ONE_HOT_MAX_VERTICES`` vertices, a gather from its table on a
larger one.  Each factor keeps its numpy tables, and each product its
factors' positions, so no call rebuilds them.
``ProductGraph.distance_table`` hands one of those matrices to the
checkers: the cached one, or on larger products the queried members' own.
``ProductGraph.distance`` sums a single pair.

Vertex conventions: ``P n`` has vertices 0..n-1 in path order, ``C n``
has vertices 0..n-1 in cyclic order (arithmetic mod n), ``S k`` is the
star with k leaves where vertex 0 is the center and 1..k are the leaves.

Graph specs use a compact grammar (ASCII, no whitespace):

    spec    := product | power
    product := factor ('x' factor)*
    power   := factor '^' uint
    factor  := ('P'|'C'|'K'|'S'|'Q') uint

``P5xC7`` is the product of a 5-vertex path and a 7-cycle, ``K2^10`` the
10-dimensional hypercube, and ``Q10`` is shorthand for ``K2^10``;
``C7xC7`` and ``C7^2`` are the same spec, written ``C7^2``.

Flat vertex indices of a product follow the mixed-radix encoding with
the *last* factor varying fastest, so flat order equals lexicographic
order on coordinate tuples.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from math import prod
from numbers import Integral

import numpy as np

Coord = tuple[int, ...]

DEFAULT_VERTEX_CAP = 10**6

# A factor's all-pairs table is quadratic in its vertices, so larger
# factors are refused: a spec factor before its adjacency is built, any
# factor before its table is.  C2000's table of 4 x 10^6 entries takes
# about 120 MB as nested tuples of ints.
MAX_FACTOR_VERTICES = 2000

# Hosts with at most this many vertices keep one flat all-pairs matrix
# (at most 200^2 entries) that every distance query reads.  On larger hosts,
# where a query's members are a tiny share of the vertices, each query takes
# the matrix of its own members only, from the same flat_matrix.
FLAT_TABLE_MAX_VERTICES = 200

# Cells per chunk of a numpy pass, in bad_pair_rows over (pair, vertex)
# cells and in ProductGraph.flat_matrix over (member, member), (member,
# position and coordinate) or (position, pair) cells: their buffers stay
# near a megabyte on every matrix instead of growing with the work
PAIR_CHUNK_CELLS = 1 << 16

# ProductGraph.flat_matrix sums a factor with at most this many vertices by
# a float32 matrix product, a larger one by a gather from its table.  On 2
# and 10 positions of cycles, paths and complete graphs with 62-500
# members the product took 0.11-0.68 of the gather's time up to 32
# vertices, 0.52-1.0 at 64, 0.92-1.24 at 96 and 1.1-1.76 at 192; on one
# position with 8-27 members it was 2-9% slower up to 32 (2-core x86-64
# VM, Python 3.11.7, numpy 2.4.6 on OpenBLAS 0.3.31).  A product sum is
# at most MAX_PRODUCT_FACTORS * 31 < 2^24, so float32 holds every partial
# sum exactly, in any order.
ONE_HOT_MAX_VERTICES = 32

# Factors a spec may have, counting ``Qn`` and ``F^n`` as n each; the
# parser refuses more from the counts alone, before it lists any.  A
# bad-triple probability multiplies one fraction per factor, of
# denominator at most MAX_FACTOR_VERTICES^3, so its exact denominator
# stays below 2000^768 < 10^2536, inside Python's 4300-digit int-to-text
# limit.
MAX_PRODUCT_FACTORS = 256


class GraphSpecError(ValueError):
    """Bad graph-spec text.  ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class VertexCapError(ValueError):
    """A requested construction exceeds the configured vertex cap."""


def show_count(n: int) -> str:
    """``n`` as text for an error message; a count too long for Python to
    convert to text is shown by its power of two."""
    return str(n) if n.bit_length() <= 64 else f"2^{n.bit_length() - 1} or more"


def _refuse_a_large_factor(name: str, n: int) -> None:
    if n > MAX_FACTOR_VERTICES:
        raise VertexCapError(f"{name} has {show_count(n)} vertices, above the limit of {MAX_FACTOR_VERTICES}")


def _refuse_many_factors(name: str, count: int) -> None:
    if count > MAX_PRODUCT_FACTORS:
        raise VertexCapError(f"{name} has {show_count(count)} factors, above the limit of {MAX_PRODUCT_FACTORS}")


def _spec_text(tokens) -> str:
    """Canonical spec text: ``F^n`` if all n > 1 tokens agree, else joined with ``x``."""
    if len(tokens) > 1 and all(t == tokens[0] for t in tokens):
        return f"{tokens[0]}^{len(tokens)}"
    return "x".join(tokens)


def _bfs_lengths(adj: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


class FactorGraph:
    """A small connected undirected graph with cached BFS distances.

    ``kind`` is one of ``path``, ``cycle``, ``complete``, ``star``,
    ``explicit``; ``label`` is the spec token (``"C7"``) for the named
    families and ``None`` for explicit graphs.
    """

    __slots__ = ("kind", "n", "adj", "label", "_dist", "_table", "_one_hot")

    def __init__(self, adjacency):
        sets = [set(ns) for ns in adjacency]
        adj = tuple(tuple(sorted(ns)) for ns in sets)
        n = len(adj)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, ns in enumerate(adj):
            for w in ns:
                if not 0 <= w < n:
                    raise ValueError(f"neighbor {w} of vertex {u} out of range")
                if w == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in sets[w]:
                    raise ValueError(f"adjacency not symmetric: {u}->{w}")
        if -1 in _bfs_lengths(adj, 0):
            raise ValueError("graph is not connected")
        self.kind, self.n, self.adj, self.label = "explicit", n, adj, None
        self._dist = self._table = self._one_hot = None

    # ------------------------------------------------------------------
    # constructors for the standard families, valid by construction, so the
    # checks of explicit input are skipped; all rows share tuple(range(n))'s ints

    @classmethod
    def _named(cls, kind: str, family: str, size: int, neighbours) -> "FactorGraph":
        """The factor ``family`` + ``size`` of ``_FAMILIES``, refused below
        its least size; ``neighbours(r, i)`` lists vertex i's neighbours in r."""
        problem = _below_least_size(family, size)
        if problem:
            raise ValueError(problem)
        g, r = object.__new__(cls), tuple(range(size + _FAMILIES[family][3]))
        g.kind, g.n, g.adj, g.label = kind, len(r), tuple(neighbours(r, i) for i in r), f"{family}{size}"
        g._dist = g._table = g._one_hot = None
        return g

    @classmethod
    def path(cls, n: int) -> "FactorGraph":
        return cls._named("path", "P", n, lambda r, i: r[max(i - 1, 0):i] + r[i + 1:i + 2])

    @classmethod
    def cycle(cls, n: int) -> "FactorGraph":
        return cls._named("cycle", "C", n, lambda r, i: tuple(sorted((r[i - 1], r[(i + 1) % n]))))

    @classmethod
    def complete(cls, n: int) -> "FactorGraph":
        return cls._named("complete", "K", n, lambda r, i: r[:i] + r[i + 1:])

    @classmethod
    def star(cls, k: int) -> "FactorGraph":
        """Star with k leaves; vertex 0 is the center, 1..k the leaves."""
        return cls._named("star", "S", k, lambda r, i: r[1:] if i == 0 else r[:1])

    @classmethod
    def explicit(cls, adjacency) -> "FactorGraph":
        return cls(adjacency)

    # ------------------------------------------------------------------

    @property
    def dist(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs distance table, computed once by per-source BFS;
        refused above ``MAX_FACTOR_VERTICES`` vertices."""
        if self._dist is None:
            _refuse_a_large_factor(self.label or "an explicit factor", self.n)
            if self.kind == "complete":  # written directly: its BFS is cubic
                self._dist = tuple((1,) * u + (0,) + (1,) * (self.n - 1 - u) for u in range(self.n))
            else:
                self._dist = tuple(tuple(_bfs_lengths(self.adj, s)) for s in range(self.n))
        return self._dist

    @property
    def table(self) -> np.ndarray:
        """:attr:`dist` as a read-only numpy array, in the narrowest dtype
        that holds n - 1 (a distance is below n), made on first use and
        kept: 8 MB of uint16 beside the tuples for 2000 vertices."""
        if self._table is None:
            self._table = np.asarray(self.dist, dtype=np.min_scalar_type(self.n - 1))
            self._table.setflags(write=False)
        return self._table

    def _operands(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`table` in float32 and the float32 one-hot of each vertex
        (the n x n identity): the two operands of
        :meth:`ProductGraph.flat_matrix`'s product sum, read-only, made on
        first use and kept."""
        if self._one_hot is None:
            self._one_hot = self.table.astype(np.float32), np.eye(self.n, dtype=np.float32)
            for a in self._one_hot:
                a.setflags(write=False)
        return self._one_hot

    def __repr__(self):
        return f"FactorGraph({self.label or self.kind}, n={self.n})"


class ProductGraph:
    """Ordered Cartesian product of factor graphs.

    Two vertices are adjacent iff they differ in exactly one coordinate
    and that pair is an edge of its factor; distances add coordinate-wise.
    ``sizes`` holds each factor's order and ``strides`` each position's
    weight in the flat index (the last position varies fastest).
    """

    __slots__ = ("factors", "total_vertices", "sizes", "strides", "_groups", "_flat")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors
        self.sizes = tuple(f.n for f in factors)
        strides = [1] * len(factors)
        for i in range(len(factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        self.total_vertices = prod(self.sizes)
        groups: dict[FactorGraph, list[int]] = {}
        for i, f in enumerate(factors):
            groups.setdefault(f, []).append(i)
        # each distinct factor with its positions, which flat_matrix sums at once
        self._groups = tuple(groups.items())
        self._flat = None

    @property
    def spec(self) -> str | None:
        """Canonical spec string, or None if some factor is explicit."""
        tokens = [f.label for f in self.factors]
        return None if None in tokens else _spec_text(tokens)

    def check_coord(self, v) -> Coord:
        v = tuple(v)
        if len(v) != len(self.factors):
            raise ValueError(f"coordinate {v} has {len(v)} entries, expected {len(self.factors)}")
        for c, size in zip(v, self.sizes):
            if type(c) is not int:
                # other integer types (numpy.int64) are converted; bool is not
                # an integer coordinate here
                if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in v):
                    raise ValueError(f"coordinate {v}: entries must be integers")
                return self.check_coord(tuple(int(x) for x in v))
            if not 0 <= c < size:
                raise ValueError(f"coordinate {v} out of range for sizes {self.sizes}")
        return v

    def encode(self, coords) -> int:
        coords = self.check_coord(coords)
        return sum(c * s for c, s in zip(coords, self.strides))

    def decode(self, index: int) -> Coord:
        if not 0 <= index < self.total_vertices:
            raise ValueError(f"flat index {index} out of range")
        out = []
        for s, size in zip(self.strides, self.sizes):
            out.append((index // s) % size)
        return tuple(out)

    def vertices(self):
        """All coordinate tuples in flat-index order."""
        for i in range(self.total_vertices):
            yield self.decode(i)

    def factor_dist_tables(self):
        """Per-factor all-pairs tables (each cached on its factor); basis of
        additive distance."""
        return tuple(f.dist for f in self.factors)

    def distance(self, u, v) -> int:
        u = self.check_coord(u)
        v = self.check_coord(v)
        tables = self.factor_dist_tables()
        return sum(t[a][b] for t, a, b in zip(tables, u, v))

    def flat_matrix(self, members=None):
        """Read-only numpy matrix of distances, summed over the factor
        tables: between all vertices on flat indices, or between the given
        valid coordinate tuples in their order.  Each distinct factor is
        summed once over all its positions, grouped when the host is made,
        from constants it keeps, so a call converts no table.  A factor
        with at most ``ONE_HOT_MAX_VERTICES`` vertices adds one float32
        product F E^T per chunk of its positions:
        F holds the rows of its kept float32 table at the members'
        coordinates there, E the rows of its kept one-hot.  A larger
        factor's :attr:`FactorGraph.table` is gathered, in its narrowest
        dtype, at chunks of its positions.  Either way the work is written
        in blocks of at most ``PAIR_CHUNK_CELLS`` cells.  The all-vertex
        matrix is cached on hosts with at most ``FLAT_TABLE_MAX_VERTICES``
        vertices; every other matrix is built afresh."""
        if members is None and self._flat is not None:
            return self._flat
        if members is None:
            flat = np.arange(self.total_vertices)
            columns = np.array([(flat // stride) % size for stride, size in zip(self.strides, self.sizes)])
        else:
            columns = np.fromiter(chain.from_iterable(members), dtype=np.intp).reshape(-1, len(self.sizes)).T
        m = columns.shape[1]
        D = np.zeros((m, m), dtype=np.int32)
        rows = max(1, PAIR_CHUNK_CELLS // max(1, m))
        for f, at in self._groups:
            n = f.n
            if n <= ONE_HOT_MAX_VERTICES:
                table, one_hot = f._operands()
                step = max(1, PAIR_CHUNK_CELLS // max(1, m * n))
                for lo in range(0, len(at), step):
                    c = columns.take(at[lo:lo + step], axis=0).T
                    F = table.take(c, axis=0).reshape(m, c.shape[1] * n)
                    E = one_hot.take(c, axis=0).reshape(F.shape)
                    for r in range(0, m, rows):
                        D[r:r + rows] += (F[r:r + rows] @ E.T).astype(np.int32)
            else:
                table = f.table.ravel()
                step = max(1, PAIR_CHUNK_CELLS // max(1, m * m))
                for lo in range(0, len(at), step):
                    c = columns[at[lo:lo + step]]
                    D += table.take(c[:, :, None] * n + c[:, None, :]).sum(axis=0, dtype=np.int32)
        D.setflags(write=False)
        if members is None and m <= FLAT_TABLE_MAX_VERTICES:
            self._flat = D
        return D

    def distance_table(self, members) -> tuple[list[int], np.ndarray]:
        """``(ids, D)`` with ``D[ids[i], ids[j]]`` the distance between
        ``members[i]`` and ``members[j]``.

        ``members`` must already be valid coordinate tuples, and D is a
        read-only :meth:`flat_matrix`.  On a host with at most
        ``FLAT_TABLE_MAX_VERTICES`` vertices, ids are flat indices into the
        cached all-vertex matrix.  Above it, ids are positions into the
        members' own matrix.
        """
        if self.total_vertices <= FLAT_TABLE_MAX_VERTICES:
            strides = self.strides
            return [sum(map(int.__mul__, v, strides)) for v in members], self.flat_matrix()
        return list(range(len(members))), self.flat_matrix(members)

    def __repr__(self):
        return f"ProductGraph({self.spec or 'explicit'}, n={self.total_vertices})"


# ----------------------------------------------------------------------
# spec grammar

# Each family letter's name, least size, that size in words, vertices
# beyond its size (the star's centre) and factor constructor; ``Qn`` has no
# constructor, as the parser reads it as n factors ``K2``
_FAMILIES = {
    "P": ("path", 1, "1 vertex", 0, FactorGraph.path),
    "C": ("cycle", 3, "3 vertices", 0, FactorGraph.cycle),
    "K": ("complete graph", 1, "1 vertex", 0, FactorGraph.complete),
    "S": ("star", 1, "1 leaf", 1, FactorGraph.star),
    "Q": ("hypercube", 1, "1 dimension", 0, None),
}


def _below_least_size(family: str, size: int) -> str | None:
    """Why a ``family`` factor of this size is refused, or None if it is not."""
    name, least, in_words, _, _ = _FAMILIES[family]
    return f"{name} needs at least {in_words}" if size < least else None


@dataclass(frozen=True)
class FactorSpec:
    """One parsed factor token: family letter plus its size parameter."""

    family: str
    size: int

    @property
    def token(self) -> str:
        return f"{self.family}{self.size}"

    def vertex_count(self) -> int:
        return self.size + _FAMILIES[self.family][3]

    def build(self) -> FactorGraph:
        """The factor graph; :func:`build` has refused it above ``MAX_FACTOR_VERTICES`` vertices."""
        return _FAMILIES[self.family][4](self.size)


@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph spec: its factors, one entry per occurrence.

    ``C7^2`` and ``C7xC7`` are the same spec, and ``Qn`` is n entries
    ``K2``.  More than ``MAX_PRODUCT_FACTORS`` entries are refused.
    """

    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("spec needs at least one factor")
        if len(self.factors) > MAX_PRODUCT_FACTORS:  # the text only names a refusal
            _refuse_many_factors(self.canonical(), len(self.factors))

    def canonical(self) -> str:
        return _spec_text([f.token for f in self.factors])

    def vertex_count(self) -> int:
        # one power per distinct factor: a product over 256 huge entries is slow
        return prod(f.vertex_count() ** k for f, k in Counter(self.factors).items())


def _scan_uint(text: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i:
        raise GraphSpecError("expected an unsigned integer", offset=i)
    return int(text[i:j]), j


def _scan_factor(text: str, i: int) -> tuple[str, int, int]:
    if i >= len(text):
        raise GraphSpecError("expected a factor", offset=i)
    fam = text[i]
    if fam not in _FAMILIES:
        raise GraphSpecError(
            f"expected factor letter P, C, K, S or Q, found {fam!r}", offset=i
        )
    size, j = _scan_uint(text, i + 1)
    problem = _below_least_size(fam, size)
    if problem:
        raise GraphSpecError(f"{problem} (got {fam}{size})", offset=i)
    return fam, size, j


def parse_spec(text: str) -> GraphSpec:
    """Parse a graph-spec string; see the module docstring for the grammar.

    Raises :class:`GraphSpecError` with a byte offset on syntax errors and
    with an explanatory message on constraint violations such as ``C2``.
    More than ``MAX_PRODUCT_FACTORS`` factors, in any spelling, raise
    :class:`VertexCapError` from the summed counts, before any is listed.
    """
    if not isinstance(text, str):
        raise GraphSpecError("spec must be a string")
    terms: list[tuple[FactorSpec, int]] = []
    i = 0
    while True:
        fam, size, i = _scan_factor(text, i)
        factor, count = (FactorSpec("K", 2), size) if fam == "Q" else (FactorSpec(fam, size), 1)
        if not terms and i < len(text) and text[i] == "^":
            exponent, j = _scan_uint(text, i + 1)
            if exponent < 1:
                raise GraphSpecError("power exponent must be >= 1", offset=i + 1)
            if j != len(text):
                raise GraphSpecError(f"unexpected trailing text {text[j:]!r}", offset=j)
            count, i = count * exponent, j
        terms.append((factor, count))
        if i == len(text):
            break
        if text[i] != "x":
            raise GraphSpecError(
                f"expected 'x', '^' or end of spec, found {text[i]!r}", offset=i
            )
        i += 1
    _refuse_many_factors(text, sum(count for _, count in terms))
    return GraphSpec(tuple(f for f, count in terms for _ in range(count)))


def build(spec: GraphSpec | str, cap: int | None = DEFAULT_VERTEX_CAP) -> ProductGraph:
    """Instantiate the product graph described by ``spec`` (at most
    ``MAX_PRODUCT_FACTORS`` factors once parsed), one factor graph per
    distinct factor.

    Refuses a factor above ``MAX_FACTOR_VERTICES`` vertices, then products
    with more than ``cap`` vertices (default 10^6; ``cap=None`` disables
    this guard), before any factor is built.  The vertex count is thus a
    product of at most 256 factors of at most 2000 vertices each.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    distinct = dict.fromkeys(spec.factors)
    for f in distinct:
        _refuse_a_large_factor(f.token, f.vertex_count())
    if cap is not None:
        total = spec.vertex_count()
        if total > cap:
            raise VertexCapError(f"{spec.canonical()} has {show_count(total)} vertices, above the cap of {cap}")
    graphs = {f: f.build() for f in distinct}
    return ProductGraph([graphs[f] for f in spec.factors])


def explicit_adjacency(g: ProductGraph, cap: int | None = DEFAULT_VERTEX_CAP) -> FactorGraph:
    """Materialize a product as an explicit graph on flat indices.

    Mainly an oracle: BFS distances on the result must equal the additive
    product distance for every pair.
    """
    n = g.total_vertices
    if cap is not None and n > cap:
        raise VertexCapError(f"refusing to materialize {n} vertices (cap {cap})")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        coords = g.decode(i)
        for j, f in enumerate(g.factors):
            stride = g.strides[j]
            for w in f.adj[coords[j]]:
                adj[i].append(i + (w - coords[j]) * stride)
    return FactorGraph.explicit(adj)
