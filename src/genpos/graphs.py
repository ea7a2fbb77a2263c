"""Graph families, Cartesian products, and exact distances.

Factor graphs (paths, cycles, complete graphs, stars, or explicit
adjacency) are small: their all-pairs distances are computed on first
use, cached, and refused above ``MAX_FACTOR_VERTICES`` vertices.  A spec
is its list of at most ``MAX_PRODUCT_FACTORS`` factors, and ``build``
refuses a product over its vertex cap before building the one factor
graph that each distinct factor shares.
Products are never materialized for metric queries: the distance between
two product vertices is the sum of the factor distances, coordinate by
coordinate.  ``ProductGraph.flat_matrix`` is the only code that sums them
into a numpy matrix, over all vertices (cached on products with at most
``FLAT_TABLE_MAX_VERTICES`` vertices) or over given members;
``ProductGraph.distance_table`` serves the checkers from the cached one,
or from the pair sums of the queried vertices on larger products.

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
from math import prod
from numbers import Integral

Coord = tuple[int, ...]

DEFAULT_VERTEX_CAP = 10**6

# A factor's all-pairs table is quadratic in its vertices, so larger
# factors are refused: a spec factor before its adjacency is built, any
# factor before its table is.  C2000's table of 4 x 10^6 entries takes
# about 120 MB as nested tuples of ints.
MAX_FACTOR_VERTICES = 2000

# Hosts with at most this many vertices keep one flat all-pairs matrix
# (at most 200^2 entries) that every distance query reads.  On larger hosts,
# where a query's members are a tiny share of the vertices, each query sums
# the distances between its own members only.
FLAT_TABLE_MAX_VERTICES = 200

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
        raise VertexCapError(f"{name} has {n} vertices, above the limit of {MAX_FACTOR_VERTICES}")


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

    __slots__ = ("kind", "n", "adj", "label", "_dist")

    def __init__(self, kind: str, adjacency, label: str | None = None):
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
        self.kind = kind
        self.n = n
        self.adj = adj
        self.label = label
        self._dist = None

    # ------------------------------------------------------------------
    # constructors for the standard families

    @classmethod
    def path(cls, n: int) -> "FactorGraph":
        if n < 1:
            raise ValueError("path needs at least 1 vertex")
        adj = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
        return cls("path", adj, f"P{n}")

    @classmethod
    def cycle(cls, n: int) -> "FactorGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
        return cls("cycle", adj, f"C{n}")

    @classmethod
    def complete(cls, n: int) -> "FactorGraph":
        if n < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        adj = [[j for j in range(n) if j != i] for i in range(n)]
        return cls("complete", adj, f"K{n}")

    @classmethod
    def star(cls, k: int) -> "FactorGraph":
        """Star with k leaves; vertex 0 is the center, 1..k the leaves."""
        if k < 1:
            raise ValueError("star needs at least 1 leaf")
        adj = [list(range(1, k + 1))] + [[0] for _ in range(k)]
        return cls("star", adj, f"S{k}")

    @classmethod
    def explicit(cls, adjacency) -> "FactorGraph":
        return cls("explicit", adjacency, None)

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

    def distance(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: {u}, {v} (n={self.n})")
        return self.dist[u][v]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def __repr__(self):
        return f"FactorGraph({self.label or self.kind}, n={self.n})"


class ProductGraph:
    """Ordered Cartesian product of factor graphs.

    Two vertices are adjacent iff they differ in exactly one coordinate
    and that pair is an edge of its factor; distances add coordinate-wise.
    ``sizes`` holds each factor's order and ``strides`` each position's
    weight in the flat index (the last position varies fastest).
    """

    __slots__ = ("factors", "total_vertices", "sizes", "strides", "_flat", "_flat_rows")

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
        self._flat = None
        self._flat_rows = None

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
        valid coordinate tuples in their order.  The all-vertex matrix is
        cached on hosts with at most ``FLAT_TABLE_MAX_VERTICES`` vertices;
        every other matrix is built afresh."""
        if members is None and self._flat is not None:
            return self._flat
        import numpy as np  # only the flat matrix needs numpy

        if members is None:
            flat = np.arange(self.total_vertices)
            columns = [(flat // stride) % size for stride, size in zip(self.strides, self.sizes)]
        else:
            columns = np.array(members, dtype=np.intp).reshape(-1, len(self.sizes)).T
        m = len(columns[0])
        D = np.zeros((m, m), dtype=np.int32)
        for t, c in zip(self.factor_dist_tables(), columns):
            D += np.asarray(t, dtype=np.int32)[c[:, None], c[None, :]]
        D.setflags(write=False)
        if members is None and m <= FLAT_TABLE_MAX_VERTICES:
            self._flat = D
        return D

    def distance_table(self, members) -> tuple[list[int], list[list[int]]]:
        """``(ids, D)`` with ``D[ids[i]][ids[j]]`` the distance between
        ``members[i]`` and ``members[j]``.

        ``members`` must already be valid coordinate tuples.  On a host with
        at most ``FLAT_TABLE_MAX_VERTICES`` vertices, ids are flat indices
        into the cached flat matrix (shared, never to be written).  Above
        it, ids are positions and D is a fresh table over the members, each
        pair distance summed once.
        """
        if self.total_vertices <= FLAT_TABLE_MAX_VERTICES:
            if self._flat_rows is None:
                self._flat_rows = self.flat_matrix().tolist()
            strides = self.strides
            return [sum(map(int.__mul__, v, strides)) for v in members], self._flat_rows
        tables = self.factor_dist_tables()
        m = len(members)
        D = [[0] * m for _ in range(m)]
        for i, u in enumerate(members):
            row = D[i]
            for j in range(i + 1, m):
                row[j] = D[j][i] = sum([t[a][b] for t, a, b in zip(tables, u, members[j])])
        return list(range(m)), D

    def __repr__(self):
        return f"ProductGraph({self.spec or 'explicit'}, n={self.total_vertices})"


# ----------------------------------------------------------------------
# spec grammar

_FAMILIES = "PCKSQ"
_MIN_SIZE = {"P": 1, "C": 3, "K": 1, "S": 1, "Q": 1}
_FAMILY_NAME = {"P": "path", "C": "cycle", "K": "complete graph", "S": "star", "Q": "hypercube"}


@dataclass(frozen=True)
class FactorSpec:
    """One parsed factor token: family letter plus its size parameter."""

    family: str
    size: int

    @property
    def token(self) -> str:
        return f"{self.family}{self.size}"

    def vertex_count(self) -> int:
        return self.size + (1 if self.family == "S" else 0)

    def build(self) -> FactorGraph:
        """The factor graph; refused above ``MAX_FACTOR_VERTICES`` vertices before any adjacency is built."""
        _refuse_a_large_factor(self.token, self.vertex_count())
        if self.family == "P":
            return FactorGraph.path(self.size)
        if self.family == "C":
            return FactorGraph.cycle(self.size)
        if self.family == "K":
            return FactorGraph.complete(self.size)
        if self.family == "S":
            return FactorGraph.star(self.size)
        raise ValueError(f"unknown family {self.family!r}")


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
    if size < _MIN_SIZE[fam]:
        unit = {"S": "leaf", "Q": "dimension"}.get(fam, "vertices")
        raise GraphSpecError(
            f"{_FAMILY_NAME[fam]} needs at least {_MIN_SIZE[fam]} {unit}"
            f" (got {fam}{size})",
            offset=i,
        )
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

    Refuses products with more than ``cap`` vertices (default 10^6;
    ``cap=None`` disables this guard) before any factor is built, and a
    factor above ``MAX_FACTOR_VERTICES`` vertices before its adjacency is.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if cap is not None:
        total = spec.vertex_count()
        if total > cap:
            raise VertexCapError(f"{spec.canonical()} has {show_count(total)} vertices, above the cap of {cap}")
    graphs = {f: f.build() for f in dict.fromkeys(spec.factors)}
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
