"""Graph families, Cartesian products, and exact distances.

Factor graphs (paths, cycles, complete graphs, stars, or explicit
adjacency) are small; their all-pairs distances come from per-source BFS
and are cached on first use.  Products are never materialized for metric
queries: the distance between two product vertices is the sum of the
factor distances, coordinate by coordinate.  A product with at most
``FLAT_TABLE_MAX_VERTICES`` vertices caches the resulting flat all-pairs
matrix; ``ProductGraph.distance_table`` serves the checkers from it, or
from the pair sums of the queried vertices on larger products.

Vertex conventions: ``P n`` has vertices 0..n-1 in path order, ``C n``
has vertices 0..n-1 in cyclic order (arithmetic mod n), ``S k`` is the
star with k leaves where vertex 0 is the center and 1..k are the leaves.

Graph specs use a compact grammar (ASCII, no whitespace):

    spec    := product | power
    product := factor ('x' factor)*
    power   := factor '^' uint
    factor  := ('P'|'C'|'K'|'S'|'Q') uint

``P5xC7`` is the product of a 5-vertex path and a 7-cycle, ``K2^10`` the
10-dimensional hypercube, and ``Q10`` is shorthand for ``K2^10``.

Flat vertex indices of a product follow the mixed-radix encoding with
the *last* factor varying fastest, so flat order equals lexicographic
order on coordinate tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod
from numbers import Integral

Coord = tuple[int, ...]

DEFAULT_VERTEX_CAP = 10**6

# All-pairs tables are quadratic; factors beyond this are refused rather
# than silently eating memory.
_FACTOR_DIST_CAP = 20000

# Hosts with at most this many vertices keep one flat all-pairs matrix
# (at most 200^2 entries) that every distance query reads.  On larger hosts,
# where a query's members are a tiny share of the vertices, each query sums
# the distances between its own members only.
FLAT_TABLE_MAX_VERTICES = 200

# Factor entries a product spec may list (``Qn`` lists n).  The power form
# ``F^n`` keeps n as a number when parsed; ``build`` refuses it above this
# many factors, since it makes one factor graph per unit of the exponent.
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
        adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        n = len(adj)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, ns in enumerate(adj):
            for w in ns:
                if not 0 <= w < n:
                    raise ValueError(f"neighbor {w} of vertex {u} out of range")
                if w == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in adj[w]:
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
        """All-pairs distance table, computed once by per-source BFS."""
        if self._dist is None:
            if self.n > _FACTOR_DIST_CAP:
                raise VertexCapError(
                    f"all-pairs table refused for factor with {self.n} "
                    f"vertices (cap {_FACTOR_DIST_CAP})"
                )
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

    __slots__ = (
        "factors", "total_vertices", "sizes", "strides", "_factor_dists", "_flat", "_flat_rows",
    )

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
        self._factor_dists = None
        self._flat = None
        self._flat_rows = None

    @property
    def spec(self) -> str | None:
        """Canonical spec string, or None if some factor is explicit."""
        tokens = [f.label for f in self.factors]
        if any(t is None for t in tokens):
            return None
        if len(set(tokens)) == 1 and len(tokens) > 1:
            return f"{tokens[0]}^{len(tokens)}"
        return "x".join(tokens)

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
        """Per-factor all-pairs tables (cached); basis of additive distance."""
        if self._factor_dists is None:
            self._factor_dists = tuple(f.dist for f in self.factors)
        return self._factor_dists

    def distance(self, u, v) -> int:
        u = self.check_coord(u)
        v = self.check_coord(v)
        tables = self.factor_dist_tables()
        return sum(t[a][b] for t, a, b in zip(tables, u, v))

    def flat_matrix(self):
        """Read-only numpy matrix of all distances on flat indices, assembled
        additively from the factor tables.  Cached on hosts with at most
        ``FLAT_TABLE_MAX_VERTICES`` vertices, built afresh above that."""
        if self._flat is not None:
            return self._flat
        import numpy as np  # only the flat matrix needs numpy

        n = self.total_vertices
        D = np.zeros((n, n), dtype=np.int32)
        flat = np.arange(n)
        for t, stride, size in zip(self.factor_dist_tables(), self.strides, self.sizes):
            c = (flat // stride) % size
            D += np.asarray(t, dtype=np.int32)[c[:, None], c[None, :]]
        D.setflags(write=False)
        if n <= FLAT_TABLE_MAX_VERTICES:
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
    """Parsed graph spec: a product of factors, or one factor to a power.

    A plain product has ``exponent == 1``; the power form has a single
    entry in ``factors``.  ``Q n`` never survives parsing: it desugars to
    ``K2^n``.
    """

    factors: tuple[FactorSpec, ...]
    exponent: int = 1

    def __post_init__(self):
        if not self.factors:
            raise ValueError("spec needs at least one factor")
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")
        if self.exponent > 1 and len(self.factors) != 1:
            raise ValueError("power form applies to a single factor")

    def canonical(self) -> str:
        if self.exponent > 1:
            return f"{self.factors[0].token}^{self.exponent}"
        return "x".join(f.token for f in self.factors)

    def factor_list(self) -> list[FactorSpec]:
        if self.exponent > 1:
            return [self.factors[0]] * self.exponent
        return list(self.factors)

    def vertex_count(self) -> int:
        return prod(f.vertex_count() for f in self.factors) ** self.exponent


def _scan_uint(text: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i:
        raise GraphSpecError("expected an unsigned integer", offset=i)
    return int(text[i:j]), j


def _scan_factor(text: str, i: int) -> tuple[str, int, int, int]:
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
    return fam, size, i, j


def parse_spec(text: str) -> GraphSpec:
    """Parse a graph-spec string; see the module docstring for the grammar.

    Raises :class:`GraphSpecError` with a byte offset on syntax errors and
    with an explanatory message on constraint violations such as ``C2``.
    """
    if not isinstance(text, str):
        raise GraphSpecError("spec must be a string")
    fam, size, _, i = _scan_factor(text, 0)

    if i == len(text) or text[i] == "^":
        exponent = 1
        if i < len(text):
            exp_pos = i + 1
            exponent, i = _scan_uint(text, exp_pos)
            if exponent < 1:
                raise GraphSpecError("power exponent must be >= 1", offset=exp_pos)
            if i != len(text):
                raise GraphSpecError(f"unexpected trailing text {text[i:]!r}", offset=i)
        if fam == "Q":
            return GraphSpec((FactorSpec("K", 2),), size * exponent)
        return GraphSpec((FactorSpec(fam, size),), exponent)

    factors: list[FactorSpec] = []
    start = 0
    while True:
        count = size if fam == "Q" else 1
        if len(factors) + count > MAX_PRODUCT_FACTORS:
            raise GraphSpecError(
                f"a product may list at most {MAX_PRODUCT_FACTORS} factors"
                " (Qn counts n; write a power as F^n)",
                offset=start,
            )
        factors.extend([FactorSpec("K", 2) if fam == "Q" else FactorSpec(fam, size)] * count)
        if i == len(text):
            break
        if text[i] != "x":
            raise GraphSpecError(
                f"expected 'x', '^' or end of spec, found {text[i]!r}", offset=i
            )
        fam, size, start, i = _scan_factor(text, i + 1)
    if len(factors) > 1 and all(f == factors[0] for f in factors):
        return GraphSpec((factors[0],), len(factors))
    return GraphSpec(tuple(factors))


def build(spec: GraphSpec | str, cap: int | None = DEFAULT_VERTEX_CAP) -> ProductGraph:
    """Instantiate the product graph described by ``spec``.

    Refuses products with more than ``cap`` vertices (default 10^6);
    pass ``cap=None`` to disable the guard.  A power whose exponent alone
    puts it over the cap is refused without its exact vertex count, so
    ``K2^1000000000`` is refused at once.  Products of more than
    ``MAX_PRODUCT_FACTORS`` factors are refused whatever the cap, before
    any factor is built: ``P1^100000`` has one vertex but would build
    100000 factor graphs.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if cap is not None:
        base = prod(f.vertex_count() for f in spec.factors)
        e = spec.exponent
        if base > 1 and e > cap.bit_length():
            # base^e >= 2^e > cap; base^e itself can take seconds to compute
            shown = f"2^{e * (base.bit_length() - 1)} or more"
        else:
            total = base**e
            shown = None if total <= cap else show_count(total)
        if shown is not None:
            raise VertexCapError(f"{spec.canonical()} has {shown} vertices, above the cap of {cap}")
    count = len(spec.factors) * spec.exponent
    if count > MAX_PRODUCT_FACTORS:
        raise VertexCapError(
            f"{spec.canonical()} has {show_count(count)} factors, above the limit of {MAX_PRODUCT_FACTORS}"
        )
    return ProductGraph([f.build() for f in spec.factor_list()])


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
