"""Geodesic betweenness and general position checking.

A vertex set S is in general position when no three distinct members
x, y, z satisfy d(y,z) = d(y,x) + d(x,z), i.e. none lies on a shortest
path between two others.  Two independent deciders are provided:

* :func:`is_general_position` tests all 3-subsets directly;
* :func:`characterization_check` tests the structural criterion: the
  components induced by S must be cliques forming an intransitive,
  distance-constant partition of S.

The two must agree on every input; the test suite checks this
exhaustively on a corpus of small products.

Each decider is a public wrapper around a core.  The wrappers
(:func:`is_general_position`, :func:`find_violating_triple` and
:func:`characterization_check`) validate their input once, take its
``(ids, D)`` from :meth:`ProductGraph.distance_table` and call the core:
:func:`bad_triples` for the direct test, :func:`_clique_partition` for the
structural one.  The cores trust their ids and never look at coordinates,
so a caller that already holds a host's flat ids (the
``checker-equivalence`` claim) runs them on subsets of those ids without
validating each subset again.  Whole-graph counts work on a numpy
distance matrix instead: :func:`between` is the one betweenness test
behind the solver's bad-triple index and the exact bad-triple probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Coord, ProductGraph


def _validated_members(g: ProductGraph, S) -> list[Coord]:
    """Canonicalize a vertex collection: in-range tuples, sorted, no dups."""
    members = [g.check_coord(v) for v in S]
    if len(set(members)) != len(members):
        seen = set()
        for v in members:
            if v in seen:
                raise ValueError(f"duplicate vertex {v}")
            seen.add(v)
    return sorted(members)


def is_between(g: ProductGraph, x, y, z) -> bool:
    """True iff x lies on some shortest y,z-path (endpoints included)."""
    (ix, iy, iz), D = g.distance_table([g.check_coord(x), g.check_coord(y), g.check_coord(z)])
    return D[iy][iz] == D[iy][ix] + D[ix][iz]


def bad_triples(ids, D):
    """Bad triples among the members behind ``g.distance_table``'s ``(ids, D)``.

    Yields position triples ``(mid, a, b)``, ``a < b``, where member ``mid``
    lies on a shortest path between members ``a`` and ``b``.  They come in
    lexicographic order of the sorted position triple, so ``next()`` gives
    the first violation and ``list()`` every bad triple once.
    """
    m = len(ids)
    for a in range(m - 2):
        row_a = D[ids[a]]
        for b in range(a + 1, m - 1):
            row_b = D[ids[b]]
            dab = row_a[ids[b]]
            for c in range(b + 1, m):
                x = ids[c]
                dac = row_a[x]
                dbc = row_b[x]
                if dac == dab + dbc:
                    yield b, a, c
                elif dbc == dab + dac:
                    yield a, b, c
                elif dab == dac + dbc:
                    yield c, a, b


def between(D, ys):
    """Betweenness on a numpy distance matrix ``D``, from the rows ``ys``.

    The result is True at ``[..., x, z]`` when x lies on a shortest
    y,z-path for the row y it belongs to, endpoints included:
    ``D[y, z] == D[y, x] + D[x, z]``.  An int ``ys`` gives an (n, n) table,
    a row selection (a slice or index array) one (len(ys), n, n) cube.
    """
    R = D[ys]
    return R[..., None, :] == R[..., :, None] + D


def _first_violation(g: ProductGraph, members: list[Coord]) -> tuple[Coord, Coord, Coord] | None:
    t = next(bad_triples(*g.distance_table(members)), None)
    return None if t is None else tuple(members[i] for i in t)


def find_violating_triple(g: ProductGraph, S) -> tuple[Coord, Coord, Coord] | None:
    """First 3-subset of S (lexicographic order) witnessing a violation.

    Returns the triple sorted so that the middle element is first, or
    None when S is in general position.
    """
    return _first_violation(g, _validated_members(g, S))


def is_general_position(g: ProductGraph, S) -> bool:
    """Decide general position by direct inspection of all 3-subsets."""
    return find_violating_triple(g, S) is None


@dataclass(frozen=True)
class PartitionCertificate:
    """Witness of the structural criterion: clique parts plus the constant
    pairwise distances between them (0 on the diagonal)."""

    parts: tuple[tuple[Coord, ...], ...]
    part_distances: tuple[tuple[int, ...], ...]


def _clique_partition(ids, D):
    """Structural core on the members behind ``g.distance_table``'s ``(ids, D)``.

    Returns ``(parts, dists)`` when the members are in general position:
    the components of the induced subgraph as sorted lists of member
    positions, in the order of their lowest member, and the constant
    distances between them (0 on the diagonal).  Returns None otherwise.
    """
    rows = [D[i] for i in ids]  # rows[a][ids[b]]: distance of members a, b

    # Components of the induced subgraph (edges = distance 1).  They are
    # cliques iff adjacent members have the same closed neighbourhood in S;
    # then each component is the neighbourhood of its lowest member.
    nbrs = [[b for b, x in enumerate(ids) if row[x] <= 1] for row in rows]
    if any(nbrs[b] != nb for nb in nbrs for b in nb):
        return None
    parts = [nb for a, nb in enumerate(nbrs) if nb[0] == a]

    p = len(parts)
    dists = [[0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            base = rows[parts[i][0]][ids[parts[j][0]]]
            for a in parts[i]:
                for b in parts[j]:
                    if rows[a][ids[b]] != base:
                        return None
            dists[i][j] = dists[j][i] = base

    # no part between two others: the bad-triple test on the part distances
    if next(bad_triples(range(p), dists), None) is not None:
        return None
    return parts, dists


def characterization_check(
    g: ProductGraph, S
) -> tuple[bool, PartitionCertificate | None]:
    """Structural general-position test.

    Computes the components of the subgraph induced by S and accepts iff
    every component is a clique, distances between components do not
    depend on the chosen representatives, and no component sits metrically
    between two others.  Agrees with :func:`is_general_position` on every
    input.
    """
    members = _validated_members(g, S)
    found = _clique_partition(*g.distance_table(members))
    if found is None:
        return False, None
    parts, dists = found
    # parts are sorted member positions, which sort like the members
    cert = PartitionCertificate(
        parts=tuple(tuple(members[a] for a in part) for part in parts),
        part_distances=tuple(tuple(row) for row in dists),
    )
    return True, cert


@dataclass(frozen=True)
class GpSet:
    """A vertex set of a host graph, optionally certified general position."""

    host: ProductGraph
    members: tuple[Coord, ...]
    certified: bool = False
    note: str | None = None

    @classmethod
    def certify(cls, host: ProductGraph, members, note: str | None = None) -> "GpSet":
        """Validate and check the set; raises ValueError with the violating
        triple if it is not in general position."""
        canon = _validated_members(host, members)
        bad = _first_violation(host, canon)
        if bad is not None:
            raise ValueError(f"not a general position set: {bad[0]} lies between {bad[1]} and {bad[2]}")
        return cls(host=host, members=tuple(canon), certified=True, note=note)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v):
        return tuple(v) in self.members


def forbidden_set(g: ProductGraph, X) -> frozenset[Coord]:
    """F(X): vertices outside X whose addition destroys general position.

    ``X`` must itself be in general position (a certified :class:`GpSet`
    is accepted as-is; anything else is checked first).
    """
    if isinstance(X, GpSet) and X.certified and X.host is g:
        members = list(X.members)
    else:
        members = list(GpSet.certify(g, list(X)).members)
    member_set = set(members)
    out = []
    for u in g.vertices():
        if u in member_set:
            continue
        # X is in general position, so any bad triple here contains u
        if next(bad_triples(*g.distance_table([u, *members])), None) is not None:
            out.append(u)
    return frozenset(out)


def independence_check(g: ProductGraph, S) -> bool:
    """True iff no two members of S are adjacent in g."""
    members = list({g.check_coord(v) for v in S})
    ids, D = g.distance_table(members)
    return all(D[a][b] != 1 for a, b in combinations(ids, 2))
