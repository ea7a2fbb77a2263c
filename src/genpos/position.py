"""Geodesic betweenness and general position checking.

A vertex set S is in general position when no three distinct members
x, y, z satisfy d(y,z) = d(y,x) + d(x,z), i.e. none lies on a shortest
path between two others.  Two independent deciders are provided:

* :func:`is_general_position` tests all 3-subsets directly;
* :func:`characterization_check` tests the structural criterion: the
  components induced by S must be cliques forming an intransitive,
  distance-constant partition of S, read off the classes of members with
  equal distance rows.

The two must agree on every input; the test suite checks this
exhaustively on a corpus of small products.

Each decider is a public wrapper around a core.  The wrappers
(:func:`is_general_position`, :func:`find_violating_triple` and
:func:`characterization_check`) validate their input once, take its
``(ids, D)`` from :meth:`ProductGraph.distance_table` and call the core:
:func:`bad_triples` for the direct test, :func:`_clique_partition` for the
structural one.  ``D`` is a numpy matrix, and :func:`_listed` hands the
cores the members' own cells of it as lists of Python ints.  The cores
trust their ids and never look at coordinates, and they read ``D`` only at
pairs of their ids: on a symmetric table with a zero diagonal, a core's
verdict depends only on the ordered upper-triangle distances of its
members.  The ``checker-equivalence`` claim relies on both facts: it runs
the cores on subsets of a host's listed matrix without validating each
subset, once per distinct distance pattern, and gives every subset its
pattern's verdict.  :func:`bad_pair_rows` is the same triple
test on pairs of rows of a numpy distance matrix: the solver's numpy
build of the bad-triple index packs it, the sampler counts a sample's bad triples and
marks their least members with it, and the exact bad-triple probability
counts its cells.
Certification (:func:`find_violating_triple` and :meth:`GpSet.certify`)
runs the Python core on sets of fewer than ``_BLOCK_MIN_MEMBERS`` members
and :func:`_first_bad_block`, the same test on numpy blocks of the members'
distance matrix, on larger ones; both name the same first violation.  The
sampler passes :meth:`GpSet.certify` the numpy matrix it scanned for its
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_VERTEX_CAP, PAIR_CHUNK_CELLS, Coord, ProductGraph, VertexCapError, show_count

# Sets of at least this many members are certified by numpy blocks
# (_first_bad_block), smaller ones by the Python loop bad_triples.  On gp
# sets of C7^10, K2^30 and C7^30 (every triple scanned, tables listed)
# the loop took 25 us at 10 members, 39-41 us at 12 and 87-124 us at 16,
# the blocks 35-40, 26-40 and 49-67 us (2-core x86-64 VM, Python 3.11.7,
# numpy 2.4.6).
_BLOCK_MIN_MEMBERS = 12

# Members a checked set may have.  Its distance table is quadratic in them:
# from flat_matrix, 1,000 members of C7^7 take 2.7 ms to tabulate and 4.8
# MiB at peak, 2,000 take 17 ms and 16 MiB (a 52 MB process peak; 2-core
# x86-64 VM, Python 3.11.7, numpy 2.4.6).  The sampler certifies up to
# MAX_SAMPLE_SIZE = 500 members.
MAX_SET_MEMBERS = 1000


def _validated_members(g: ProductGraph, S) -> list[Coord]:
    """Canonicalize a vertex collection: in-range tuples, sorted, no dups."""
    members = [g.check_coord(v) for v in S]
    if len(members) > MAX_SET_MEMBERS:
        raise VertexCapError(f"a set of {len(members)} vertices is above the cap of {MAX_SET_MEMBERS}")
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
    return bool(D[iy, iz] == D[iy, ix] + D[ix, iz])


def _members_matrix(ids, D):
    """The cells of the numpy matrix ``D`` between the members at ``ids``;
    a members' own matrix (ids 0 to m - 1) is returned as it is, without a
    copy."""
    if len(ids) < len(D) or ids != list(range(len(ids))):
        D = D.take(ids, 0).take(ids, 1)
    return D


def _listed(ids, D):
    """``(range(m), rows)``: :func:`_members_matrix` of the m members at
    ``ids`` as lists of Python ints, which the Python cores read two to
    three times faster than numpy ones."""
    return range(len(ids)), _members_matrix(ids, D).tolist()


def bad_triples(ids, D):
    """Bad triples among the members at ``ids`` of ``D``, a matrix listed
    as :func:`_listed` lists it.

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


def bad_pair_rows(D):
    """The bad-triple test on pairs of rows of a numpy distance matrix ``D``.

    Yields ``(A, B, bad)`` for the pairs a < b in lexicographic order, in
    chunks of about ``PAIR_CHUNK_CELLS`` (pair, vertex) cells: ``A`` and
    ``B`` hold the chunk's pairs, and ``bad[i, u]`` is True when u
    completes a bad triple with ``A[i]`` and ``B[i]``.  Either u lies
    between them (``DA + DB == dab``) or one of them lies between u and
    the other (``|DA - DB| == dab``), which holds at u = a and u = b too.
    The test runs on the narrowest signed type holding two distances.
    """
    n = D.shape[0]
    D = D.astype(np.min_scalar_type(-2 * int(D.max()) - 1), copy=False)
    v = np.arange(n)
    a, b = np.nonzero(v[:, None] < v)  # the pairs a < b, row by row
    step = max(1, PAIR_CHUNK_CELLS // n)
    for lo in range(0, len(a), step):
        A = a[lo:lo + step]
        B = b[lo:lo + step]
        DA = D[A]
        DB = D[B]
        dab = D[A, B][:, None]
        bad = DA + DB == dab
        DA -= DB
        np.abs(DA, out=DA)
        bad |= DA == dab
        yield A, B, bad


def _triple_blocks(m: int, cells: int):
    """Blocks ``(A, B, c0)`` of position triples (a, b, c), a in the slice
    ``A``, b in the slice ``B`` and c from ``c0`` on, which together hold
    every a < b < c, in lexicographic order of those sorted triples.

    A block holds at most ``max(cells, m)`` cells.  An a-block takes every
    b and c from its first a on.  Where one a has more cells than that, its
    b run in chunks, each with every c from its first b on.  Either way a
    block holds the sorted triple of every 3-set it meets, and each earlier
    sorted triple lies in it or in an earlier block, so the first cell in
    row-major order to pass a test symmetric in its three members is the
    lexicographically first sorted triple to pass it."""
    a = 0
    while a < m - 2:
        k = m - a
        rows = cells // (k * k)
        if rows:
            yield slice(a, a + rows), slice(a, m), a
            a += rows
        else:
            step = max(1, cells // k)
            for b in range(a + 1, m - 1, step):
                yield slice(a, a + 1), slice(b, b + step), b
            a += 1


def _first_bad_block(ids, D):
    """The first triple of :func:`bad_triples` on the same ``(ids, D)``, or
    None, found by numpy blocks of the members' distance matrix.

    ``D`` is a numpy matrix, and there are at least two ids.  A cell
    (a, b, c) is bad when 2 max(d_ab, d_ac, d_bc) = d_ab + d_ac + d_bc,
    that is when one distance is the sum of the other two.
    The test reads a narrowed copy of :func:`_members_matrix`, whose
    diagonal reads 2 max + 1, so no cell with a repeated member passes the
    test, and the sums run on the narrowest signed type that holds three
    such entries.
    """
    m = len(ids)
    X = _members_matrix(ids, D)
    far = 2 * int(X.max()) + 1
    X = X.astype(np.min_scalar_type(-3 * far - 1))
    np.fill_diagonal(X, far)
    for A, B, c0 in _triple_blocks(m, PAIR_CHUNK_CELLS):
        ab = X[A, B][:, :, None]
        ac = X[A, c0:][:, None, :]
        bc = X[B, c0:]
        total = ab + ac
        total += bc
        top = np.maximum(ab, ac)
        np.maximum(top, bc, out=top)
        top += top
        bad = top == total
        first = int(bad.argmax())
        if bad.flat[first]:
            i, j, k = np.unravel_index(first, bad.shape)
            a, b, c = A.start + int(i), B.start + int(j), c0 + int(k)
            dab, dac, dbc = int(X[a, b]), int(X[a, c]), int(X[b, c])
            # the middle member, named in the order bad_triples tests them
            if dac == dab + dbc:
                return b, a, c
            if dbc == dab + dac:
                return a, b, c
            return c, a, b
    return None


def _first_violation(members: list[Coord], ids, D) -> tuple[Coord, Coord, Coord] | None:
    if len(ids) >= _BLOCK_MIN_MEMBERS:
        t = _first_bad_block(ids, D)
    else:
        t = next(bad_triples(*_listed(ids, D)), None)
    return None if t is None else tuple(members[i] for i in t)


def find_violating_triple(g: ProductGraph, S) -> tuple[Coord, Coord, Coord] | None:
    """First 3-subset of S (lexicographic order) witnessing a violation.

    Returns the triple sorted so that the middle element is first, or
    None when S is in general position.
    """
    members = _validated_members(g, S)
    return _first_violation(members, *g.distance_table(members))


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
    """Structural core on the members at ``ids`` of ``D``, a matrix listed
    as :func:`_listed` lists it.

    Returns ``(parts, dists)`` when the members are in general position:
    the components of the induced subgraph as sorted lists of member
    positions, in the order of their lowest member, and the constant
    distances between them (0 on the diagonal).  Returns None otherwise.

    Members with equal signatures (distance rows over the members, own 0
    read as 1) form classes.  They are the clique components of a
    distance-constant partition iff each class's signature holds exactly
    |class| ones: equal signatures force distance at most 1, the count of
    ones forbids an edge to another class, and equal rows make every
    cross-part distance constant (conversely, such components give their
    members equal signatures with ones on the component only).
    """
    classes = {}  # signature -> member positions, keyed in order of lowest member
    for a, x in enumerate(ids):
        row = D[x]
        classes.setdefault(tuple([row[y] or 1 for y in ids]), []).append(a)
    if any(sig.count(1) != len(part) for sig, part in classes.items()):
        return None
    parts = list(classes.values())
    dists = [[0 if q is part else sig[q[0]] for q in parts] for sig, part in classes.items()]

    # no part between two others: the bad-triple test on the part distances
    if next(bad_triples(range(len(parts)), dists), None) is not None:
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
    found = _clique_partition(*_listed(*g.distance_table(members)))
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
    def certify(cls, host: ProductGraph, members, note: str | None = None, table=None) -> "GpSet":
        """Validate and check the set; raises ValueError with the violating
        triple if it is not in general position.  A ``table`` ``(ids, D)``
        holding the members' distances, laid out as ``host.distance_table``
        lays them, is read instead, ``D`` a numpy matrix; its members must
        come sorted and distinct."""
        if table is None:
            canon = _validated_members(host, members)
            table = host.distance_table(canon)
        else:
            canon = [host.check_coord(v) for v in members]
            if any(u >= v for u, v in zip(canon, canon[1:])):
                raise ValueError("members given with a table must be sorted and distinct")
            if len(table[0]) != len(canon):
                raise ValueError(f"table has {len(table[0])} ids for {len(canon)} members")
        bad = _first_violation(canon, *table)
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
    is accepted as-is; anything else is checked first).  Every vertex of
    ``g`` is tested, so hosts above ``DEFAULT_VERTEX_CAP`` are refused.
    """
    if g.total_vertices > DEFAULT_VERTEX_CAP:
        raise VertexCapError(f"{show_count(g.total_vertices)} vertices to test, above the cap of {DEFAULT_VERTEX_CAP}")
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
        if next(bad_triples(*_listed(*g.distance_table([u, *members]))), None) is not None:
            out.append(u)
    return frozenset(out)

