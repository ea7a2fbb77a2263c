"""Closed-form gp values, bounds, and explicit certified witness sets.

Every construction is returned as a :class:`~genpos.position.GpSet` that
has been checked by the general-position decider, so a bug in a formula
or coordinate list raises instead of producing a bogus certificate.
All arithmetic is exact; the fixed divisors (144, 12, 3) are asserted to
divide evenly.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import FactorGraph, ProductGraph
from .position import GpSet


class TorusBounds(NamedTuple):
    """Bounds on gp for a product of two cycles; ``lower`` is None when the
    hypotheses under which 6 is claimed are not met."""

    lower: int | None
    upper: int


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"expected exact division: {num} / {den}")
    return q


def grid_gp_count(r: int, s: int) -> int:
    """Published closed form for the number of maximum general position
    sets in the r x s grid.

    Arguments are swapped if needed so that r <= s; both must be >= 2.
    The three branches: 6 for the 2x2 grid, s(s-1)(s-2)/3 for two rows,
    and a degree-7 polynomial over 144 otherwise.  The form is exact for
    min(r, s) <= 3; beyond that it falls short of the true count by
    2 C(r,4) C(s,3) (with r <= s).  Exhaustive enumeration
    (``count_maximum_gp_sets``) gives c(r) c(s) with
    c(n) = 2 C(n,4) + C(n,3) for r, s >= 3.
    """
    if min(r, s) < 2:
        raise ValueError(f"grid formula needs r, s >= 2 (got {r}, {s})")
    r, s = sorted((r, s))
    if r == 2 and s == 2:
        return 6
    if r == 2:
        return _exact_div(s * (s - 1) * (s - 2), 3)
    return _exact_div(
        r * s * (r - 1) * (r - 2) * (s - 1) * (s - 2) * (r * (s - 3) - s + 7), 144
    )


def grid_gp_count_three_rows(s: int) -> int:
    """Specialization to 3 x s grids: s(s-2)(s-1)^2 / 12."""
    if s < 3:
        raise ValueError("three-row specialization needs s >= 3")
    return _exact_div(s * (s - 2) * (s - 1) ** 2, 12)


def cylinder_gp_value(r: int, s: int) -> int:
    """gp of the cylinder (path of r vertices times cycle of length s)."""
    if r < 2 or s < 3:
        raise ValueError(f"cylinder needs r >= 2, s >= 3 (got {r}, {s})")
    if r == 2 and s == 3:
        return 3
    if r >= 5 and (s == 7 or s >= 9):
        return 5
    return 4


def torus_gp_bounds(r: int, s: int) -> TorusBounds:
    """Bounds on gp for the torus (product of an r- and an s-cycle).

    The upper bound 7 is the paper's theorem, quoted as a constant (the
    quadrant cover certifies only 16 on C7xC7).  The lower bound 6 is
    claimed only when, after sorting so the larger cycle is first, the
    smaller length is not 4 and the larger is at least 6.
    """
    if r < 3 or s < 3:
        raise ValueError(f"torus needs r, s >= 3 (got {r}, {s})")
    hi, lo = max(r, s), min(r, s)
    lower = 6 if (lo != 4 and hi >= 6) else None
    return TorusBounds(lower=lower, upper=7)


def hamming_lower_bound(sizes) -> int:
    """Lower bound n1 + ... + nk - k for a product of complete graphs;
    tight for two factors."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two factors")
    if any(n < 2 for n in sizes):
        raise ValueError("each complete factor needs at least 2 vertices")
    return sum(sizes) - len(sizes)


def cycle_gp_triple(s: int) -> GpSet:
    """The certified 3-set {0, floor(s/3), floor(2s/3)} on an s-cycle.

    No 3-set of a 4-cycle is in general position, so s = 4 is refused.
    """
    if s < 3:
        raise ValueError(f"cycle needs s >= 3 (got {s})")
    if s == 4:
        raise ValueError("the 4-cycle has no general position 3-set")
    host = ProductGraph([FactorGraph.cycle(s)])
    members = [(0,), (s // 3,), (2 * s // 3,)]
    return GpSet.certify(host, members, note="cycle thirds construction")


def cylinder_witness(r: int, s: int) -> GpSet:
    """A certified maximum general position set of the r x s cylinder.

    The witness matches :func:`cylinder_gp_value`; each size class uses
    its own explicit construction.
    """
    value = cylinder_gp_value(r, s)
    host = ProductGraph([FactorGraph.path(r), FactorGraph.cycle(s)])
    if value == 3:  # the 2 x 3 cylinder: a clique is in general position
        return GpSet.certify(host, [(0, 0), (0, 1), (0, 2)], note="triangle layer")
    if value == 4:
        if s == 3:
            members = [(0, 1), (1, 0), (1, 2), (2, 1)]
        else:
            members = [(0, 0), (1, 1), (0, s // 2), (1, s // 2 + 1)]
        return GpSet.certify(host, members, note="4-point cylinder construction")
    # value == 5: r >= 5 and s == 7 or s >= 9; the r = 5 sets embed in the
    # first five path layers of longer cylinders.
    if s == 7:
        members = [(0, 0), (1, 2), (2, 4), (3, 6), (4, 1)]
    else:
        members = [(0, 1), (1, 4), (2, s // 2 + 2), (3, 0), (4, 3)]
    return GpSet.certify(host, members, note="5-point cylinder construction")


def torus_witness6(r: int, s: int) -> GpSet:
    """The certified 6-set construction on the torus.

    Hypotheses (after sorting so the larger cycle length comes first):
    smaller >= 3 and not 4, larger >= 6.  The members are reported in the
    caller's factor order.
    """
    if r < 3 or s < 3:
        raise ValueError(f"torus needs r, s >= 3 (got {r}, {s})")
    hi, lo = max(r, s), min(r, s)
    if lo == 4:
        raise ValueError("smaller cycle length 4 is excluded")
    if hi < 6:
        raise ValueError(f"larger cycle needs >= 6 vertices (got {hi})")
    half = hi // 2
    pts = [
        (0, 0),
        (half, 0),
        (hi // 6, lo // 3),
        (hi // 6 + half, lo // 3),
        (2 * hi // 6, 2 * lo // 3),
        (2 * hi // 6 + half, 2 * lo // 3),
    ]
    pts = [(a % hi, b % lo) for a, b in pts]
    if r < s:  # caller put the smaller cycle first
        pts = [(b, a) for a, b in pts]
    host = ProductGraph([FactorGraph.cycle(r), FactorGraph.cycle(s)])
    return GpSet.certify(host, pts, note="6-point torus construction")


TORUS7_MEMBERS = ((0, 1), (1, 4), (2, 0), (3, 3), (4, 6), (5, 2), (6, 5))


def torus_witness7() -> GpSet:
    """The certified 7-set on the product of two 7-cycles.

    All pairwise distances lie in [3, 5], which already rules out any
    betweenness relation among its members.
    """
    host = ProductGraph([FactorGraph.cycle(7), FactorGraph.cycle(7)])
    return GpSet.certify(host, list(TORUS7_MEMBERS), note="7-point torus construction")


def torus_quadrant_cover(r: int, s: int) -> list[list[tuple[int, int]]]:
    """Four grid quadrants covering the torus, each an isometric subgraph.

    Each quadrant is a (floor(r/2)+1) x (floor(s/2)+1) block of vertices
    (indices mod the cycle lengths), so it induces a grid that embeds
    isometrically.  Useful as input to
    :func:`~genpos.solver.isometric_cover_bound`.
    """
    if r < 3 or s < 3:
        raise ValueError(f"torus needs r, s >= 3 (got {r}, {s})")
    rh, sh = r // 2, s // 2
    low_r = list(range(rh + 1))
    high_r = [(rh + i) % r for i in range(rh + 1)]
    low_s = list(range(sh + 1))
    high_s = [(sh + i) % s for i in range(sh + 1)]
    return [
        [(a, b) for a in low_r for b in low_s],
        [(a, b) for a in high_r for b in low_s],
        [(a, b) for a in high_r for b in high_s],
        [(a, b) for a in low_r for b in high_s],
    ]
