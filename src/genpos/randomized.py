"""Bad-triple probabilities and the first-moment construction.

An ordered triple (x, y, z) of vertices is *bad* when
d(y,z) = d(y,x) + d(x,z), i.e. x sits on a shortest y,z-path.  Triples
with x = y or x = z are bad by this reading; y = z with x distinct never
is.  p(G) is the probability that a uniform triple from V(G)^3 is bad;
it multiplies across Cartesian factors, which is what makes the
first-moment bound for powers work: sample M vertices of G^n with
(M-1)(M-2) <= p(G)^-n, delete one vertex from every bad triple, and at
least half the sample survives in general position.

Randomness comes from :class:`SplitMix64`, a 64-bit counter-based
generator: the state advances by a fixed odd constant and each output is
a bijective mix of the state, so runs are reproducible from the seed
alone, independent of platform and Python version.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, isqrt, log, log2, prod
from typing import Iterable

import numpy as np

from .graphs import Coord, FactorGraph, ProductGraph, VertexCapError, show_count
from .position import GpSet, bad_pair_rows

# Both steps of a run are cubic in M: the numpy pair-row test finds the
# sample's bad triples, and certifying the remainder checks all its triples
# in Python, on distances read from the scan's own M x M matrix.  One attempt
# on C7^30 took 0.04 s at M = 115, 0.35 s at M = 250 and 2.6-3.0 s at
# M = 500, the certify scan 2.2-2.7 s of it (2-core x86-64 VM, Python 3.11),
# so larger samples are refused.
MAX_SAMPLE_SIZE = 500

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded 64-bit counter-based generator (SplitMix64 finalizer)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, k: int) -> int:
        """Uniform integer in [0, k) by rejection; no modulo bias.  Needs
        0 < k <= 2^64: one 64-bit draw cannot cover a larger range."""
        if k <= 0:
            raise ValueError("k must be positive")
        if k > 1 << 64:
            raise ValueError("k must be at most 2^64")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            r = self.next64()
            if r < limit:
                return r % k


def _count_bad_triples(D: np.ndarray) -> int:
    """Ordered bad triples (x, y, z) over the n vertices of ``D``.

    The 2n^2 - n with x = y or x = z are bad.  Three distinct vertices have
    at most one middle, so each bad 3-set gives two more.  The cells of
    :func:`bad_pair_rows` mark each pair's own two vertices, and each bad
    3-set once at each of its three pairs."""
    n = D.shape[0]
    hits = sum(int(np.count_nonzero(bad)) for _, _, bad in bad_pair_rows(D))
    return 2 * n * n - n + (hits - n * (n - 1)) // 3 * 2


@functools.cache
def _p_of_table(dist: tuple[tuple[int, ...], ...]) -> Fraction:
    """p of the factor with all-pairs table ``dist``, counted once per table."""
    return Fraction(_count_bad_triples(np.asarray(dist)), len(dist) ** 3)


def p_exact(g: FactorGraph | ProductGraph) -> Fraction:
    """Exact bad-triple probability.

    Factor graphs are counted directly (all n^3 ordered triples) on their
    all-pairs table, which is refused above ``MAX_FACTOR_VERTICES``
    vertices, once per distance table in a process; products raise each
    distinct factor's to its multiplicity instead of materializing anything.
    """
    if isinstance(g, ProductGraph):
        return prod(p_exact(f) ** k for f, k in Counter(g.factors).items())
    if not isinstance(g, FactorGraph):
        raise TypeError(f"expected FactorGraph or ProductGraph, got {type(g).__name__}")
    return _p_of_table(g.dist)


def p_exact_restricted(g: FactorGraph, vertices: Iterable[int]) -> Fraction:
    """Bad-triple probability when all three picks are restricted to the
    given vertex subset (e.g. the leaves of a star).  The vertices must be
    integers in ``range(g.n)``; bool is refused."""
    host = ProductGraph([g])
    members = sorted({host.check_coord((v,)) for v in vertices})
    if not members:
        raise ValueError("restricted vertex set is empty")
    return Fraction(_count_bad_triples(host.flat_matrix(members)), len(members) ** 3)


def p_closed_form(family: str, size: int) -> Fraction:
    """Known closed forms for p.

    ``family`` is ``"complete"`` (n >= 2), ``"cycle"`` (length >= 3) or
    ``"star_leaf_restricted"`` (k >= 2 leaves, picks restricted to the
    leaves).  The unrestricted star is deliberately unsupported: the
    closed form in circulation overcounts the center case (it misses that
    y = z = same leaf is never bad) and disagrees with enumeration; see
    :func:`star_formula_quoted` and the verification report.
    """
    if family == "complete":
        if size < 2:
            raise ValueError("complete closed form needs n >= 2")
        return Fraction(2 * size - 1, size**2)
    if family == "cycle":
        if size < 3:
            raise ValueError("cycle closed form needs length >= 3")
        if size % 2 == 0:
            k = size // 2
            return Fraction(k * (k + 3) - 1, 4 * k**2)
        k = (size - 1) // 2
        return Fraction(k * (k + 3) + 1, (2 * k + 1) ** 2)
    if family == "star_leaf_restricted":
        if size < 2:
            raise ValueError("leaf-restricted star closed form needs k >= 2")
        return Fraction(2 * size - 1, size**2)
    if family == "star":
        raise ValueError(
            "no closed form for the unrestricted star: the quoted formula "
            "disagrees with direct enumeration (17/27 vs 19/27 at k = 2); "
            "use p_exact, or star_formula_quoted for the discrepancy report"
        )
    raise ValueError(f"unsupported family {family!r}")


def star_formula_quoted(k: int) -> Fraction:
    """The closed form quoted for the unrestricted star with k leaves:
    1/(k+1) + k/(k+1) * (2k+1)/(k+1)^2.

    Kept only so the verification report can document that it disagrees
    with enumeration (p_exact gives 17/27 at k = 2, this gives 19/27).
    """
    if k < 1:
        raise ValueError("star needs k >= 1")
    return Fraction(1, k + 1) + Fraction(k, k + 1) * Fraction(2 * k + 1, (k + 1) ** 2)


def p_power(g: FactorGraph, n: int) -> Fraction:
    """p of the n-fold Cartesian power of g: p(g)^n."""
    if n < 1:
        raise ValueError("power needs n >= 1")
    return p_exact(g) ** n


@functools.cache
def choose_M(p: Fraction, n: int) -> int:
    """Largest sample size M >= 3 with (M-1)(M-2) <= p^-n.

    Returns 2 (the trivial guarantee: any two vertices are in general
    position) when even M = 3 fails, i.e. when p^-n < 2.  Computed once
    per (p, n) in a process: the exact power p^-n is the costly part.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"need 0 < p < 1 (got {p})")
    if n < 1:
        raise ValueError("power needs n >= 1")
    target = Fraction(p.denominator, p.numerator) ** n
    if target < 2:
        return 2
    m = isqrt(int(target)) + 3
    while (m - 1) * (m - 2) > target:
        m -= 1
    while m * (m - 1) <= target:
        m += 1
    return m


@dataclass(frozen=True)
class SampleRun:
    """Record of one first-moment sampling run on a Cartesian power.

    ``samples`` preserves the draw order (with repetition); ``bad_triples``
    counts unordered bad triples among the distinct samples; ``deletions``
    lists the vertices removed (one per bad triple still intact when
    visited, lowest first).  ``success`` means the certified remainder
    reached the ceil(M/2) target; removed duplicates count against that
    budget, they are not compensated.
    """

    seed: int
    M: int
    samples: tuple[Coord, ...]
    duplicates: int
    bad_triples: int
    deletions: tuple[Coord, ...]
    result: GpSet
    target: int
    success: bool
    attempts: int


def _sorted_bad_triples(D: np.ndarray):
    """The bad triples of :func:`~genpos.position.bad_triples` on the numpy
    matrix ``D``, each as its sorted position triple, in the same order."""
    cols = np.arange(D.shape[0])
    for A, B, bad in bad_pair_rows(D):
        i, c = np.nonzero(bad & (cols > B[:, None]))
        yield from zip(A[i].tolist(), B[i].tolist(), c.tolist())


def _one_run(host: ProductGraph, seed: int, M: int) -> SampleRun:
    """One draw-delete-certify pass; its caller sets ``attempts``."""
    rng = SplitMix64(seed)
    samples = tuple(tuple(rng.randbelow(size) for size in host.sizes) for _ in range(M))
    distinct = sorted(set(samples))
    D = host.flat_matrix(distinct)
    bad = list(_sorted_bad_triples(D))

    alive = [True] * len(distinct)
    deletions = []
    for t in bad:  # lex order of the sorted triple
        if alive[t[0]] and alive[t[1]] and alive[t[2]]:
            low = min(t)  # the lowest member
            alive[low] = False
            deletions.append(distinct[low])

    ids = [i for i, keep in enumerate(alive) if keep]
    final = [distinct[i] for i in ids]
    result = GpSet.certify(host, final, note=f"first-moment run, seed {seed}", table=(ids, D.tolist()))
    target = (M + 1) // 2
    return SampleRun(
        seed=seed,
        M=M,
        samples=samples,
        duplicates=M - len(distinct),
        bad_triples=len(bad),
        deletions=tuple(deletions),
        result=result,
        target=target,
        success=len(final) >= target,
        attempts=1,
    )


def first_moment_construct(
    g: FactorGraph,
    n: int,
    seed: int,
    retries: int = 20,
    sample_size: int | None = None,
) -> SampleRun:
    """Sample-and-delete construction of a general position set in g^n.

    Draws M vertices of the n-th Cartesian power coordinate-wise (M from
    :func:`choose_M` unless overridden), removes duplicates, deletes one
    vertex from every bad triple among the rest, and certifies the
    remainder.  Retries with seed+1, seed+2, ... while the certified set
    stays below ceil(M/2); after ``retries`` extra attempts the best run
    is returned with ``success=False`` (its set is still certified).  An
    M above ``MAX_SAMPLE_SIZE`` raises :class:`VertexCapError`, and a
    one-vertex factor, whose power has nothing to sample, ValueError.
    """
    if n < 1:
        raise ValueError("power needs n >= 1")
    if g.n == 1:
        raise ValueError("the factor has one vertex, so its power has one vertex and nothing to sample")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if sample_size is not None:
        M = sample_size
    else:
        p = p_exact(g)
        # M(M-1) > p^-n, so log2 M > (n/2) log2(1/p).  Where that bound puts M
        # above 2^64, refuse at once: the exact power costs time quadratic in
        # n, and such an M is shown as 2^k anyway.  The factor below absorbs
        # the rounding of the logarithms.
        k = floor(n * (log2(p.denominator) - log2(p.numerator)) / 2 * (1 - 1e-12))
        if k > 64:
            raise VertexCapError(
                f"sample size M = 2^{k} or more is above the cap of {MAX_SAMPLE_SIZE}"
            )
        M = choose_M(p, n)
    if M > MAX_SAMPLE_SIZE:
        raise VertexCapError(f"sample size M = {show_count(M)} is above the cap of {MAX_SAMPLE_SIZE}")
    host = ProductGraph([g] * n)
    best: SampleRun | None = None
    for attempt in range(retries + 1):
        run = _one_run(host, seed + attempt, M)
        if run.success:
            return replace(run, attempts=attempt + 1)
        if best is None or len(run.result) > len(best.result):
            best = run
    return replace(best, attempts=retries + 1)


def gp_box_lower_bound(g: FactorGraph | ProductGraph) -> float:
    """Lower bound on the growth exponent of gp under Cartesian powers:
    -(1/2) log p(G) / log |V(G)|, as a float (relative accuracy ~1e-12).

    Always strictly below 1 because p(G) > 1/|V(G)|^2 for connected G.
    """
    nv = g.total_vertices if isinstance(g, ProductGraph) else g.n
    if nv < 2:
        raise ValueError("needs at least 2 vertices")
    p = p_exact(g)
    return 0.5 * (log(p.denominator) - log(p.numerator)) / log(nv)
