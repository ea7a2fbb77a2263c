"""Bad-triple probabilities and the first-moment construction.

An ordered triple (x, y, z) of vertices is *bad* when
d(y,z) = d(y,x) + d(x,z), i.e. x sits on a shortest y,z-path.  Triples
with x = y or x = z are bad by this reading; y = z with x distinct never
is.  p(G) is the probability that a uniform triple from V(G)^3 is bad;
it multiplies across Cartesian factors, which is what makes the
first-moment bound for powers work: sample M vertices of G^n with
(M-1)(M-2) <= p(G)^-n, delete the least member of every bad triple (one
numpy pass marks them, and no triple is listed), and at least half the
sample survives in general position.

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
from .position import _BLOCK_MIN_MEMBERS, GpSet, bad_pair_rows, bad_triples

# Both steps of a run are cubic in M: the numpy pair-row scan counts the
# sample's bad triples and marks their least members, and certification
# checks all triples of the rest in numpy blocks of the scan's M x M matrix.
# At M = 500 one attempt on C7^30 took 0.11 s (the draw 1 ms, the matrix
# 2.5 ms, the scan 70-73 ms, certification 34-36 ms), and one on K2^10,
# with 1.6-1.7 million bad triples, 82-89 ms, nearly all the scan (seeds
# 1-3, best of 5, 2-core x86-64 VM, Python 3.11.7, numpy 2.4.6), so larger
# samples are refused.
MAX_SAMPLE_SIZE = 500

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the finalizer's operands as numpy scalars: numpy 1.x and 2.x then promote
# alike, and uint64 array arithmetic wraps without a warning
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_U64 = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


class SplitMix64:
    """Seeded 64-bit counter-based generator (SplitMix64 finalizer)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def randbelow(self, k: int) -> int:
        """Uniform integer in [0, k) by rejection; no modulo bias.  Needs
        0 < k <= 2^64: one 64-bit draw cannot cover a larger range."""
        return self.draw((k,), 1)[0][0]

    def draw(self, sizes, count: int) -> list[tuple[int, ...]]:
        """``count`` tuples of one uniform draw below each entry of ``sizes``,
        in order: the values of one :meth:`randbelow` call per entry.

        The words of all ``count * len(sizes)`` slots are drawn as one uint64
        array.  A word above its slot's largest accepted value is rejected:
        the slots before it are kept, and the stream carries on from that
        slot with the next word.  Below ``MAX_FACTOR_VERTICES`` a word is
        rejected with probability under 2^-52, so one pass is the rule.
        Each slot's modulus and largest accepted word are made once per
        size tuple, and the sizes are checked on every call."""
        sizes = tuple(sizes)
        mods, top, nonzero = _draw_limits(sizes)
        words = np.empty((count, len(sizes)), dtype=np.uint64)
        flat = words.reshape(-1)
        s, done = self._state, 0
        while done < flat.size:
            z = np.arange(1, flat.size - done + 1, dtype=np.uint64)
            z *= _GOLDEN_U64
            z += np.uint64(s)
            z ^= z >> _SHIFTS[0]
            z *= _MIX_U64[0]
            z ^= z >> _SHIFTS[1]
            z *= _MIX_U64[1]
            z ^= z >> _SHIFTS[2]
            flat[done:] = z
            rejected = np.flatnonzero(words > top)  # the kept slots never are
            if rejected.size:  # step past the rejected word, redraw its slot
                stop = int(rejected[0])
                s = (s + _GOLDEN * (stop - done + 1)) & _MASK64
            else:
                stop = flat.size
                s = (s + _GOLDEN * (stop - done)) & _MASK64
            done = stop
        self._state = s
        np.remainder(words, mods, out=words, where=nonzero)
        return list(map(tuple, words.tolist()))


# bounded, as each randbelow(k) draws on a size tuple of its own; typed, so
# a bool or float size never reuses the limits of an equal int
@functools.lru_cache(maxsize=256, typed=True)
def _draw_limits(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only uint64 moduli and largest accepted words of
    :meth:`SplitMix64.draw` on ``sizes``, and the mask of its nonzero
    moduli, made once per size tuple.  A bad size raises, and a call that
    raises is not cached, so it raises on every call."""
    for k in sizes:
        if not 0 < k <= 1 << 64:
            raise ValueError("k must be positive" if k <= 0 else "k must be at most 2^64")
    # 2^64 fits no uint64: stored as 0, it takes no remainder, and as it
    # divides 2^64 its largest accepted word is 2^64 - 1
    mods = np.array([k & _MASK64 for k in sizes], dtype=np.uint64)
    limits = mods, np.array([_MASK64 - (1 << 64) % k for k in sizes], dtype=np.uint64), mods != 0
    for a in limits:
        a.setflags(write=False)
    return limits


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
    lists the vertices removed, the least member of each bad triple, in
    ascending order.  ``success`` means the certified remainder reached
    the ceil(M/2) target; removed duplicates count against that budget,
    they are not compensated.
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


def _least_members(D: np.ndarray) -> tuple[int, np.ndarray]:
    """The bad triples a < b < c among the rows of the numpy matrix ``D``:
    their number, and a mask of the rows that are the least of one.  Below
    ``_BLOCK_MIN_MEMBERS`` rows the Python core walks the listed matrix,
    as certification does, since it is faster there than the pair-row scan."""
    n = D.shape[0]
    count, least = 0, np.zeros(n, dtype=bool)
    if n < _BLOCK_MIN_MEMBERS:
        for t in bad_triples(range(n), D.tolist()):
            count += 1
            least[min(t)] = True
        return count, least
    for A, B, bad in bad_pair_rows(D):
        i, c = np.divmod(np.flatnonzero(bad), n)  # the cells (pair, vertex)
        i = i[c > B[i]]  # the cells with c > b, so a < b < c
        count += len(i)
        least[A[i]] = True
    return count, least


def _one_run(host: ProductGraph, seed: int, M: int, attempts: int) -> SampleRun:
    """One draw-delete-certify pass, the ``attempts``-th of its construction."""
    rng = SplitMix64(seed)
    samples = tuple(rng.draw(host.sizes, M))
    distinct = sorted(set(samples))
    D = host.flat_matrix(distinct)
    bad, least = _least_members(D)  # every bad triple loses its least member
    ids = np.flatnonzero(~least).tolist()
    final = [distinct[i] for i in ids]
    result = GpSet.certify(host, final, note=f"first-moment run, seed {seed}", table=(ids, D))
    target = (M + 1) // 2
    return SampleRun(
        seed=seed,
        M=M,
        samples=samples,
        duplicates=M - len(distinct),
        bad_triples=bad,
        deletions=tuple(distinct[i] for i in np.flatnonzero(least).tolist()),
        result=result,
        target=target,
        success=len(final) >= target,
        attempts=attempts,
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
    :func:`choose_M` unless overridden), removes duplicates, deletes the
    least member of every bad triple among the rest, and certifies the
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
        run = _one_run(host, seed + attempt, M, attempt + 1)
        if run.success:
            return run
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
