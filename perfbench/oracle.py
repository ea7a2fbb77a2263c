"""Reference checks that share no code with genpos.

Distances come from this module's own BFS over each factor, summed
coordinate-wise (the distance of a Cartesian product is the sum of the
factor distances).  General position is decided by a plain itertools scan
over all 3-subsets.  Exact counts for the small grids come from a
level-by-level brute force over vertex subsets.  Nothing here touches the
bitset engine, so a bug there cannot hide behind the check.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from itertools import combinations, product

_FACTOR = re.compile(r"([PCKSQ])(\d+)")

# gp values the benchmark checks.  Sources: the paper and README (grids,
# cylinders, C7xC7, K_n x K_m = n + m - 2), the README's certified 7-set
# for C8xC7 (never the misprinted 6), the ROADMAP's measured facts (C9xC9,
# K4^3, and C5^3 = 12 from its symmetry prototype).  Entries marked
# "recorded" were computed once when the benchmark was written and guard
# against regressions only; no independent proof stands behind them.
GP_REFERENCE = {
    "P4xP4": (4, "grid, both sides >= 3 (paper)"),
    "P4xP5": (4, "grid, both sides >= 3 (paper)"),
    "P5xP5": (4, "grid, both sides >= 3 (paper)"),
    "P6xP6": (4, "grid, both sides >= 3 (paper)"),
    "P8xP8": (4, "grid, both sides >= 3 (paper)"),
    "P6xC6": (4, "cylinder table (paper)"),
    "P6xC7": (5, "cylinder table (paper)"),
    "C7xC7": (7, "torus (paper)"),
    "C8xC7": (7, "certified 7-set plus torus upper bound 7 (README)"),
    "C9xC9": (7, "ROADMAP"),
    "K4^3": (16, "ROADMAP"),
    "C5^3": (12, "ROADMAP symmetry prototype"),
    "K5xK5": (8, "n1 + n2 - 2 (paper)"),
    "K8xK8": (14, "n1 + n2 - 2 (paper)"),
    "C10xC10": (6, "recorded; torus bounds 6..7"),
    "C8xC8": (6, "recorded; torus bounds 6..7"),
    "C7xC9": (7, "recorded; torus bounds 6..7"),
    "P3^4": (8, "recorded"),
    "P4^3": (7, "recorded"),
    "K2^6": (8, "recorded"),
    "C4^3": (8, "recorded; C4 = K2xK2, so it must equal K2^6"),
}

# Numbers of maximum general position sets.  The three grid counts are the
# exact values (36/120/400), never the misprinted closed form (28/100/300);
# the brute force below recomputes them on every count run.
COUNT_REFERENCE = {
    "P4xP4": 36,
    "P4xP5": 120,
    "P5xP5": 400,
    "P6xP6": 2500,
    "P8xP8": 38416,
    "P6xC6": 4590,
    "C8xC7": 112,
    "C8xC8": 9344,
    "C7xC9": 630,
    "K2^6": 240,
    "P4^3": 1648,
    "C4^3": 240,
    "K4^3": 576,
    "C7xC7": 28,
}

# Hosts small enough to count by brute force in well under a second.
BRUTE_FORCE_COUNT = ("P4xP4", "P4xP5", "P5xP5", "P6xP6", "P6xC6")

# Statuses the verify-paper registry must report.  The three documented
# discrepancies are the paper's misprints, settled by exact computation.
EXPECTED_STATUS = {
    "grid-gp-values": "pass",
    "grid-count-formula": "discrepancy-documented",
    "cylinder-gp-table": "pass",
    "torus-gp-7x7": "pass",
    "torus-gp-8x7": "discrepancy-documented",
    "torus-6set-family": "pass",
    "torus-7set": "pass",
    "hamming-two-factor": "pass",
    "probability-closed-forms": "pass",
    "star-formula-discrepancy": "discrepancy-documented",
    "product-rule": "pass",
    "sampler-soundness": "pass",
    "checker-equivalence": "pass",
    "power-bound-k2": "pass",
    "cover-bound-torus6": "pass",
}


def factor_tokens(spec: str) -> list[str]:
    """Factor tokens of a spec such as 'P5xC7', 'K4^3' or 'Q3'."""
    base, _, power = spec.partition("^")
    tokens = []
    for part in base.split("x"):
        fam, size = _FACTOR.fullmatch(part).groups()
        tokens += ["K2"] * int(size) if fam == "Q" else [part]
    return tokens * (int(power) if power else 1)


def factor_adjacency(token: str) -> list[list[int]]:
    fam, n = token[0], int(token[1:])
    if fam == "P":
        return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
    if fam == "C":
        return [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    if fam == "K":
        return [[j for j in range(n) if j != i] for i in range(n)]
    if fam == "S":
        return [list(range(1, n + 1))] + [[0] for _ in range(n)]
    raise ValueError(f"unknown factor {token!r}")


def bfs_table(adj: list[list[int]]) -> list[list[int]]:
    table = []
    for s in range(len(adj)):
        dist = [-1] * len(adj)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        table.append(dist)
    return table


class Metric:
    """Additive product distance from per-factor BFS tables."""

    def __init__(self, tokens: list[str]):
        self.tables = [bfs_table(factor_adjacency(t)) for t in tokens]
        self.sizes = [len(t) for t in self.tables]

    @classmethod
    def of(cls, spec: str) -> "Metric":
        return cls(factor_tokens(spec))

    def d(self, u, v) -> int:
        return sum(t[a][b] for t, a, b in zip(self.tables, u, v))

    def in_range(self, v) -> bool:
        return len(v) == len(self.sizes) and all(
            isinstance(c, int) and 0 <= c < s for c, s in zip(v, self.sizes)
        )

    def vertices(self) -> list[tuple[int, ...]]:
        return list(product(*(range(s) for s in self.sizes)))


def is_bad(duv: int, dvw: int, duw: int) -> bool:
    """Some member of {u, v, w} lies on a shortest path between the others."""
    return duw == duv + dvw or dvw == duv + duw or duv == duw + dvw


def gp_violation(metric: Metric, members) -> str | None:
    """None when ``members`` is a general position set of the host, else
    a description of the first problem found."""
    members = [tuple(v) for v in members]
    for v in members:
        if not metric.in_range(v):
            return f"vertex {v} out of range"
    if len(set(members)) != len(members):
        return "duplicate vertex"
    d = metric.d
    for u, v, w in combinations(members, 3):
        if is_bad(d(u, v), d(v, w), d(u, w)):
            return f"bad triple {u}, {v}, {w}"
    return None


def bad_triple_count(metric: Metric, members) -> int:
    """Unordered bad triples among distinct ``members``."""
    members = list(members)
    m = len(members)
    D = [[metric.d(members[i], members[j]) for j in range(m)] for i in range(m)]
    return sum(
        1 for i, j, k in combinations(range(m), 3) if is_bad(D[i][j], D[j][k], D[i][k])
    )


def brute_force_max_count(spec: str) -> tuple[int, int]:
    """(gp, number of maximum general position sets) by growing every
    general position set one vertex at a time, in increasing vertex order."""
    metric = Metric.of(spec)
    verts = metric.vertices()
    n = len(verts)
    D = [[metric.d(a, b) for b in verts] for a in verts]
    level = [(v,) for v in range(n)]
    size = 1
    while True:
        nxt = []
        for S in level:
            for w in range(S[-1] + 1, n):
                if all(not is_bad(D[a][b], D[b][w], D[a][w]) for a, b in combinations(S, 2)):
                    nxt.append(S + (w,))
        if not nxt:
            return size, len(level)
        level, size = nxt, size + 1


def bad_triple_probability(token: str) -> Fraction:
    """Share of ordered triples (x, y, z) with x on a shortest y,z-path."""
    D = bfs_table(factor_adjacency(token))
    n = len(D)
    bad = sum(1 for x in range(n) for y in range(n) for z in range(n) if D[y][z] == D[y][x] + D[x][z])
    return Fraction(bad, n**3)


def sample_size(token: str, power: int) -> int:
    """Largest M >= 3 with (M-1)(M-2) <= p^-power, or 2 if none."""
    target = 1 / bad_triple_probability(token) ** power
    if target < 2:
        return 2
    m = 3
    while m * (m - 1) <= target:
        m += 1
    return m
