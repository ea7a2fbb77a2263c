/* The search loop of genpos.solver._dfs, node for node with its Python
   loop ``rec_sym``: the same pop-lowest-bit order, the same cut
   |S| + |cand| < bar with bar = best + slack, the same node count, budget
   poll, witness, count and tie updates.  One call runs one start of _dfs,
   every node of it: the nodes under a prefix state (sym, below), which
   branch only on the state's orbit-minimal candidates, and the plain
   nodes below a trivial stabilizer (rec).  Beside it, genpos_index
   builds the words that the loop reads, and genpos_orbits each prefix
   state's block (both at the end of this comment).
   Built and loaded with ctypes by genpos.solver on the first index build
   or search; without a C compiler the Python loop runs instead, on words
   built in numpy.

   allowed: n x n x W words, allowed[(a*n + b)*W + j] holding bits
   64j..64j+63 of the vertices completing no bad triple with a and b.
   buf: the header below (HEADER words), then S (n words: the prefix, k
   members on entry, then the search path), the witness (n words: S + [v]
   at each new best), and three stacks of W words per depth from the
   start: the candidates (the start's in the first W), the tie masks (the
   search's in the first W, all zero outside counting and enumeration)
   and the chosen members without the prefix (zero in the first W).  N to
   SPARE are written once per search; BEST, NODES, CHECK_AT and COUNT run
   on across its starts; K to REMAINING and S are written per start.
   CALL holds the callback, ROWS the row stack (below) and START the
   start's state block (0 for none); REMAINING is a double, the seconds
   left of the time budget when TIMED is set.  COUNT and COUNT_HI are an
   unsigned 128-bit sum, the weight of the untied sets of size BEST
   reached since BEST was last raised (the one raising it included).
   IMPROVED is set when the start raised BEST.

   A state block, made by genpos_orbits for each prefix state (a
   stabilizer that moves some vertex), is n + n + W + (m + 1) W words: per
   vertex v the child state's block (0 until derived, 1 for a trivial
   stabilizer, else its address) and the row of v's orbit if v is
   orbit-minimal; the mask of the m orbit-minimal vertices; and per orbit
   t, in ascending order, keep[t], the vertices whose orbit starts at or
   above t, then a zero row.  So t's orbit is keep[t] ^ keep[next].  A
   node v drops the candidates outside keep[v]; when COUNTING, the child
   carries the product of its members' orbit sizes (the set's weight,
   times WEIGHT) and the tie mask gains v's orbit less v.  A product that
   int64 cannot hold is never wrapped: the sets below go to the caller as
   ties, and it weighs them exactly.

   The callback, CALL(op, a, b), is made in three cases.  KEEP, a = k + 1:
   S[:k + 1] is a set of at least BEST members that meets its tie mask,
   handed over before any update.  DERIVE, a = a block, b = v: the child
   of v, not pre-marked trivial, is used for the first time; the caller
   writes it into the block.
   LEAD, a = k + 1: the max-search (GROUP) passes below a trivial
   stabilizer with at least 3 members and at least SPARE candidates beyond
   the bound's need, and S[:k + 1] is tested setwise; 1 searches the
   subtree, 0 skips it.  A negative return means the callback raised.

   The row stack holds n x W words per depth: at each depth, R[u] at u*W
   for every candidate u, the AND of allowed[s][u] over the members s of
   S.  A node v then ANDs one row, R[v], into the candidates, and a child
   that is searched gets R[u] & allowed[v][u] for each of its candidates
   u, read from the one block allowed[v].  Entry rows are seeded from the
   k prefix rows.  A depth with candidates has fewer than the depth
   above, so a fill reaches at most depth n - 1 and the stack needs at
   most n x n x W words.  The plain body is built for W = 1 to 4, which
   covers every host of up to 256 vertices, and once more for a W read at
   run time.
   Returns 0 when the start is done, 1 when the node or time budget
   stopped it, and 2 when a callback raised; the header is written back
   in every case.

   genpos_index(D, n, W, diam, R, words) builds the allowed words above
   for BadTripleIndex from D, the n x n int32 distance matrix of diameter
   diam, row-major.  It writes words, which the caller zeroes, for every
   pair a != b and leaves the diagonal zero.  R is its scratch, also
   zeroed by the caller: n x (diam + 1) x W words, R[x][d] the bitset of
   the vertices u with d(x, u) = d.  As diam < n, R is at most the size
   of words.  For a pair (a, b) at distance d, u completes a bad triple
   when it lies between a and b, the OR over e <= d of R[a][e] & R[b][d - e];
   when a lies between u and b, R[a][e] & R[b][e + d]; or when b lies
   between a and u, R[b][e] & R[a][e + d].  allowed[a][b] is the
   complement of that union within the n vertices, plus a and b, and
   allowed[b][a] its copy: about (2 diam + 3) W word operations a pair.

   genpos_orbits(spec, out) builds one prefix state's block from tables
   that the caller reads off its factor groups; no family rule is known
   here.  spec holds n, W, the number P of positions and the number of
   classes, then per position p its size, its stride, and the addresses
   of two tables, both 0 where p's group is already trivial: the int64
   orbit minima of p's factor group and the byte table trivial[c], set
   when fixing value c too leaves that group trivial.  Then per class its
   length and its positions.  A vertex's orbit minimum takes each
   coordinate to its factor orbit's minimum and sorts each class's values
   ascending over its positions.  out, zeroed here, gets per vertex that
   minimum (low) and its orbit's size, then the block above (which the
   search reads from out + 2n), and the return is the words written:
   4n + (m + 2) W.  The child of an orbit-minimal v is pre-marked 1 when
   every position turns trivial at v's coordinate and v's coordinates
   differ within each class, exactly the children whose stabilizer acts
   trivially, so the loop never calls back for them.  out must hold
   4n + (n + 2) W words. */
#define _POSIX_C_SOURCE 199309L  /* clock_gettime under a strict -std */
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { N, W, CALL, ROWS, MAX_NODES, STEP, TIMED, SLACK, SPARE, BEST, NODES, CHECK_AT, COUNT, COUNT_HI, K, START,
       WEIGHT, COUNTING, GROUP, REMAINING, IMPROVED, HEADER };
enum { KEEP, DERIVE, LEAD };

typedef int (*Callback)(int64_t op, int64_t a, int64_t b);

struct Search;

/* the plain loop at one depth: k members in S, the candidates and their rows */
typedef int (*Depth)(struct Search *, int64_t k, uint64_t *cand, uint64_t *rows, int64_t left, int tied);

typedef struct Search {
    const uint64_t *allowed, *tie;  /* tie: the plain subtree's mask */
    int64_t *st, *S, *witness;
    uint64_t weight;  /* of each untied set of the plain subtree */
    double deadline;
    Callback call;
    Depth plain;
} Search;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

#define INLINE static inline __attribute__((always_inline))  /* w stays a constant */

INLINE int64_t popcount(const uint64_t *x, const int64_t w)
{
    int64_t c = 0;
    for (int64_t j = 0; j < w; j++)
        c += __builtin_popcountll(x[j]);
    return c;
}

/* to[u] = from[u] & block[u] for each u in cand, W words each at u*W */
INLINE void and_rows(uint64_t *to, const uint64_t *from, const uint64_t *block, const uint64_t *cand, const int64_t w)
{
    for (int64_t i = 0; i < w; i++)
        for (uint64_t x = cand[i]; x; x &= x - 1) {
            int64_t u = (i * 64 + __builtin_ctzll(x)) * w;
            for (int64_t j = 0; j < w; j++)
                to[u + j] = from[u + j] & block[u + j];
        }
}

/* a node is counted and polls the budget: nonzero when it is spent */
INLINE int spent(Search *s)
{
    int64_t *st = s->st;
    if (++st[NODES] >= st[CHECK_AT]) {
        if (st[NODES] >= st[MAX_NODES] || (st[TIMED] && now() > s->deadline))
            return 1;
        st[CHECK_AT] = st[NODES] + st[STEP] < st[MAX_NODES] ? st[NODES] + st[STEP] : st[MAX_NODES];
    }
    return 0;
}

/* S + [v], of at least BEST members, adds weight to the count (0 when
   tied), or starts it if it is a new best */
INLINE void reached(Search *s, int64_t k, int64_t v, uint64_t weight)
{
    int64_t *st = s->st;
    uint64_t *count = (uint64_t *)st;
    if (k + 1 > st[BEST]) {
        st[BEST] = k + 1;
        st[IMPROVED] = 1;
        count[COUNT] = weight;
        count[COUNT_HI] = 0;
        memcpy(s->witness, s->S, k * sizeof *s->S);
        s->witness[k] = v;
    } else {
        count[COUNT] += weight;
        count[COUNT_HI] += count[COUNT] < weight;
    }
}

/* the plain body, inlined into each width's function with w fixed; self
   is that function, called for a child */
INLINE int rec(Search *s, int64_t k, uint64_t *cand, uint64_t *rows, int64_t left, int tied, const int64_t w,
               Depth self)
{
    int64_t *st = s->st, n = st[N];
    uint64_t *nc = cand + w, *nrows = rows + n * w;
    for (int64_t i = 0; i < w;) {  /* cand[i] holds the lowest candidate */
        if (!cand[i]) {
            i++;
            continue;
        }
        if (k + left < st[BEST] + st[SLACK])
            return 0;
        int64_t v = i * 64 + __builtin_ctzll(cand[i]);
        int vtied = tied | (int)(s->tie[i] >> (v & 63) & 1);
        cand[i] &= cand[i] - 1;
        left--;
        if (spent(s))
            return 1;
        for (int64_t j = 0; j < w; j++)
            nc[j] = cand[j] & rows[v * w + j];
        if (k + 1 >= st[BEST]) {
            if (vtied) {
                s->S[k] = v;
                if (s->call(KEEP, k + 1, 0))
                    return 2;
            }
            reached(s, k, v, vtied ? 0 : s->weight);
        }
        int64_t c = popcount(nc, w);
        if (c && k + 1 + c >= st[BEST] + st[SLACK]) {
            and_rows(nrows, rows, s->allowed + v * n * w, nc, w);  /* allowed[v][u] at u*w */
            s->S[k] = v;
            int stopped = self(s, k + 1, nc, nrows, c, vtied);
            if (stopped)
                return stopped;
        }
    }
    return 0;
}

#define WIDTH(name, w) \
    static int name(Search *s, int64_t k, uint64_t *cand, uint64_t *rows, int64_t left, int tied) \
    { return rec(s, k, cand, rows, left, tied, w, name); }
WIDTH(rec1, 1)
WIDTH(rec2, 2)
WIDTH(rec3, 3)
WIDTH(rec4, 4)
WIDTH(recw, s->st[W])

/* a depth whose prefix has the state block b: size is the product of the
   orbit sizes of the chosen members (-1 once it overflows), tie and
   chosen this depth's masks */
static int sym(Search *s, int64_t k, uint64_t *cand, uint64_t *rows, const uint64_t *tie, const uint64_t *chosen,
               uint64_t *b, int64_t size)
{
    int64_t *st = s->st, n = st[N], w = st[W];
    uint64_t *nc = cand + w, *nrows = rows + n * w, *ntie = (uint64_t *)tie + w, *nchosen = (uint64_t *)chosen + w;
    const uint64_t *mask = b + 2 * n;
    for (int64_t i = 0; i < w;) {  /* the lowest orbit-minimal candidate is in word i or later */
        uint64_t bit = cand[i] & mask[i];
        if (!bit) {
            cand[i++] = 0;  /* skipped: below every later branch */
            continue;
        }
        bit &= -bit;
        cand[i] &= ~(bit - 1);
        if (k + popcount(cand, w) < st[BEST] + st[SLACK])
            return 0;
        cand[i] ^= bit;
        int64_t v = i * 64 + __builtin_ctzll(bit);
        if (spent(s))
            return 1;
        const uint64_t *keep = mask + w + (int64_t)b[n + v] * w;  /* keep[v], then the next orbit's */
        int64_t orbit = 0, vsize, weight = 0;
        int vtied = 0, ctied = 0;
        for (int64_t j = 0; j < w; j++) {
            uint64_t more = st[COUNTING] ? keep[j] ^ keep[w + j] : 0;  /* v's orbit */
            nc[j] = cand[j] & rows[v * w + j] & keep[j];
            orbit += __builtin_popcountll(more);
            ntie[j] = tie[j] | (more & ~(j == i ? bit : 0));
            nchosen[j] = chosen[j] | (j == i ? bit : 0);
            vtied |= (nchosen[j] & tie[j]) != 0;
            ctied |= (nchosen[j] & ntie[j]) != 0;
        }
        if (!st[COUNTING])
            vsize = size;
        else if (size < 0 || __builtin_mul_overflow(size, orbit, &vsize))
            vsize = -1;
        /* a set whose weight int64 cannot hold goes to the keeper, which weighs it exactly */
        int big = vsize < 0 || __builtin_mul_overflow(st[WEIGHT], vsize, &weight);
        if (k + 1 >= st[BEST]) {
            if (vtied || big) {
                s->S[k] = v;
                if (s->call(KEEP, k + 1, 0))
                    return 2;
            }
            reached(s, k, v, vtied || big ? 0 : (uint64_t)weight);
        }
        int64_t c = popcount(nc, w);
        if (c && k + 1 + c >= st[BEST] + st[SLACK]) {
            s->S[k] = v;
            if (!b[v] && s->call(DERIVE, (int64_t)(intptr_t)b, v))
                return 2;
            uint64_t child = b[v];
            int search = 1;
            if (child == 1 && st[GROUP] && k + 1 >= 3 && k + 1 + c - st[BEST] - st[SLACK] >= st[SPARE])
                if ((search = s->call(LEAD, k + 1, 0)) < 0)
                    return 2;
            if (search) {
                and_rows(nrows, rows, s->allowed + v * n * w, nc, w);
                int stopped;
                if (child != 1) {
                    stopped = sym(s, k + 1, nc, nrows, ntie, nchosen, (uint64_t *)(uintptr_t)child, vsize);
                } else {
                    s->tie = ntie;
                    s->weight = big ? 0 : (uint64_t)weight;
                    stopped = s->plain(s, k + 1, nc, nrows, c, ctied || big);
                }
                if (stopped)
                    return stopped;
            }
        }
    }
    return 0;
}

int genpos_plain(const uint64_t *allowed, int64_t *buf)
{
    int64_t n = buf[N], w = buf[W], k = buf[K];
    uint64_t *cand = (uint64_t *)(buf + HEADER + 2 * n), *tie = cand + (n + 1) * w, *rows, *start;
    double remaining;
    Callback call;
    memcpy(&rows, buf + ROWS, sizeof rows);
    memcpy(&start, buf + START, sizeof start);
    memcpy(&remaining, buf + REMAINING, sizeof remaining);
    memcpy(&call, buf + CALL, sizeof call);
    Depth plain = w == 1 ? rec1 : w == 2 ? rec2 : w == 3 ? rec3 : w == 4 ? rec4 : recw;
    Search s = {allowed, tie, buf, buf + HEADER, buf + HEADER + n, (uint64_t)buf[WEIGHT],
                buf[TIMED] ? now() + remaining : 0.0, call, plain};
    for (int64_t i = 0; i < w; i++)
        for (uint64_t x = cand[i]; x; x &= x - 1)
            memset(rows + (i * 64 + __builtin_ctzll(x)) * w, 0xff, w * sizeof *rows);
    for (int64_t m = 0; m < k; m++)
        and_rows(rows, rows, allowed + s.S[m] * n * w, cand, w);
    buf[IMPROVED] = 0;
    if (start)
        return sym(&s, k, cand, rows, tie, tie + (n + 1) * w, start, 1);
    return plain(&s, k, cand, rows, popcount(cand, w), 0);
}

/* the index's words from D's distance rings (see the header comment) */
void genpos_index(const int32_t *D, int64_t n, int64_t w, int64_t diam, uint64_t *R, uint64_t *words)
{
    int64_t rw = (diam + 1) * w;  /* R[x][d] at x*rw + d*w */
    uint64_t last = n % 64 ? ((uint64_t)1 << n % 64) - 1 : ~(uint64_t)0;
    for (int64_t x = 0; x < n; x++)
        for (int64_t u = 0; u < n; u++)
            R[x * rw + D[x * n + u] * w + u / 64] |= (uint64_t)1 << (u & 63);
    for (int64_t a = 0; a < n; a++)
        for (int64_t b = a + 1; b < n; b++) {
            int64_t d = D[a * n + b];
            const uint64_t *ra = R + a * rw, *rb = R + b * rw;
            uint64_t *ab = words + (a * n + b) * w;
            for (int64_t e = 0; e <= d; e++)  /* u between a and b */
                for (int64_t j = 0; j < w; j++)
                    ab[j] |= ra[e * w + j] & rb[(d - e) * w + j];
            for (int64_t e = 0; e + d <= diam; e++)  /* a between u and b, b between a and u */
                for (int64_t j = 0; j < w; j++)
                    ab[j] |= (ra[e * w + j] & rb[(e + d) * w + j]) | (rb[e * w + j] & ra[(e + d) * w + j]);
            for (int64_t j = 0; j < w; j++)
                ab[j] = ~ab[j] & (j < w - 1 ? ~(uint64_t)0 : last);
            ab[a / 64] |= (uint64_t)1 << (a & 63);
            ab[b / 64] |= (uint64_t)1 << (b & 63);
            memcpy(words + (b * n + a) * w, ab, w * sizeof *ab);
        }
}

/* one prefix state's orbit minima, orbit sizes and block (see the header comment) */
int64_t genpos_orbits(const int64_t *spec, uint64_t *out)
{
    int64_t n = spec[0], w = spec[1], np = spec[2], nc = spec[3], m = 0;
    const int64_t *pos = spec + 4, *classes = pos + 4 * np;  /* size, stride, lows, trivial per position */
    uint64_t *low = out, *size = out + n, *child = out + 2 * n, *slot = out + 3 * n, *mask = out + 4 * n;
    int64_t x[np + 1], y[np + 1];  /* the vertex's coordinates, and their orbit minima */
    memset(out, 0, (4 * n + w) * sizeof *out);
    memset(x, 0, np * sizeof *x);
    for (int64_t v = 0; v < n; v++) {
        int64_t c = 0;
        for (int64_t p = 0; p < np; p++) {
            const int64_t *lows = (const int64_t *)(intptr_t)pos[4 * p + 2];
            y[p] = lows ? lows[x[p]] : x[p];
        }
        const int64_t *cls = classes;
        for (int64_t k = 0; k < nc; k++, cls += 1 + cls[0])  /* insertion sort over the class's positions */
            for (int64_t i = 1; i < cls[0]; i++) {
                int64_t value = y[cls[1 + i]], j = i;
                for (; j > 0 && y[cls[j]] > value; j--)
                    y[cls[1 + j]] = y[cls[j]];
                y[cls[1 + j]] = value;
            }
        for (int64_t p = 0; p < np; p++)
            c += y[p] * pos[4 * p + 1];
        low[v] = c;
        size[c]++;
        if (c == v) {  /* y is v's own coordinates */
            int trivial = 1;
            for (int64_t p = 0; p < np && trivial; p++) {
                const uint8_t *turns = (const uint8_t *)(intptr_t)pos[4 * p + 3];
                trivial = !turns || turns[x[p]];
            }
            cls = classes;
            for (int64_t k = 0; k < nc && trivial; k++, cls += 1 + cls[0])
                for (int64_t i = 1; i < cls[0] && trivial; i++)
                    trivial = y[cls[i]] != y[cls[1 + i]];
            child[v] = trivial;
            slot[v] = m++;
            mask[v / 64] |= (uint64_t)1 << (v & 63);
        }
        for (int64_t p = np - 1; p >= 0 && ++x[p] == pos[4 * p]; p--)  /* the next vertex's coordinates */
            x[p] = 0;
    }
    uint64_t *keep = mask + w;  /* row i: the i-th orbit, then the union of the orbits from it on */
    memset(keep, 0, (m + 1) * w * sizeof *keep);
    for (int64_t v = 0; v < n; v++) {
        keep[slot[low[v]] * w + v / 64] |= (uint64_t)1 << (v & 63);
        size[v] = size[low[v]];
    }
    for (int64_t i = m - 1; i >= 0; i--)
        for (int64_t j = 0; j < w; j++)
            keep[i * w + j] |= keep[(i + 1) * w + j];
    return 4 * n + (m + 2) * w;
}
