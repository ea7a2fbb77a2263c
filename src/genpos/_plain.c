/* The plain loop of genpos.solver._dfs, node for node with its Python
   loop (``rec_sym`` without a state): the same pop-lowest-bit order, the
   same cut |S| + |cand| < bar with bar = best + slack, the same node
   count, budget poll and witness and tie updates.  Every plain subtree of
   the max-search, counting, enumeration and the cover bound runs here; a
   set that meets the subtree's tie mask goes to the caller's keeper,
   which keeps it for counting to weigh once the search is done and for
   enumeration (whose mask holds every vertex) to list.  Built and loaded
   with ctypes by genpos.solver on the first plain subtree; without a C
   compiler the Python loop runs instead.

   allowed: n x n x W words, allowed[(a*n + b)*W + j] holding bits
   64j..64j+63 of the vertices completing no bad triple with a and b.
   buf: the state below (STATE words, read and written back), then S (n
   words: the prefix, k members on entry, then the search path), the
   witness (n words: S + [v] at each new best), the tie mask (W words,
   all zero outside counting's tie tracking and enumeration) and the
   candidate stack (W words per depth, the candidates on entry in its
   first W).  N to SLACK are written once per search, K to REMAINING and
   S at each hand-over.
   KEEP holds the keeper, a function pointer, ROWS the row stack (below)
   and REMAINING a double: the seconds left of the time budget when TIMED
   is set.
   TIED is 1 when the prefix already meets the tie mask.  A set S + [v]
   reached at size >= best is tied when S + [v] meets the mask; then
   S[k] = v is written and the keeper is called with k + 1 before any
   update, else the set adds one to TIES, which counts the untied sets of
   size BEST reached since BEST was last raised (the one raising it
   included).
   The row stack holds n x W words per depth: at each depth, R[u] at u*W
   for every candidate u, the AND of allowed[s][u] over the members s of
   S.  A node v then ANDs one row, R[v], into the candidates, and a child
   that is searched gets R[u] & allowed[v][u] for each of its candidates
   u, read from the one block allowed[v].  Entry rows are seeded from the
   k prefix rows.  A depth with candidates has fewer than the depth
   above, so a fill reaches at most depth n - 1 and the stack needs at
   most n x n x W words.  The loop body is built for W = 1 to 4, which
   covers every host of up to 256 vertices, and once more for a W read at
   run time.
   Returns 0 when the subtree is done, 1 when the node or time budget
   stopped it, and 2 when the keeper returned nonzero (it raised); the
   state is written back in every case. */
#define _POSIX_C_SOURCE 199309L  /* clock_gettime under a strict -std */
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { N, W, KEEP, ROWS, MAX_NODES, STEP, TIMED, SLACK, IMPROVED, TIES, K, BEST, NODES, CHECK_AT, TIED, REMAINING, STATE };

typedef int (*Keeper)(int64_t);

typedef struct {
    const uint64_t *allowed, *tie;
    int64_t *st, *S, *witness;
    double deadline;
    Keeper keep;
} Search;

/* the loop at one depth: k members in S, the candidates and their rows */
typedef int (*Depth)(Search *, int64_t k, uint64_t *cand, uint64_t *rows, int64_t left, int tied);

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

/* the one loop body, inlined into each width's function with w fixed;
   self is that function, called for a child */
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
        if (++st[NODES] >= st[CHECK_AT]) {
            if (st[NODES] >= st[MAX_NODES] || (st[TIMED] && now() > s->deadline))
                return 1;
            st[CHECK_AT] = st[NODES] + st[STEP] < st[MAX_NODES] ? st[NODES] + st[STEP] : st[MAX_NODES];
        }
        for (int64_t j = 0; j < w; j++)
            nc[j] = cand[j] & rows[v * w + j];
        if (k + 1 >= st[BEST]) {
            if (vtied) {
                s->S[k] = v;
                if (s->keep(k + 1))
                    return 2;
            }
            if (k + 1 > st[BEST]) {
                st[BEST] = k + 1;
                st[IMPROVED] = 1;
                st[TIES] = !vtied;
                memcpy(s->witness, s->S, k * sizeof *s->S);
                s->witness[k] = v;
            } else {
                st[TIES] += !vtied;
            }
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

int genpos_plain(const uint64_t *allowed, int64_t *buf)
{
    int64_t n = buf[N], w = buf[W], k = buf[K];
    const uint64_t *tie = (const uint64_t *)(buf + STATE + 2 * n);
    uint64_t *cand = (uint64_t *)(tie + w), *rows;
    double remaining;
    Keeper keep;
    memcpy(&rows, buf + ROWS, sizeof rows);
    memcpy(&remaining, buf + REMAINING, sizeof remaining);
    memcpy(&keep, buf + KEEP, sizeof keep);
    Search s = {allowed, tie, buf, buf + STATE, buf + STATE + n, buf[TIMED] ? now() + remaining : 0.0, keep};
    for (int64_t i = 0; i < w; i++)
        for (uint64_t x = cand[i]; x; x &= x - 1)
            memset(rows + (i * 64 + __builtin_ctzll(x)) * w, 0xff, w * sizeof *rows);
    for (int64_t m = 0; m < k; m++)
        and_rows(rows, rows, allowed + s.S[m] * n * w, cand, w);
    buf[IMPROVED] = buf[TIES] = 0;
    Depth depth = w == 1 ? rec1 : w == 2 ? rec2 : w == 3 ? rec3 : w == 4 ? rec4 : recw;
    return depth(&s, k, cand, rows, popcount(cand, w), (int)buf[TIED]);
}
