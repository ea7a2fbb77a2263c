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
   first W).
   KEEP holds the keeper, a function pointer, and REMAINING a double:
   the seconds left of the time budget when TIMED is set.
   TIED is 1 when the prefix already meets the tie mask.  A set S + [v]
   reached at size >= best is tied when S + [v] meets the mask; then
   S[k] = v is written and the keeper is called with k + 1 before any
   update, else the set adds one to TIES, which counts the untied sets of
   size BEST reached since BEST was last raised (the one raising it
   included).
   Returns 0 when the subtree is done, 1 when the node or time budget
   stopped it, and 2 when the keeper returned nonzero (it raised); the
   state is written back in every case. */
#define _POSIX_C_SOURCE 199309L  /* clock_gettime under a strict -std */
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { N, W, KEEP, IMPROVED, TIES, K, BEST, NODES, CHECK_AT, MAX_NODES, STEP, TIMED, SLACK, TIED, REMAINING, STATE };

typedef int (*Keeper)(int64_t);

typedef struct {
    const uint64_t *allowed, *tie;
    int64_t *st, *S, *witness;
    double deadline;
    Keeper keep;
} Search;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static int64_t popcount(const uint64_t *x, int64_t w)
{
    int64_t c = 0;
    for (int64_t j = 0; j < w; j++)
        c += __builtin_popcountll(x[j]);
    return c;
}

static int rec(Search *s, int64_t k, uint64_t *cand, int64_t left, int tied)
{
    int64_t *st = s->st, n = st[N], w = st[W];
    uint64_t *nc = cand + w;
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
        memcpy(nc, cand, w * sizeof *nc);
        for (int64_t m = 0; m < k; m++) {
            const uint64_t *row = s->allowed + (s->S[m] * n + v) * w;
            for (int64_t j = 0; j < w; j++)
                nc[j] &= row[j];
        }
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
            s->S[k] = v;
            int stopped = rec(s, k + 1, nc, c, vtied);
            if (stopped)
                return stopped;
        }
    }
    return 0;
}

int genpos_plain(const uint64_t *allowed, int64_t *buf)
{
    int64_t n = buf[N], w = buf[W];
    const uint64_t *tie = (const uint64_t *)(buf + STATE + 2 * n);
    uint64_t *stack = (uint64_t *)(tie + w);
    double remaining;
    Keeper keep;
    memcpy(&remaining, buf + REMAINING, sizeof remaining);
    memcpy(&keep, buf + KEEP, sizeof keep);
    Search s = {allowed, tie, buf, buf + STATE, buf + STATE + n, buf[TIMED] ? now() + remaining : 0.0, keep};
    buf[IMPROVED] = buf[TIES] = 0;
    return rec(&s, buf[K], stack, popcount(stack, w), (int)buf[TIED]);
}
