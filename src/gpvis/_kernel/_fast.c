/* Compiled kernel: a uint64 bitset mirror of pure.py for order <= 64.

   Written by hand against the CPython C API.  Every algorithm here
   mirrors gpvis/_kernel/pure.py, which is the semantic reference: the
   same layer sweep as the only visibility walk (one sweep of the
   distance layers from a source answers every pair of that source), so
   the same pair test and set check, the same greedy sweep and the same
   branch-and-bound with the twin-class prefix rule and, given
   symmetries, the same dropped orbits: a done root's orbit leaves the
   later roots, and a done depth-1 child's orbit under its root's
   stabilizer (from Schreier generators, built once per root when the
   loop goes on) leaves the later children (the Symmetry notes in
   pure.py argue their soundness).  It takes pure's two upper bounds
   (the Bounds notes in pure.py): for TOTAL and OUTER the capacity
   groups, built per solve from the twin table with the same chunks,
   matching and caps (capacity_groups), cut the root and every child;
   for GP a greedy clique cover of a root child's candidates, over the
   pair conflicts of pairbad, cuts the children of the root.  Given a
   start set, solve_max checks
   it with set_ok and takes it as the first incumbent in place of the
   greedy seed, as pure's does.  So the two kernels return the same
   value, witness mask, node count and status, and the parity tests hold
   them to it.  Only the data layout differs: masks are uint64_t and the
   tables are flat arrays built per call.

   greedy_set and solve_max run, as pure's do, on the search copy: the
   graph renumbered so that the search order (descending degree, ties by
   index) is 0..n-1 (pure._search_copy; BBMC's renumbering, San Segundo
   et al. 2011).  A candidate set is one u64 whose lowest bit is the
   next vertex tried, the symmetries are read into the copy's labels,
   and each returned mask is mapped back once; search reads line for
   line as pure.solve_max's run.  One step differs: the child's filter.
   pure._Tables.extensions(kind, smask, w, cmask, need) filters the
   candidate mask from two sides at once; here each candidate is tested
   on its own with extends, which assumes a base that has the property.
   Both keep exactly the candidates x for which S + w + x has the
   property whenever at least need of them do, and both give up on the
   child otherwise, so both walk the same tree.  OUTER and TOTAL test
   set_ok of the grown set.  MV and GP re-test just what the new vertex
   can break: for GP one pairbad lookup per member is far cheaper than a
   triple scan, and for MV the sweeps that reach the pairs through the
   new vertex (one from it, and one from each member whose interval with
   a later member holds it) cost less than set_ok of the grown set (see
   extends).  The exported extend_ok assumes nothing of its base: it is
   pure.extend_ok, set_ok of the grown set.

   setup.py builds this file as gpvis._kernel._fast; without a C compiler
   the package runs on pure.py alone. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

typedef uint64_t u64;

#define MAXN 64
#define BIT(x) ((u64)1 << (x))
#define ALL(n) ((n) == MAXN ? ~(u64)0 : BIT(n) - 1)
#define TIME_CHECK_MASK 1023

/* NO_KIND: a context that checks sets and pairs but extends none. */
enum { NO_KIND = -1, MV = 0, OUTER = 1, TOTAL = 2, GP = 3 };

/* Search outcomes, as solve_max reports them; ERROR leaves an exception set. */
enum { EXACT = 0, TARGET = 1, TIME_UP = 2, ERROR = -1 };

static inline int lowbit(u64 x) { return __builtin_ctzll(x); }

static inline int popcount(u64 x) { return __builtin_popcountll(x); }

typedef struct {
    int n, stride;
    u64 adj[MAXN];
    int order[MAXN]; /* vertex i is the caller's order[i] */
    int label[MAXN]; /* the caller's v is vertex label[v] */
    /* the twin table (twin_table), of the whole search copy, or of the
       sources of a set check: v's class is the vertices whose adj row
       equals v's */
    int pred[MAXN];  /* the vertex before v in its class, or -1 */
    u64 below[MAXN]; /* the vertices before v in its class */
    int *dist;       /* n*n distances */
    u64 *balls;      /* balls[u*stride + t]: the vertices at distance t from u */
    u64 *btw;        /* btw[u*n + v]: vertices strictly inside some u,v-geodesic */
    u64 *pairbad;    /* pairbad[u*n + v]: third vertices of a geodesic triple with u, v */
} Ctx;

static int check_kind(int kind)
{
    if (kind < MV || kind > GP) {
        PyErr_Format(PyExc_ValueError, "unknown property kind code %d", kind);
        return -1;
    }
    return 0;
}

static int check_vertex(int v, int n)
{
    if (v < 0 || v >= n) {
        PyErr_Format(PyExc_ValueError, "vertex %d is outside 0..%d", v, n - 1);
        return -1;
    }
    return 0;
}

/* A vertex set (or adjacency row) of an order-n graph, as a mask; a
   negative int or one wider than 64 bits names a vertex outside it. */
static int read_mask(PyObject *obj, int n, const char *what, u64 *out)
{
    u64 m = PyLong_AsUnsignedLongLong(obj);
    int overflow = m == (u64)-1 && PyErr_Occurred();

    if (overflow && !PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
    if (overflow || (n < MAXN && m >> n)) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "%s has a vertex outside 0..%d", what, n - 1);
        return -1;
    }
    *out = m;
    return 0;
}

static inline int triple_bad(const int *dist, int n, int u, int v, int x)
{
    int duv = dist[u * n + v], dux = dist[u * n + x], dxv = dist[v * n + x];
    return dux + dxv == duv || duv + dxv == dux || dux + duv == dxv;
}

/* mask with each vertex v moved to to[v] (pure._mapped). */
static u64 mapped(u64 mask, const int *to)
{
    u64 out = 0;
    for (; mask; mask &= mask - 1)
        out |= BIT(to[lowbit(mask)]);
    return out;
}

static void ctx_free(Ctx *c)
{
    free(c->dist);
    free(c->balls);
    c->dist = NULL;
    c->balls = NULL;
}

/* Fill pred and below for the vertices of within, as if the graph had
   no others: the search reads them for every vertex, a set check for
   its sources alone.  A twin of v is a neighbour of each of v's
   neighbours, or, when v has none, a vertex without neighbours, so only
   those are compared. */
static void twin_table(Ctx *c, u64 within)
{
    int v;
    u64 lone = 0, r, left;

    for (left = within; left; left &= left - 1) {
        v = lowbit(left);
        c->pred[v] = -1;
        c->below[v] = 0;
        r = c->adj[v] ? c->adj[lowbit(c->adj[v])] : lone;
        for (r &= within & (BIT(v) - 1); r; r &= r - 1)
            if (c->adj[lowbit(r)] == c->adj[v]) {
                c->pred[v] = lowbit(r);
                c->below[v] |= r & -r;
            }
        if (!c->adj[v])
            lone |= BIT(v);
    }
}

/* Read the graph and build its tables: distances, balls, and the pair
   table that extends reads for kind (btw for MV, pairbad for GP, none
   otherwise).  With copy, the graph read is the search copy: vertex i
   is the i-th of the search order, descending degree with ties by index
   (pure._default_order); without, order is the identity.  The twin
   table is left to the callers that read it (twin_table): built here,
   even behind a branch, it changed how this function compiles, and set
   checks from Python read 1.02-1.10x as long (tools/compare_fast.py,
   GP checks that never read it included).  Each adj row
   must be ball row 1, the vertices at distance 1, so an adj of another
   graph than dist is rejected; a row with a vertex outside 0..n-1 is
   named only after the distances are read, in pure's order.  On failure
   nothing is left allocated and an exception is set. */
static int ctx_init(Ctx *c, int n, PyObject *adj, PyObject *dist, int kind, int copy)
{
    PyObject *seq;
    Py_ssize_t nn = (Py_ssize_t)n * n;
    int u, v, x, i, maxd = 0, table = kind == MV || kind == GP, bad_row = 0;
    size_t masks;
    u64 rows[MAXN], *pairs;

    c->dist = NULL;
    c->balls = NULL;
    if (n < 0 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "compiled kernel supports order <= %d, got %d", MAXN, n);
        return -1;
    }
    c->n = n;
    seq = PySequence_Fast(adj, "adj must be a sequence of row masks");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd rows for order %d",
                     PySequence_Fast_GET_SIZE(seq), n);
        goto fail_seq;
    }
    for (v = 0; v < n; v++)
        if (read_mask(PySequence_Fast_GET_ITEM(seq, v), n, "an adj row", &rows[v]) < 0) {
            /* a row outside 0..n-1 is named once dist has been read, in
               pure's order: the distances first, then adj */
            if (!PyErr_ExceptionMatches(PyExc_ValueError))
                goto fail_seq;
            PyErr_Clear();
            rows[v] = 0;
            bad_row = 1;
        }
    Py_DECREF(seq);
    for (v = 0; v < n; v++) {
        for (i = v; i > 0 && copy && popcount(rows[c->order[i - 1]]) < popcount(rows[v]); i--)
            c->order[i] = c->order[i - 1];
        c->order[i] = v;
    }
    for (i = 0; i < n; i++)
        c->label[c->order[i]] = i;
    for (v = 0; v < n; v++)
        c->adj[c->label[v]] = mapped(rows[v], c->label);

    seq = PySequence_Fast(dist, "dist must be a flat sequence of distances");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != nn) {
        PyErr_Format(PyExc_ValueError, "dist has %zd entries for order %d",
                     PySequence_Fast_GET_SIZE(seq), n);
        goto fail_seq;
    }
    c->dist = malloc((nn ? nn : 1) * sizeof(int));
    if (c->dist == NULL) {
        PyErr_NoMemory();
        goto fail_seq;
    }
    for (u = 0; u < n; u++)
        for (x = 0; x < n; x++) {
            long d = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, u * n + x));
            if (d == -1 && PyErr_Occurred())
                goto fail_seq;
            if (d < -1 || d > n) {
                PyErr_Format(PyExc_ValueError, "distance %ld is outside -1..%d", d, n);
                goto fail_seq;
            }
            c->dist[c->label[u] * n + c->label[x]] = (int)d;
            if (d > maxd)
                maxd = (int)d;
        }
    Py_DECREF(seq);

    /* balls, then the pair table, in one block */
    c->stride = maxd + 2;
    masks = (size_t)n * c->stride + (table ? (size_t)nn : 0);
    c->balls = calloc(masks ? masks : 1, sizeof(u64));
    if (c->balls == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (u = 0; u < n; u++)
        for (x = 0; x < n; x++) {
            int d = c->dist[u * n + x];
            if (d >= 0)
                c->balls[u * c->stride + d] |= BIT(x);
        }
    if (bad_row) {
        PyErr_Format(PyExc_ValueError, "an adj row has a vertex outside 0..%d", n - 1);
        goto fail;
    }
    for (u = 0; u < n; u++)
        if (c->adj[u] != c->balls[u * c->stride + 1]) {
            PyErr_SetString(PyExc_ValueError, "adj does not match dist: a row is not the vertices at distance 1");
            goto fail;
        }
    pairs = c->balls + (size_t)n * c->stride;
    c->btw = kind == MV ? pairs : NULL;
    c->pairbad = kind == GP ? pairs : NULL;
    for (u = 0; u < n && table; u++)
        for (v = u + 1; v < n; v++) {
            int duv = c->dist[u * n + v];
            u64 m = 0;
            for (x = 0; x < n; x++) {
                if (x == u || x == v)
                    continue;
                if (kind == MV ? c->dist[u * n + x] + c->dist[v * n + x] == duv
                                : triple_bad(c->dist, n, u, v, x))
                    m |= BIT(x);
            }
            pairs[u * n + v] = pairs[v * n + u] = m;
        }
    return 0;

fail_seq:
    Py_DECREF(seq);
fail:
    ctx_free(c);
    return -1;
}

/* Does the layer sweep from u miss a vertex of want (pure._unreached)?
   reach holds the layer's vertices that some u-geodesic reaches with
   only unblocked vertices inside it, so u sees v exactly when v is in
   reach at layer d(u, v); only reached unblocked vertices carry the walk
   on.  When they are a whole layer, they reach the whole next one,
   which is then taken without a walk.  Every caller asks only whether a
   vertex is missed, so the sweep stops at the first.  A vertex in
   another component lies in no layer, so it is never missed.  set_ok
   runs it from one source per twin class, since a twin of the source
   would see every third vertex alike. */
static int misses(const Ctx *c, int u, u64 want, u64 unblocked)
{
    const u64 *bu = c->balls + u * c->stride;
    u64 front = BIT(u), acc, reach, r;
    int t;

    for (t = 1; t < c->stride && want; t++) {
        if (front == bu[t - 1]) {
            reach = bu[t];
        } else {
            for (acc = 0, r = front; r; r &= r - 1)
                acc |= c->adj[lowbit(r)];
            reach = acc & bu[t];
        }
        if (want & bu[t] & ~reach)
            return 1;
        want &= ~bu[t];
        front = reach & unblocked;
    }
    return 0;
}

/* Full from-scratch verification of mask for the kind (pure.set_ok): one
   sweep from each source u, with mask blocked, checks every required
   pair (u, v) with v > u.  Two twins see each third vertex alike, under
   any blocked set (the Twin classes notes in pure.py), so a source with
   an earlier twin among the sources leaves its pairs to that twin's
   sweep: TOTAL sweeps from the first vertex of each class, MV and OUTER
   from the first member.  OUTER's search filter tests set_ok of the
   grown set, so it gains too; MV's filter does not call it.  GP tests
   each triple of members once, as the three-way "between" test is
   symmetric. */
static int set_ok(const Ctx *c, int kind, u64 mask)
{
    int n = c->n, u;
    u64 full = ALL(n), outside = full & ~mask;
    u64 r, r2, r3, want, sources = kind == TOTAL ? full : mask;

    if (kind == GP) {
        for (r = mask; r; r &= r - 1)
            for (r2 = r & (r - 1); r2; r2 &= r2 - 1)
                for (r3 = r2 & (r2 - 1); r3; r3 &= r3 - 1)
                    if (triple_bad(c->dist, n, lowbit(r), lowbit(r2), lowbit(r3)))
                        return 0;
        return 1;
    }
    for (r = sources; r; r &= r - 1) {
        u = lowbit(r);
        if (sources & c->below[u])
            continue;
        /* the vertices above u: members for MV, all for OUTER and TOTAL */
        want = (kind == MV ? mask : full) & (~(u64)0 << u << 1);
        if (kind == OUTER)
            want |= outside;
        if (misses(c, u, want, outside))
            return 0;
    }
    return 1;
}

/* Does smask + w keep the property, given that smask has it?  OUTER and
   TOTAL test set_ok of smask + w as it stands.  GP and MV re-test only
   what w can break: GP the triples through w, MV the pairs with an end
   at w or with w inside their geodesic interval, with smask + w blocked:
   one sweep from w reaches every member, and one from each member x
   reaches the later members whose interval with x holds w.  For MV this
   is the faster test: solves with set_ok of the grown set took
   1.24-1.30x as long on M(C12), M(C16) and M(C20), and 1.16x and 1.24x
   on D(C10) and D(C14) (tools/compare_fast.py, 11 runs).  Its start is
   pinned to a 64-byte boundary: it runs once per candidate, and when a
   change to set_ok above it moved it 16 bytes, MV and GP solves read
   1.04-1.12x as long on the same code (0-5 of 11 runs faster), and
   0.96-1.00x with both builds aligned. */
__attribute__((aligned(64))) static int extends(const Ctx *c, int kind, u64 smask, int w)
{
    int n = c->n, x;
    u64 wbit = BIT(w), unblocked = ~(smask | wbit), want, r, r2;

    if (kind == GP) {
        for (r = smask; r; r &= r - 1) {
            x = lowbit(r);
            if (c->pairbad[w * n + x] & smask & ~BIT(x))
                return 0;
        }
        return 1;
    }
    if (kind == MV) {
        if (misses(c, w, smask, unblocked))
            return 0;
        for (r = smask; r; r &= r - 1) {
            x = lowbit(r);
            for (want = 0, r2 = r & (r - 1); r2; r2 &= r2 - 1)
                if (c->btw[x * n + lowbit(r2)] & wbit)
                    want |= r2 & -r2;
            if (want && misses(c, x, want, unblocked))
                return 0;
        }
        return 1;
    }
    return set_ok(c, kind, smask | wbit);
}

/* pure.greedy_set on the search copy: the search tree's leftmost path,
   which heredity makes the plain sweep of vertices 0..n-1. */
static u64 greedy(const Ctx *c, int kind)
{
    u64 smask = 0;
    int v;
    for (v = 0; v < c->n; v++)
        if (extends(c, kind, smask, v))
            smask |= BIT(v);
    return smask;
}

static double monotonic(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + ts.tv_nsec * 1e-9;
}

typedef struct {
    const Ctx *c;
    int kind, best, target;
    int ngroups;      /* the capacity groups of TOTAL and OUTER (capacity_groups) */
    u64 group[MAXN];
    int cap[MAXN];    /* the most of group[i] that a set with the property holds */
    u64 orbit[MAXN]; /* v's orbit under the symmetries and twin swaps */
    int ngens;       /* the symmetries, n images each */
    int *gens;
    u64 stab[MAXN];  /* v's orbit under the current root's stabilizer */
    u64 best_mask;
    long long nodes;
    double deadline;
} Search;

static void stabilizer_orbits(Search *s, int w);

/* pure._capped: do the capacity groups cut more than slack of cands at
   the node with members smask?  Group i cuts
   max(0, |cands & group| - (cap - |smask & group|)). */
static int capped(const Search *s, u64 smask, u64 cands, int slack)
{
    int i, over;

    for (i = 0; i < s->ngroups; i++) {
        over = popcount(cands & s->group[i]) + popcount(smask & s->group[i]) - s->cap[i];
        if (over > 0 && (slack -= over) < 0)
            return 1;
    }
    return 0;
}

/* pure._covers: does a greedy clique cover of cands have at least need
   cliques, where x and y conflict when y is in bad[x]?  Each clique
   starts at the lowest uncovered vertex and takes, in bit order, every
   uncovered vertex that conflicts with all of it. */
static int covers(const u64 *bad, u64 cands, int need)
{
    u64 k;

    while (cands) {
        if (--need <= 0)
            return 1;
        k = cands & bad[lowbit(cands)];
        cands &= cands - 1;
        for (; k; k &= bad[lowbit(k)])
            cands &= ~(k & -k);
    }
    return 0;
}

/* pure.solve_max's run, with the per-candidate test in place of
   pure._Tables.extensions; vertices are the search copy's, so the lowest
   bit of cands is the next one tried.  Returns EXACT when the subtree is
   done.  A child is entered only with need = best - size candidates or
   more, enough to beat best; its loop of tests stops once the candidates
   kept and those left to test number fewer, as pure's filter stops, so a
   dead child is settled here and both kernels count the same nodes.  The
   deadline and signals are checked at the first node and every 1024
   after it. */
static int search(Search *s, u64 smask, int size, u64 cands)
{
    int left = popcount(cands), w, x, kept, togo, need, rc, stab_built = 0;
    const int *pred = s->c->pred;
    u64 new, rest, r;

    s->nodes++;
    if ((s->nodes & TIME_CHECK_MASK) == 1) {
        if (PyErr_CheckSignals() < 0)
            return ERROR;
        if (s->deadline != 0.0 && monotonic() > s->deadline)
            return TIME_UP;
    }
    if (!smask && s->ngroups && capped(s, 0, cands, left - s->best - 1))
        return EXACT;
    while (size + left > s->best) {
        w = lowbit(cands);
        cands &= cands - 1;
        left--;
        if (pred[w] >= 0 && !(smask & BIT(pred[w])))
            continue;
        new = smask | BIT(w);
        if (size >= s->best) {
            s->best = size + 1;
            s->best_mask = new;
            if (s->target && s->best >= s->target)
                return TARGET;
        }
        /* the child beats best only with at least need candidates; the
           twin-prefix rule keeps x only after pred[x], a lower bit */
        need = s->best - size;
        rest = 0;
        for (r = cands, kept = 0, togo = left; r && kept + togo >= need; r &= r - 1, togo--) {
            x = lowbit(r);
            if (pred[x] >= 0 && !((new | rest) & BIT(pred[x])))
                continue;
            if (extends(s->c, s->kind, new, x)) {
                rest |= BIT(x);
                kept++;
            }
        }
        /* the child must beat best under the capacity bound, and under
           the clique cover at depth 1 for GP */
        if (kept >= need && !(s->ngroups && capped(s, new, rest, kept - need))
            && (s->kind != GP || smask || covers(s->c->pairbad + w * s->c->n, rest, need))
            && (rc = search(s, new, size + 1, rest)) != EXACT)
            return rc;
        if (!smask) {
            /* the root w is done, and no larger set meets its orbit */
            cands &= ~s->orbit[w];
            left = popcount(cands);
        } else if (size == 1 && s->ngens && size + left > s->best && (cands & s->orbit[w])) {
            /* the child w of the root is done, and no larger set that
               holds the root meets w's orbit under its stabilizer, which
               lies in its orbit under the whole group */
            if (!stab_built) {
                stabilizer_orbits(s, lowbit(smask));
                stab_built = 1;
            }
            cands &= ~s->stab[w];
            left = popcount(cands);
        }
    }
    return EXACT;
}

/* pure._Tables.cap: the largest set smask + T, T within cands within
   group, with the property, or best if that is larger: a DFS with the
   search's filter, given that smask + x has the property for every x in
   cands, which takes w only after pred[w] when that is in the group. */
static int cap_of(const Ctx *c, int kind, u64 group, u64 smask, u64 cands, int best)
{
    int size = popcount(smask), w;
    u64 rest, r;

    if (size > best)
        best = size;
    while (cands && size + popcount(cands) > best) {
        w = lowbit(cands);
        cands &= cands - 1;
        if (c->pred[w] >= 0 && (group & ~smask & BIT(c->pred[w])))
            continue;
        for (rest = 0, r = cands; r; r &= r - 1)
            if (extends(c, kind, smask | BIT(w), lowbit(r)))
                rest |= r & -r;
        best = cap_of(c, kind, group, smask | BIT(w), rest, best);
    }
    return best;
}

/* The chunk of among with the fewest neighbours in near that are still
   free, ties to the lowest index, among those with one; -1 if none. */
static int fewest(const u64 *near, u64 among, u64 free_)
{
    int i, d, best = -1, best_d = MAXN + 1;

    for (; among; among &= among - 1) {
        i = lowbit(among);
        d = popcount(near[i] & free_);
        if (d && d < best_d) {
            best = i;
            best_d = d;
        }
    }
    return best;
}

/* s's capacity groups for TOTAL and OUTER (pure._Tables.blocks and
   groups), from the twin table of the whole copy: each twin class of two
   or more, in chunks of at most 4 in label order, with two chunks joined
   by an edge and of at most 4 vertices together paired by a min-degree
   greedy matching, each with its cap; only the groups whose cap is below
   their size are kept.  None for MV and GP. */
static void capacity_groups(Search *s, u64 roots)
{
    const Ctx *c = s->c;
    int n = c->n, k = 0, v, i, j, cap;
    u64 cls[MAXN] = {0}, chunk[MAXN], near[MAXN], free_, r, m;

    s->ngroups = 0;
    if (s->kind != TOTAL && s->kind != OUTER)
        return;
    for (v = 0; v < n; v++)
        if (c->below[v])
            cls[lowbit(c->below[v])] |= c->below[v] | BIT(v);
    /* a chunk starts at every fourth member of a class, so chunks come in
       the order of their first vertex */
    for (v = 0; v < n; v++) {
        m = cls[c->below[v] ? lowbit(c->below[v]) : v];
        if (!m || popcount(c->below[v]) % 4)
            continue;
        for (chunk[k] = 0, m &= ~(BIT(v) - 1), i = 0; i < 4 && m; i++, m &= m - 1)
            chunk[k] |= m & -m;
        k++;
    }
    for (i = 0; i < k; i++)
        for (near[i] = 0, j = 0; j < k; j++)
            if (j != i && (c->adj[lowbit(chunk[i])] & chunk[j]) && popcount(chunk[i] | chunk[j]) <= 4)
                near[i] |= BIT(j);
    for (free_ = ALL(k); (i = fewest(near, free_, free_)) >= 0; free_ &= ~(BIT(i) | BIT(j))) {
        j = fewest(near, near[i] & free_, free_);
        s->group[s->ngroups++] = chunk[i] | chunk[j];
    }
    for (r = free_; r; r &= r - 1)
        s->group[s->ngroups++] = chunk[lowbit(r)];
    for (i = j = 0; i < s->ngroups; i++) {
        cap = cap_of(c, s->kind, s->group[i], 0, roots & s->group[i], 0);
        if (cap < popcount(s->group[i])) {
            s->group[j] = s->group[i];
            s->cap[j++] = cap;
        }
    }
    s->ngroups = j;
}

static int find_root(int *root, int v)
{
    while (root[v] != v)
        v = root[v] = root[root[v]];
    return v;
}

static void unite(int *root, int u, int v)
{
    u = find_root(root, u);
    v = find_root(root, v);
    if (u < v)
        root[v] = u;
    else if (v < u)
        root[u] = v;
}

/* orbit[v]: the class of v in root, as a mask. */
static void orbit_masks(int n, int *root, u64 *orbit)
{
    int v;
    for (v = 0; v < n; v++)
        orbit[v] = 0;
    for (v = 0; v < n; v++)
        orbit[find_root(root, v)] |= BIT(v);
    for (v = 0; v < n; v++)
        orbit[v] = orbit[find_root(root, v)];
}

/* s->stab: each v's orbit under the stabilizer of w in the group that
   the symmetries generate (pure._stabilizer_orbits).  A BFS over w's
   orbit finds for each u in it an element trans[u] that maps w to u;
   the Schreier generators trans[g(u)]^-1 g trans[u] generate the
   stabilizer, and union-find joins each v with its images under them. */
static void stabilizer_orbits(Search *s, int w)
{
    int n = s->c->n, trans[MAXN][MAXN], inv[MAXN][MAXN], queue[MAXN], root[MAXN];
    int head, tail = 0, u, v, x, k;
    const int *g;
    u64 seen = BIT(w);

    for (x = 0; x < n; x++)
        root[x] = trans[w][x] = x;
    queue[tail++] = w;
    for (head = 0; head < tail; head++)
        for (u = queue[head], k = 0; k < s->ngens; k++) {
            g = s->gens + (size_t)k * n;
            v = g[u];
            if (seen & BIT(v))
                continue;
            seen |= BIT(v);
            for (x = 0; x < n; x++)
                trans[v][x] = g[trans[u][x]];
            queue[tail++] = v;
        }
    for (head = 0; head < tail; head++)
        for (u = queue[head], x = 0; x < n; x++)
            inv[u][trans[u][x]] = x;
    for (head = 0; head < tail; head++)
        for (u = queue[head], k = 0; k < s->ngens; k++) {
            g = s->gens + (size_t)k * n;
            for (x = 0; x < n; x++)
                unite(root, x, inv[g[u]][g[trans[u][x]]]);
        }
    orbit_masks(n, root, s->stab);
}

/* One symmetry: the images of 0..n-1, which must be a permutation that
   maps every adjacency row onto its image's row; pure._search_symmetries
   checks the same.  perm gets it in the search copy's labels. */
static int read_symmetry(const Ctx *c, PyObject *obj, int *perm)
{
    int n = c->n, v;
    u64 seen = 0;
    PyObject *seq = PySequence_Fast(obj, "a symmetry must be a sequence of vertices");

    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n)
        goto not_perm;
    for (v = 0; v < n; v++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, v));
        if (x == -1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                goto fail;
            PyErr_Clear();
            goto not_perm;
        }
        if (x < 0 || x >= n || seen & BIT(x))
            goto not_perm;
        seen |= BIT(x);
        perm[c->label[v]] = c->label[x];
    }
    Py_DECREF(seq);
    for (v = 0; v < n; v++)
        if (c->adj[perm[v]] != mapped(c->adj[v], perm)) {
            PyErr_SetString(PyExc_ValueError, "a symmetry is not an automorphism of the graph");
            return -1;
        }
    return 0;

not_perm:
    PyErr_Format(PyExc_ValueError, "a symmetry is not a permutation of 0..%d", n - 1);
fail:
    Py_DECREF(seq);
    return -1;
}

/* s->orbit from the symmetries (NULL for none) and the twin classes in
   the context's pred, as pure._orbits: without symmetries every orbit is
   v alone.  Keeps the symmetries in s->gens, which the caller frees. */
static int set_orbits(Search *s, PyObject *symmetries)
{
    int n = s->c->n, root[MAXN], v, k;
    PyObject *seq = NULL;

    s->ngens = 0;
    s->gens = NULL;
    for (v = 0; v < n; v++)
        root[v] = v;
    if (symmetries != NULL) {
        seq = PySequence_Fast(symmetries, "symmetries must be a sequence of permutations");
        if (seq == NULL)
            return -1;
        s->ngens = (int)PySequence_Fast_GET_SIZE(seq);
        s->gens = malloc(((size_t)s->ngens * n + 1) * sizeof(int));
        if (s->gens == NULL) {
            Py_DECREF(seq);
            PyErr_NoMemory();
            return -1;
        }
    }
    for (k = 0; k < s->ngens; k++) {
        int *perm = s->gens + (size_t)k * n;
        if (read_symmetry(s->c, PySequence_Fast_GET_ITEM(seq, k), perm) < 0) {
            Py_DECREF(seq);
            return -1;
        }
        for (v = 0; v < n; v++)
            unite(root, v, perm[v]);
    }
    Py_XDECREF(seq);
    for (v = 0; v < n && s->ngens; v++)
        if (s->c->pred[v] >= 0)
            unite(root, v, s->c->pred[v]);
    orbit_masks(n, root, s->orbit);
    return 0;
}

PyDoc_STRVAR(pair_visible_doc,
"pair_visible(n, adj, dist, u, v, blocked)\n--\n\n"
"Some u,v-geodesic avoids ``blocked`` internally; endpoints exempt.");

static PyObject *py_pair_visible(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "u", "v", "blocked", NULL};
    PyObject *adj, *dist, *blocked_obj;
    int n, u, v, ok;
    u64 blocked;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOiiO:pair_visible", kwlist,
                                     &n, &adj, &dist, &u, &v, &blocked_obj))
        return NULL;
    if (ctx_init(&c, n, adj, dist, NO_KIND, 0) < 0)
        return NULL;
    if (check_vertex(u, n) < 0 || check_vertex(v, n) < 0
        || read_mask(blocked_obj, n, "blocked", &blocked) < 0) {
        ctx_free(&c);
        return NULL;
    }
    ok = !misses(&c, u, BIT(v), ~blocked);
    ctx_free(&c);
    return PyBool_FromLong(ok);
}

/* The verdict of set_ok on a context and mask that the caller checked,
   with the twin table of the sources it sweeps from; frees the context. */
static PyObject *checked_set_ok(Ctx *c, int kind, u64 mask)
{
    int ok;

    if (kind != GP)
        twin_table(c, kind == TOTAL ? ALL(c->n) : mask);
    ok = set_ok(c, kind, mask);
    ctx_free(c);
    return PyBool_FromLong(ok);
}

PyDoc_STRVAR(set_ok_doc,
"set_ok(n, adj, dist, mask, kind)\n--\n\n"
"Full from-scratch verification of ``mask`` for the given kind.");

static PyObject *py_set_ok(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "mask", "kind", NULL};
    PyObject *adj, *dist, *mask_obj;
    int n, kind;
    u64 mask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOOi:set_ok", kwlist,
                                     &n, &adj, &dist, &mask_obj, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, NO_KIND, 0) < 0)
        return NULL;
    if (read_mask(mask_obj, n, "mask", &mask) < 0) {
        ctx_free(&c);
        return NULL;
    }
    return checked_set_ok(&c, kind, mask);
}

PyDoc_STRVAR(extend_ok_doc,
"extend_ok(n, adj, dist, smask, w, kind)\n--\n\n"
"One-shot extension check: does smask + w have the property?");

static PyObject *py_extend_ok(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "smask", "w", "kind", NULL};
    PyObject *adj, *dist, *smask_obj;
    int n, w, kind;
    u64 smask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOOii:extend_ok", kwlist,
                                     &n, &adj, &dist, &smask_obj, &w, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, NO_KIND, 0) < 0)
        return NULL;
    if (read_mask(smask_obj, n, "smask", &smask) < 0 || check_vertex(w, n) < 0) {
        ctx_free(&c);
        return NULL;
    }
    /* set_ok of the grown set, as pure.extend_ok */
    return checked_set_ok(&c, kind, smask | BIT(w));
}

PyDoc_STRVAR(greedy_set_doc,
"greedy_set(n, adj, dist, kind)\n--\n\n"
"Deterministic greedy sweep: descending degree, ties by index.");

static PyObject *py_greedy_set(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "kind", NULL};
    PyObject *adj, *dist;
    int n, kind;
    u64 smask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOi:greedy_set", kwlist,
                                     &n, &adj, &dist, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, kind, 1) < 0)
        return NULL;
    twin_table(&c, ALL(n));
    smask = mapped(greedy(&c, kind), c.order);
    ctx_free(&c);
    return PyLong_FromUnsignedLongLong(smask);
}

PyDoc_STRVAR(solve_max_doc,
"solve_max(n, adj, dist, kind, target=0, time_limit=0.0, symmetries=(), start=None)\n--\n\n"
"Exact maximum set for the kind; returns (size, mask, nodes, status).\n\n"
"status: 0 exact, 1 stopped early at target size, 2 time limit hit.\n"
"With an early stop the reported size is a lower bound on the optimum.\n"
"``symmetries`` are automorphisms of the graph, each a sequence of the\n"
"images of 0..n-1; the search drops a root's orbit under them once the\n"
"root's branch is done, and a depth-1 child's orbit under its root's\n"
"stabilizer once the child's branch is.  ``target`` and ``time_limit``\n"
"0 mean none; a negative or non-finite one raises ValueError, and a\n"
"target above n is never reached.  ``start``, a mask with the property,\n"
"is the first incumbent in place of the greedy seed; a start with a\n"
"vertex outside 0..n-1 or without the property raises ValueError.\n"
"A signal handler that raises (Ctrl-C) stops the search within 1024\n"
"nodes, and its exception propagates.");

static PyObject *py_solve_max(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "kind", "target", "time_limit", "symmetries", "start", NULL};
    PyObject *adj, *dist, *target_obj = NULL, *symmetries = NULL, *start = NULL, *out = NULL;
    int n, kind, v, rc, overflow = 0;
    long long target = 0;
    double time_limit = 0.0;
    u64 roots = 0;
    Ctx c;
    Search s;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOi|OdOO:solve_max", kwlist,
                                     &n, &adj, &dist, &kind, &target_obj, &time_limit, &symmetries, &start))
        return NULL;
    if (target_obj != NULL) {
        /* a target of any size: one past 64 bits is as unreachable as n + 1 */
        target = PyLong_AsLongLongAndOverflow(target_obj, &overflow);
        if (target == -1 && PyErr_Occurred())
            return NULL;
        if (overflow)
            target = overflow > 0 ? LLONG_MAX : -1;
    }
    if (target < 0 || !(time_limit >= 0.0 && isfinite(time_limit))) {
        PyErr_SetString(PyExc_ValueError, "target and time limit must be 0 (none) or more and finite");
        return NULL;
    }
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, kind, 1) < 0)
        return NULL;
    twin_table(&c, ALL(n));
    s.c = &c;
    s.kind = kind;
    /* a target above n is never reached, as none is */
    s.target = target > n ? 0 : (int)target;
    s.nodes = 0;
    s.deadline = time_limit ? monotonic() + time_limit : 0.0;
    if (set_orbits(&s, symmetries) < 0)
        goto done;
    if (start == NULL || start == Py_None) {
        s.best_mask = greedy(&c, kind);
    } else {
        /* the caller's start, checked once, as the first incumbent */
        if (read_mask(start, n, "start", &s.best_mask) < 0)
            goto done;
        s.best_mask = mapped(s.best_mask, c.label);
        if (!set_ok(&c, kind, s.best_mask)) {
            PyErr_SetString(PyExc_ValueError, "start does not have the property");
            goto done;
        }
    }
    s.best = popcount(s.best_mask);
    for (v = 0; v < n; v++)
        if (extends(&c, kind, 0, v))
            roots |= BIT(v);
    capacity_groups(&s, roots);
    rc = s.target && s.best >= s.target ? TARGET : search(&s, 0, 0, roots);
    if (rc != ERROR)
        out = Py_BuildValue("iKLi", s.best, (unsigned long long)mapped(s.best_mask, c.order), s.nodes, rc);
done:
    free(s.gens);
    ctx_free(&c);
    return out;
}

#define METHOD(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_VARARGS | METH_KEYWORDS, name##_doc}

static PyMethodDef methods[] = {
    METHOD(pair_visible),
    METHOD(set_ok),
    METHOD(extend_ok),
    METHOD(greedy_set),
    METHOD(solve_max),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_fast",
    "Compiled kernel: a uint64 bitset mirror of gpvis._kernel.pure (order <= 64).",
    -1,
    methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "NAME", "fast") < 0
        || PyModule_AddIntConstant(m, "MV", MV) < 0
        || PyModule_AddIntConstant(m, "OUTER", OUTER) < 0
        || PyModule_AddIntConstant(m, "TOTAL", TOTAL) < 0
        || PyModule_AddIntConstant(m, "GP", GP) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
