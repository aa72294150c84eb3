/* Compiled kernel: a uint64 bitset mirror of pure.py for order <= 64.

   Written by hand against the CPython C API.  Every algorithm here
   mirrors gpvis/_kernel/pure.py, which is the semantic reference: the
   same geodesic-layer visibility test, the same set check (one sweep of
   the distance layers per source answers every pair of that source),
   the same greedy sweep and the same branch-and-bound with the
   twin-class prefix rule and, given symmetries, the same dropped root
   orbits (the Symmetry notes in pure.py argue their soundness).  So the
   two kernels return the same value, witness mask, node count and
   status, and the parity tests hold them to it.  Only the data layout
   differs: masks are uint64_t and the tables are flat arrays built per
   call.

   pure._Ctx.extensions(smask, w, cmask) -> mask filters a child's
   candidate mask from two sides at once, on a copy of the graph
   renumbered into search order; here each candidate is tested on its
   own with extend_ok, whose definition is pure.extend_ok (set_ok of the
   grown set).  Both keep exactly the candidates x for which S + w + x
   has the property, so both walk the same tree.  OUTER and TOTAL test
   the definition itself.  MV and GP, whose searches extend only sets
   that have the property, re-test just what the new vertex can break:
   for GP one pairbad lookup per member is far cheaper than a triple
   scan, and for MV the pairs through the new vertex measured faster
   than set_ok of the grown set on twin-free graphs (see extend_ok).

   setup.py builds this file as gpvis._kernel._fast; without a C compiler
   the package runs on pure.py alone. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

typedef uint64_t u64;

#define MAXN 64
#define BIT(x) ((u64)1 << (x))
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
    int *dist;    /* n*n distances */
    u64 *balls;   /* balls[u*stride + t]: the vertices at distance t from u */
    u64 *btw;     /* btw[u*n + v]: vertices strictly inside some u,v-geodesic */
    u64 *pairbad; /* pairbad[u*n + v]: third vertices of a geodesic triple with u, v */
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

static void ctx_free(Ctx *c)
{
    free(c->dist);
    free(c->balls);
    c->dist = NULL;
    c->balls = NULL;
}

/* Read the graph and build its tables: distances, balls, and the pair
   table that extend_ok reads for kind (btw for MV, pairbad for GP, none
   otherwise).  On failure nothing is left allocated and an exception is
   set. */
static int ctx_init(Ctx *c, int n, PyObject *adj, PyObject *dist, int kind)
{
    PyObject *seq;
    Py_ssize_t nn = (Py_ssize_t)n * n, i;
    int u, v, x, maxd = 0, table = kind == MV || kind == GP;
    size_t masks;
    u64 *pairs;

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
    for (i = 0; i < n; i++)
        if (read_mask(PySequence_Fast_GET_ITEM(seq, i), n, "an adj row", &c->adj[i]) < 0)
            goto fail_seq;
    Py_DECREF(seq);

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
    for (i = 0; i < nn; i++) {
        long d = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (d == -1 && PyErr_Occurred())
            goto fail_seq;
        if (d < -1 || d > n) {
            PyErr_Format(PyExc_ValueError, "distance %ld is outside -1..%d", d, n);
            goto fail_seq;
        }
        c->dist[i] = (int)d;
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
        ctx_free(c);
        return -1;
    }
    for (u = 0; u < n; u++)
        for (x = 0; x < n; x++) {
            int d = c->dist[u * n + x];
            if (d >= 0)
                c->balls[u * c->stride + d] |= BIT(x);
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
    ctx_free(c);
    return -1;
}

/* Some u,v-geodesic avoids ``blocked`` internally; endpoints exempt.
   Walks the geodesic layers from u, keeping the unblocked vertices that
   a path from u reaches (pure._pv_balls). */
static int pv(const Ctx *c, int u, int v, u64 blocked)
{
    int n = c->n, duv = c->dist[u * n + v], t;
    const u64 *bu = c->balls + u * c->stride, *bv = c->balls + v * c->stride;
    u64 reach = BIT(u);

    if (duv <= 1)
        return 1;
    blocked &= ~(BIT(u) | BIT(v));
    for (t = 1; t < duv; t++) {
        u64 layer = bu[t] & bv[duv - t] & ~blocked, acc = 0, r;
        if (!layer)
            return 0;
        for (r = reach; r; r &= r - 1)
            acc |= c->adj[lowbit(r)];
        reach = acc & layer;
        if (!reach)
            return 0;
    }
    return (reach & c->adj[v]) != 0;
}

/* Full from-scratch verification of mask for the kind (pure.set_ok): one
   sweep of the distance layers per source u checks every required pair
   (u, v) with v > u.  reach holds the layer's vertices that some
   u-geodesic reaches with no member of mask inside it, so u sees v
   exactly when v is in reach at layer d(u, v); only reached vertices
   outside mask carry the walk on.  When they are a whole layer, they
   reach the whole next one, which is then taken without a walk.  GP
   tests each triple of members once, as the three-way "between" test is
   symmetric. */
static int set_ok(const Ctx *c, int kind, u64 mask)
{
    int n = c->n, u, t;
    u64 full = n == MAXN ? ~(u64)0 : BIT(n) - 1, outside = full & ~mask;
    u64 r, r2, r3, want, front, acc, reach;
    const u64 *bu;

    if (kind == GP) {
        for (r = mask; r; r &= r - 1)
            for (r2 = r & (r - 1); r2; r2 &= r2 - 1)
                for (r3 = r2 & (r2 - 1); r3; r3 &= r3 - 1)
                    if (triple_bad(c->dist, n, lowbit(r), lowbit(r2), lowbit(r3)))
                        return 0;
        return 1;
    }
    for (r = kind == TOTAL ? full : mask; r; r &= r - 1) {
        u = lowbit(r);
        /* the vertices above u: members for MV, all for OUTER and TOTAL */
        want = (kind == MV ? mask : full) & (~(u64)0 << u << 1);
        if (kind == OUTER)
            want |= outside;
        bu = c->balls + u * c->stride;
        front = BIT(u);
        for (t = 1; t < c->stride && want; t++) {
            if (front == bu[t - 1]) {
                reach = bu[t];
            } else {
                for (acc = 0, r2 = front; r2; r2 &= r2 - 1)
                    acc |= c->adj[lowbit(r2)];
                reach = acc & bu[t];
            }
            if (want & bu[t] & ~reach)
                return 0;
            want &= ~bu[t];
            front = reach & outside;
        }
    }
    return 1;
}

/* Does smask + w keep the property?  Its definition is pure.extend_ok,
   set_ok of smask + w, and OUTER and TOTAL use it as it stands.  GP and
   MV, given that smask already has the property, re-test only what w
   can break: GP the triples through w, MV the pairs with an end at w or
   with w inside their geodesic interval.  For MV this is the faster
   test on twin-free graphs: solves with set_ok of the grown set took
   1.12-1.34x as long on M(C12), M(C16) and M(C20), 1.02-1.05x on D(C14)
   and 0.92-0.93x on D(C10). */
static int extend_ok(const Ctx *c, int kind, u64 smask, int w)
{
    int n = c->n, x, y;
    u64 wbit = BIT(w), new = smask | wbit, r, r2;

    if (kind == GP) {
        for (r = smask; r; r &= r - 1) {
            x = lowbit(r);
            if (c->pairbad[w * n + x] & smask & ~BIT(x))
                return 0;
        }
        return 1;
    }
    if (kind == MV) {
        for (r = smask; r; r &= r - 1)
            if (!pv(c, lowbit(r), w, new))
                return 0;
        for (r = smask; r; r &= r - 1) {
            x = lowbit(r);
            for (r2 = r & (r - 1); r2; r2 &= r2 - 1) {
                y = lowbit(r2);
                if (c->btw[x * n + y] & wbit && !pv(c, x, y, new))
                    return 0;
            }
        }
        return 1;
    }
    return set_ok(c, kind, new);
}

/* Descending degree, ties by index (pure._default_order). */
static void default_order(const Ctx *c, int *order)
{
    int i, j, v;
    for (i = 0; i < c->n; i++) {
        v = i;
        for (j = i; j > 0 && popcount(c->adj[order[j - 1]]) < popcount(c->adj[v]); j--)
            order[j] = order[j - 1];
        order[j] = v;
    }
}

static u64 greedy(const Ctx *c, int kind, const int *order)
{
    u64 smask = 0;
    int i;
    for (i = 0; i < c->n; i++)
        if (extend_ok(c, kind, smask, order[i]))
            smask |= BIT(order[i]);
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
    int pred[MAXN];  /* the vertex before v in its twin class, or -1 */
    u64 orbit[MAXN]; /* v's orbit under the symmetries and twin swaps */
    int *scratch;    /* one candidate list of n per depth */
    u64 best_mask;
    long long nodes;
    double deadline;
} Search;

/* pure.solve_max's run, with the per-candidate test in place of
   pure._Ctx.extensions.  Returns EXACT when the subtree is done.  At the
   root, a done branch takes its root's orbit out of cands. */
static int search(Search *s, u64 smask, int size, int *cands, int ncands, int depth)
{
    int n = s->c->n, i, j, k, w, x, nrest, rc;
    int *rest = s->scratch + (size_t)depth * n;
    u64 new, have;

    s->nodes++;
    if (!(s->nodes & TIME_CHECK_MASK)) {
        if (PyErr_CheckSignals() < 0)
            return ERROR;
        if (s->deadline != 0.0 && monotonic() > s->deadline)
            return TIME_UP;
    }
    if (size + ncands <= s->best)
        return EXACT;
    for (i = 0; i < ncands; i++) {
        if (size + ncands - i <= s->best)
            break;
        w = cands[i];
        if (s->pred[w] >= 0 && !(smask & BIT(s->pred[w])))
            continue;
        new = smask | BIT(w);
        if (size + 1 > s->best) {
            s->best = size + 1;
            s->best_mask = new;
            if (s->target && s->best >= s->target)
                return TARGET;
        }
        nrest = 0;
        have = new;
        for (j = i + 1; j < ncands; j++) {
            x = cands[j];
            if (s->pred[x] >= 0 && !(have & BIT(s->pred[x])))
                continue;
            if (extend_ok(s->c, s->kind, new, x)) {
                rest[nrest++] = x;
                have |= BIT(x);
            }
        }
        if (nrest && (rc = search(s, new, size + 1, rest, nrest, depth + 1)) != EXACT)
            return rc;
        if (depth == 0) {
            /* the root w is done, and no larger set meets its orbit */
            for (j = k = i + 1; j < ncands; j++)
                if (!(s->orbit[w] & BIT(cands[j])))
                    cands[k++] = cands[j];
            ncands = k;
        }
    }
    return EXACT;
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

/* One symmetry: the images of 0..n-1, which must be a permutation that
   maps every adjacency row onto its image's row (pure._checked_symmetries). */
static int read_symmetry(const Ctx *c, PyObject *obj, int *perm)
{
    int n = c->n, v;
    u64 seen = 0, img, r;
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
        perm[v] = (int)x;
    }
    Py_DECREF(seq);
    for (v = 0; v < n; v++) {
        for (img = 0, r = c->adj[v]; r; r &= r - 1)
            img |= BIT(perm[lowbit(r)]);
        if (c->adj[perm[v]] != img) {
            PyErr_SetString(PyExc_ValueError, "a symmetry is not an automorphism of the graph");
            return -1;
        }
    }
    return 0;

not_perm:
    PyErr_Format(PyExc_ValueError, "a symmetry is not a permutation of 0..%d", n - 1);
fail:
    Py_DECREF(seq);
    return -1;
}

/* s->orbit from the symmetries (NULL for none) and the twin classes in
   s->pred, as pure._orbits: without symmetries every orbit is v alone. */
static int set_orbits(Search *s, PyObject *symmetries)
{
    int n = s->c->n, root[MAXN], perm[MAXN], v;
    Py_ssize_t i, count = 0;
    PyObject *seq = NULL;

    for (v = 0; v < n; v++)
        root[v] = v;
    if (symmetries != NULL) {
        seq = PySequence_Fast(symmetries, "symmetries must be a sequence of permutations");
        if (seq == NULL)
            return -1;
        count = PySequence_Fast_GET_SIZE(seq);
    }
    for (i = 0; i < count; i++) {
        if (read_symmetry(s->c, PySequence_Fast_GET_ITEM(seq, i), perm) < 0) {
            Py_DECREF(seq);
            return -1;
        }
        for (v = 0; v < n; v++)
            unite(root, v, perm[v]);
    }
    Py_XDECREF(seq);
    for (v = 0; v < n; v++) {
        if (count && s->pred[v] >= 0)
            unite(root, v, s->pred[v]);
        s->orbit[v] = 0;
    }
    for (v = 0; v < n; v++)
        s->orbit[find_root(root, v)] |= BIT(v);
    for (v = 0; v < n; v++)
        s->orbit[v] = s->orbit[find_root(root, v)];
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
    if (ctx_init(&c, n, adj, dist, NO_KIND) < 0)
        return NULL;
    if (check_vertex(u, n) < 0 || check_vertex(v, n) < 0
        || read_mask(blocked_obj, n, "blocked", &blocked) < 0) {
        ctx_free(&c);
        return NULL;
    }
    ok = pv(&c, u, v, blocked);
    ctx_free(&c);
    return PyBool_FromLong(ok);
}

PyDoc_STRVAR(set_ok_doc,
"set_ok(n, adj, dist, mask, kind)\n--\n\n"
"Full from-scratch verification of ``mask`` for the given kind.");

static PyObject *py_set_ok(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "mask", "kind", NULL};
    PyObject *adj, *dist, *mask_obj;
    int n, kind, ok;
    u64 mask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOOi:set_ok", kwlist,
                                     &n, &adj, &dist, &mask_obj, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, NO_KIND) < 0)
        return NULL;
    if (read_mask(mask_obj, n, "mask", &mask) < 0) {
        ctx_free(&c);
        return NULL;
    }
    ok = set_ok(&c, kind, mask);
    ctx_free(&c);
    return PyBool_FromLong(ok);
}

PyDoc_STRVAR(extend_ok_doc,
"extend_ok(n, adj, dist, smask, w, kind)\n--\n\n"
"One-shot extension check: does smask + w have the property?\n"
"For MV and GP it assumes that smask already has it.");

static PyObject *py_extend_ok(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "smask", "w", "kind", NULL};
    PyObject *adj, *dist, *smask_obj;
    int n, w, kind, ok;
    u64 smask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOOii:extend_ok", kwlist,
                                     &n, &adj, &dist, &smask_obj, &w, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, kind) < 0)
        return NULL;
    if (read_mask(smask_obj, n, "smask", &smask) < 0 || check_vertex(w, n) < 0) {
        ctx_free(&c);
        return NULL;
    }
    ok = extend_ok(&c, kind, smask, w);
    ctx_free(&c);
    return PyBool_FromLong(ok);
}

PyDoc_STRVAR(greedy_set_doc,
"greedy_set(n, adj, dist, kind)\n--\n\n"
"Deterministic greedy sweep: descending degree, ties by index.");

static PyObject *py_greedy_set(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "kind", NULL};
    PyObject *adj, *dist;
    int n, kind, order[MAXN];
    u64 smask;
    Ctx c;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOi:greedy_set", kwlist,
                                     &n, &adj, &dist, &kind))
        return NULL;
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, kind) < 0)
        return NULL;
    default_order(&c, order);
    smask = greedy(&c, kind, order);
    ctx_free(&c);
    return PyLong_FromUnsignedLongLong(smask);
}

PyDoc_STRVAR(solve_max_doc,
"solve_max(n, adj, dist, kind, target=0, time_limit=0.0, symmetries=())\n--\n\n"
"Exact maximum set for the kind; returns (size, mask, nodes, status).\n\n"
"status: 0 exact, 1 stopped early at target size, 2 time limit hit.\n"
"With an early stop the reported size is a lower bound on the optimum.\n"
"``symmetries`` are automorphisms of the graph, each a sequence of the\n"
"images of 0..n-1; the search drops a root's orbit under them once the\n"
"root's branch is done.  ``target`` and ``time_limit`` 0 mean none;\n"
"a negative or non-finite one raises ValueError.\n"
"A signal handler that raises (Ctrl-C) stops the search within 1024\n"
"nodes, and its exception propagates.");

static PyObject *py_solve_max(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "dist", "kind", "target", "time_limit", "symmetries", NULL};
    PyObject *adj, *dist, *symmetries = NULL;
    int n, kind, target = 0, order[MAXN], roots[MAXN], nroots = 0, i, j, rc;
    double time_limit = 0.0;
    u64 seed;
    Ctx c;
    Search s;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iOOi|idO:solve_max", kwlist,
                                     &n, &adj, &dist, &kind, &target, &time_limit, &symmetries))
        return NULL;
    if (target < 0 || !(time_limit >= 0.0 && isfinite(time_limit))) {
        PyErr_SetString(PyExc_ValueError, "target and time limit must be 0 (none) or more and finite");
        return NULL;
    }
    if (check_kind(kind) < 0 || ctx_init(&c, n, adj, dist, kind) < 0)
        return NULL;
    default_order(&c, order);
    s.c = &c;
    s.kind = kind;
    s.target = target;
    s.nodes = 0;
    s.deadline = time_limit ? monotonic() + time_limit : 0.0;
    /* twin classes: vertices with equal adj rows, in search order */
    for (i = 0; i < n; i++) {
        s.pred[order[i]] = -1;
        for (j = i - 1; j >= 0; j--)
            if (c.adj[order[j]] == c.adj[order[i]]) {
                s.pred[order[i]] = order[j];
                break;
            }
    }
    if (set_orbits(&s, symmetries) < 0) {
        ctx_free(&c);
        return NULL;
    }
    seed = greedy(&c, kind, order);
    s.best = popcount(seed);
    s.best_mask = seed;
    if (target && s.best >= target) {
        ctx_free(&c);
        return Py_BuildValue("iKii", s.best, (unsigned long long)seed, 0, TARGET);
    }
    for (i = 0; i < n; i++)
        if (extend_ok(&c, kind, 0, order[i]))
            roots[nroots++] = order[i];
    s.scratch = malloc(((size_t)n + 1) * (n ? n : 1) * sizeof(int));
    if (s.scratch == NULL) {
        ctx_free(&c);
        return PyErr_NoMemory();
    }
    rc = search(&s, 0, 0, roots, nroots, 0);
    free(s.scratch);
    ctx_free(&c);
    if (rc == ERROR)
        return NULL;
    return Py_BuildValue("iKLi", s.best, (unsigned long long)s.best_mask, s.nodes, rc);
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
