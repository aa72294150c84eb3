"""Pure-Python kernel: bitset visibility tests and maximum-set search.

This module is the semantic reference for the compiled kernel; both must
agree on every output.  Graphs arrive as plain data: ``adj`` is a sequence
of per-vertex neighbor bitmasks, ``dist`` a flat n*n distance table.
Property kinds are the integer codes MV, OUTER, TOTAL, GP below.

Set checks.  ``set_ok`` checks MV, OUTER and TOTAL with one sweep of the
distance layers per source u: each member of S, or every vertex for
TOTAL.  The sweep keeps reach, the vertices at distance t that some
u-geodesic reaches with no member of S strictly inside it; only u and
the reached vertices outside S carry the walk to layer t + 1.  (When
they are all of layer t, they reach all of layer t + 1, which is then
taken without a walk.)  By induction on t, u sees v exactly when v is
in reach at layer d(u, v), so one sweep answers every pair of u at
once.  Visibility is symmetric, so
the sweep from u wants only the vertices above u that the kind pairs
with it: the members of S for MV, every vertex for OUTER and TOTAL;
OUTER also wants the vertices outside S below u.  The sweep checks each
wanted vertex at its own layer and stops once none lies further out.
A vertex in another component lies in no layer and is not checked, as
``_pv_balls`` counts such a pair as seen.  Each vertex is expanded at
most once per source, so a check costs O(|S|·n) row ORs (O(n²) for
TOTAL) where a walk per pair cost O(|S|²) or O(n²) walks.  GP needs no
walk: its triples are read from the distances.

Search notes.  All four properties are hereditary (every subset of a good
set is good), so the solver explores subsets along a fixed vertex order
(descending degree, ties by index), keeps at each node only the
candidates that extend the current set, and prunes on
``|current| + |candidates| <= incumbent``.

``solve_max``, ``greedy_set`` and ``enumerate_exact`` run on a copy of
the graph relabelled so that this order becomes 0..n-1, and build their
context on it (the renumbering of BBMC, San Segundo et al. 2011).  Every
candidate set is then a plain int mask whose lowest bit is the next
vertex in the search order; the bound reads ``bit_count()``, and each
returned mask is mapped back to the caller's labels.  The copy owns its
tables (``_Tables``), each built on first use, and only the latest copy
is kept: the solves of one graph and their greedy seeds share one build
of each.  The ball rows cached for ``set_ok`` are not touched.

A node's candidates are filtered once per child from two facts the search
already holds: S ∪ {w} has the property (w was a candidate of S), and so
has S ∪ {x} for every remaining candidate x.  Whether u and v see each
other depends only on which vertices of their geodesic interval (the
vertices strictly inside some u,v-geodesic) are blocked.  So a pair that
S ∪ {w, x} requires is settled without a test when S ∪ {w} required it
and x lies outside its interval: its blocked part is the one S ∪ {w}
already passed.  The same holds with w and x swapped.  Only the pairs
that neither side settles are tested, which makes the filter exact:

- GP: the triples {s, w, x}, s in S: x must avoid pairbad[w][s].  No
  mask of S's own forbidden vertices is carried, since every candidate
  already avoids it.
- MV: (w, x); (s, w) when x is in its interval; (s, x) when w is in its
  interval; (s, t) in S when both are.
- OUTER: (s, y), y in S or outside S ∪ {w, x}, when both w and x are in
  its interval; (w, z) when x is, and (x, z) when w is, for z outside.
  (s, w), (s, x) and (w, x) keep their blocked part on both sides.
- TOTAL: the pairs whose interval holds both w and x.

A pair (u, v) that S ∪ {w} requires and x must not break (every pair
above but those with x as an end) is settled for all candidates at once
by its cut: the interior vertices on every u,v-geodesic that avoids
S ∪ {w}.  One forward and one backward pass over the geodesic layers
give the alive vertices of each layer (reached from u and reaching v);
the cut is the union of the layers with exactly one alive vertex.  This
is exact: each geodesic meets each layer once, and the pair sees itself
under S ∪ {w}, so blocking x hides v from u iff x is the only alive
vertex of its layer.  The cuts are ORed into one mask of forbidden
candidates, as GP does with pairbad.  Only the pairs with x as an end
are tested per candidate: (w, x) for MV, and (x, y) for the y whose
interval holds w.

The filter finds these pairs in the reverse-interval table
inw[w][x] = {y : w ∈ btw[x][y]} instead of scanning every member pair
and every partner: the (s, y) pairs whose interval holds w are the y in
inw[w][s], and the partners of candidate x are the y in inw[w][x] (in S
for MV, outside S ∪ {w} for OUTER).  inw is btw read the other way
round, so it names exactly the pairs a scan would, and the filter stays
exact.  Both tables are unions of ball intersections: btw[u][v] of the
interval layers balls[u][t] & balls[v][d(u,v) - t], and inw[w][x] of
balls[x][k] & balls[w][k - d(x,w)] for k > d(x,w).  GP's pairbad[u][v]
is btw[u][v] | inw[v][u] | inw[u][v]: the vertices between u and v,
beyond v from u, and beyond u from v.  TOTAL's pairs through w do not
depend on S, so each w's list is built once per copy.

Each solve keeps a memo on its ``_Ctx``: pair tests and cuts are keyed
by (u, v, blocked & btw[u][v]) with u < v, since visibility is symmetric
and depends on nothing else.  The memo lives as long as the context.
A pair test whose blocked part settles it at sight (all of the interval:
hidden; none of it, or not all of it at distance 2: seen) is neither
run nor stored, so small solves do not pay for the memo.

This filter is the kernel's only one.  The greedy seed (``greedy_set``,
which ``solve_max`` calls) is the search tree's leftmost path: it takes
the first candidate and filters the rest against it, and heredity makes
that the plain sweep, since a candidate dropped once fails every
superset.  The roots are the w for which {w} has the property: every
vertex, but for TOTAL none in a pair's cut under the empty set.  With
nothing blocked, a cut is the union of the pair's interval layers that
hold one vertex, so TOTAL's roots come from the ball rows without a
walk, once per copy, and a solve shares them with its seed.

Twin classes.  Vertices with equal ``adj`` rows (false twins: every v
and its copy v' in a double graph) form a class, ordered along the
search order, and pred[v] is the vertex before v in its class.  Swapping
two false twins is an automorphism, so it maps good sets onto good sets
of the same size, and in-class permutations turn any good set into one
whose members form a prefix of each class.  ``solve_max`` looks only
for such prefix sets: a child w is skipped when pred[w] is not in S, and
its candidates keep x only when pred[x] is in S ∪ {w} or kept among
them; as pred[x] comes before x in the bit order, one pass over the
bits of the vertices with a twin predecessor settles this.  The rule
only drops candidates, so the filter above stays exact, and the optimum
is kept.  ``enumerate_exact`` must list every maximum set and walks the
full tree.

Symmetry.  ``solve_max`` takes automorphisms of the graph (rejected
unless each is a permutation that maps every ``adj`` row onto its
image's row) and joins them with the twin swaps into the orbits of the
group they generate.  Once the branch of a root w is done, w's orbit
leaves the remaining roots, and so every later branch.  This is sound:
by induction, once the roots up to w are done, ``best`` bounds every
good set that meets them or an orbit dropped before.  Every vertex
before w in the order was dropped with its whole twin class, so w is the
first of its class; putting a good set's members first in each twin
class keeps w in it and keeps it clear of the dropped vertices, and w's
branch covers every such set.  An automorphism that maps u to w maps a
good set that holds u onto a good set of the same size that holds w, so
no set that meets w's orbit beats ``best``.  Without symmetries every
orbit is the vertex alone and the tree is the one searched without them:
the twin swaps are then not joined, since the later twins of a root,
which the prefix rule skips, still count in the root's bound, and
dropping them early would change the tree.  ``greedy_set`` and
``enumerate_exact`` take no symmetries.

Inputs.  Every entry point raises ``ValueError`` for an ``adj`` or
``dist`` whose length does not fit n, an ``adj`` row, mask or vertex
outside 0..n-1, or an unknown kind.  Distance values (-1..n) are checked
where a table is built, so a cached table costs a set check nothing.
``solve_max`` also rejects a negative target and a negative or
non-finite time limit, and ``enumerate_exact`` a negative size.
"""

from __future__ import annotations

import math
import time
from functools import cached_property, lru_cache

NAME = "pure"

MV = 0
OUTER = 1
TOTAL = 2
GP = 3

_TIME_CHECK_MASK = 1023
_TABLES_KEPT = 64


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mapped(mask, labels):
    """``mask`` with each vertex v moved to labels[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def _check_lengths(n, adj, dist):
    if len(adj) != n:
        raise ValueError(f"adj has {len(adj)} rows for order {n}")
    if len(dist) != n * n:
        raise ValueError(f"dist has {len(dist)} entries for order {n}")


def _check_rows(n, adj):
    if adj and (min(adj) < 0 or max(adj) >> n):
        raise ValueError(f"an adj row has a vertex outside 0..{n - 1}")


def _check_mask(mask, n, what):
    if mask < 0 or mask >> n:
        raise ValueError(f"{what} has a vertex outside 0..{n - 1}")


def _check_vertex(v, n):
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} is outside 0..{n - 1}")


def _check_distances(n, dist):
    if dist and (min(dist) < -1 or max(dist) > n):
        raise ValueError(f"a distance is outside -1..{n}")


def _pv_balls(n, adj, dist, balls, u, v, blocked):
    duv = dist[u * n + v]
    if duv <= 1:
        return True
    blk = blocked & ~(1 << u) & ~(1 << v)
    bu, bv = balls[u], balls[v]
    reach = 1 << u
    for t in range(1, duv):
        layer = bu[t] & bv[duv - t] & ~blk
        if not layer:
            return False
        acc = 0
        r = reach
        while r:
            low = r & -r
            acc |= adj[low.bit_length() - 1]
            r ^= low
        reach = acc & layer
        if not reach:
            return False
    return bool(reach & adj[v])


def _pv_cut(n, adj, dist, balls, u, v, blocked):
    """The interior vertices on every u,v-geodesic that avoids ``blocked``
    (endpoints exempt): the vertices whose blocking would hide v from u.
    u and v must see each other."""
    duv = dist[u * n + v]
    if duv <= 1:
        return 0
    blk = blocked & ~(1 << u) & ~(1 << v)
    bu, bv = balls[u], balls[v]
    layers = []
    reach = 1 << u
    for t in range(1, duv):
        acc = 0
        r = reach
        while r:
            low = r & -r
            acc |= adj[low.bit_length() - 1]
            r ^= low
        reach = acc & bu[t] & bv[duv - t] & ~blk
        layers.append(reach)
    cut = 0
    back = 1 << v
    for reach in reversed(layers):
        acc = 0
        r = back
        while r:
            low = r & -r
            acc |= adj[low.bit_length() - 1]
            r ^= low
        back = acc & reach
        if not back & (back - 1):
            cut |= back
    return cut


def pair_visible(n, adj, dist, u, v, blocked):
    """Some u,v-geodesic avoids ``blocked`` internally; endpoints exempt."""
    balls = _all_balls(n, _table_of(n, adj, dist))
    _check_vertex(u, n)
    _check_vertex(v, n)
    _check_mask(blocked, n, "blocked")
    return _pv_balls(n, adj, dist, balls, u, v, blocked)


class _Table(tuple):
    """A distance table that hashes once, so the caches below find it in
    constant time; a tuple would be hashed in full on every lookup."""

    def __hash__(self):
        return self._hash


def _table(dist):
    key = _Table(dist)
    key._hash = tuple.__hash__(key)
    return key


# id(dist) -> [dist, its _Table, the adj tuple last checked with it] for
# the most recent tuples; holding dist keeps its id from being reused
# while the entry lives
_recent = {}


def _table_of(n, adj, dist):
    """Check the graph against order n and return ``dist`` as a key for
    the caches below.  A tuple cannot change, so a tuple ``dist`` is found
    by identity, and rows equal to the ``adj`` tuple last checked with it
    are not checked again (comparing them is cheaper than checking them);
    a list is read afresh and keyed by value."""
    _check_lengths(n, adj, dist)
    if type(dist) is not tuple:
        _check_rows(n, adj)
        return _table(dist)
    entry = _recent.get(id(dist))
    if entry is None:
        entry = _recent[id(dist)] = [dist, _table(dist), None]
        if len(_recent) > _TABLES_KEPT:
            _recent.pop(next(iter(_recent)), None)
    if entry[2] != adj:
        _check_rows(n, adj)
        if type(adj) is tuple:
            entry[2] = adj
    return entry[1]


def _ball_rows(n, dist):
    """balls[u][t]: the vertices at distance t from u, for every u.  Rows
    are tuples, so callers that share them cannot change them."""
    _check_distances(n, dist)
    maxd = max(dist) if dist else 0
    balls = []
    for u in range(n):
        row = [0] * (maxd + 1)
        base = u * n
        for x in range(n):
            d = dist[base + x]
            if d >= 0:
                row[d] |= 1 << x
        balls.append(tuple(row))
    return tuple(balls)


# the ball rows of the most recent distance tables, for set checks
_all_balls = lru_cache(maxsize=_TABLES_KEPT)(_ball_rows)


class _Tables:
    """The geodesic tables of one search copy (see the module notes), each
    built on first use but the ball rows; callers never change them."""

    def __init__(self, n, adj, dist):
        self.n = n
        self.adj = adj
        self.dist = dist
        self.balls = _ball_rows(n, dist)

    @cached_property
    def btw(self):
        """btw[u][v]: vertices strictly inside some u,v-geodesic."""
        n, dist, balls = self.n, self.dist, self.balls
        btw = [[0] * n for _ in range(n)]
        for u in range(n):
            bu, du, row = balls[u], u * n, btw[u]
            for v in range(u + 1, n):
                d = dist[du + v]
                bv = balls[v]
                m = 0
                for t in range(1, d):
                    m |= bu[t] & bv[d - t]
                row[v] = btw[v][u] = m
        return btw

    @cached_property
    def inw(self):
        """inw[w][x]: the y with w strictly inside some x,y-geodesic, so
        that y is in inw[w][x] exactly when w is in btw[x][y]."""
        n, dist, balls = self.n, self.dist, self.balls
        inw = [[0] * n for _ in range(n)]
        for w in range(n):
            bw, dw, row = balls[w], w * n, inw[w]
            for x in range(w + 1, n):
                d = dist[dw + x]
                if d < 0:
                    continue
                bx = balls[x]
                m = mx = 0
                for k in range(d + 1, len(bx)):
                    m |= bx[k] & bw[k - d]
                    mx |= bw[k] & bx[k - d]
                row[x], inw[x][w] = m, mx
        return inw

    @cached_property
    def pairbad(self):
        """pairbad[u][v]: third vertices completing a geodesic triple with
        u, v: between them, beyond v from u, or beyond u from v."""
        btw, inw = self.btw, self.inw
        return [[btw[u][v] | inw[v][u] | inw[u][v] for v in range(self.n)] for u in range(self.n)]

    @cached_property
    def total_roots(self):
        """The w for which {w} is a total mutual-visibility set, as a mask:
        those in no single-vertex interval layer of any pair."""
        n, dist, balls = self.n, self.dist, self.balls
        forbid = 0
        for u in range(n):
            bu, du = balls[u], u * n
            for v in range(u + 1, n):
                d = dist[du + v]
                bv = balls[v]
                for t in range(1, d):
                    layer = bu[t] & bv[d - t]
                    if not layer & (layer - 1):
                        forbid |= layer
        return ((1 << n) - 1) & ~forbid

    @cached_property
    def through(self):
        """through[w]: TOTAL's pairs (u, v, btw[u][v]), u < v, whose
        interval holds w."""
        btw = self.btw
        return [
            [(u, v, btw[u][v]) for u, iu in enumerate(iw) for v in _bits(iu >> u + 1 << u + 1)]
            for iw in self.inw
        ]


def set_ok(n, adj, dist, mask, kind):
    """Full from-scratch verification of ``mask`` for the given kind
    (one layer sweep per source for MV, OUTER and TOTAL; see the module
    notes)."""
    key = _table_of(n, adj, dist)
    _check_mask(mask, n, "mask")
    members = list(_bits(mask))
    if kind == GP:
        # each triple once: the three-way "between" test is symmetric
        for i, u in enumerate(members):
            du = u * n
            for j, v in enumerate(members[i + 1 :], i + 1):
                duv = dist[du + v]
                dv = v * n
                for x in members[j + 1 :]:
                    dux = dist[du + x]
                    dxv = dist[dv + x]
                    if dux + dxv == duv or duv + dxv == dux or dux + duv == dxv:
                        return False
        return True
    full = (1 << n) - 1
    if kind == MV:
        sources, wanted = members, mask
    elif kind == OUTER:
        sources, wanted = members, full
    elif kind == TOTAL:
        sources, wanted = range(n), full
    else:
        raise ValueError(f"unknown property kind code {kind}")
    outside = full & ~mask
    balls = _all_balls(n, key)
    for u in sources:
        want = wanted & ~((2 << u) - 1)
        if kind == OUTER:
            want |= outside
        bu = balls[u]
        front = 1 << u
        for t in range(1, len(bu)):
            if not want:
                break
            layer = bu[t]
            if front == bu[t - 1]:
                # a whole layer reaches the whole next one
                reach = layer
            else:
                acc = 0
                while front:
                    low = front & -front
                    acc |= adj[low.bit_length() - 1]
                    front ^= low
                reach = acc & layer
            if want & layer & ~reach:
                return False
            want &= ~layer
            front = reach & outside
    return True


class _Ctx:
    """The memo of one solve/enumerate run on a search copy's tables.
    Vertex sets are int masks in the copy's labels."""

    def __init__(self, tables, kind):
        if kind not in (MV, OUTER, TOTAL, GP):
            raise ValueError(f"unknown property kind code {kind}")
        self.tables = tables
        self.kind = kind
        # the search's memo (see the module notes): pair tests and cuts by
        # (u, v, blocked & btw[u][v]) with u < v
        self.seen = {}
        self.cuts = {}

    def roots(self):
        """The w for which {w} has the property, as a mask: all of them,
        but for TOTAL only those that no pair has on all its geodesics."""
        if self.kind != TOTAL:
            return (1 << self.tables.n) - 1
        return self.tables.total_roots

    def extensions(self, smask, w, cmask):
        """The x in ``cmask`` for which smask ∪ {w, x} keeps the property,
        given that smask ∪ {w} and every smask ∪ {x} already have it, as a
        mask.  Only the pairs that neither of those two sets settles are
        re-checked (see the module notes)."""
        if not cmask:
            return 0
        kind, tables = self.kind, self.tables
        if kind == GP:
            bad = tables.pairbad[w]
            forbid = 0
            while smask:
                low = smask & -smask
                forbid |= bad[low.bit_length() - 1]
                smask ^= low
            return cmask & ~forbid
        n, adj, dist, balls, btw = tables.n, tables.adj, tables.dist, tables.balls, tables.btw
        wbit = 1 << w
        new = smask | wbit
        bw = btw[w]
        iw = tables.inw[w]
        # watch: pairs that smask ∪ {x} does not settle, re-checked when x
        # lies in their interval, as (u, v, btw[u][v]) with u < v
        if kind == TOTAL:
            watch = tables.through[w]
        else:
            # (s, y) with w in its interval: y a later member, or for
            # OUTER any vertex outside smask ∪ {w}
            outside = 0
            watch = []
            if kind == OUTER:
                outside = ((1 << n) - 1) & ~new
                watch += [(w, z, bw[z]) if w < z else (z, w, bw[z]) for z in _bits(outside)]
            r = smask
            while r:
                low = r & -r
                r ^= low
                s = low.bit_length() - 1
                if kind == MV:
                    watch.append((s, w, bw[s]) if s < w else (w, s, bw[s]))
                bs = btw[s]
                ys = iw[s] & (r | outside)
                while ys:
                    yb = ys & -ys
                    ys ^= yb
                    y = yb.bit_length() - 1
                    watch.append((s, y, bs[y]) if s < y else (y, s, bs[y]))
        # A watched pair sees itself under smask ∪ {w}, so x breaks it
        # exactly when x is in its cut: one cut per pair instead of one
        # test per candidate.
        forbid = 0
        cuts = self.cuts
        for u, v, m in watch:
            if m & cmask & ~forbid:
                key = (u, v, new & m)
                cut = cuts.get(key)
                if cut is None:
                    cut = cuts[key] = _pv_cut(n, adj, dist, balls, u, v, new)
                forbid |= cut
        keep = cmask & ~forbid
        if kind == TOTAL:
            return keep
        # partners: the y for which (x, y) is re-checked, when w lies in
        # its interval or y is w
        others = smask if kind == MV else ~new
        seen = self.seen
        r = keep
        while r:
            xb = r & -r
            r ^= xb
            x = xb.bit_length() - 1
            blocked = new | xb
            bx = btw[x]
            ys = iw[x] & others
            if kind == MV and bx[w]:
                ys |= wbit
            while ys:
                yb = ys & -ys
                ys ^= yb
                y = yb.bit_length() - 1
                m = bx[y]
                # b: the blocked part of the interval; a wholly blocked
                # interval hides the pair, and an unblocked one, or a free
                # middle vertex at distance 2, shows it
                b = blocked & m
                if b == m:
                    break
                if b and dist[x * n + y] > 2:
                    key = (x, y, b) if x < y else (y, x, b)
                    ok = seen.get(key)
                    if ok is None:
                        ok = seen[key] = _pv_balls(n, adj, dist, balls, x, y, blocked)
                    if not ok:
                        break
            else:
                continue
            keep ^= xb
        return keep


def extend_ok(n, adj, dist, smask, w, kind):
    """One-shot extension check: does smask ∪ {w} have the property?"""
    _check_vertex(w, n)
    return set_ok(n, adj, dist, smask | 1 << w, kind)


def _default_order(n, adj):
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def _relabelled(n, adj, dist, kind):
    """The search order, its inverse (label[v] is v's place in it) and a
    context on the copy of the graph whose vertex i is the order's i-th
    vertex (see the module notes)."""
    order, label, tables = _search_copy(n, tuple(adj), _table_of(n, adj, dist))
    return order, label, _Ctx(tables, kind)


@lru_cache(maxsize=1)
def _search_copy(n, adj, dist):
    """(order, label, tables) of the latest graph relabelled into its
    search order, so that the solves of one graph and their greedy seeds
    share one copy and its tables; read-only."""
    order = _default_order(n, adj)
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    radj = tuple(_mapped(adj[v], label) for v in order)
    return order, label, _Tables(n, radj, tuple(dist[v * n + x] for v in order for x in order))


def greedy_set(n, adj, dist, kind):
    """Deterministic greedy sweep: descending degree, ties by index.  It
    walks the leftmost path of the search tree (see the module notes)."""
    order, _, ctx = _relabelled(n, adj, dist, kind)
    smask = 0
    cands = ctx.roots()
    while cands:
        low = cands & -cands
        cands = ctx.extensions(smask, low.bit_length() - 1, cands ^ low)
        smask |= low
    return _mapped(smask, order)


class _Found(Exception):
    pass


class _TimeUp(Exception):
    pass


def _twin_preds(adj):
    """pred[v]: the vertex before v in its twin class (the vertices whose
    ``adj`` rows equal v's), or -1 when v comes first."""
    pred = [-1] * len(adj)
    last = {}
    for v, row in enumerate(adj):
        pred[v] = last.get(row, -1)
        last[row] = v
    return pred


def _checked_symmetries(n, adj, symmetries):
    """The symmetries as a list of tuples; raises ``ValueError`` for an
    entry that is not a permutation of 0..n-1 or that maps some adjacency
    row onto another vertex's row, as it is then no automorphism."""
    perms = [tuple(perm) for perm in symmetries]
    every = list(range(n))
    for perm in perms:
        if len(perm) != n or sorted(perm) != every:
            raise ValueError(f"a symmetry is not a permutation of 0..{n - 1}")
        for v in every:
            if adj[perm[v]] != _mapped(adj[v], perm):
                raise ValueError("a symmetry is not an automorphism of the graph")
    return perms


def _orbits(n, symmetries, label, pred):
    """orbit[v], in search labels: v's orbit under the group that the
    symmetries (in the caller's labels) and the twin swaps generate, as a
    mask.  Without symmetries every orbit is v alone (see the module
    notes)."""
    if not symmetries:
        return [1 << v for v in range(n)]
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    pairs = [(v, p) for v, p in enumerate(pred) if p >= 0]
    pairs += [(label[v], label[u]) for perm in symmetries for v, u in enumerate(perm)]
    for v, u in pairs:
        a, b = find(v), find(u)
        if a != b:
            root[max(a, b)] = min(a, b)
    masks = [0] * n
    for v in range(n):
        masks[find(v)] |= 1 << v
    return [masks[find(v)] for v in range(n)]


def solve_max(n, adj, dist, kind, target=0, time_limit=0.0, symmetries=()):
    """Exact maximum set for the kind; returns (size, mask, nodes, status).

    status: 0 exact, 1 stopped early at target size, 2 time limit hit.
    With an early stop the reported size is a lower bound on the optimum.
    ``symmetries`` are automorphisms of the graph, each a sequence of the
    images of 0..n-1; the search drops a root's orbit under them once the
    root's branch is done (see the module notes).  ``target`` and
    ``time_limit`` 0 mean none.
    """
    if target < 0:
        raise ValueError(f"target must be 0 (none) or more, got {target}")
    if not 0.0 <= time_limit < math.inf:
        raise ValueError(f"time limit must be 0 (none) or finite, got {time_limit}")
    order, label, ctx = _relabelled(n, adj, dist, kind)
    symmetries = _checked_symmetries(n, adj, symmetries)
    deadline = time.monotonic() + time_limit if time_limit else 0.0
    pred = _twin_preds(ctx.tables.adj)
    twins = sum(1 << v for v in range(n) if pred[v] >= 0)
    orbit = _orbits(n, symmetries, label, pred)
    extensions = ctx.extensions
    best_mask = _mapped(greedy_set(n, adj, dist, kind), label)
    best = best_mask.bit_count()
    nodes = 0

    def run(smask, size, cands):
        nonlocal best, best_mask, nodes
        nodes += 1
        if deadline and not nodes & _TIME_CHECK_MASK and time.monotonic() > deadline:
            raise _TimeUp
        left = cands.bit_count()
        while size + left > best:
            low = cands & -cands
            cands ^= low
            left -= 1
            w = low.bit_length() - 1
            p = pred[w]
            if p >= 0 and not smask >> p & 1:
                continue
            new = smask | low
            if size >= best:
                best = size + 1
                best_mask = new
                if target and best >= target:
                    raise _Found
            rest = extensions(smask, w, cands)
            # the twin-prefix rule: pred[x] < x, so the bits below x are
            # already settled when x is
            t = rest & twins
            while t:
                xb = t & -t
                t ^= xb
                if not (new | rest) >> pred[xb.bit_length() - 1] & 1:
                    rest ^= xb
            if rest:
                run(new, size + 1, rest)
            if not smask:
                # the root w is done, and no larger set meets its orbit
                cands &= ~orbit[w]
                left = cands.bit_count()

    status = 0
    if target and best >= target:
        status = 1
    else:
        try:
            run(0, 0, ctx.roots())
        except _Found:
            status = 1
        except _TimeUp:
            status = 2
    # run refers to itself; without it the context and its memo would
    # wait for the cycle collector
    del run
    return best, _mapped(best_mask, order), nodes, status


def enumerate_exact(n, adj, dist, kind, size):
    """All sets of exactly ``size`` with the property, as masks (DFS order)."""
    if size < 0:
        raise ValueError(f"size must be 0 or more, got {size}")
    order, _, ctx = _relabelled(n, adj, dist, kind)
    if size == 0:
        return [0]
    out = []

    def rec(smask, cur, cands):
        left = cands.bit_count()
        while cur + left >= size and cands:
            low = cands & -cands
            cands ^= low
            left -= 1
            new = smask | low
            if cur + 1 == size:
                out.append(new)
            else:
                rest = ctx.extensions(smask, low.bit_length() - 1, cands)
                if cur + 1 + rest.bit_count() >= size:
                    rec(new, cur + 1, rest)

    rec(0, 0, ctx.roots())
    del rec  # it refers to itself, as the search in solve_max does
    return [_mapped(m, order) for m in out]
