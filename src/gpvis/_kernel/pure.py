"""Pure-Python kernel: bitset visibility tests and maximum-set search.

This module is the semantic reference for the compiled kernel; both must
agree on every output.  Graphs arrive as plain data: ``adj`` is a sequence
of per-vertex neighbor bitmasks, ``dist`` a flat n*n distance table.
Property kinds are the integer codes MV, OUTER, TOTAL, GP below.

Set checks.  ``set_ok`` checks MV, OUTER and TOTAL with one sweep of the
distance layers per source u: each member of S, or every vertex for
TOTAL.  The sweep keeps reach, the vertices at distance t that some
u-geodesic reaches with no member of S strictly inside it; only u and
the reached vertices outside S carry the walk to layer t + 1.  By
induction on t, u sees v exactly when v is in reach at layer d(u, v), so
one sweep answers every pair of u at once.  Visibility is symmetric, so
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
set is good), so the solver explores subsets along a fixed vertex order,
keeps at each node only the candidates that extend the current set, and
prunes on ``|current| + |candidates| <= incumbent``.

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

Each solve keeps a memo on its ``_Ctx``: pair tests and cuts are keyed
by (u, v, blocked & btw[u][v]) with u < v, since visibility is symmetric
and depends on nothing else.  The memo lives as long as the context.
A pair test whose blocked part settles it at sight (all of the interval:
hidden; none of it, or not all of it at distance 2: seen) is neither
run nor stored, so small solves do not pay for the memo.

This filter is the kernel's only one.  The greedy seed is the search
tree's leftmost path: it takes the first candidate and filters the rest
against it, and heredity makes that the plain sweep, since a candidate
dropped once fails every superset.  The roots are the w for which {w}
has the property: every vertex, but for TOTAL the union of the pair
cuts under the empty set.

Twin classes.  Vertices with equal ``adj`` rows (false twins: every v
and its copy v' in a double graph) form a class, ordered along the
search order, and pred[v] is the vertex before v in its class.  Swapping
two false twins is an automorphism, so it maps good sets onto good sets
of the same size, and in-class permutations turn any good set into one
whose members form a prefix of each class.  ``_Search.run`` looks only
for such prefix sets: a child w is skipped when pred[w] is not in S, and
its candidate list keeps x only when pred[x] is in S ∪ {w} or kept
earlier in that list.  The rule only drops candidates, so the filter
above stays exact, and the optimum is kept.  ``enumerate_exact`` must
list every maximum set and walks the full tree.
"""

from __future__ import annotations

import time
from functools import lru_cache

NAME = "pure"

MV = 0
OUTER = 1
TOTAL = 2
GP = 3

_TIME_CHECK_MASK = 1023


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    return _pv_balls(n, adj, dist, _all_balls(n, tuple(dist)), u, v, blocked)


@lru_cache(maxsize=64)
def _all_balls(n, dist):
    """balls[u][t]: the vertices at distance t from u, for every u.  Kept
    for the most recent distance tables; rows are tuples, so callers that
    share them cannot change them."""
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


@lru_cache(maxsize=1)
def _between_masks(n, dist):
    """btw[u][v]: vertices strictly inside some u,v-geodesic.  Only the
    latest table is kept, so a solve and the greedy seed it calls share
    one build; callers read it and never change it."""
    btw = [[0] * n for _ in range(n)]
    for u in range(n):
        du = u * n
        for v in range(u + 1, n):
            dv = v * n
            duv = dist[du + v]
            m = 0
            for x in range(n):
                if x != u and x != v and dist[du + x] + dist[dv + x] == duv:
                    m |= 1 << x
            btw[u][v] = m
            btw[v][u] = m
    return btw


@lru_cache(maxsize=1)
def _gp_pairbad(n, dist):
    """pairbad[u][v]: third vertices completing a geodesic triple with u,v.
    Kept for the latest table only and read-only, like ``_between_masks``."""
    bad = [[0] * n for _ in range(n)]
    for u in range(n):
        du = u * n
        for v in range(u + 1, n):
            dv = v * n
            duv = dist[du + v]
            m = 0
            for x in range(n):
                if x == u or x == v:
                    continue
                dux = dist[du + x]
                dxv = dist[dv + x]
                if dux + dxv == duv or duv + dxv == dux or dux + duv == dxv:
                    m |= 1 << x
            bad[u][v] = m
            bad[v][u] = m
    return bad


def set_ok(n, adj, dist, mask, kind):
    """Full from-scratch verification of ``mask`` for the given kind
    (one layer sweep per source for MV, OUTER and TOTAL; see the module
    notes)."""
    members = list(_bits(mask))
    if kind == GP:
        for i, u in enumerate(members):
            du = u * n
            for v in members[i + 1 :]:
                duv = dist[du + v]
                dv = v * n
                for x in members:
                    if x == u or x == v:
                        continue
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
    balls = _all_balls(n, tuple(dist))
    for u in sources:
        want = wanted & ~((2 << u) - 1)
        if kind == OUTER:
            want |= outside
        bu = balls[u]
        front = 1 << u
        for t in range(1, len(bu)):
            if not want:
                break
            acc = 0
            while front:
                low = front & -front
                acc |= adj[low.bit_length() - 1]
                front ^= low
            layer = bu[t]
            reach = acc & layer
            if want & layer & ~reach:
                return False
            want &= ~layer
            front = reach & outside
    return True


class _Ctx:
    """Precomputed tables shared by one solve/enumerate run."""

    def __init__(self, n, adj, dist, kind):
        if kind not in (MV, OUTER, TOTAL, GP):
            raise ValueError(f"unknown property kind code {kind}")
        self.n = n
        self.adj = adj
        self.dist = dist
        self.kind = kind
        key = tuple(dist)
        self.balls = _all_balls(n, key) if kind != GP else None
        self.btw = _between_masks(n, key) if kind != GP else None
        self.pairbad = _gp_pairbad(n, key) if kind == GP else None
        # the search's memo (see the module notes): pair tests and cuts by
        # (u, v, blocked & btw[u][v]) with u < v
        self.seen = {}
        self.cuts = {}

    def roots(self, order):
        """The w in ``order`` for which {w} has the property: all of them,
        but for TOTAL those that lie on every geodesic of some pair."""
        if self.kind != TOTAL:
            return list(order)
        n, adj, dist, balls = self.n, self.adj, self.dist, self.balls
        forbid = 0
        for u in range(n):
            for v in range(u + 1, n):
                forbid |= _pv_cut(n, adj, dist, balls, u, v, 0)
        return [w for w in order if not forbid >> w & 1]

    def extensions(self, smask, w, cands):
        """The x in ``cands`` for which smask ∪ {w, x} keeps the property,
        given that smask ∪ {w} and every smask ∪ {x} already have it.
        Only the pairs that neither of those two sets settles are
        re-checked (see the module notes)."""
        if not cands:
            return []
        kind = self.kind
        if kind == GP:
            bad = self.pairbad[w]
            forbid = 0
            while smask:
                low = smask & -smask
                forbid |= bad[low.bit_length() - 1]
                smask ^= low
            return [x for x in cands if not forbid >> x & 1]
        n, adj, dist, balls, btw = self.n, self.adj, self.dist, self.balls, self.btw
        new = smask | 1 << w
        wbit = 1 << w
        bw = btw[w]
        members = list(_bits(smask))
        # watch: pairs that smask ∪ {x} does not settle, re-checked when
        # x lies in their interval.  partners: the y for which (x, y) is
        # re-checked, when w lies in its interval or y is w.
        if kind == MV:
            watch = [(s, w, bw[s]) for s in members]
            watch += [
                (s, t, btw[s][t])
                for i, s in enumerate(members)
                for t in members[i + 1 :]
                if btw[s][t] & wbit
            ]
            partners = [w] + members
        elif kind == OUTER:
            partners = [z for z in range(n) if not new >> z & 1]
            watch = [(w, z, bw[z]) for z in partners]
            watch += [
                (s, y, btw[s][y])
                for i, s in enumerate(members)
                for y in members[i + 1 :] + partners
                if btw[s][y] & wbit
            ]
        else:  # TOTAL
            watch = [
                (u, v, m)
                for u in range(n)
                for v, m in enumerate(btw[u])
                if v > u and m & wbit
            ]
            partners = ()
        # A watched pair sees itself under smask ∪ {w}, so x breaks it
        # exactly when x is in its cut: one cut per pair instead of one
        # test per candidate.
        cmask = 0
        for x in cands:
            cmask |= 1 << x
        forbid = 0
        cuts = self.cuts
        for u, v, m in watch:
            if m & cmask & ~forbid:
                if u > v:
                    u, v = v, u
                key = (u, v, new & m)
                cut = cuts.get(key)
                if cut is None:
                    cut = cuts[key] = _pv_cut(n, adj, dist, balls, u, v, new)
                forbid |= cut
        seen = self.seen
        out = []
        for x in cands:
            if forbid >> x & 1:
                continue
            blocked = new | 1 << x
            bx = btw[x]
            for y in partners:
                m = bx[y]
                if m & wbit or y == w and m:
                    # b: the blocked part of the interval; a wholly blocked
                    # interval hides the pair, and an unblocked one, or a
                    # free middle vertex at distance 2, shows it
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
                out.append(x)
        return out


def extend_ok(n, adj, dist, smask, w, kind):
    """One-shot extension check: does smask ∪ {w} have the property?"""
    return set_ok(n, adj, dist, smask | 1 << w, kind)


def _default_order(n, adj):
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def greedy_set(n, adj, dist, kind):
    """Deterministic greedy sweep: descending degree, ties by index.  It
    walks the leftmost path of the search tree (see the module notes)."""
    ctx = _Ctx(n, adj, dist, kind)
    smask = 0
    cands = ctx.roots(_default_order(n, adj))
    while cands:
        w = cands[0]
        cands = ctx.extensions(smask, w, cands[1:])
        smask |= 1 << w
    return smask


class _Found(Exception):
    pass


class _TimeUp(Exception):
    pass


def _twin_preds(n, adj, order):
    """pred[v]: the vertex before v in its twin class (the vertices whose
    ``adj`` rows equal v's) along ``order``, or -1 when v comes first."""
    pred = [-1] * n
    last = {}
    for v in order:
        pred[v] = last.get(adj[v], -1)
        last[adj[v]] = v
    return pred


class _Search:
    def __init__(self, ctx, pred, target, deadline):
        self.ctx = ctx
        self.pred = pred
        self.target = target
        self.deadline = deadline
        self.nodes = 0
        self.best = 0
        self.best_mask = 0

    def _tick(self):
        self.nodes += 1
        if self.deadline and not self.nodes & _TIME_CHECK_MASK:
            if time.monotonic() > self.deadline:
                raise _TimeUp

    def _improve(self, smask, size):
        if size > self.best:
            self.best = size
            self.best_mask = smask
            if self.target and self.best >= self.target:
                raise _Found

    def run(self, smask, size, cands):
        self._tick()
        if size + len(cands) <= self.best:
            return
        ctx, pred = self.ctx, self.pred
        for i, w in enumerate(cands):
            if size + len(cands) - i <= self.best:
                break
            p = pred[w]
            if p >= 0 and not smask >> p & 1:
                continue
            new = smask | 1 << w
            self._improve(new, size + 1)
            rest = []
            have = new
            for x in ctx.extensions(smask, w, cands[i + 1 :]):
                p = pred[x]
                if p < 0 or have >> p & 1:
                    rest.append(x)
                    have |= 1 << x
            if rest:
                self.run(new, size + 1, rest)


def solve_max(n, adj, dist, kind, target=0, time_limit=0.0):
    """Exact maximum set for the kind; returns (size, mask, nodes, status).

    status: 0 exact, 1 stopped early at target size, 2 time limit hit.
    With an early stop the reported size is a lower bound on the optimum.
    """
    ctx = _Ctx(n, adj, dist, kind)
    order = _default_order(n, adj)
    deadline = time.monotonic() + time_limit if time_limit else 0.0
    search = _Search(ctx, _twin_preds(n, adj, order), target, deadline)
    seed = greedy_set(n, adj, dist, kind)
    search.best = seed.bit_count()
    search.best_mask = seed
    if target and search.best >= target:
        return search.best, search.best_mask, 0, 1
    try:
        search.run(0, 0, ctx.roots(order))
    except _Found:
        return search.best, search.best_mask, search.nodes, 1
    except _TimeUp:
        return search.best, search.best_mask, search.nodes, 2
    return search.best, search.best_mask, search.nodes, 0


def enumerate_exact(n, adj, dist, kind, size):
    """All sets of exactly ``size`` with the property, as masks (DFS order)."""
    ctx = _Ctx(n, adj, dist, kind)
    order = _default_order(n, adj)
    out = []
    if size == 0:
        return [0]

    def rec(smask, cur, cands):
        for i, w in enumerate(cands):
            if cur + len(cands) - i < size:
                break
            new = smask | 1 << w
            if cur + 1 == size:
                out.append(new)
            else:
                rest = ctx.extensions(smask, w, cands[i + 1 :])
                if cur + 1 + len(rest) >= size:
                    rec(new, cur + 1, rest)

    rec(0, 0, ctx.roots(order))
    return out
