"""Pure-Python kernel: bitset visibility tests and maximum-set search.

This module is the semantic reference for the compiled kernel; both must
agree on every output.  Graphs arrive as plain data: ``adj`` is a sequence
of per-vertex neighbor bitmasks, ``dist`` a flat n*n distance table.
Property kinds are the integer codes MV, OUTER, TOTAL, GP below.

Search notes.  All four properties are hereditary (every subset of a good
set is good), so the solver explores subsets along a fixed vertex order,
filters candidates by single-vertex extension feasibility, and prunes on
``|current| + |candidates| <= incumbent``.  Extending a visibility-kind
set can invalidate geodesics used by previously verified pairs, so those
pairs are re-verified; the re-check is restricted to pairs whose geodesic
interval contains the new vertex, which is exact because a new blocker
outside every u,v-geodesic cannot change the u,v test.
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


def _between_masks(n, dist):
    """btw[u][v]: vertices strictly inside some u,v-geodesic."""
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


def _gp_pairbad(n, dist):
    """pairbad[u][v]: third vertices completing a geodesic triple with u,v."""
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
    """Full from-scratch verification of ``mask`` for the given kind."""
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
    balls = _all_balls(n, tuple(dist))
    if kind == MV:
        pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    elif kind == OUTER:
        pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
        outside = [x for x in range(n) if not mask >> x & 1]
        pairs += [(u, z) for u in members for z in outside]
    elif kind == TOTAL:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        raise ValueError(f"unknown property kind code {kind}")
    return all(_pv_balls(n, adj, dist, balls, u, v, mask) for u, v in pairs)


class _Ctx:
    """Precomputed tables shared by one solve/enumerate run."""

    def __init__(self, n, adj, dist, kind):
        self.n = n
        self.adj = adj
        self.dist = dist
        self.kind = kind
        self.balls = _all_balls(n, tuple(dist)) if kind != GP else None
        self.btw = _between_masks(n, dist) if kind != GP else None
        self.pairbad = _gp_pairbad(n, dist) if kind == GP else None

    def extend_ok(self, smask, w):
        """Does smask ∪ {w} keep the property, given smask already has it?"""
        kind = self.kind
        if kind == GP:
            bad = self.pairbad[w]
            for x in _bits(smask):
                if bad[x] & smask & ~(1 << x):
                    return False
            return True
        n, adj, dist = self.n, self.adj, self.dist
        balls, btw = self.balls, self.btw
        new = smask | 1 << w
        wbit = 1 << w
        if kind == MV:
            for x in _bits(smask):
                if not _pv_balls(n, adj, dist, balls, x, w, new):
                    return False
            members = list(_bits(smask))
            for i, x in enumerate(members):
                bx = btw[x]
                for y in members[i + 1 :]:
                    if bx[y] & wbit and not _pv_balls(n, adj, dist, balls, x, y, new):
                        return False
            return True
        if kind == OUTER:
            for z in range(n):
                if z != w and not new >> z & 1:
                    if not _pv_balls(n, adj, dist, balls, w, z, new):
                        return False
            # re-check every pair with an endpoint in smask that w can block;
            # pairs (x, w) keep their blocked set unchanged and are skipped
            for x in _bits(smask):
                bx = btw[x]
                for y in range(x + 1, n):
                    if y == w:
                        continue
                    if bx[y] & wbit and not _pv_balls(n, adj, dist, balls, x, y, new):
                        return False
            for y in _bits(smask):
                by = btw[y]
                for x in range(0, y):
                    if x == w or smask >> x & 1:
                        continue
                    if by[x] & wbit and not _pv_balls(n, adj, dist, balls, x, y, new):
                        return False
            return True
        if kind == TOTAL:
            for x in range(n):
                if x == w:
                    continue
                bx = btw[x]
                for y in range(x + 1, n):
                    if y == w:
                        continue
                    if bx[y] & wbit and not _pv_balls(n, adj, dist, balls, x, y, new):
                        return False
            return True
        raise ValueError(f"unknown property kind code {kind}")


def extend_ok(n, adj, dist, smask, w, kind):
    """One-shot extension check; assumes smask already satisfies the kind."""
    return _Ctx(n, adj, dist, kind).extend_ok(smask, w)


def _default_order(n, adj):
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def greedy_set(n, adj, dist, kind):
    """Deterministic greedy sweep: descending degree, ties by index."""
    ctx = _Ctx(n, adj, dist, kind)
    smask = 0
    for w in _default_order(n, adj):
        if ctx.extend_ok(smask, w):
            smask |= 1 << w
    return smask


class _Found(Exception):
    pass


class _TimeUp(Exception):
    pass


class _Search:
    def __init__(self, ctx, order, target, deadline):
        self.ctx = ctx
        self.order = order
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
        ctx = self.ctx
        for i, w in enumerate(cands):
            if size + len(cands) - i <= self.best:
                break
            new = smask | 1 << w
            self._improve(new, size + 1)
            rest = [x for x in cands[i + 1 :] if ctx.extend_ok(new, x)]
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
    search = _Search(ctx, order, target, deadline)
    seed = greedy_set(n, adj, dist, kind)
    search.best = seed.bit_count()
    search.best_mask = seed
    if target and search.best >= target:
        return search.best, search.best_mask, 0, 1
    roots = [w for w in order if ctx.extend_ok(0, w)]
    try:
        search.run(0, 0, roots)
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
                rest = [x for x in cands[i + 1 :] if ctx.extend_ok(new, x)]
                if cur + 1 + len(rest) >= size:
                    rec(new, cur + 1, rest)

    roots = [w for w in order if ctx.extend_ok(0, w)]
    rec(0, 0, roots)
    return out
