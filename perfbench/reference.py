"""Independent reference checker for the benchmark's outputs.

Visibility and general position are decided by explicit geodesic
enumeration, as in ``tests/oracles.py``: every shortest u,v-path is
listed, and a pair is S-visible when one of those paths has no interior
vertex in S.  Nothing here calls the package's kernels or verifiers; the
graph arrives as plain adjacency bitmasks and distances come from this
module's own breadth-first search.  Paths are stored as interior bitmasks,
which keeps a from-scratch check to a few hundred mask tests.
"""

from __future__ import annotations

from itertools import combinations

KINDS = ("mv", "outer", "total", "gp")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Geodesics:
    """All geodesics of a connected graph, as interior masks per pair."""

    def __init__(self, n, adj):
        self.n = n
        dist = [[-1] * n for _ in range(n)]
        for s in range(n):
            row = dist[s]
            row[s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in _bits(adj[x]):
                        if row[y] < 0:
                            row[y] = row[x] + 1
                            nxt.append(y)
                frontier = nxt
            if min(row) < 0:
                raise ValueError("reference checker needs a connected graph")
        # interiors[u][v]: distinct interior masks of the u,v-geodesics;
        # between[u][v]: union of those interiors.
        self.interiors = [[()] * n for _ in range(n)]
        self.between = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                found = set()
                stack = [(u, 0)]
                while stack:
                    x, inner = stack.pop()
                    for y in _bits(adj[x]):
                        if dist[y][v] != dist[x][v] - 1:
                            continue
                        if y == v:
                            found.add(inner)
                        else:
                            stack.append((y, inner | 1 << y))
                masks = tuple(found)
                union = 0
                for m in masks:
                    union |= m
                self.interiors[u][v] = self.interiors[v][u] = masks
                self.between[u][v] = self.between[v][u] = union

    def visible(self, u, v, blocked):
        """Some u,v-geodesic has no interior vertex in ``blocked``."""
        return any(not m & blocked for m in self.interiors[u][v])

    def ok(self, mask, kind):
        """Does the vertex set ``mask`` have the property ``kind``?"""
        n = self.n
        members = list(_bits(mask))
        if kind == "gp":
            # three members on one geodesic means one lies strictly
            # between the other two on some geodesic between them
            return not any(
                self.between[u][v] & mask
                for i, u in enumerate(members)
                for v in members[i + 1:]
            )
        if kind == "mv":
            pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        elif kind == "outer":
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (mask >> u | mask >> v) & 1]
        elif kind == "total":
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        else:
            raise ValueError(f"unknown property kind {kind!r}")
        return all(self.visible(u, v, mask) for u, v in pairs)

    def has_set_of_size(self, k, kind):
        """Is some set of ``k`` vertices a ``kind`` set?  Brute force over
        all k-subsets, so only for small graphs.  Since every kind is
        closed under subsets, no such set means the maximum is below k."""
        return any(self.ok(sum(1 << v for v in vs), kind)
                   for vs in combinations(range(self.n), k))

    def random_maximal(self, kind, rng):
        """A maximal set with the property, grown in a random vertex order."""
        order = list(range(self.n))
        rng.shuffle(order)
        mask = 0
        for w in order:
            if self.ok(mask | 1 << w, kind):
                mask |= 1 << w
        return mask


def relabel(n, adj, perm):
    """Adjacency rows after moving vertex v to position perm[v]."""
    out = [0] * n
    for v in range(n):
        row = 0
        for u in _bits(adj[v]):
            row |= 1 << perm[u]
        out[perm[v]] = row
    return tuple(out)


def unrelabel_mask(mask, perm):
    """Map a vertex set of the relabelled graph back to original labels."""
    back = 0
    for v, p in enumerate(perm):
        if mask >> p & 1:
            back |= 1 << v
    return back
