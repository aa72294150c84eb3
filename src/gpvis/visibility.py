"""Verifiers for the four set properties, the general-position
characterization oracle, and twin detection/transforms.

A pair u,v is S-visible when some u,v-geodesic has no internal vertex in
S; endpoints never block their own pair.  The four properties:

- MV: members of S are pairwise S-visible.
- OuterMV: MV, and every (inside, outside) pair is S-visible.
- TotalMV: every pair of vertices of the graph is S-visible.
- GP: no three members of S lie on a common geodesic (distance test only).

All four are hereditary, and TotalMV implies OuterMV implies MV.

The verifiers take the graph's distance matrix ``d`` and raise
ValueError when it is not the one ``all_pairs_distances(g)`` gives.

The GP characterization (Anand, Chandran S. V., Changat, Klavžar and
Thomas, Appl. Math. Comput. 2019) is an oracle for the kernels' triple
test and shares no code with them.  It works on bitmasks: the
components of G[S] come from a BFS over ``g.adj`` restricted to S, a
component ``comp`` is a clique when ``comp & ~(adj[u] | 1 << u)`` is
empty for each member u, and the block distances are read from
``d.data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._kernel import get_kernel, pure
from .graphs import (
    DistanceMatrix,
    Graph,
    VertexSet,
    require_connected,
    require_order,
    require_own_distances,
    require_vertices,
)


class PropertyKind(Enum):
    MV = "mv"
    OUTER = "outer"
    TOTAL = "total"
    GP = "gp"

    @property
    def code(self) -> int:
        return _CODES[self]

    @classmethod
    def from_token(cls, text: str) -> "PropertyKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            tokens = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown property kind {text!r} (use one of {tokens})")


_CODES = {
    PropertyKind.MV: pure.MV,
    PropertyKind.OUTER: pure.OUTER,
    PropertyKind.TOTAL: pure.TOTAL,
    PropertyKind.GP: pure.GP,
}


def is_property_set(
    g: Graph, d: DistanceMatrix, s: VertexSet, kind: PropertyKind
) -> bool:
    """Full verification of ``s`` for ``kind`` on a connected graph."""
    require_own_distances(g, d)
    require_connected(d)
    require_order(g, s)
    return get_kernel(g.n).set_ok(g.n, g.adj, d.data, s.mask, _CODES[kind])


def is_mutual_visibility_set(g: Graph, d: DistanceMatrix, s: VertexSet) -> bool:
    return is_property_set(g, d, s, PropertyKind.MV)


def is_outer_mutual_visibility_set(g: Graph, d: DistanceMatrix, s: VertexSet) -> bool:
    return is_property_set(g, d, s, PropertyKind.OUTER)


def is_total_mutual_visibility_set(g: Graph, d: DistanceMatrix, s: VertexSet) -> bool:
    return is_property_set(g, d, s, PropertyKind.TOTAL)


def is_general_position_set(g: Graph, d: DistanceMatrix, s: VertexSet) -> bool:
    return is_property_set(g, d, s, PropertyKind.GP)


@dataclass(frozen=True)
class PartitionWitness:
    """Clique components of G[S] with their pairwise block distances."""

    blocks: tuple[VertexSet, ...]
    block_distances: tuple[tuple[int, ...], ...]


def is_general_position_set_via_characterization(
    g: Graph, d: DistanceMatrix, s: VertexSet
) -> tuple[bool, PartitionWitness | None]:
    """Decide GP via the structure of G[S]: the components must be cliques
    whose blocks form a distance-constant partition with no block distance
    equal to the sum through a third block (in-transitivity, taken over
    pairwise-distinct block triples).  The blocks are listed by their
    lowest member."""
    require_own_distances(g, d)
    require_connected(d)
    require_order(g, s)
    n, adj, data, smask = g.n, g.adj, d.data, s.mask
    blocks = []  # component masks
    members = []  # the members of each block, ascending
    rest = smask
    while rest:
        comp = 0
        frontier = rest & -rest
        while frontier:
            comp |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & smask & ~comp
        rest &= ~comp
        block = []
        m = comp
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if comp & ~(adj[u] | low):
                return False, None
            block.append(u)
            m ^= low
        blocks.append(comp)
        members.append(block)
    p = len(blocks)
    bd = [[0] * p for _ in range(p)]
    for i in range(p):
        bi = members[i]
        for j in range(i + 1, p):
            bj = members[j]
            dist = data[bi[0] * n + bj[0]]
            for u in bi:
                du = u * n
                for v in bj:
                    if data[du + v] != dist:
                        return False, None
            bd[i][j] = bd[j][i] = dist
    # bd is symmetric, so the triple (i, j, k) is the triple (k, j, i)
    for i in range(p):
        row = bd[i]
        for k in range(i + 1, p):
            dik = row[k]
            for j in range(p):
                if j != i and j != k and dik == row[j] + bd[j][k]:
                    return False, None
    witness = PartitionWitness(
        tuple(VertexSet(n, comp) for comp in blocks),
        tuple(map(tuple, bd)),
    )
    return True, witness


def find_false_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs with equal open neighborhoods, N(u) = N(v)."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] == g.adj[v]
    ]


def find_true_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs with equal closed neighborhoods, N[u] = N[v]."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] | 1 << u == g.adj[v] | 1 << v
    ]


def false_twin_swap(g: Graph, s: VertexSet, u: int, v: int) -> VertexSet:
    """Replace u by its false twin v; preserves MV and GP in both directions."""
    require_order(g, s)
    require_vertices(g.n, u, v)
    if g.adj[u] != g.adj[v] or u == v:
        raise ValueError(f"vertices {u} and {v} are not false twins")
    if u not in s:
        raise ValueError(f"vertex {u} is not in the set")
    if v in s:
        raise ValueError(f"vertex {v} is already in the set")
    return s.without_vertex(u).with_vertex(v)


def true_twin_extend(g: Graph, s: VertexSet, u: int, v: int) -> VertexSet:
    """Add the true twin v of a member u; preserves GP but not MV in general."""
    require_order(g, s)
    require_vertices(g.n, u, v)
    if u == v or (g.adj[u] | 1 << u) != (g.adj[v] | 1 << v):
        raise ValueError(f"vertices {u} and {v} are not true twins")
    if u not in s:
        raise ValueError(f"vertex {u} is not in the set")
    return s.with_vertex(v)
