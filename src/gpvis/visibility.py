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
    kernel = get_kernel(g.n)
    return kernel.set_ok(g.n, g.adj, d.data, s.mask, kind.code)


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
    pairwise-distinct block triples)."""
    require_own_distances(g, d)
    require_connected(d)
    require_order(g, s)
    members = s.members()
    blocks = _induced_components(g, members)
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if not g.has_edge(u, v):
                    return False, None
    p = len(blocks)
    bd = [[0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            vals = {d.d(u, v) for u in blocks[i] for v in blocks[j]}
            if len(vals) != 1:
                return False, None
            bd[i][j] = bd[j][i] = vals.pop()
    for i in range(p):
        for j in range(p):
            if j == i:
                continue
            for k in range(p):
                if k == i or k == j:
                    continue
                if bd[i][k] == bd[i][j] + bd[j][k]:
                    return False, None
    witness = PartitionWitness(
        tuple(VertexSet.of(g.n, block) for block in blocks),
        tuple(tuple(row) for row in bd),
    )
    return True, witness


def _induced_components(g: Graph, members: tuple[int, ...]) -> list[list[int]]:
    smask = 0
    for v in members:
        smask |= 1 << v
    seen = 0
    comps = []
    for v in members:
        if seen >> v & 1:
            continue
        comp_mask = 0
        frontier = 1 << v
        while frontier:
            comp_mask |= frontier
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= g.adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & smask & ~comp_mask
        seen |= comp_mask
        comps.append([u for u in members if comp_mask >> u & 1])
    return comps


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
