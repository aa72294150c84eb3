"""Independent oracles used to cross-check the package's answers.

Everything here avoids the package's bitset machinery on purpose.
Visibility is decided by enumerating every geodesic explicitly and
looking at its interior; maxima are found by sweeping all subsets.
Slow, but trustworthy on the small graphs we feed them.
"""

from __future__ import annotations

import itertools
import random

from gpvis import DistanceMatrix, Graph, PartitionWitness, PropertyKind, VertexSet


def all_geodesics(g: Graph, d: DistanceMatrix, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, as vertex tuples starting at u."""
    if u == v:
        return [(u,)]
    if d.d(u, v) < 0:
        return []
    out = []
    stack = [(u, (u,))]
    while stack:
        x, path = stack.pop()
        for y in g.neighbors(x):
            if d.d(y, v) == d.d(x, v) - 1:
                if y == v:
                    out.append(path + (y,))
                else:
                    stack.append((y, path + (y,)))
    return out


def oracle_pair_visible(g, d, u, v, blocked) -> bool:
    """True if some u-v geodesic has no internal vertex in ``blocked``."""
    blocked = set(blocked)
    return any(
        all(w not in blocked for w in path[1:-1])
        for path in all_geodesics(g, d, u, v)
    )


def oracle_property_ok(g, d, members, kind: PropertyKind) -> bool:
    """Definition-level check of a property, via explicit geodesic lists."""
    ms = set(members)
    if kind is PropertyKind.GP:
        # In general position iff no geodesic of the graph carries three
        # member vertices.
        for u, v in itertools.combinations(range(g.n), 2):
            for path in all_geodesics(g, d, u, v):
                if sum(1 for w in path if w in ms) >= 3:
                    return False
        return True
    if kind is PropertyKind.MV:
        pairs = list(itertools.combinations(sorted(ms), 2))
    elif kind is PropertyKind.OUTER:
        pairs = [
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if u in ms or v in ms
        ]
    elif kind is PropertyKind.TOTAL:
        pairs = list(itertools.combinations(range(g.n), 2))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return all(oracle_pair_visible(g, d, u, v, ms) for u, v in pairs)


def oracle_max_size(g, d, kind: PropertyKind) -> int:
    """Brute-force maximum over all subsets.  Only sane for n <= 12 or so."""
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        members = [i for i in range(g.n) if mask >> i & 1]
        if oracle_property_ok(g, d, members, kind):
            best = size
    return best


def oracle_max_sets(g, d, kind: PropertyKind) -> list[tuple[int, ...]]:
    """All maximum-size good subsets, as sorted member tuples."""
    best = oracle_max_size(g, d, kind)
    out = []
    for mask in range(1 << g.n):
        if mask.bit_count() != best:
            continue
        members = tuple(i for i in range(g.n) if mask >> i & 1)
        if oracle_property_ok(g, d, members, kind):
            out.append(members)
    return out


def random_subset(rng: random.Random, n: int) -> list[int]:
    return [i for i in range(n) if rng.random() < 0.5]


def label_index(roles, label: str) -> int:
    """The vertex that ``label`` names among ``roles``, parsed and looked up
    the long way on every call (the first vertex of each (kind, ref) wins),
    as ``Graph.index`` did before it shared one label table per layout."""
    text = label.strip()
    if not text:
        raise ValueError("empty vertex label")
    if text in ("v*", "V*", "*"):
        want = ("apex", 0)
    else:
        body = text[1:] if text[0] in "vV" else text
        prime = body.endswith("'")
        if prime:
            body = body[:-1]
        if not body.isdigit():
            raise ValueError(f"bad vertex label: {label!r}")
        k = int(body)
        if k < 1:
            raise ValueError(f"vertex labels are 1-based: {label!r}")
        want = ("copy" if prime else "base", k - 1)
    indices = {}
    for i, role in enumerate(roles):
        indices.setdefault((role.kind, role.ref), i)
    i = indices.get(want)
    if i is None:
        raise ValueError(f"no vertex labelled {label!r} in this graph")
    return i


def gp_characterization(g: Graph, d: DistanceMatrix, s: VertexSet):
    """``is_general_position_set_via_characterization`` as it was written
    before it moved to bitmasks (without its input checks): components of
    G[S] from member tuples, the clique test by ``has_edge``, each block
    distance as the one value of a set of ``d.d`` lookups."""
    members = s.members()
    smask = s.mask
    seen = 0
    blocks = []
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
        blocks.append([u for u in members if comp_mask >> u & 1])
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
