"""Immutable graphs, BFS distance matrices, and the geodesic primitives.

Vertices are indices 0..n-1 internally.  User-facing labels are 1-based:
``v3`` for a base vertex, ``v3'`` for its copy, ``v*`` for an apex.
Adjacency rows are integer bitmasks, which keeps neighborhood operations
(one word per row at small n) cheap for every layer above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

from ._kernel import get_kernel

UNREACHABLE = -1

BASE = "base"
COPY = "copy"
APEX = "apex"

_ROLE_RANK = {BASE: 0, COPY: 1, APEX: 2}


@dataclass(frozen=True)
class Role:
    """Vertex tag: base/copy carry the index of the underlying original vertex."""

    kind: str
    ref: int = 0

    def label(self) -> str:
        if self.kind == BASE:
            return f"v{self.ref + 1}"
        if self.kind == COPY:
            return f"v{self.ref + 1}'"
        return "v*"

    def sort_key(self) -> tuple[int, int]:
        return (_ROLE_RANK[self.kind], self.ref)


def base_role(i: int) -> Role:
    return Role(BASE, i)


def copy_role(i: int) -> Role:
    return Role(COPY, i)


def apex_role() -> Role:
    return Role(APEX, 0)


@lru_cache(maxsize=128)
def layout_roles(n: int, operator: str | None = None) -> tuple[Role, ...]:
    """The roles of an order-n graph, v1..vn, or with ``operator`` those of
    its double graph ("double": then v1'..vn') or its Mycielskian ("myc":
    then v1'..vn' and v*).  Built once per (n, operator) and shared, Role
    instances too, by every graph of that shape; kept for the latest 128."""
    if operator is None:
        return tuple(map(base_role, range(n)))
    if operator == "double":
        return layout_roles(n) + tuple(map(copy_role, range(n)))
    if operator == "myc":
        return layout_roles(n, "double") + (apex_role(),)
    raise ValueError(f"unknown operator {operator!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows and vertex roles.
    ``_distances`` keeps the graph's matrix once it is computed,
    ``_indices`` the label table of its roles tuple once a label is looked
    up (one table per tuple, shared by the graphs of one layout), and
    ``_symmetries`` the automorphisms that ``role_symmetries`` kept."""

    n: int
    adj: tuple[int, ...]
    roles: tuple[Role, ...]
    _distances: DistanceMatrix | None = field(default=None, init=False, repr=False, compare=False)
    _indices: dict[tuple[str, int] | str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _symmetries: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        return _bits(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(self.degree(u) for u in range(self.n)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(u) for u in range(self.n)))

    def label(self, u: int) -> str:
        return self.roles[u].label()

    def index(self, label: str) -> int:
        """Translate a 1-based label (v3, v3', v*, or bare 3) to an index."""
        table = self._indices
        if table is None:
            table = _label_table(self.roles)
            object.__setattr__(self, "_indices", table)
        i = table.get(label)
        if i is None:
            i = table.get(_label_key(label))
            if i is None:
                raise ValueError(f"no vertex labelled {label!r} in this graph")
        return i

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[u] == full ^ (1 << u) for u in range(self.n))


def _label_key(label: str) -> tuple[str, int]:
    """The (kind, ref) that a label names: v*, V* or * the apex, vK, VK or
    K (ASCII digits, K >= 1) base vertex K-1, and with a trailing ' its copy."""
    text = label.strip()
    if not text:
        raise ValueError("empty vertex label")
    if text in ("v*", "V*", "*"):
        return (APEX, 0)
    body = text[1:] if text[0] in "vV" else text
    prime = body.endswith("'")
    if prime:
        body = body[:-1]
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"bad vertex label: {label!r}")
    k = int(body)
    if k < 1:
        raise ValueError(f"vertex labels are 1-based: {label!r}")
    return (COPY if prime else BASE, k - 1)


# id(roles) -> (roles, label table) for the most recently used roles tuples;
# the entry holds its tuple, which keeps its id from being reused while it lives
_label_tables: dict[int, tuple[tuple[Role, ...], dict]] = {}
_LABEL_TABLES_KEPT = 256


def _label_table(roles: tuple[Role, ...]) -> dict[tuple[str, int] | str, int]:
    """Label table of one roles tuple: the first vertex of each (kind, ref),
    and the same vertex under the canonical text (v3, v3', v*) that
    ``_label_key`` reads as that key, where there is one.  A canonical label
    then costs ``Graph.index`` one lookup; any other spelling is parsed.
    Found by identity, so a tuple is read once while its table is kept."""
    kept = _label_tables.pop(id(roles), None)
    if kept is None:
        table: dict[tuple[str, int] | str, int] = {}
        for i, role in enumerate(roles):
            table.setdefault((role.kind, role.ref), i)
        for (kind, ref), i in list(table.items()):
            if not isinstance(ref, int):
                continue
            if kind == APEX and ref == 0:
                table["v*"] = i
            elif kind in (BASE, COPY) and ref >= 0:
                table[f"v{ref + 1}'" if kind == COPY else f"v{ref + 1}"] = i
        kept = (roles, table)
        if len(_label_tables) >= _LABEL_TABLES_KEPT:
            del _label_tables[next(iter(_label_tables))]
    _label_tables[id(roles)] = kept
    return kept[1]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class VertexSet:
    """Subset of 0..n-1 with bitmask semantics; immutable."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 1 << self.n:
            raise ValueError(
                f"vertex set mask {self.mask:#x} names a vertex outside 0..{self.n - 1}"
            )

    @staticmethod
    def of(n: int, vertices: Iterable[int]) -> "VertexSet":
        m = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for order {n}")
            m |= 1 << v
        return VertexSet(n, m)

    def __contains__(self, v: int) -> bool:
        # mask has no bit at n or above, so only a negative v needs a test
        return v >= 0 and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def with_vertex(self, v: int) -> "VertexSet":
        require_vertices(self.n, v)
        return VertexSet(self.n, self.mask | 1 << v)

    def without_vertex(self, v: int) -> "VertexSet":
        require_vertices(self.n, v)
        return VertexSet(self.n, self.mask & ~(1 << v))

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.n, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.n, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def labels(self, g: Graph) -> tuple[str, ...]:
        order = sorted(self, key=lambda v: g.roles[v].sort_key())
        return tuple(g.label(v) for v in order)

    def _check_same(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to graphs of different order")


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs BFS hop distances; UNREACHABLE marks disconnected pairs."""

    n: int
    data: tuple[int, ...]
    connected: bool

    def d(self, u: int, v: int) -> int:
        return self.data[u * self.n + v]

    def row(self, u: int) -> tuple[int, ...]:
        return self.data[u * self.n : (u + 1) * self.n]

    def diameter(self) -> int:
        if not self.connected:
            raise ValueError("diameter undefined for a disconnected graph")
        return max(self.data) if self.n > 1 else 0


def build_graph(n: int, edges: Iterable[tuple[int, int]], roles=None) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if roles is None:
        roles = layout_roles(n)
    else:
        roles = tuple(roles)
        if len(roles) != n:
            raise ValueError("roles length must equal the vertex count")
    return Graph(n, tuple(adj), roles)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """The graph's own distance matrix, kept on ``g`` after the first call.
    Equal graphs share one BFS and one distance tuple, each in its own matrix."""
    if g._distances is None:
        data, connected = _bfs_distances(g.n, tuple(g.adj))
        object.__setattr__(g, "_distances", DistanceMatrix(g.n, data, connected))
    return g._distances


def role_symmetries(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The automorphisms that the vertex roles carry, each as the tuple of
    the images of 0..n-1: the shift of every ref by one modulo the number
    k of refs of its role kind, and the reflection of ref to k-1-ref (the
    apex stays).  These are the rotations and reflections that ``double``
    and ``myc`` lift from a cycle or a path; a cycle carries both, a path
    only the reflection.  The shift alone already has whole kinds as its
    orbits, but the search also uses the stabilizer of a vertex, which
    the reflection is needed to generate.  A candidate is kept only if it
    maps every adjacency row onto the row of its image; the check stops
    at the first row that fails, so a graph whose roles carry no symmetry
    costs little.  Kept on ``g`` after the first call."""
    if g._symmetries is None:
        maps = _role_maps(tuple(map(_KIND_REF, g.roles)))
        kept = tuple(p for p in maps if p is not None and _maps_rows(g.adj, p))
        object.__setattr__(g, "_symmetries", kept)
    return g._symmetries


_KIND_REF = attrgetter("kind", "ref")


@lru_cache(maxsize=32)
def _role_maps(keys: tuple[tuple[str, int], ...]) -> tuple[tuple[int, ...] | None, ...]:
    """The shift and the reflection of the refs, for the roles given as
    (kind, ref) pairs, as permutations of the vertices; None where a role
    has no image, and for the reflection where it is the shift (no kind
    has more than two refs).  When every role has one, the refs of each
    kind are 0..k-1, so the map is a bijection.  Kept for the latest 32
    layouts, as the graphs of one family and order share theirs (a
    verify-paper catalog has 24)."""
    n = len(keys)
    where = dict(zip(keys, range(n)))
    if len(where) != n:
        return (None, None)
    kinds = [kind for kind, _ in keys]
    count = {kind: kinds.count(kind) for kind in set(kinds)}
    shift = tuple(where.get((kind, (ref + 1) % count[kind])) for kind, ref in keys)
    reflect = tuple(where.get((kind, count[kind] - 1 - ref)) for kind, ref in keys)
    if reflect == shift:
        reflect = None
    return tuple(None if perm is None or None in perm else perm for perm in (shift, reflect))


def _maps_rows(adj: tuple[int, ...], perm: tuple[int, ...]) -> bool:
    """Each row adj[v], with every vertex x moved to perm[x], is adj[perm[v]].
    ``perm`` must be a bijection: then a row whose images all lie in a row
    of its size maps onto that row."""
    for v, row in enumerate(adj):
        target = adj[perm[v]]
        if target.bit_count() != row.bit_count():
            return False
        while row:
            low = row & -row
            if not target >> perm[low.bit_length() - 1] & 1:
                return False
            row ^= low
    return True


@lru_cache(maxsize=256)
def _bfs_distances(n: int, adj: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """BFS from every vertex, one row per source, on bitmask frontiers:
    one pass over a frontier's bits writes their distance and ORs their
    rows into the next frontier."""
    data = [UNREACHABLE] * (n * n)
    connected = True
    for s in range(n):
        row_base = s * n
        seen = frontier = 1 << s
        dist = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                data[row_base + v] = dist
                nxt |= adj[v]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        if seen != (1 << n) - 1:
            connected = False
    return tuple(data), connected


def require_connected(d: DistanceMatrix) -> None:
    if not d.connected:
        raise ValueError("operation requires a connected graph")


def require_vertices(n: int, *vertices: int) -> None:
    """Reject any vertex outside 0..n-1."""
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for order {n}")


def require_order(g: Graph, s: VertexSet) -> None:
    """Reject a vertex set made for a graph of another order."""
    if s.n != g.n:
        raise ValueError("vertex set does not match the graph order")


def require_own_distances(g: Graph, d: DistanceMatrix) -> None:
    """Reject a matrix that is not the graph's own: the kept matrix passes
    on identity alone, any other must equal it value for value."""
    if d is not g._distances and d != all_pairs_distances(g):
        raise ValueError("distance matrix does not belong to this graph")


def lies_between(d: DistanceMatrix, x: int, u: int, v: int) -> bool:
    """True iff x is on some u,v-geodesic; endpoints qualify trivially."""
    require_vertices(d.n, x, u, v)
    dux, dxv, duv = d.d(u, x), d.d(x, v), d.d(u, v)
    if UNREACHABLE in (dux, dxv, duv):
        raise ValueError("lies_between requires a connected graph")
    return dux + dxv == duv


def exists_avoiding_geodesic(
    g: Graph, d: DistanceMatrix, u: int, v: int, blocked: VertexSet
) -> bool:
    """True iff some u,v-geodesic has no internal vertex in ``blocked``.

    The endpoints never block their own pair.  The test walks the
    shortest-path DAG from u toward v level by level, keeping only
    non-blocked interior vertices, and checks that v stays reachable.
    """
    require_own_distances(g, d)
    require_connected(d)
    require_vertices(g.n, u, v)
    if u == v:
        raise ValueError("visibility is defined for distinct vertices")
    require_order(g, blocked)
    kernel = get_kernel(g.n)
    return kernel.pair_visible(g.n, g.adj, d.data, u, v, blocked.mask)


def graph_to_edge_list_text(g: Graph) -> str:
    """Serialize as the edge-list format: ``n m`` then 1-based ``u v`` lines."""
    lines = [f"{g.n} {g.num_edges()}"]
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def graph_from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format; ``#`` starts a comment line."""
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2 or not all(tok.isascii() and tok.removeprefix("-").isdigit() for tok in head):
        raise ValueError(f"bad edge-list header: {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(tok.isascii() and tok.isdigit() for tok in parts):
            raise ValueError(f"bad edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge line {line!r} out of range (labels are 1-based)")
        edges.append((u - 1, v - 1))
    return build_graph(n, edges)


def read_edge_list_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_edge_list_text(fh.read())
