"""Named graph families, the two graph operators, and the spec grammar.

Canonical numbering is part of the contract so that labelled witness sets
map deterministically to indices: paths and cycles are v1..vn in order,
complete_minus_edge removes {v1, v2}, the star center is v1, and the
balloon hub is the last vertex with cycle i on 1-based positions
5(i-1)+1..5i, the spoke attached to the first vertex of each cycle.

Operators lay out vertices as the base block, then the copy block, then
the apex (Mycielskian only), so Base(i) sits at index i and Copy(i) at
index n + i.  That layout depends only on n and the operator, so every
graph of one shape shares one roles tuple (``layout_roles``) and one
label table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, build_graph, layout_roles, read_edge_list_file

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_minus_edge",
    "complete_bipartite",
    "star",
    "balloon",
    "from_file",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer parameters (or a file path)."""

    family: str
    params: tuple[int, ...] = ()
    path: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def generate(spec: FamilySpec) -> Graph:
    """Instantiate a family spec with canonical vertex numbering."""
    fam, p = spec.family, spec.params
    if fam == "path":
        (n,) = p
        if n < 1:
            raise ValueError("path needs n >= 1")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        (n,) = p
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "complete":
        (n,) = p
        if n < 1:
            raise ValueError("complete needs n >= 1")
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if fam == "complete_minus_edge":
        (n,) = p
        if n < 3:
            raise ValueError("complete_minus_edge needs n >= 3")
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)
        ]
        return build_graph(n, edges)
    if fam == "complete_bipartite":
        r, s = p
        if r < 1 or s < 1:
            raise ValueError("complete_bipartite needs r, s >= 1")
        return build_graph(r + s, [(i, r + j) for i in range(r) for j in range(s)])
    if fam == "star":
        (n,) = p
        if n < 2:
            raise ValueError("star needs n >= 2")
        return build_graph(n, [(0, i) for i in range(1, n)])
    if fam == "balloon":
        (k,) = p
        if k < 1:
            raise ValueError("balloon needs k >= 1")
        n = 5 * k + 1
        hub = n - 1
        edges = []
        for i in range(k):
            base = 5 * i
            edges += [(base + j, base + (j + 1) % 5) for j in range(5)]
            edges.append((hub, base))
        return build_graph(n, edges)
    if fam == "from_file":
        if not spec.path:
            raise ValueError("from_file spec needs a path")
        return read_edge_list_file(spec.path)
    raise ValueError(f"unknown family {fam!r}")


def double_graph(g: Graph) -> Graph:
    """D(G): each vertex gains a copy joined to the neighbors of the original."""
    n = g.n
    if n < 1:
        raise ValueError("double graph needs a nonempty graph")
    row = [g.adj[i] | g.adj[i] << n for i in range(n)]
    adj = tuple(row[i % n] for i in range(2 * n))
    return Graph(2 * n, adj, layout_roles(n, "double"))


def mycielskian(g: Graph) -> Graph:
    """M(G): shadow copies wired to original neighborhoods plus an apex."""
    n = g.n
    if n < 1:
        raise ValueError("mycielskian needs a nonempty graph")
    apex = 2 * n
    copies_mask = ((1 << n) - 1) << n
    adj = []
    for i in range(n):
        adj.append(g.adj[i] | g.adj[i] << n)
    for i in range(n):
        adj.append(g.adj[i] | 1 << apex)
    adj.append(copies_mask)
    return Graph(2 * n + 1, tuple(adj), layout_roles(n, "myc"))


def wheel_graph(n: int) -> Graph:
    """W_n: a hub (v1) adjacent to every vertex of a C_n rim.  Not part of
    the spec grammar; used by the suite for the universal-vertex checks."""
    if n < 3:
        raise ValueError("wheel needs rim length >= 3")
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return build_graph(n + 1, edges)


class GraphSpecError(ValueError):
    """Spec-string syntax or domain error, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_ATOMS = {
    "path": ("path", 1),
    "cycle": ("cycle", 1),
    "complete": ("complete", 1),
    "kminus": ("complete_minus_edge", 1),
    "kbip": ("complete_bipartite", 2),
    "star": ("star", 1),
    "balloon": ("balloon", 1),
}

_OPERATORS = {"double": double_graph, "myc": mycielskian}


def parse_graph_spec(text: str) -> Graph:
    """Parse the mini-grammar: atoms like ``cycle:7``, operators
    ``double(...)`` and ``myc(...)`` nesting freely, and ``file:<path>``.
    Whitespace may stand around the spec, around an operator's parentheses,
    and after ``:`` and ``,``.  At top level a ``file:`` path runs to the end
    of the text; inside an operator it ends at the ``)`` that closes the
    operator, so parentheses in a path must pair up there."""
    graph, pos = _parse_expr(text, 0, False)
    rest = text[pos:].strip()
    if rest:
        raise GraphSpecError(f"trailing input {rest!r}", pos)
    return graph


def _path_end(text: str, pos: int) -> int:
    """Where a path from ``pos`` inside an operator ends: at the first ``)``
    that no ``(`` of the path opened, or at the end of the text."""
    depth = 0
    for end in range(pos, len(text)):
        if text[end] == "(":
            depth += 1
        elif text[end] == ")":
            if not depth:
                return end
            depth -= 1
    return len(text)


def _parse_expr(text: str, pos: int, nested: bool) -> tuple[Graph, int]:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    start = pos
    while pos < len(text) and (text[pos].isalpha() or text[pos] == "_"):
        pos += 1
    name = text[start:pos]
    if not name:
        raise GraphSpecError("expected a family or operator name", start)
    paren = pos
    while paren < len(text) and text[paren].isspace():
        paren += 1
    if paren < len(text) and text[paren] == "(":
        if name not in _OPERATORS:
            raise GraphSpecError(f"unknown operator {name!r}", start)
        inner, pos = _parse_expr(text, paren + 1, True)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise GraphSpecError("expected ')'", pos)
        return _OPERATORS[name](inner), pos + 1
    if pos >= len(text) or text[pos] != ":":
        raise GraphSpecError(f"expected ':' after {name!r}", pos)
    pos += 1
    if name == "file":
        end = _path_end(text, pos) if nested else len(text)
        path = text[pos:end].strip()
        if not path:
            raise GraphSpecError("file spec needs a path", pos)
        return generate(FamilySpec("from_file", path=path)), end
    if name not in _ATOMS:
        raise GraphSpecError(f"unknown family {name!r}", start)
    family, arity = _ATOMS[name]
    params = []
    for k in range(arity):
        if k:
            if pos >= len(text) or text[pos] != ",":
                raise GraphSpecError("expected ','", pos)
            pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        dstart = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == dstart:
            raise GraphSpecError("expected an integer parameter", dstart)
        params.append(int(text[dstart:pos]))
    try:
        return generate(FamilySpec(family, tuple(params))), pos
    except ValueError as exc:
        raise GraphSpecError(str(exc), start) from None
