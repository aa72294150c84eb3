"""Named graph families, the two graph operators, and the spec grammar.

``_TABLE`` is the one list of families: each name maps to its grammar
token, its number of parameters, the least value a parameter may take,
and the builder of its graph.  Canonical numbering is part of the
contract so that labelled witness sets map deterministically to indices:
paths and cycles are v1..vn in order, complete_minus_edge removes
{v1, v2}, the star center is v1, the wheel hub is v1 with the rim
v2..v(m+1) in cycle order, and the balloon hub is the last vertex with
cycle i on 1-based positions 5(i-1)+1..5i, the spoke attached to the
first vertex of each cycle.

Operators lay out vertices as the base block, then the copy block, then
the apex (Mycielskian only), so Base(i) sits at index i and Copy(i) at
index n + i.  That layout depends only on n and the operator, so every
graph of one shape shares one roles tuple (``layout_roles``) and one
label table.

Adjacency rows are built once per atom and once per operator input: an
atom's rows are kept per family and parameters, and an operator's rows
per input rows, each in a memo of the latest 128, so equal specs hand
every layer above the same rows tuple and its identity-keyed caches hit.
Each parse still returns a graph object of its own, the operators are
still called on every parse, and a ``file:`` spec is read afresh each
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .graphs import Graph, build_graph, layout_roles, read_edge_list_file


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _wheel(m: int) -> Graph:
    rim = range(1, m + 1)
    return build_graph(m + 1, [(0, i) for i in rim] + [(i, i % m + 1) for i in rim])


def _balloon(k: int) -> Graph:
    hub = 5 * k
    edges = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    return build_graph(hub + 1, edges + [(hub, 5 * i) for i in range(k)])


class _Family(NamedTuple):
    """A row of ``_TABLE``: the grammar token, the number of parameters,
    the least value a parameter may take, and the graph's builder."""

    token: str
    arity: int
    least: int
    build: Callable[..., Graph]


_TABLE = {
    "path": _Family("path", 1, 1, lambda n: build_graph(n, [(i, i + 1) for i in range(n - 1)])),
    "cycle": _Family("cycle", 1, 3, lambda n: build_graph(n, [(i, (i + 1) % n) for i in range(n)])),
    "complete": _Family("complete", 1, 1, lambda n: build_graph(n, _pairs(n))),
    # (0, 1) is the first pair
    "complete_minus_edge": _Family("kminus", 1, 3, lambda n: build_graph(n, _pairs(n)[1:])),
    "complete_bipartite": _Family("kbip", 2, 1, lambda r, s: build_graph(
        r + s, [(i, j) for i in range(r) for j in range(r, r + s)])),
    "star": _Family("star", 1, 2, lambda n: build_graph(n, [(0, i) for i in range(1, n)])),
    "wheel": _Family("wheel", 1, 3, _wheel),
    "balloon": _Family("balloon", 1, 1, _balloon),
}
_BY_TOKEN = {fam.token: fam for fam in _TABLE.values()}


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer parameters, or ``from_file`` plus a path."""

    family: str
    params: tuple[int, ...] = ()
    path: str | None = None

    def __post_init__(self):
        if self.family not in _TABLE and self.family != "from_file":
            raise ValueError(f"unknown family {self.family!r}")


def _build(fam: _Family, params: Sequence[int], name: str) -> Graph:
    """The family's graph on ``params``; an error calls the family ``name``.
    Parameters must be ``int`` (not ``bool``): ``5.0`` equals ``5``, so a
    memo would otherwise serve it ``5``'s rows."""
    if len(params) != fam.arity:
        plural = "" if fam.arity == 1 else "s"
        raise ValueError(f"{name} takes {fam.arity} parameter{plural}, got {len(params)}")
    for p in params:
        if type(p) is not int:
            raise ValueError(f"{name} parameters must be integers, got {p!r}")
    if min(params) < fam.least:
        raise ValueError(f"{name} needs each parameter >= {fam.least}")
    rows = _atom_rows(fam.token, tuple(params))
    return Graph(len(rows), rows, layout_roles(len(rows)))


@lru_cache(maxsize=128)
def _atom_rows(token: str, params: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the family's graph on checked ``params``; kept for the
    latest 128."""
    return _BY_TOKEN[token].build(*params).adj


def generate(spec: FamilySpec) -> Graph:
    """Instantiate a family spec with canonical vertex numbering."""
    if spec.family == "from_file":
        if not spec.path:
            raise ValueError("from_file spec needs a path")
        return read_edge_list_file(spec.path)
    return _build(_TABLE[spec.family], spec.params, spec.family)


def double_graph(g: Graph) -> Graph:
    """D(G): each vertex gains a copy joined to the neighbors of the original."""
    n = g.n
    if n < 1:
        raise ValueError("double graph needs a nonempty graph")
    return Graph(2 * n, _double_rows(tuple(g.adj)), layout_roles(n, "double"))


@lru_cache(maxsize=128)
def _double_rows(adj: tuple[int, ...]) -> tuple[int, ...]:
    """D(G)'s rows from G's; kept for the latest 128 inputs."""
    n = len(adj)
    row = tuple(a | a << n for a in adj)
    return row + row


def mycielskian(g: Graph) -> Graph:
    """M(G): shadow copies wired to original neighborhoods plus an apex."""
    n = g.n
    if n < 1:
        raise ValueError("mycielskian needs a nonempty graph")
    return Graph(2 * n + 1, _myc_rows(tuple(g.adj)), layout_roles(n, "myc"))


@lru_cache(maxsize=128)
def _myc_rows(adj: tuple[int, ...]) -> tuple[int, ...]:
    """M(G)'s rows from G's: the base block, the copy block joined to the
    apex, then the apex joined to every copy; kept for the latest 128 inputs."""
    n = len(adj)
    apex = 1 << 2 * n
    return (tuple(a | a << n for a in adj) + tuple(a | apex for a in adj)
            + (((1 << n) - 1) << n,))


def wheel_graph(n: int) -> Graph:
    """W_n: a hub (v1) adjacent to every vertex of a C_n rim, as ``wheel:n``."""
    return generate(FamilySpec("wheel", (n,)))


class GraphSpecError(ValueError):
    """Spec-string syntax or domain error, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


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
    fam = _BY_TOKEN.get(name)
    if fam is None:
        raise GraphSpecError(f"unknown family {name!r}", start)
    params = []
    for k in range(fam.arity):
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
        return _build(fam, params, name), pos
    except ValueError as exc:
        raise GraphSpecError(str(exc), start) from None
