"""Constructive witness sets for the catalog's closed forms.

Every witness constructor re-verifies its output with the corresponding
verifier before returning, so a construction that stopped matching its
intended property would fail loudly here rather than silently feeding a
bad set downstream.

The balloon witness is not hard-coded: it is produced by the solver in
target mode and cached as a golden file (see data/), then re-verified on
every load.
"""

from __future__ import annotations

from importlib import resources

from .catalog import FormulaId, formula_value
from .families import FamilySpec, double_graph, generate, mycielskian, parse_graph_spec
from .graphs import Graph, VertexSet, all_pairs_distances, require_vertices
from .visibility import (
    is_mutual_visibility_set,
    is_outer_mutual_visibility_set,
    is_total_mutual_visibility_set,
)


def _checked_mv(g: Graph, mask: int, what: str) -> VertexSet:
    s = VertexSet(g.n, mask)
    if not is_mutual_visibility_set(g, all_pairs_distances(g), s):
        raise AssertionError(f"{what} failed its mutual-visibility check")
    return s


def witness_double_from_total(g: Graph, total_set: VertexSet) -> VertexSet:
    """V(G') plus a total mutual-visibility set of G, as an MV set of D(G)."""
    if g.is_complete():
        raise ValueError("the construction requires a non-complete graph")
    d = all_pairs_distances(g)
    if not is_total_mutual_visibility_set(g, d, total_set):
        raise ValueError("given set is not a total mutual-visibility set")
    n = g.n
    mask = (((1 << n) - 1) << n) | total_set.mask
    return _checked_mv(double_graph(g), mask, "double-from-total witness")


def _myc_witness(family: str, n: int, size: int, r: list[int], rprime: list[int]) -> VertexSet:
    """The base vertices R plus every copy outside R', by 1-based label, as
    an MV set of ``size`` vertices in M(G), G the graph of ``family:n``."""
    mask = 0
    for j in r:
        mask |= 1 << (j - 1)
    for j in range(1, n + 1):
        if j not in rprime:
            mask |= 1 << (n + j - 1)
    what = f"mycielskian {family} witness (n={n})"
    s = _checked_mv(parse_graph_spec(f"myc({family}:{n})"), mask, what)
    if len(s) != size:
        raise AssertionError(f"{what} has size {len(s)}, not {size}")
    return s


def witness_myc_path(n: int) -> VertexSet:
    """MV set of M(P_n) of the size ``MU_MYC_PATH`` gives: the odd base
    vertices plus all copies except a small blocking pattern v'_{4l+2}
    (one extra copy removed when the base part has odd size)."""
    size = formula_value(FormulaId.MU_MYC_PATH, n=n)
    k = n if n % 2 == 1 else n - 1
    r = list(range(1, k + 1, 2))
    rprime = [4 * l + 2 for l in range((n - 3) // 4 + 1)]
    if len(r) % 2 == 1:
        rprime.append(k - 1)
    return _myc_witness("path", n, size, r, rprime)


def witness_myc_cycle(n: int) -> VertexSet:
    """MV set of M(C_n) of the size ``MU_MYC_CYCLE`` gives: a maximum
    independent set of odd base vertices plus all copies except the
    dominating pattern R' = {v'_{4l+2}}."""
    size = formula_value(FormulaId.MU_MYC_CYCLE, n=n)
    m = n // 2
    r = list(range(1, 2 * m, 2))
    rprime = [4 * l + 2 for l in range((m + 1) // 2)]
    # R' must dominate R inside M(C_n): v'_j covers v_{j-1} and v_{j+1}
    covered = set()
    for j in rprime:
        covered.add((j - 2) % n + 1)
        covered.add(j % n + 1)
    if not set(r) <= covered:
        raise AssertionError("dominating pattern failed to cover R")
    return _myc_witness("cycle", n, size, r, rprime)


def witness_universal(g: Graph, v: int, operator: str) -> VertexSet:
    """MV set sized by ``MU_UNIVERSAL_*`` when v is universal: the closed
    neighborhood of v in D(G), or (V(G) minus v) plus all copies in M(G)."""
    n = g.n
    if n < 2:
        raise ValueError("witness_universal needs order >= 2")
    require_vertices(n, v)
    if g.adj[v] != ((1 << n) - 1) ^ (1 << v):
        raise ValueError(f"vertex {v} is not universal")
    if operator == "double":
        mask = g.adj[v] | g.adj[v] << n | 1 << v
        return _checked_mv(double_graph(g), mask, "universal double witness")
    if operator == "myc":
        mask = (((1 << n) - 1) ^ (1 << v)) | ((1 << n) - 1) << n
        return _checked_mv(mycielskian(g), mask, "universal mycielskian witness")
    raise ValueError(f"operator must be 'double' or 'myc', got {operator!r}")


def witness_diam3(g: Graph, outer_set: VertexSet) -> VertexSet:
    """An outer mutual-visibility set of G plus V(G'), as an MV set of M(G);
    valid for non-complete G of diameter at most 3."""
    if g.is_complete():
        raise ValueError("the construction requires a non-complete graph")
    d = all_pairs_distances(g)
    if d.diameter() > 3:
        raise ValueError("the construction requires diameter at most 3")
    if not is_outer_mutual_visibility_set(g, d, outer_set):
        raise ValueError("given set is not an outer mutual-visibility set")
    mask = outer_set.mask | ((1 << g.n) - 1) << g.n
    return _checked_mv(mycielskian(g), mask, "diameter-3 witness")


_FIXED = {
    "dc4": (4, (0, 1), (1, 2, 3, 4)),
    "dc5": (5, (1, 4), (2, 3, 4, 5)),
    "dc6": (6, (1, 5), (2, 3, 4, 5, 6)),
}


def fixed_witness(name: str) -> tuple[FamilySpec, VertexSet]:
    """Small-cycle MV sets for D(C_4), D(C_5), D(C_6), as recorded: the
    spec of the base cycle plus the set inside its double graph."""
    if name not in _FIXED:
        raise ValueError(f"unknown fixed witness {name!r} (use dc4, dc5, dc6)")
    n, bases, copy_labels = _FIXED[name]
    mask = 0
    for i in bases:
        mask |= 1 << i
    for j in copy_labels:
        mask |= 1 << (n + j - 1)
    spec = FamilySpec("cycle", (n,))
    s = _checked_mv(double_graph(generate(spec)), mask, f"fixed witness {name}")
    return spec, s


def format_witness_set(g: Graph, s: VertexSet) -> str:
    """One witness line: sorted 1-based labels, copies primed, apex v*."""
    return " ".join(s.labels(g))

def parse_witness_set(g: Graph, line: str) -> VertexSet:
    """The set that a line of labels names: a witness line, or the
    ``--set`` of ``gpvis check-set`` with its commas read as spaces.  A
    label named twice is an error."""
    vertices = [g.index(tok) for tok in line.split()]
    if len(set(vertices)) < len(vertices):
        raise ValueError(f"vertex set names a vertex twice: {line}")
    return VertexSet.of(g.n, vertices)


def save_witness_file(path: str, g: Graph, sets: list[VertexSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            fh.write(format_witness_set(g, s) + "\n")


def load_witness_file(path: str, g: Graph) -> list[VertexSet]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(parse_witness_set(g, line))
    return out


def balloon_double_witness(k: int = 2) -> VertexSet:
    """The cached solver-found MV set, at least ``MU_DOUBLE_BALLOON`` in size,
    in the double of the balloon graph G_k; re-verified on load (k=2 only)."""
    if k != 2:
        raise ValueError("only the k=2 balloon witness is cached")
    text = resources.files("gpvis").joinpath("data/balloon_double_k2.txt").read_text(
        encoding="utf-8"
    )
    g = parse_graph_spec(f"double(balloon:{k})")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    s = parse_witness_set(g, lines[0])
    if len(s) < formula_value(FormulaId.MU_DOUBLE_BALLOON, n=k):
        raise AssertionError("cached balloon witness is smaller than its bound")
    return _checked_mv(g, s.mask, "balloon double witness")
