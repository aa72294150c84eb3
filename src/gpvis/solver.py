"""Exact maximum-set computation and exhaustive maximum-set enumeration.

The search is a branch-and-bound over a fixed vertex order (descending
degree, ties by index).  Hereditarity of all four properties justifies
the pruning: once a single-vertex extension fails, no superset through
that vertex is revisited, and a node is cut when the current set plus
all remaining candidates cannot beat the incumbent.  The incumbent is
seeded by the deterministic greedy sweep.  Sets that a swap of twin
vertices (equal neighbourhoods) maps onto each other are searched once,
and once the branch of a root vertex is done, the vertices that a
symmetry carried by the vertex roles (``role_symmetries``) maps it to
leave the later branches; enumeration still lists every set.  Results
are deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ._kernel import get_kernel, pure
from .graphs import Graph, VertexSet, all_pairs_distances, require_connected, role_symmetries
from .visibility import PropertyKind, is_property_set

HARD_CAP = 26
ENUMERATION_CAP = 14

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of a maximum-set search.

    ``stopped_by`` records why a lower-bound result stopped early:
    "target" or "time"; it is None for exact results.
    """

    kind: PropertyKind
    value: int
    witness: VertexSet
    nodes_explored: int
    elapsed: float
    status: str = STATUS_EXACT
    stopped_by: str | None = None

    @property
    def exact(self) -> bool:
        return self.status == STATUS_EXACT


def check_time_limit(time_limit: float | None) -> None:
    """Reject a time limit that is not None or a finite number above 0."""
    if time_limit is not None and not (time_limit > 0 and math.isfinite(time_limit)):
        raise ValueError(f"time limit must be a finite number of seconds above 0, got {time_limit}")


def max_property_set(
    g: Graph,
    kind: PropertyKind,
    *,
    target: int | None = None,
    time_limit: float | None = None,
) -> InvariantResult:
    """Maximum set of the given kind; exact unless target/time stop early.

    With ``target`` the search may stop at the first verified set of at
    least that size and report a lower bound; a hit ``time_limit`` (in
    seconds) likewise downgrades the result to a lower bound.  A target
    below 1 or a time limit that is not a finite number above 0 is
    rejected.
    """
    if target is not None and target < 1:
        raise ValueError(f"target must be at least 1, got {target}")
    check_time_limit(time_limit)
    if g.n > HARD_CAP:
        raise ValueError(f"order {g.n} exceeds the solver cap of {HARD_CAP}")
    d = all_pairs_distances(g)
    require_connected(d)
    kernel = get_kernel(g.n)
    start = time.perf_counter()
    size, mask, nodes, code = kernel.solve_max(
        g.n,
        g.adj,
        d.data,
        kind.code,
        target or 0,
        time_limit or 0.0,
        role_symmetries(g),
    )
    elapsed = time.perf_counter() - start
    witness = VertexSet(g.n, mask)
    if not is_property_set(g, d, witness, kind):
        raise AssertionError("solver returned a witness that fails its verifier")
    status = STATUS_EXACT if code == 0 else STATUS_LOWER_BOUND
    stopped_by = {0: None, 1: "target", 2: "time"}[code]
    return InvariantResult(kind, size, witness, nodes, elapsed, status, stopped_by)


def invariant(g: Graph, kind: PropertyKind) -> int:
    """The exact invariant value (mu, mu_o, mu_t, or gp)."""
    return max_property_set(g, kind).value


def greedy_lower_bound(g: Graph, kind: PropertyKind) -> VertexSet:
    """Deterministic greedy set; the branch-and-bound's initial incumbent."""
    d = all_pairs_distances(g)
    require_connected(d)
    kernel = get_kernel(g.n)
    mask = kernel.greedy_set(g.n, g.adj, d.data, kind.code)
    s = VertexSet(g.n, mask)
    if not is_property_set(g, d, s, kind):
        raise AssertionError("greedy produced a set that fails its verifier")
    return s


def enumerate_maximum_sets(g: Graph, kind: PropertyKind) -> list[VertexSet]:
    """All maximum sets of the kind, sorted lexicographically by members.

    Exhaustive regime only: orders above ENUMERATION_CAP are rejected.
    """
    if g.n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at order {ENUMERATION_CAP}, got {g.n}"
        )
    best = max_property_set(g, kind)
    d = all_pairs_distances(g)
    masks = pure.enumerate_exact(g.n, g.adj, d.data, kind.code, best.value)
    sets = [VertexSet(g.n, m) for m in masks]
    for s in sets:
        if not is_property_set(g, d, s, kind):
            raise AssertionError("enumerated a set that fails its verifier")
    sets.sort(key=lambda s: s.members())
    return sets
