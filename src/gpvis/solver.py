"""Exact maximum-set computation and exhaustive maximum-set enumeration.

The search is a branch-and-bound over a fixed vertex order (descending
degree, ties by index).  Hereditarity of all four properties justifies
the pruning: once a single-vertex extension fails, no superset through
that vertex is revisited, and a child is entered only when it and its
candidates could beat the incumbent; the candidate filter stops as soon
as they cannot, so such a child is settled at its parent.  The
incumbent is seeded by the deterministic greedy sweep, or by a caller's
start set with the property: a known construction that lets the bound
cut from the first node, while the search still proves the value.  Sets that a
swap of twin vertices (equal neighbourhoods) maps onto each other are
searched once, and once the branch of a root vertex is done, the
vertices that a symmetry carried by the vertex roles
(``role_symmetries``) maps it to leave the later branches; under a
root, so do a done child's images under the symmetries that fix the
root.  Enumeration still lists every set.  Results are deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ._kernel import get_kernel, pure
from .graphs import (
    Graph,
    VertexSet,
    all_pairs_distances,
    require_connected,
    require_order,
    role_symmetries,
)
from .visibility import PropertyKind, is_property_set

# The largest order each kernel solves, by backend name.  The compiled
# kernel takes every order up to its 64-bit word.  Pure solved the
# double-cycle and Mycielskian families exactly in 2.5-18 s at orders 48
# and 49 (D(C24) mv, total and outer, D(P24) mv, M(C24) mv and outer),
# and did not prove D(C28) mv (order 56) in 20 s.
SOLVER_CAPS = {"fast": 64, "pure": 48}
ENUMERATION_CAP = 14

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of a maximum-set search.

    ``stopped_by`` records why a lower-bound result stopped early:
    "target" or "time"; it is None for exact results.
    ``nodes_explored`` counts the search nodes entered: the root and each
    child that could still beat the incumbent, not the children settled
    at their parent.
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
    start: VertexSet | None = None,
) -> InvariantResult:
    """Maximum set of the given kind; exact unless target/time stop early.

    With ``target`` the search may stop at the first verified set of at
    least that size and report a lower bound; a hit ``time_limit`` (in
    seconds) likewise downgrades the result to a lower bound.  A target
    below 1 or a time limit that is not a finite number above 0 is
    rejected.  ``start``, a set of the kind in ``g``, is the search's
    first incumbent in place of the greedy seed; the value stays exact.
    A start of another order, or one without the property, is rejected.
    """
    if target is not None and target < 1:
        raise ValueError(f"target must be at least 1, got {target}")
    check_time_limit(time_limit)
    if start is not None:
        require_order(g, start)
    kernel = get_kernel(g.n)
    cap = SOLVER_CAPS[kernel.NAME]
    if g.n > cap:
        raise ValueError(f"order {g.n} exceeds the solver cap of {cap} on the {kernel.NAME} kernel")
    d = all_pairs_distances(g)
    require_connected(d)
    t0 = time.perf_counter()
    size, mask, nodes, code = kernel.solve_max(
        g.n,
        g.adj,
        d.data,
        kind.code,
        target or 0,
        time_limit or 0.0,
        role_symmetries(g),
        None if start is None else start.mask,
    )
    elapsed = time.perf_counter() - t0
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
    """Deterministic greedy set; the branch-and-bound's initial incumbent
    when no start set is given."""
    d = all_pairs_distances(g)
    require_connected(d)
    kernel = get_kernel(g.n)
    mask = kernel.greedy_set(g.n, g.adj, d.data, kind.code)
    s = VertexSet(g.n, mask)
    if not is_property_set(g, d, s, kind):
        raise AssertionError("greedy produced a set that fails its verifier")
    return s


def enumerate_maximum_sets(
    g: Graph, kind: PropertyKind, *, best: InvariantResult | None = None
) -> list[VertexSet]:
    """All maximum sets of the kind, sorted lexicographically by members.

    Exhaustive regime only: orders above ENUMERATION_CAP are rejected.
    ``best``, the caller's exact ``max_property_set`` result for ``g``
    and this kind, spares solving the maximum again.  A result of another
    kind or order, one that is not exact, or one whose witness is not a
    set of the kind with ``value`` members in ``g`` is rejected.
    """
    if g.n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at order {ENUMERATION_CAP}, got {g.n}"
        )
    d = all_pairs_distances(g)
    if best is None:
        best = max_property_set(g, kind)
    else:
        if best.kind is not kind or not best.exact:
            raise ValueError(
                f"enumeration needs an exact {kind.value} result, "
                f"got a {best.kind.value} {best.status} result"
            )
        require_order(g, best.witness)
        if len(best.witness) != best.value or not is_property_set(g, d, best.witness, kind):
            raise ValueError(
                f"the given witness is not a {kind.value} set of size {best.value} in this graph"
            )
    masks = pure.enumerate_exact(g.n, g.adj, d.data, kind.code, best.value)
    sets = [VertexSet(g.n, m) for m in masks]
    for s in sets:
        if not is_property_set(g, d, s, kind):
            raise AssertionError("enumerated a set that fails its verifier")
    sets.sort(key=lambda s: s.members())
    return sets
