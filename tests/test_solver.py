"""Branch-and-bound solver against the brute-force oracle, target/time
modes, greedy seeds, and exhaustive enumeration."""

from __future__ import annotations

import pytest

import gpvis._kernel as kernels
from gpvis import (
    ENUMERATION_CAP,
    SOLVER_CAPS,
    PropertyKind,
    VertexSet,
    all_pairs_distances,
    build_graph,
    enumerate_maximum_sets,
    greedy_lower_bound,
    invariant,
    is_property_set,
    max_property_set,
    parse_graph_spec,
)

from oracles import oracle_max_sets, oracle_max_size

ALL_KINDS = list(PropertyKind)


def test_solver_matches_brute_force_on_corpus(small_corpus, small_corpus_dists):
    for g, d in zip(small_corpus, small_corpus_dists):
        for kind in ALL_KINDS:
            res = max_property_set(g, kind)
            assert res.exact
            assert res.status == "exact"
            assert res.stopped_by is None
            assert res.value == oracle_max_size(g, d, kind), (
                g.n,
                sorted(g.edges()),
                kind,
            )
            assert len(res.witness) == res.value
            assert is_property_set(g, d, res.witness, kind)


def test_solver_matches_brute_force_on_operators():
    for spec in ["double(path:4)", "double(cycle:4)", "myc(path:4)", "myc(cycle:4)"]:
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        for kind in ALL_KINDS:
            res = max_property_set(g, kind)
            assert res.value == oracle_max_size(g, d, kind), (spec, kind)


@pytest.mark.parametrize(
    "spec,kind,value",
    [
        ("path:5", PropertyKind.MV, 2),
        ("path:5", PropertyKind.GP, 2),
        ("cycle:5", PropertyKind.MV, 3),
        ("cycle:5", PropertyKind.GP, 3),
        ("cycle:7", PropertyKind.GP, 3),
        ("complete:6", PropertyKind.MV, 6),
        ("complete:6", PropertyKind.GP, 6),
        ("star:5", PropertyKind.MV, 4),
        ("kbip:3,3", PropertyKind.MV, 4),
    ],
)
def test_known_small_invariants(spec, kind, value):
    assert invariant(parse_graph_spec(spec), kind) == value


def test_invariant_shorthand_matches_result():
    g = parse_graph_spec("double(path:3)")
    assert invariant(g, PropertyKind.MV) == max_property_set(g, PropertyKind.MV).value


def test_witness_is_reported_and_valid():
    g = parse_graph_spec("double(cycle:5)")
    d = all_pairs_distances(g)
    res = max_property_set(g, PropertyKind.MV)
    assert res.value == 6
    assert is_property_set(g, d, res.witness, PropertyKind.MV)
    assert res.nodes_explored > 0
    assert res.elapsed >= 0.0


def test_target_mode_stops_early():
    g = parse_graph_spec("double(cycle:8)")
    d = all_pairs_distances(g)
    res = max_property_set(g, PropertyKind.MV, target=6)
    assert res.value >= 6
    assert res.status == "lower_bound"
    assert res.stopped_by == "target"
    assert is_property_set(g, d, res.witness, PropertyKind.MV)
    # An unreachable target degrades to a completed exact search.
    res2 = max_property_set(g, PropertyKind.MV, target=g.n + 1)
    assert res2.exact
    assert res2.value == 8


def test_time_limit_mode():
    # The deadline is checked at the first node, so a limit that the
    # greedy seed has already used up stops the search there.
    g = parse_graph_spec("myc(path:12)")
    d = all_pairs_distances(g)
    res = max_property_set(g, PropertyKind.MV, time_limit=1e-9)
    assert res.status == "lower_bound"
    assert res.stopped_by == "time"
    # The greedy incumbent still gives a verified set.
    assert is_property_set(g, d, res.witness, PropertyKind.MV)
    assert res.value == len(res.witness)


def test_generous_time_limit_stays_exact():
    g = parse_graph_spec("double(cycle:6)")
    res = max_property_set(g, PropertyKind.MV, time_limit=60.0)
    assert res.exact
    assert res.value == 7


@pytest.mark.parametrize(
    "limits",
    [
        {"target": -1},
        {"target": 0},
        {"time_limit": -5.0},
        {"time_limit": 0.0},
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
    ],
    ids=["target-1", "target0", "time-5", "time0", "time_nan", "time_inf"],
)
def test_meaningless_limits_are_rejected(limits):
    # Rejected before any search: a target below 1 is met by any set, a
    # time limit of 0 or below is either no limit or no time, NaN never
    # stops and infinity is no limit.
    g = parse_graph_spec("myc(cycle:12)")
    with pytest.raises(ValueError):
        max_property_set(g, PropertyKind.MV, **limits)


def test_greedy_lower_bound_verified_and_bounded(small_corpus, small_corpus_dists):
    for g, d in zip(small_corpus, small_corpus_dists):
        for kind in ALL_KINDS:
            s = greedy_lower_bound(g, kind)
            assert is_property_set(g, d, s, kind)
            assert len(s) <= oracle_max_size(g, d, kind)


def test_solver_caps_follow_the_backend(fast_kernel, monkeypatch):
    """Each backend solves up to its own cap: the compiled kernel solves
    an order-33 graph through ``max_property_set``, the pure kernel takes
    a graph at its cap and rejects one above it, and a graph above 64,
    which only the pure kernel takes, meets the pure cap."""
    monkeypatch.setattr(kernels, "fast", fast_kernel)
    monkeypatch.setenv("GPVIS_KERNEL", "fast")
    g = parse_graph_spec("myc(cycle:16)")
    assert g.n == 33
    result = max_property_set(g, PropertyKind.MV)
    assert (result.value, result.status, result.nodes_explored) == (20, "exact", 5053)
    assert SOLVER_CAPS["fast"] == 64
    cap = SOLVER_CAPS["pure"]
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    assert max_property_set(parse_graph_spec(f"cycle:{cap}"), PropertyKind.GP).value == 3
    message = f"order {cap + 1} exceeds the solver cap of {cap} on the pure kernel"
    with pytest.raises(ValueError, match=message):
        max_property_set(parse_graph_spec(f"cycle:{cap + 1}"), PropertyKind.GP)
    monkeypatch.delenv("GPVIS_KERNEL")
    with pytest.raises(ValueError, match=f"cap of {cap} on the pure kernel"):
        max_property_set(parse_graph_spec("cycle:65"), PropertyKind.GP)


def test_solver_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        max_property_set(g, PropertyKind.MV)


def test_enumerate_matches_brute_force():
    for spec, kind in [
        ("cycle:4", PropertyKind.MV),
        ("cycle:6", PropertyKind.GP),
        ("double(path:3)", PropertyKind.GP),
        ("kbip:2,3", PropertyKind.MV),
        ("path:6", PropertyKind.TOTAL),
        ("star:5", PropertyKind.OUTER),
    ]:
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        got = [s.members() for s in enumerate_maximum_sets(g, kind)]
        want = oracle_max_sets(g, d, kind)
        assert got == sorted(want), (spec, kind)


def test_enumerate_unique_gp_set_of_double_path():
    # D(P_3) has exactly one maximum general-position set: both copies of
    # the two path ends.
    g = parse_graph_spec("double(path:3)")
    sets = enumerate_maximum_sets(g, PropertyKind.GP)
    assert len(sets) == 1
    assert sets[0].labels(g) == ("v1", "v3", "v1'", "v3'")


def test_enumerate_cap():
    g = parse_graph_spec("double(cycle:8)")  # order 16 > enumeration cap
    assert g.n > ENUMERATION_CAP
    with pytest.raises(ValueError):
        enumerate_maximum_sets(g, PropertyKind.MV)


def test_deterministic_across_runs():
    g = parse_graph_spec("double(cycle:7)")
    a = max_property_set(g, PropertyKind.MV)
    b = max_property_set(g, PropertyKind.MV)
    assert a.value == b.value == 7
    assert a.witness.members() == b.witness.members()
    assert a.nodes_explored == b.nodes_explored


def test_start_set_is_checked_and_kept_exact():
    """max_property_set takes a start set of the graph's order and kind,
    returns the same exact value from it, and rejects a set of another
    order or one without the property."""
    g = parse_graph_spec("myc(cycle:8)")
    plain = max_property_set(g, PropertyKind.MV)
    for start in (plain.witness, VertexSet(g.n), greedy_lower_bound(g, PropertyKind.MV)):
        res = max_property_set(g, PropertyKind.MV, start=start)
        assert res.exact and res.value == plain.value
        assert is_property_set(g, all_pairs_distances(g), res.witness, PropertyKind.MV)
    assert max_property_set(g, PropertyKind.MV, start=plain.witness).witness == plain.witness
    with pytest.raises(ValueError, match="order"):
        max_property_set(g, PropertyKind.MV, start=VertexSet(g.n + 1, 1))
    with pytest.raises(ValueError, match="does not have the property"):
        max_property_set(g, PropertyKind.GP, start=plain.witness)
    res = max_property_set(g, PropertyKind.MV, target=plain.value, start=plain.witness)
    assert (res.value, res.nodes_explored, res.stopped_by) == (plain.value, 0, "target")
