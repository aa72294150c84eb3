"""Pure-Python kernel versus the compiled kernel, output for output.

The compiled kernel comes from the ``fast_kernel`` fixture, which builds
``_fast.c`` into a temporary directory; these tests skip only when no C
compiler is installed.
"""

from __future__ import annotations

import math
import random
import signal
import time
from collections import Counter

import pytest

import gpvis._kernel as kernels
from gpvis import (
    PropertyKind,
    VertexSet,
    all_pairs_distances,
    build_graph,
    exists_avoiding_geodesic,
    parse_graph_spec,
    run_verification_suite,
)
from gpvis._kernel import backend_name, get_kernel, pure
from gpvis.graphs import role_symmetries
from gpvis.report import corpus_graphs

from oracles import oracle_pair_visible, oracle_property_ok

KINDS = (pure.MV, pure.OUTER, pure.TOTAL, pure.GP)
BIT63 = 1 << 63


@pytest.fixture
def fast(fast_kernel):
    return fast_kernel


@pytest.fixture
def fast_backend(fast_kernel, monkeypatch):
    """``gpvis._kernel`` with the built compiled kernel in place."""
    monkeypatch.setattr(kernels, "fast", fast_kernel)
    return fast_kernel


def graphs_under_test():
    specs = [
        "path:6",
        "cycle:7",
        "kminus:5",
        "kbip:3,3",
        "star:5",
        "balloon:1",
        "double(path:4)",
        "double(cycle:6)",
        "myc(path:5)",
        "myc(cycle:5)",
        # twin classes of 3 or more
        "double(double(path:3))",
        "kbip:3,4",
        "star:6",
    ]
    gs = [parse_graph_spec(s) for s in specs]
    gs += corpus_graphs(31, count=8, n_lo=4, n_hi=8)
    return gs


def order_64_graphs():
    """Order 64, so vertex 63 sits at the top bit of a machine word."""
    return [parse_graph_spec(s) for s in ("double(path:32)", "kbip:32,32", "star:64")]


def test_backend_name_reports_fast_for_small_orders(fast_backend):
    assert backend_name(10) == "fast"
    # Bitset rows are capped at one machine word in the compiled kernel.
    assert backend_name(64) == "fast"
    assert backend_name(65) == "pure"


def test_pair_visible_parity(fast):
    rng = random.Random(5)
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for _ in range(60):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            if u == v:
                continue
            blocked = rng.getrandbits(g.n)
            assert pure.pair_visible(
                g.n, g.adj, d.data, u, v, blocked
            ) == fast.pair_visible(g.n, g.adj, d.data, u, v, blocked)


def test_set_ok_parity(fast):
    rng = random.Random(6)
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for _ in range(40):
            mask = rng.getrandbits(g.n)
            for kind in KINDS:
                assert pure.set_ok(g.n, g.adj, d.data, mask, kind) == fast.set_ok(
                    g.n, g.adj, d.data, mask, kind
                ), (g.n, mask, kind)


def test_extend_ok_parity(fast):
    """Random bases and vertices, for every kind: both kernels define
    extend_ok as set_ok of the grown set, so a base that lacks the
    property is answered alike too."""
    rng = random.Random(7)
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for kind in KINDS:
            for _ in range(30):
                mask = rng.getrandbits(g.n)
                w = rng.randrange(g.n)
                base = mask & ~(1 << w)
                assert pure.extend_ok(
                    g.n, g.adj, d.data, base, w, kind
                ) == fast.extend_ok(g.n, g.adj, d.data, base, w, kind), (
                    g.n,
                    base,
                    w,
                    kind,
                )


def test_greedy_parity(fast):
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for kind in KINDS:
            assert pure.greedy_set(g.n, g.adj, d.data, kind) == fast.greedy_set(
                g.n, g.adj, d.data, kind
            )


def test_solve_max_parity_including_node_counts(fast):
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for kind in KINDS:
            a = pure.solve_max(g.n, g.adj, d.data, kind)
            b = fast.solve_max(g.n, g.adj, d.data, kind)
            # Same value, same witness mask, same node count, same status:
            # the two kernels must walk the identical tree.
            assert a == b, (g.n, kind, a, b)


def test_solve_max_parity_with_role_symmetries(fast):
    """With the same symmetries both kernels drop the same root orbits and
    walk the same tree, on every graph and at order 64, where the orbit
    of vertex 0 holds vertex 63."""
    for g in graphs_under_test():
        d = all_pairs_distances(g).data
        symmetries = role_symmetries(g)
        for kind in KINDS:
            a = pure.solve_max(g.n, g.adj, d, kind, 0, 0.0, symmetries)
            b = fast.solve_max(g.n, g.adj, d, kind, 0, 0.0, symmetries)
            assert a == b, (g.n, kind, a, b)
    g = parse_graph_spec("double(path:32)")
    d = all_pairs_distances(g).data
    symmetries = role_symmetries(g)
    assert symmetries[0][0] == 31 and symmetries[0][63] == 32
    for kind, target in ((pure.GP, 0), (pure.MV, 33)):
        a = pure.solve_max(g.n, g.adj, d, kind, target, 0.0, symmetries)
        assert a == fast.solve_max(g.n, g.adj, d, kind, target, 0.0, symmetries), kind
        assert a[3] == (1 if target else 0)


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_kernels_reject_bad_symmetries(request, backend):
    """A symmetry of the wrong length, one that is not a permutation and
    one that is no automorphism are each rejected with ValueError."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    g = parse_graph_spec("cycle:5")
    d = all_pairs_distances(g).data
    rotate = (1, 2, 3, 4, 0)
    for bad in ((1, 2, 3, 4), (1, 2, 3, 4, 0, 5), (0, 0, 1, 2, 3), (-1, 0, 1, 2, 3), (1, 0, 2, 3, 4)):
        with pytest.raises(ValueError):
            kernel.solve_max(5, g.adj, d, pure.MV, 0, 0.0, [rotate, bad])
    assert kernel.solve_max(5, g.adj, d, pure.MV, 0, 0.0, [rotate])[0] == 3


def test_solve_max_target_parity(fast):
    g = parse_graph_spec("double(cycle:8)")
    d = all_pairs_distances(g)
    a = pure.solve_max(g.n, g.adj, d.data, pure.MV, 6, 0.0)
    b = fast.solve_max(g.n, g.adj, d.data, pure.MV, 6, 0.0)
    assert a == b
    assert a[3] == 1  # stopped by target
    # a target past the order, even past a C int or 64 bits, is never
    # reached: both return the exact optimum
    exact = pure.solve_max(g.n, g.adj, d.data, pure.MV)
    for target in (g.n + 1, 2**31, 2**40, 2**70):
        assert pure.solve_max(g.n, g.adj, d.data, pure.MV, target, 0.0) == exact
        assert fast.solve_max(g.n, g.adj, d.data, pure.MV, target, 0.0) == exact, target
    with pytest.raises(ValueError):
        fast.solve_max(g.n, g.adj, d.data, pure.MV, -(2**70), 0.0)


def test_order_64_set_checks_parity(fast):
    rng = random.Random(64)
    for g in order_64_graphs():
        d = all_pairs_distances(g).data
        for kind in KINDS:
            greedy = pure.greedy_set(g.n, g.adj, d, kind)
            assert fast.greedy_set(g.n, g.adj, d, kind) == greedy
            masks = [greedy, greedy | BIT63, greedy & ~BIT63]
            masks += [rng.getrandbits(g.n) | BIT63 for _ in range(4)]
            for mask in masks:
                assert pure.set_ok(g.n, g.adj, d, mask, kind) == fast.set_ok(
                    g.n, g.adj, d, mask, kind
                ), (g.n, mask, kind)
            base = greedy & ~BIT63
            for w in [63] + rng.sample(range(g.n), 4):
                if w != 63:
                    base &= ~(1 << w)
                assert pure.extend_ok(g.n, g.adj, d, base, w, kind) == fast.extend_ok(
                    g.n, g.adj, d, base, w, kind
                ), (g.n, base, w, kind)
        for _ in range(20):
            u = rng.choice([63, rng.randrange(g.n)])
            v = rng.randrange(g.n)
            blocked = rng.getrandbits(g.n)
            assert pure.pair_visible(g.n, g.adj, d, u, v, blocked) == fast.pair_visible(
                g.n, g.adj, d, u, v, blocked
            )


def test_order_64_solve_parity(fast):
    g = parse_graph_spec("double(path:32)")
    d = all_pairs_distances(g).data
    a = pure.solve_max(g.n, g.adj, d, pure.MV, 33)
    assert a == fast.solve_max(g.n, g.adj, d, pure.MV, 33)
    assert a[3] == 1 and a[1] & BIT63  # stopped at its target with vertex 63
    g = parse_graph_spec("star:64")
    d = all_pairs_distances(g).data
    a = pure.solve_max(g.n, g.adj, d, pure.TOTAL)
    assert a == fast.solve_max(g.n, g.adj, d, pure.TOTAL)
    assert a[0] == 63 and a[1] & BIT63


def test_bounds_prove_order_64_doubles_on_the_compiled_kernel(fast):
    """The capacity bound proves D(C32) total and outer, order 64, at the
    root: the greedy seed of size 32 is exact, in one node."""
    g = parse_graph_spec("double(cycle:32)")
    d = all_pairs_distances(g).data
    for kind in (pure.TOTAL, pure.OUTER):
        size, mask, nodes, status = fast.solve_max(g.n, g.adj, d, kind)
        assert (size, nodes, status) == (32, 1, 0), kind
        assert mask.bit_count() == 32 and fast.set_ok(g.n, g.adj, d, mask, kind)


def test_gp_cover_parity_on_the_double_of_k13_minus_an_edge(fast):
    """D(K13 - e) gp: both kernels take the same clique covers at depth 1,
    and so return the same set after the same one node."""
    g = parse_graph_spec("double(kminus:13)")
    d = all_pairs_distances(g).data
    a = pure.solve_max(g.n, g.adj, d, pure.GP)
    assert a == fast.solve_max(g.n, g.adj, d, pure.GP)
    assert a[0] == 12 and a[2:] == (1, 0)


class _Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_signal_interrupts_a_compiled_solve(fast):
    """A signal handler that raises (as Ctrl-C does) stops a long compiled
    solve within one node tick, and its exception propagates.  M(C22) mv
    is twin-free and takes seconds to solve in full, so an exception that
    waited for the solve to end would arrive late."""
    g = parse_graph_spec("myc(cycle:22)")
    d = all_pairs_distances(g).data

    def handler(signum, frame):
        raise _Alarm

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(_Alarm):
            fast.solve_max(g.n, g.adj, d, pure.MV)
        late = time.monotonic() - start - 0.1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert late < 1.0


def test_compiled_kernel_rejects_bad_inputs(fast):
    g = parse_graph_spec("cycle:5")
    d = all_pairs_distances(g).data
    with pytest.raises(ValueError):
        fast.solve_max(g.n, g.adj, d, 7)
    with pytest.raises(ValueError):
        fast.set_ok(g.n, g.adj, d, 1 << 5, pure.MV)  # vertex 5 of an order-5 graph
    with pytest.raises(ValueError):
        fast.extend_ok(g.n, g.adj, d, 0, 5, pure.MV)
    with pytest.raises(ValueError):
        fast.set_ok(g.n, g.adj, d[:-1], 0, pure.MV)
    with pytest.raises(ValueError):
        fast.set_ok(65, [0] * 65, [0] * 65 * 65, 0, pure.MV)


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_kernel_rejects_bad_inputs(request, backend):
    """Both kernels raise ValueError for rows or a table whose length does
    not fit n, for a mask, vertex, adj row or distance out of range, a
    negative mask and one wider than 64 bits included, for an adj of
    another graph than dist, and for a negative target or a negative or
    non-finite time limit."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    g = parse_graph_spec("cycle:5")
    adj, d = g.adj, all_pairs_distances(g).data
    for kind in KINDS:
        for mask in (-1, 1 << 5, 1 << 64):
            with pytest.raises(ValueError):
                kernel.set_ok(5, adj, d, mask, kind)
    with pytest.raises(ValueError):
        kernel.extend_ok(5, adj, d, -1, 0, pure.MV)
    with pytest.raises(ValueError):
        kernel.greedy_set(5, (-1,) + adj[1:], d, pure.MV)
    with pytest.raises(ValueError):
        kernel.solve_max(4, adj, d, pure.MV)  # five rows, 25 distances
    with pytest.raises(ValueError):
        kernel.solve_max(5, adj, d + (1, 1, 1), pure.MV)
    with pytest.raises(ValueError):
        kernel.greedy_set(5, (adj[0] | 1 << 7,) + adj[1:], d, pure.MV)
    with pytest.raises(ValueError):
        kernel.set_ok(5, adj, (9,) + d[1:], 0, pure.MV)
    with pytest.raises(ValueError):
        kernel.solve_max(5, adj, d[:-1] + (-2,), pure.GP)
    with pytest.raises(ValueError):
        kernel.pair_visible(5, adj, d, 0, 5, 0)
    with pytest.raises(ValueError):
        kernel.extend_ok(5, adj, d, 0, 5, pure.MV)
    for blocked in (-1, 1 << 5):
        with pytest.raises(ValueError):
            kernel.pair_visible(5, adj, d, 0, 2, blocked)
    m = parse_graph_spec("myc(cycle:12)")
    args = (m.n, m.adj, all_pairs_distances(m).data, pure.MV)
    for target, time_limit in ((-1, 0.0), (0, -5.0), (0, math.nan), (0, math.inf)):
        with pytest.raises(ValueError):
            kernel.solve_max(*args, target, time_limit)
    if backend == "pure":
        with pytest.raises(ValueError):
            pure.enumerate_exact(5, adj[:4], d, pure.MV, 2)
        with pytest.raises(ValueError):
            pure.enumerate_exact(5, adj, d, pure.MV, -1)
    # the rows of cycle:5 with the distances of path:5 (an edge too many),
    # and the other way round (an edge too few)
    p5 = parse_graph_spec("path:5")
    for rows, table in ((adj, all_pairs_distances(p5).data), (p5.adj, d)):
        with pytest.raises(ValueError, match="does not match"):
            kernel.pair_visible(5, rows, table, 0, 2, 0)
        for kind in KINDS:
            with pytest.raises(ValueError, match="does not match"):
                kernel.greedy_set(5, rows, table, kind)
            with pytest.raises(ValueError, match="does not match"):
                kernel.solve_max(5, rows, table, kind)
            with pytest.raises(ValueError, match="does not match"):
                kernel.set_ok(5, rows, table, 0, kind)
            with pytest.raises(ValueError, match="does not match"):
                kernel.extend_ok(5, rows, table, 0, 1, kind)
            if backend == "pure":
                with pytest.raises(ValueError, match="does not match"):
                    pure.enumerate_exact(5, rows, table, kind, 2)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_combined_faults_give_the_same_error_on_both_kernels(fast):
    """Both kernels check a call in one order: the kind, then the graph,
    then masks and vertices.  So each combination of a bad kind, an adj
    of another graph or with a row out of range, a distance out of range
    and a mask or vertex out of range gives the same message, or the same
    result when none is bad."""
    g = parse_graph_spec("cycle:5")
    adjs = (g.adj, parse_graph_spec("path:5").adj, (g.adj[0] | 1 << 7,) + g.adj[1:])
    good = all_pairs_distances(g).data
    bad = good[:7] + (-3,) + good[8:]
    masks = (0b101, 1 << 9, -1, 1 << 64)
    calls = []
    for adj, d in [(adj, good) for adj in adjs] + [(adj, bad) for adj in adjs]:
        calls += [("pair_visible", (5, adj, d, u, v, b)) for u, v in ((0, 2), (0, 5), (7, 2)) for b in (0, 1 << 5)]
        for kind in KINDS + (7, -1):
            calls += [("set_ok", (5, adj, d, m, kind)) for m in masks]
            calls += [("extend_ok", (5, adj, d, m, w, kind)) for m in masks for w in (2, 7)]
            calls += [("greedy_set", (5, adj, d, kind))]
            calls += [("solve_max", (5, adj, d, kind, 0, 0.0, (), s)) for s in (None, 0b1, 1 << 9)]
    assert ("set_ok", (5, g.adj, good, 1 << 9, 7)) in calls
    # an adj row out of range with a distance out of range: the distance
    # is named, on both kernels
    assert outcome(fast.greedy_set, 5, adjs[2], bad, pure.MV) == "ValueError: distance -3 is outside -1..5"
    errors = Counter()
    for name, args in calls:
        got = outcome(getattr(pure, name), *args)
        assert got == outcome(getattr(fast, name), *args), (name, args)
        errors[got] += isinstance(got, str)
    assert {"ValueError: unknown property kind code 7", "ValueError: mask has a vertex outside 0..4",
            "ValueError: smask has a vertex outside 0..4", "ValueError: vertex 7 is outside 0..4",
            "ValueError: an adj row has a vertex outside 0..4", "ValueError: start has a vertex outside 0..4",
            "ValueError: adj does not match dist: a row is not the vertices at distance 1",
            "ValueError: distance -3 is outside -1..5"} <= set(errors)


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_geodesic_queries_reject_bad_inputs(request, monkeypatch, backend):
    """One ValueError on either backend for a blocked set of another order
    or an endpoint outside the graph."""
    if backend == "fast":
        request.getfixturevalue("fast_backend")
    monkeypatch.setenv("GPVIS_KERNEL", backend)
    g = parse_graph_spec("cycle:6")
    d = all_pairs_distances(g)
    none = VertexSet(6, 0)
    with pytest.raises(ValueError, match="order"):
        exists_avoiding_geodesic(g, d, 0, 3, VertexSet.of(4, [1, 3]))
    for u, v in ((0, 6), (-1, 3), (6, 0)):
        with pytest.raises(ValueError, match="out of range"):
            exists_avoiding_geodesic(g, d, u, v, none)


def sweep_edge_cases():
    """(graph, mask, verdicts for MV, OUTER, TOTAL, GP): one and two
    vertices, the empty and the whole vertex set, and a disconnected graph
    (P3 on 0, 1, 2 beside an edge 3-4), where a pair in two components is
    not required to see itself."""
    one, two, c5, k4 = (parse_graph_spec(s) for s in ("path:1", "path:2", "cycle:5", "complete:4"))
    split = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    yes, no = (True,) * 4, (False,) * 4
    return [
        (one, 0, yes), (one, 1, yes),
        (two, 0, yes), (two, 1, yes), (two, 2, yes), (two, 3, yes),
        (c5, 0, yes), (c5, 0b11111, no), (k4, 0, yes), (k4, 0b1111, yes),
        (split, 0, yes), (split, 0b00010, (True, True, False, True)),
        (split, 0b00101, yes), (split, 0b01001, yes), (split, 0b01000, yes),
        (split, 0b00111, no), (split, 0b11111, no),
    ]


def twin_classes(g):
    """The classes of vertices with equal adjacency rows, in label order."""
    classes = {}
    for v, row in enumerate(g.adj):
        classes.setdefault(row, []).append(v)
    return list(classes.values())


def seen_from_first_members(g, d, members, kind):
    """Whether the pairs that the kind requires of ``members`` and that have
    as an end a member first in its twin class all see themselves: all
    that a check which took each member's twin predecessor to be a member
    would test, sweeping from the first vertices of the classes alone."""
    firsts = {c[0] for c in twin_classes(g)}
    others = members if kind is PropertyKind.MV else range(g.n)
    return all(
        oracle_pair_visible(g, d, u, v, members)
        for u in members
        if u in firsts
        for v in others
        if v != u
    )


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_set_ok_on_twin_classes_equals_the_oracle(request, backend):
    """On sets that break the search's twin-prefix rule, set_ok answers as
    the oracle that lists every geodesic: every set of the graphs of up to
    8 vertices, among them twin classes of three and more, and on larger
    doubles random sets that hold a later twin without the first vertex
    of its class.  Some of these fail only at a pair of a member whose
    twin predecessor is not a member, which a check that took every
    predecessor to be a member would pass; both kernels reject them."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    rng = random.Random(25)
    cases = Counter()
    for spec in ("double(star:4)", "kbip:3,4", "double(double(path:3))", "double(cycle:5)", "double(path:5)"):
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        classes = twin_classes(g)
        if g.n <= 8:
            masks = range(1 << g.n)
        else:
            masks = []
            for _ in range(150):
                c = rng.choice([c for c in classes if len(c) > 1])
                masks.append(rng.getrandbits(g.n) & ~(1 << c[0]) | 1 << rng.choice(c[1:]))
        for mask in masks:
            members = [v for v in range(g.n) if mask >> v & 1]
            broken = any(mask >> v & 1 and not mask >> c[0] & 1 for c in classes for v in c[1:])
            for kind in PropertyKind:
                want = oracle_property_ok(g, d, members, kind)
                assert kernel.set_ok(g.n, g.adj, d.data, mask, kind.code) == want, (spec, mask, kind)
                cases[kind, want, broken] += 1
                if broken and not want and kind in (PropertyKind.MV, PropertyKind.OUTER):
                    cases[kind, "trap"] += seen_from_first_members(g, d, members, kind)
    assert min(cases[kind, ok, True] for kind in PropertyKind for ok in (True, False)) > 0, cases
    assert cases[PropertyKind.MV, "trap"] > 0 and cases[PropertyKind.OUTER, "trap"] > 0, cases


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_set_ok_edge_cases(request, backend):
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    for g, mask, verdicts in sweep_edge_cases():
        dist = all_pairs_distances(g).data
        got = tuple(kernel.set_ok(g.n, g.adj, dist, mask, kind) for kind in KINDS)
        assert got == verdicts, (g.adj, mask)


def test_forced_backend_env(fast_backend, monkeypatch):
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    assert get_kernel(8) is pure
    monkeypatch.setenv("GPVIS_KERNEL", "fast")
    assert get_kernel(8) is fast_backend
    monkeypatch.setenv("GPVIS_KERNEL", "nonsense")
    with pytest.raises(ValueError):
        get_kernel(8)


def start_sets(kernel, g, d, kind):
    """Sets with the property to start a solve from: the optimum, the
    greedy set, the empty set and a few subsets of the optimum (the
    properties are hereditary)."""
    optimum = kernel.solve_max(g.n, g.adj, d, kind)[1]
    rng = random.Random(g.n * 4 + kind)
    subsets = [optimum & rng.getrandbits(g.n) for _ in range(3)]
    return optimum, [optimum, kernel.greedy_set(g.n, g.adj, d, kind), 0, *subsets]


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_start_keeps_every_value(request, backend):
    """On the corpus and operator graphs, with and without role
    symmetries, every valid start gives the value of the greedy start,
    and the optimum as start explores no more nodes than it."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    fewer = 0
    for g in graphs_under_test():
        d = all_pairs_distances(g).data
        for kind in KINDS:
            optimum, starts = start_sets(kernel, g, d, kind)
            for symmetries in ((), role_symmetries(g)):
                size, _, nodes, status = kernel.solve_max(g.n, g.adj, d, kind, 0, 0.0, symmetries)
                for start in starts:
                    got = kernel.solve_max(g.n, g.adj, d, kind, 0, 0.0, symmetries, start)
                    assert got[0] == size and got[3] == status == 0, (g.adj, kind, start)
                    assert got[1].bit_count() == size and pure.set_ok(g.n, g.adj, d, got[1], kind)
                    if start == optimum:
                        assert got[1] == optimum and got[2] <= nodes, (g.adj, kind)
                        fewer += got[2] < nodes
    assert fewer > 0


def test_start_parity(fast):
    """Both kernels return the same (size, mask, nodes, status) from the
    same start, at order 64 too."""
    cases = [(g, kind) for g in graphs_under_test() for kind in KINDS]
    cases += [(parse_graph_spec("double(path:32)"), pure.GP)]
    for g, kind in cases:
        d = all_pairs_distances(g).data
        symmetries = role_symmetries(g)
        for start in start_sets(pure, g, d, kind)[1]:
            for args in ((), (0, 0.0, symmetries)):
                a = pure.solve_max(g.n, g.adj, d, kind, *args, start=start)
                assert a == fast.solve_max(g.n, g.adj, d, kind, *args, start=start), (g.adj, kind, start)
    g = order_64_graphs()[0]
    d = all_pairs_distances(g).data
    top = 1 << 63 | 1 << 31  # D(P32)'s leaf v32 and its copy
    assert pure.set_ok(g.n, g.adj, d, top, pure.MV)
    a = pure.solve_max(g.n, g.adj, d, pure.MV, 3, 0.0, (), top)
    assert a == fast.solve_max(g.n, g.adj, d, pure.MV, 3, 0.0, (), top) and a[3] == 1


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_start_at_the_target_returns_at_once(request, backend):
    """A start of at least the target size is returned as it is, with no
    node explored and status 1."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    g = parse_graph_spec("myc(cycle:12)")
    d = all_pairs_distances(g).data
    size, optimum, _, _ = kernel.solve_max(g.n, g.adj, d, pure.MV)
    for target in (1, size - 1, size):
        assert kernel.solve_max(g.n, g.adj, d, pure.MV, target, 0.0, (), optimum) == (size, optimum, 0, 1)
    # below the target the search runs on from the start
    low = optimum & ~(optimum & -optimum)
    got = kernel.solve_max(g.n, g.adj, d, pure.MV, size, 0.0, (), low)
    assert got[0] == size and got[2] > 0 and got[3] == 1


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_kernels_reject_bad_starts(request, backend):
    """A start with a vertex outside 0..n-1, a negative one included, or
    one without the property raises ValueError with the same message in
    both kernels."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    g = parse_graph_spec("cycle:5")
    d = all_pairs_distances(g).data
    for start in (1 << 5, -1, 1 << 64, 1 | 1 << 7):
        with pytest.raises(ValueError, match=r"^start has a vertex outside 0\.\.4$"):
            kernel.solve_max(5, g.adj, d, pure.MV, 0, 0.0, (), start)
    # all of C5 fails MV, {v1, v3} fails TOTAL and {v1, v2, v3} fails GP
    for kind, start in ((pure.MV, 0b11111), (pure.OUTER, 0b11111), (pure.TOTAL, 0b101), (pure.GP, 0b111)):
        assert not pure.set_ok(5, g.adj, d, start, kind)
        with pytest.raises(ValueError, match="^start does not have the property$"):
            kernel.solve_max(5, g.adj, d, kind, 0, 0.0, (), start)
        with pytest.raises(ValueError, match="^start does not have the property$"):
            kernel.solve_max(5, g.adj, d, kind, 1, 0.0, role_symmetries(g), start)
    assert kernel.solve_max(5, g.adj, d, pure.MV, 0, 0.0, (), None) == kernel.solve_max(5, g.adj, d, pure.MV)


def test_catalog_is_the_same_on_both_kernels(fast_kernel, monkeypatch):
    """The whole verify-paper catalog gives the same CHECK lines and notes
    on the pure kernel and on the compiled one."""
    monkeypatch.delenv("GPVIS_KERNEL", raising=False)
    runs = []
    for module, name in ((None, "pure"), (fast_kernel, "fast")):
        monkeypatch.setattr(kernels, "fast", module)
        assert backend_name(10) == name
        report = run_verification_suite("all")
        runs.append((report.machine_lines(), [(c.name, c.note) for c in report.checks]))
    assert runs[0] == runs[1]
