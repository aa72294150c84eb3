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

import pytest

import gpvis._kernel as kernels
from gpvis import (
    VertexSet,
    all_pairs_distances,
    build_graph,
    exists_avoiding_geodesic,
    parse_graph_spec,
)
from gpvis._kernel import backend_name, get_kernel, pure
from gpvis.graphs import role_symmetries
from gpvis.report import corpus_graphs

KINDS = (pure.MV, pure.OUTER, pure.TOTAL, pure.GP)
BIT63 = 1 << 63


@pytest.fixture
def fast(fast_kernel):
    return fast_kernel


@pytest.fixture
def fast_backend(fast_kernel, monkeypatch):
    """``gpvis._kernel`` with the built compiled kernel in place."""
    monkeypatch.setattr(kernels, "fast", fast_kernel)
    kernels._forced.cache_clear()
    yield fast_kernel
    kernels._forced.cache_clear()


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
    """Random bases and vertices.  OUTER and TOTAL take any base; the MV
    and GP tests assume a base that has the property, so only such bases
    are fed to them."""
    rng = random.Random(7)
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for kind in KINDS:
            for _ in range(30):
                mask = rng.getrandbits(g.n)
                w = rng.randrange(g.n)
                base = mask & ~(1 << w)
                if kind in (pure.MV, pure.GP) and not pure.set_ok(g.n, g.adj, d.data, base, kind):
                    continue
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
    negative mask and one wider than 64 bits included, and for a negative
    target or a negative or non-finite time limit."""
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
