"""The pure kernel's cached tables (balls, geodesic intervals, geodesic
triples): bounded, read-only, built once per solve and without effect on
any result; and the backend choice, validated once per value
but read on every call.  Pure kernel only, so these never skip."""

from __future__ import annotations

import random

import pytest

from gpvis import all_pairs_distances, parse_graph_spec
from gpvis._kernel import get_kernel, pure
from gpvis.report import corpus_graphs

KINDS = (pure.MV, pure.OUTER, pure.TOTAL, pure.GP)


def graphs_under_test():
    specs = ["path:6", "cycle:7", "kminus:5", "double(cycle:5)", "myc(path:5)"]
    return [parse_graph_spec(s) for s in specs] + corpus_graphs(31, count=8, n_lo=4, n_hi=8)


def calls_under_test():
    """(function, args) for every kernel entry point that reads the balls."""
    rng = random.Random(11)
    calls = []
    for g in graphs_under_test():
        args = (g.n, g.adj, all_pairs_distances(g).data)
        for _ in range(10):
            u, v = rng.sample(range(g.n), 2)
            calls.append((pure.pair_visible, args + (u, v, rng.getrandbits(g.n))))
        for kind in KINDS:
            for _ in range(6):
                calls.append((pure.set_ok, args + (rng.getrandbits(g.n), kind)))
            calls.append((pure.solve_max, args + (kind,)))
    return calls


def test_results_are_the_same_cold_and_warm():
    calls = calls_under_test()
    cold = []
    for fn, args in calls:
        pure._all_balls.cache_clear()
        cold.append(fn(*args))
    # Warm: every graph's table is cached, graphs of one order side by side.
    pure._all_balls.cache_clear()
    warm = [fn(*args) for fn, args in reversed(calls)][::-1]
    assert warm == cold
    info = pure._all_balls.cache_info()
    assert info.hits > 0 and info.currsize == len(graphs_under_test())


def test_ball_cache_stays_bounded():
    pure._all_balls.cache_clear()
    limit = pure._all_balls.cache_info().maxsize
    graphs = corpus_graphs(23, count=limit + 40, n_lo=6, n_hi=9)
    assert len({g.adj for g in graphs}) > limit
    for g in graphs:
        pure.set_ok(g.n, g.adj, all_pairs_distances(g).data, 0b11, pure.MV)
    info = pure._all_balls.cache_info()
    assert info.misses > limit and info.currsize == limit


def test_cached_ball_rows_are_tuples():
    g = parse_graph_spec("double(cycle:6)")
    dist = all_pairs_distances(g).data
    balls = pure._all_balls(g.n, dist)
    assert pure._all_balls(g.n, dist) is balls
    assert isinstance(balls, tuple) and len(balls) == g.n
    assert all(isinstance(row, tuple) for row in balls)
    with pytest.raises(TypeError):
        balls[0][1] = 0
    # Row u, entry t: the vertices at distance t from u.
    for u in range(g.n):
        for t, layer in enumerate(balls[u]):
            assert layer == sum(1 << x for x in range(g.n) if dist[u * g.n + x] == t)


def search_tables(g, dist):
    """The tables of g's search copy, as the searches find them."""
    return pure._search_copy(g.n, tuple(g.adj), pure._table_of(g.n, g.adj, dist))[2]


def test_a_solve_builds_its_table_once():
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        for kind, name in ((pure.MV, "btw"), (pure.GP, "pairbad")):
            pure._search_copy.cache_clear()
            cold = pure.solve_max(g.n, g.adj, dist, kind)
            # solve_max and the greedy_set it calls share one build
            assert pure._search_copy.cache_info().misses == 1
            table = getattr(search_tables(g, dist), name)
            assert pure.solve_max(g.n, g.adj, dist, kind) == cold
            assert pure._search_copy.cache_info().misses == 1
            assert getattr(search_tables(g, dist), name) is table
            # only the latest copy is kept, and solving leaves it as built
            assert pure._search_copy.cache_info().currsize == 1
            tables = search_tables(g, dist)
            assert table == getattr(pure._Tables(g.n, tables.adj, tables.dist), name)
    # TOTAL and then OUTER on one graph, as the hard benchmark solves them,
    # build one copy between them; a second TOTAL solve reuses the pairs
    # through each vertex
    g = parse_graph_spec("double(cycle:8)")
    dist = all_pairs_distances(g).data
    pure._search_copy.cache_clear()
    total = pure.solve_max(g.n, g.adj, dist, pure.TOTAL)
    through = search_tables(g, dist).through
    pure.solve_max(g.n, g.adj, dist, pure.OUTER)
    assert pure._search_copy.cache_info().misses == 1
    assert pure.solve_max(g.n, g.adj, dist, pure.TOTAL) == total
    assert search_tables(g, dist).through is through
    assert pure._search_copy.cache_info().misses == 1


def test_a_list_distance_table_is_accepted():
    g = parse_graph_spec("cycle:6")
    dist = all_pairs_distances(g).data
    for kind in KINDS:
        assert pure.solve_max(g.n, g.adj, list(dist), kind) == pure.solve_max(
            g.n, g.adj, dist, kind
        )


def test_tables_are_matched_by_value_and_lists_read_afresh():
    """A tuple equal by value to a cached table gives the same answers as
    the cached one; a list is read again on every call, so a change made
    to it between calls shows in the next answer."""
    rng = random.Random(3)
    g = parse_graph_spec("double(cycle:6)")
    dist = all_pairs_distances(g).data
    equal = tuple(list(dist))
    assert equal == dist and equal is not dist
    for _ in range(30):
        mask = rng.getrandbits(g.n)
        for kind in KINDS:
            assert pure.set_ok(g.n, g.adj, equal, mask, kind) == pure.set_ok(
                g.n, g.adj, dist, mask, kind
            )
        u, v = rng.sample(range(g.n), 2)
        assert pure.pair_visible(g.n, g.adj, equal, u, v, mask) == pure.pair_visible(
            g.n, g.adj, dist, u, v, mask
        )
    table = []
    for g in (parse_graph_spec("path:7"), parse_graph_spec("cycle:7")):
        table[:] = all_pairs_distances(g).data
        fixed = tuple(table)
        for m in range(1 << g.n):
            assert pure.set_ok(g.n, g.adj, table, m, pure.MV) == pure.set_ok(
                g.n, g.adj, fixed, m, pure.MV
            ), (g.adj, m)


def test_a_solve_adds_no_cached_balls():
    """The searches build their tables on a relabelled copy, which leaves
    the ball rows cached for set checks as they were."""
    g = parse_graph_spec("myc(path:5)")
    dist = all_pairs_distances(g).data
    pure._all_balls.cache_clear()
    for kind in KINDS:
        size = pure.solve_max(g.n, g.adj, dist, kind)[0]
        pure.greedy_set(g.n, g.adj, dist, kind)
        pure.enumerate_exact(g.n, g.adj, dist, kind, size)
    assert pure._all_balls.cache_info().currsize == 0


def test_backend_choice_is_read_on_every_call(monkeypatch):
    monkeypatch.setenv("GPVIS_KERNEL", " Pure ")
    assert get_kernel(8) is pure
    monkeypatch.setenv("GPVIS_KERNEL", "nonsense")
    for _ in range(2):  # a rejected value is rejected again, not cached
        with pytest.raises(ValueError):
            get_kernel(8)
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    assert get_kernel(8) is pure
