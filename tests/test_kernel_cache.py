"""The pure kernel's cached tables (each distance tuple's checked record,
with the adj tuple it last accepted and the ball rows, rows and twin
table it reads off the distances; the search copy, a record of its own
distances, with its geodesic intervals, geodesic triples, checked
symmetries and orbits) and the search copy's memo: bounded,
built once per graph and shared by its solves, and without effect on any
result; and the backend choice, validated once per value but read on
every call.  Pure kernel only, so these never skip."""

from __future__ import annotations

import random

import pytest

from gpvis import all_pairs_distances, parse_graph_spec
from gpvis._kernel import get_kernel, pure
from gpvis.graphs import role_symmetries
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
        pure._recent.clear()
        cold.append(fn(*args))
    # Warm: every graph's record is kept, graphs of one order side by side.
    pure._recent.clear()
    warm = []
    records = {}
    for fn, args in reversed(calls):
        warm.append(fn(*args))
        records.setdefault(id(args[2]), []).append(pure._recent[id(args[2])])
    assert warm[::-1] == cold
    assert len(pure._recent) == len(records) == len(graphs_under_test())
    # each graph's record is made once and found again on every later call
    assert all(r is found[0] for found in records.values() for r in found)
    assert max(map(len, records.values())) > 1


def test_ball_cache_stays_bounded():
    """At most _TABLES_KEPT records are kept, the most recently used: a
    record found again outlives those made after it but used before."""
    pure._recent.clear()
    limit = pure._TABLES_KEPT
    graphs = list({g.adj: g for g in corpus_graphs(23, count=limit + 40, n_lo=6, n_hi=9)}.values())
    assert limit < len(graphs) < 2 * limit
    dists = [all_pairs_distances(g).data for g in graphs]
    used = list(range(limit)) + [0] + list(range(limit, len(graphs)))
    for i in used:
        pure.set_ok(graphs[i].n, graphs[i].adj, dists[i], 0b11, pure.MV)
        assert len(pure._recent) <= limit
    last = {i: k for k, i in enumerate(used)}
    kept = sorted(last, key=last.get)[-limit:]
    assert 0 in kept and 1 not in kept
    assert list(pure._recent) == [id(dists[i]) for i in kept]


def test_cached_ball_rows_are_tuples():
    g = parse_graph_spec("double(cycle:6)")
    dist = all_pairs_distances(g).data
    balls = pure._checked(g.n, g.adj, dist).balls
    assert pure._checked(g.n, g.adj, dist).balls is balls
    assert isinstance(balls, tuple) and len(balls) == g.n
    assert all(isinstance(row, tuple) for row in balls)
    with pytest.raises(TypeError):
        balls[0][1] = 0
    # Row u, entry t: the vertices at distance t from u.
    for u in range(g.n):
        for t, layer in enumerate(balls[u]):
            assert layer == sum(1 << x for x in range(g.n) if dist[u * g.n + x] == t)


def search_tables_of(g, dist):
    """(order, label, tables) of g's search copy, as the searches find it."""
    return pure._search_copy(pure._checked(g.n, g.adj, dist))


def search_tables(g, dist):
    """The tables of g's search copy, as the searches find them."""
    return search_tables_of(g, dist)[2]


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
            assert table == getattr(pure._Tables(g.n, tables.dist), name)
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


def test_one_memo_serves_the_seed_every_solve_and_every_kind():
    """The memo's entries depend on the graph alone, so the search copy
    keeps one for every kind and run.  The greedy seed fills it for the
    solve; a greedy_set or a second solve_max after a solve_max adds no
    entry; and TOTAL, OUTER, MV and GP solved on one copy, in that order,
    equal solves on fresh copies, node counts included."""
    specs = ["double(cycle:8)", "myc(cycle:9)", "double(kminus:5)"]
    graphs = graphs_under_test() + [parse_graph_spec(s) for s in specs]
    seeded = 0
    for g in graphs:
        dist = all_pairs_distances(g).data
        fresh = {}
        for kind in KINDS:
            pure._search_copy.cache_clear()
            pure.greedy_set(g.n, g.adj, dist, kind)
            tables = search_tables(g, dist)
            seeded += len(tables.cuts)
            fresh[kind] = pure.solve_max(g.n, g.adj, dist, kind)
            memo = dict(tables.cuts)
            pure.greedy_set(g.n, g.adj, dist, kind)
            assert pure.solve_max(g.n, g.adj, dist, kind) == fresh[kind]
            assert tables.cuts == memo, (g.adj, kind)
            assert search_tables(g, dist) is tables
        pure._search_copy.cache_clear()
        for kind in (pure.TOTAL, pure.OUTER, pure.MV, pure.GP):
            assert pure.solve_max(g.n, g.adj, dist, kind) == fresh[kind], (g.adj, kind)
        assert pure._search_copy.cache_info().misses == 1
    assert seeded > 0


def test_orbits_follow_the_latest_symmetries():
    """The search copy keeps the orbits of the symmetries it was last
    given; a solve with other symmetries, fewer or none, sets them
    afresh, so each solve equals one on a fresh copy."""
    for spec in ("myc(cycle:7)", "double(cycle:6)"):
        g = parse_graph_spec(spec)
        dist = all_pairs_distances(g).data
        both = role_symmetries(g)
        assert len(both) == 2, spec
        sets = [(), both, both[:1]]
        fresh = {}
        for syms in sets:
            for kind in KINDS:
                pure._search_copy.cache_clear()
                fresh[syms, kind] = pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, syms)
        assert fresh[both, pure.MV][2] < fresh[both[:1], pure.MV][2] < fresh[(), pure.MV][2], spec
        pure._search_copy.cache_clear()
        for syms in [both, both, (), both, both[:1], both]:
            for kind in KINDS:
                assert pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, syms) == fresh[syms, kind], (spec, syms)
        assert pure._search_copy.cache_info().misses == 1


def test_a_list_distance_table_is_accepted():
    g = parse_graph_spec("cycle:6")
    dist = all_pairs_distances(g).data
    for kind in KINDS:
        assert pure.solve_max(g.n, g.adj, list(dist), kind) == pure.solve_max(
            g.n, g.adj, dist, kind
        )


def test_tables_are_matched_by_value_and_lists_read_afresh():
    """A tuple equal to a kept table but a distinct object gives the same
    answers as the kept one; a list is read again on every call, so a
    change made to it between calls shows in the next answer."""
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


def test_records_keep_the_accepted_adj_and_copies_read_twins_off_rows():
    """Every entry point accepts a tuple ``adj`` into the record of its
    distance tuple, which keeps that very tuple; an equal but distinct
    tuple is accepted too and kept in its place.  The search copy is a
    record of its own distances: its rows are the caller's in its labels,
    and twin_pred[v] is the previous vertex with a row equal to v's."""
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        adj = tuple(g.adj)
        pure._recent.clear()
        for kind in KINDS:
            size = pure.solve_max(g.n, adj, dist, kind)[0]
            assert pure._recent[id(dist)].adj is adj
            calls = [
                (pure.greedy_set, (kind,)),
                (pure.enumerate_exact, (kind, size)),
                (pure.set_ok, (0b11, kind)),
                (pure.pair_visible, (0, g.n - 1, 0b10)),
            ]
            for fn, rest in calls:
                equal = tuple(list(adj))
                assert equal == adj and equal is not adj
                assert fn(g.n, equal, dist, *rest) == fn(g.n, adj, dist, *rest)
                assert pure._recent[id(dist)].adj is adj
                fn(g.n, equal, dist, *rest)
                assert pure._recent[id(dist)].adj is equal
        order, label, tables = search_tables_of(g, dist)
        assert tables.adj is tables.rows
        assert tables.rows == tuple(pure._mapped(g.adj[v], label) for v in order)
        rows = tables.rows
        assert tables.twin_pred == [
            max((u for u in range(v) if rows[u] == rows[v]), default=-1) for v in range(g.n)
        ], g.adj


def test_backend_choice_is_read_on_every_call(monkeypatch):
    monkeypatch.setenv("GPVIS_KERNEL", " Pure ")
    assert get_kernel(8) is pure
    monkeypatch.setenv("GPVIS_KERNEL", "nonsense")
    for _ in range(2):  # a rejected value is rejected again, not cached
        with pytest.raises(ValueError):
            get_kernel(8)
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    assert get_kernel(8) is pure


def test_symmetries_are_checked_again_only_when_they_change(monkeypatch):
    """A solve whose symmetries equal, by value, those of the last solve
    on the copy checks them no more; a list changed in place between two
    solves is checked again, and rejected once it is no automorphism."""
    checks = []
    check = pure._search_symmetries

    def counted(*args):
        checks.append(args[3])
        return check(*args)

    monkeypatch.setattr(pure, "_search_symmetries", counted)
    g = parse_graph_spec("myc(cycle:7)")
    dist = all_pairs_distances(g).data
    both = role_symmetries(g)
    pure._search_copy.cache_clear()
    solved = {kind: pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, both) for kind in KINDS}
    assert len(checks) == 1
    # equal but distinct, as a re-parsed graph carries them
    copy = [list(p) for p in both]
    for kind in KINDS:
        assert pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, copy) == solved[kind]
    assert len(checks) == 1
    pure.solve_max(g.n, g.adj, dist, pure.MV)
    assert len(checks) == 2
    c5 = parse_graph_spec("cycle:5")
    d5 = all_pairs_distances(c5).data
    rotate = [1, 2, 3, 4, 0]
    syms = [rotate]
    assert pure.solve_max(5, c5.adj, d5, pure.MV, 0, 0.0, syms)[0] == 3
    rotate[:] = [1, 0, 2, 3, 4]  # a transposition of adjacent vertices of C5
    with pytest.raises(ValueError):
        pure.solve_max(5, c5.adj, d5, pure.MV, 0, 0.0, syms)
    rotate[:] = [4, 0, 1, 2, 3]
    assert pure.solve_max(5, c5.adj, d5, pure.MV, 0, 0.0, syms)[0] == 3


def test_a_bad_distance_table_is_rejected_for_every_kind():
    """A distance outside -1..n is rejected on every call and for every
    kind, GP's set check too, and no record of it is kept."""
    g = parse_graph_spec("cycle:5")
    bad = (9,) + all_pairs_distances(g).data[1:]
    for kind in KINDS:
        for _ in range(2):
            with pytest.raises(ValueError):
                pure.set_ok(g.n, g.adj, bad, 0, kind)
    assert id(bad) not in pure._recent
