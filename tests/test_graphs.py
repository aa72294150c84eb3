"""Core graph container, distances, and edge-list round trips."""

from __future__ import annotations

import itertools
import random

import pytest

from gpvis import (
    UNREACHABLE,
    FormulaId,
    Graph,
    Role,
    VertexSet,
    all_pairs_distances,
    apex_role,
    base_role,
    build_graph,
    copy_role,
    exists_avoiding_geodesic,
    graph_from_edge_list_text,
    graph_to_edge_list_text,
    lies_between,
    mask_of,
    parse_graph_spec,
    read_edge_list_file,
    require_connected,
)
from gpvis.graphs import (
    APEX,
    BASE,
    _LABEL_TABLES_KEPT,
    _label_tables,
    layout_roles,
    role_symmetries,
)
from gpvis.report import corpus_graphs

from oracles import all_geodesics, label_index


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_build_graph_basic():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.num_edges() == 2
    assert g.degree(1) == 2
    assert sorted(g.neighbors(1)) == [0, 2]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.degree_sequence() == (1, 1, 2)


def test_build_graph_collapses_duplicate_edges():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])


def test_default_labels_and_index():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.label(i) for i in range(3)] == ["v1", "v2", "v3"]
    assert g.index("v2") == 1
    with pytest.raises(ValueError):
        g.index("v9")


def test_labels_round_trip():
    """index inverts label on every vertex, also at order 64 and when the
    roles are permuted the way a relabelled graph carries them."""
    big = parse_graph_spec("double(path:32)")
    myc = parse_graph_spec("myc(cycle:7)")
    perm = list(range(myc.n))
    random.Random(9).shuffle(perm)
    roles = [None] * myc.n
    for v, p in enumerate(perm):
        roles[p] = myc.roles[v]
    shuffled = build_graph(myc.n, [(perm[u], perm[v]) for u, v in myc.edges()], roles)
    assert big.n == 64 and shuffled.roles != myc.roles
    for g in (big, myc, shuffled):
        assert [g.index(g.label(v)) for v in range(g.n)] == list(range(g.n))
    apex = shuffled.roles.index(apex_role())
    for label in ("v*", "V*", " * "):
        assert shuffled.index(label) == apex
    assert big.index("5") == big.index("V5") == 4
    assert big.index("5'") == big.index("v5'") == 36
    for label, message in (
        ("v33", "no vertex labelled 'v33' in this graph"),
        ("v*", "no vertex labelled 'v\\*' in this graph"),
        ("", "empty vertex label"),
        ("v0", "vertex labels are 1-based"),
        ("vx", "bad vertex label"),
    ):
        with pytest.raises(ValueError, match=message):
            big.index(label)


def test_operator_roles_and_labels():
    dg = parse_graph_spec("double(path:2)")
    assert [dg.label(i) for i in range(4)] == ["v1", "v2", "v1'", "v2'"]
    mg = parse_graph_spec("myc(path:2)")
    assert mg.label(4) == "v*"
    assert mg.index("v1'") == 2
    assert mg.index("v*") == 4


# every spec of the check-set stream that the verify benchmark replays
VERIFY_POOL = tuple(
    f"{op}({fam}:{n})" for op in ("double", "myc") for fam in ("path", "cycle")
    for n in range(6, 13)
) + ("double(balloon:2)", "myc(balloon:2)", "double(kbip:5,6)", "myc(kbip:5,6)")

SPELLINGS = ("v3", "V3", "3", " v3 ", "v3'", "v*", "V*", "*", "v0", "v99", "")


def relabelled(g, seed):
    """``g`` with its vertices permuted, roles moving with them, built
    directly as a caller-given roles tuple."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    roles = [None] * g.n
    for v, p in enumerate(perm):
        roles[p] = g.roles[v]
    adj = [0] * g.n
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj), tuple(roles))


def label_outcome(find, label):
    try:
        return find(label)
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def test_label_tables_answer_as_the_parser():
    """One dictionary lookup for a canonical label, the parser for any other
    spelling: every label gives the index, or the exception type and
    message, that parsing it and scanning the roles gives."""
    graphs = [parse_graph_spec(spec) for spec in VERIFY_POOL]
    for formula in FormulaId:
        for family in formula.families:
            for p in family.params:
                graphs.append(parse_graph_spec(family.spec.format(**p)))
    myc = parse_graph_spec("myc(cycle:7)")
    graphs += [relabelled(myc, 5), build_graph(4, [(0, 1)], [base_role(0)] * 4)]
    odd = [Role(APEX, 5), Role(BASE, -1), base_role(2), copy_role(2), base_role(2),
           apex_role(), Role("shadow", 2), copy_role(-1)]
    graphs += [build_graph(len(odd), [], odd), build_graph(3, [], odd[:3])]
    for g in graphs:
        labels = SPELLINGS + tuple(g.label(v) for v in range(g.n))
        # twice: the lookup that builds or finds the table, then one that reads it
        for label in labels + labels:
            want = label_outcome(lambda text: label_index(g.roles, text), label)
            assert label_outcome(g.index, label) == want, (g.roles, label)
    # the odd roles: v0 and v* name no vertex, though two roles call themselves so
    g = graphs[-2]
    assert [g.label(v) for v in (0, 1)] == ["v*", "v0"]
    assert g.index("v3") == 2 and g.index("v3'") == 3 and g.index("*") == 5
    for label, message in (("v0", "1-based"), ("v2", "no vertex"), ("v0'", "1-based")):
        with pytest.raises(ValueError, match=message):
            g.index(label)


def test_labels_take_ascii_digits_only():
    g = parse_graph_spec("cycle:5")
    for label in ("v\u0663", "\u0663", "v\u00b2", "v\u0663'"):
        with pytest.raises(ValueError, match="bad vertex label"):
            g.index(label)


def test_graphs_of_one_shape_share_their_layout():
    for spec in ("double(cycle:5)", "myc(path:6)", "kbip:2,3"):
        g, h = parse_graph_spec(spec), parse_graph_spec(spec)
        assert g is not h and g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert g.roles is h.roles
        # the shared layout equals roles built one by one, so graphs compare,
        # hash and print as they did when each made its own
        fresh = Graph(g.n, g.adj, tuple(Role(r.kind, r.ref) for r in g.roles))
        assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
        assert g.index("v2") == h.index("v2") == 1
        assert g._indices is h._indices
        assert fresh.index("v2") == 1 and fresh._indices is not g._indices
    # the base block of D(G) and M(G) is G's own layout, Role instances included
    base, dbl, myc = layout_roles(4), layout_roles(4, "double"), layout_roles(4, "myc")
    assert base is parse_graph_spec("path:4").roles
    assert dbl is parse_graph_spec("double(cycle:4)").roles
    assert myc is parse_graph_spec("myc(star:4)").roles
    assert all(a is b for a, b in zip(base, dbl)) and all(a is b for a, b in zip(dbl, myc))
    assert [r.label() for r in myc] == ["v1", "v2", "v3", "v4", "v1'", "v2'", "v3'", "v4'", "v*"]
    with pytest.raises(ValueError):
        layout_roles(4, "triple")


def test_layout_caches_stay_bounded():
    layout_roles.cache_clear()
    _label_tables.clear()
    shapes = layout_roles.cache_info().maxsize + 10
    tables = _LABEL_TABLES_KEPT + 10
    graphs = [build_graph(n, []) for n in range(1, shapes + 1)]
    assert layout_roles.cache_info().currsize <= layout_roles.cache_info().maxsize
    # the first shape was evicted: a new graph of it gets an equal, new tuple
    again = build_graph(1, [])
    assert again == graphs[0] and again.roles is not graphs[0].roles
    myc = parse_graph_spec("myc(cycle:5)")
    relabels = [relabelled(myc, seed) for seed in range(tables)]
    for g in relabels:
        assert g.index("v*") == g.roles.index(apex_role())
    assert len(_label_tables) == _LABEL_TABLES_KEPT
    # an evicted table stays on its graph; a new graph over the tuple rebuilds it
    first = relabels[0]
    kept = first._indices
    assert first.index("v1'") == first.roles.index(copy_role(0))
    assert first._indices is kept
    twin = Graph(first.n, first.adj, first.roles)
    assert twin.index("v1'") == first.index("v1'") and twin._indices is not kept
    assert twin._indices == kept


def test_role_sort_order():
    roles = [copy_role(0), apex_role(), base_role(1), base_role(0), copy_role(1)]
    roles.sort(key=lambda r: r.sort_key())
    assert [r.label() for r in roles] == ["v1", "v2", "v1'", "v2'", "v*"]


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        g.has_edge(perm[u], perm[v]) for u, v in g.edges()
    )


def role_move(g, perm):
    """How ``perm`` moves the refs: "shift", "reflect" or neither (None)."""
    count = {}
    for role in g.roles:
        count[role.kind] = count.get(role.kind, 0) + 1
    moves = {(g.roles[v].kind, g.roles[v].ref, g.roles[perm[v]].ref) for v in range(g.n)}
    if all(g.roles[perm[v]].kind == g.roles[v].kind for v in range(g.n)):
        if all(new == (ref + 1) % count[kind] for kind, ref, new in moves):
            return "shift"
        if all(new == count[kind] - 1 - ref for kind, ref, new in moves):
            return "reflect"
    return None


# what the roles' layout lifts from its base: a cycle's shift and
# reflection, a path's reflection, or nothing
MOVES = {"shift": ["shift", "reflect"], "reflect": ["reflect"], None: []}


@pytest.mark.parametrize(
    "spec,move",
    [
        ("cycle:6", "shift"),
        ("path:5", "reflect"),
        ("double(cycle:7)", "shift"),
        ("myc(cycle:5)", "shift"),
        ("double(path:4)", "reflect"),
        ("myc(path:6)", "reflect"),
        ("double(kminus:6)", None),
        ("star:5", None),
        ("balloon:2", None),
        ("kbip:3,4", None),
    ],
)
def test_role_symmetries_are_the_automorphisms_the_roles_carry(spec, move):
    """The shift and the reflection of the refs are each kept when they
    are an automorphism, the shift first: a cycle's roles carry both, a
    path's the reflection only.  They are still found once the vertices
    and their roles are permuted together, as the hard benchmark's
    labellings do."""
    g = parse_graph_spec(spec)
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    roles = [None] * g.n
    for v, p in enumerate(perm):
        roles[p] = g.roles[v]
    shuffled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()], roles)
    for h in (g, shuffled):
        found = role_symmetries(h)
        assert [role_move(h, p) for p in found] == MOVES[move]
        assert all(is_automorphism(h, p) for p in found)
        assert role_symmetries(h) is found  # kept on the graph


def test_role_symmetries_need_one_vertex_per_role():
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert role_symmetries(build_graph(4, c4)) == ((1, 2, 3, 0), (3, 2, 1, 0))
    # with two vertices the reflection is the shift, and is kept once
    assert role_symmetries(build_graph(2, [(0, 1)])) == ((1, 0),)
    assert role_symmetries(build_graph(4, c4, [base_role(0)] * 4)) == ()
    corpus = corpus_graphs(2, count=10, n_lo=6, n_hi=9)
    assert all(is_automorphism(g, p) for g in corpus for p in role_symmetries(g))


def test_mask_of_and_vertex_set():
    assert mask_of([0, 2, 5]) == 0b100101
    s = VertexSet.of(6, [0, 2, 5])
    assert len(s) == 3
    assert 2 in s and 1 not in s
    assert s.members() == (0, 2, 5)
    assert list(s) == [0, 2, 5]
    assert s.with_vertex(1).members() == (0, 1, 2, 5)
    assert s.without_vertex(2).members() == (0, 5)
    t = VertexSet.of(6, [2, 3])
    assert s.union(t).members() == (0, 2, 3, 5)
    assert s.intersection(t).members() == (2,)
    assert s.difference(t).members() == (0, 5)
    assert t.issubset(s.union(t))
    assert not s.issubset(t)


def test_vertex_set_rejects_mismatched_universe():
    s = VertexSet.of(4, [0])
    t = VertexSet.of(5, [0])
    with pytest.raises(ValueError):
        s.union(t)
    with pytest.raises(ValueError):
        VertexSet.of(3, [3])


def test_vertex_set_edits_and_membership_outside_its_order():
    """Adding or removing a vertex outside 0..n-1 raises the same error
    either way, and no such vertex is a member."""
    s = VertexSet.of(5, [0, 1])
    for v in (-1, 5, 7):
        for edit in (s.with_vertex, s.without_vertex):
            with pytest.raises(ValueError, match=f"^vertex {v} out of range for order 5$"):
                edit(v)
        assert v not in s
    full = VertexSet(5, 0b11111)
    assert [v for v in range(-3, 9) if v in full] == [0, 1, 2, 3, 4]
    assert s.without_vertex(4) == s and s.without_vertex(1).members() == (0,)


def test_vertex_set_labels():
    g = parse_graph_spec("double(path:3)")
    s = VertexSet.of(6, [0, 2, 3, 5])
    assert s.labels(g) == ("v1", "v3", "v1'", "v3'")


def test_distances_on_path_and_cycle():
    g = path_graph(5)
    d = all_pairs_distances(g)
    assert d.connected
    for u, v in itertools.combinations(range(5), 2):
        assert d.d(u, v) == v - u
    assert d.diameter() == 4

    c = parse_graph_spec("cycle:6")
    dc = all_pairs_distances(c)
    for u, v in itertools.combinations(range(6), 2):
        k = abs(u - v)
        assert dc.d(u, v) == min(k, 6 - k)
    assert dc.diameter() == 3


def test_distances_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    d = all_pairs_distances(g)
    assert not d.connected
    assert d.d(0, 2) == UNREACHABLE
    with pytest.raises(ValueError):
        d.diameter()
    with pytest.raises(ValueError):
        require_connected(d)
    with pytest.raises(ValueError):
        lies_between(d, 1, 0, 2)


def test_lies_between_on_path():
    d = all_pairs_distances(path_graph(5))
    assert lies_between(d, 2, 0, 4)
    assert lies_between(d, 0, 0, 4)  # endpoints count
    assert not lies_between(d, 3, 0, 2)
    for x, u, v in ((-1, 0, 3), (5, 0, 3), (1, -1, 3), (1, 0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            lies_between(d, x, u, v)


def test_lies_between_matches_geodesic_membership(small_corpus, small_corpus_dists):
    for g, d in zip(small_corpus, small_corpus_dists):
        for u, v in itertools.combinations(range(g.n), 2):
            on_some = set()
            for p in all_geodesics(g, d, u, v):
                on_some.update(p)
            for x in range(g.n):
                assert lies_between(d, x, u, v) == (x in on_some)


def test_distances_are_computed_once_per_graph():
    g = parse_graph_spec("cycle:6")
    d = all_pairs_distances(g)
    assert all_pairs_distances(g) is d
    # The kept matrix is not part of the graph's value.
    h = parse_graph_spec("cycle:6")
    assert g == h and hash(g) == hash(h)
    assert all_pairs_distances(h) is not d


def test_equal_graphs_share_one_bfs():
    g = parse_graph_spec("double(cycle:5)")
    h = parse_graph_spec("double(cycle:5)")
    assert g is not h
    dg, dh = all_pairs_distances(g), all_pairs_distances(h)
    # One distance tuple for both, each graph with a matrix of its own.
    assert dg.data is dh.data
    assert dg is not dh and dg == dh


def test_bfs_cache_stays_bounded_and_correct():
    from gpvis.graphs import _bfs_distances

    _bfs_distances.cache_clear()
    limit = _bfs_distances.cache_info().maxsize
    graphs = corpus_graphs(17, count=limit + 80, n_lo=5, n_hi=9)
    others = [g for g in graphs[1:] if g != graphs[0]]
    assert len(set(others)) >= limit
    first = all_pairs_distances(graphs[0])
    for g in others:
        all_pairs_distances(g)
    assert _bfs_distances.cache_info().currsize <= limit
    # The first graph's tuple has been evicted; a fresh BFS gives the same matrix.
    again = all_pairs_distances(build_graph(graphs[0].n, graphs[0].edges()))
    assert again.data is not first.data and again == first


def test_distances_equal_a_list_bfs():
    """The bitmask BFS gives the distances and the connected flag of a
    plain BFS over neighbour lists: on the corpus graphs, their double
    graphs and Mycielskians, a single vertex and a disconnected graph."""
    from gpvis.families import double_graph, mycielskian

    corpus = corpus_graphs(5, count=12, n_lo=4, n_hi=9)
    graphs = corpus + [double_graph(g) for g in corpus[:6]] + [mycielskian(g) for g in corpus[6:]]
    graphs += [build_graph(1, []), build_graph(6, [(0, 1), (1, 2), (3, 4)])]
    for g in graphs:
        nbrs = [[v for v in range(g.n) if g.adj[u] >> v & 1] for u in range(g.n)]
        want = []
        for s in range(g.n):
            row = [UNREACHABLE] * g.n
            row[s] = 0
            queue = [s]
            for u in queue:
                for v in nbrs[u]:
                    if row[v] == UNREACHABLE:
                        row[v] = row[u] + 1
                        queue.append(v)
            want += row
        d = all_pairs_distances(g)
        assert d.data == tuple(want), g.adj
        assert d.connected == (UNREACHABLE not in want), g.adj
    assert not all_pairs_distances(graphs[-1]).connected


def test_exists_avoiding_geodesic_simple():
    # C_4 as 0-1-2-3-0: both 0..2 geodesics pass through 1 or 3.
    c4 = parse_graph_spec("cycle:4")
    d = all_pairs_distances(c4)
    assert exists_avoiding_geodesic(c4, d, 0, 2, VertexSet.of(4, [1]))
    assert not exists_avoiding_geodesic(c4, d, 0, 2, VertexSet.of(4, [1, 3]))
    # Endpoints never block themselves.
    assert exists_avoiding_geodesic(c4, d, 0, 2, VertexSet.of(4, [0, 2]))


def test_vertex_set_rejects_a_mask_outside_its_order():
    # Calling a verifier with such a set used to answer (a bit past n)
    # or never return (a negative mask).
    for mask in (1 | 1 << 9, 1 << 6, -1):
        with pytest.raises(ValueError):
            VertexSet(6, mask)
    assert VertexSet(6, (1 << 6) - 1).members() == (0, 1, 2, 3, 4, 5)


def test_edge_list_round_trip():
    g = parse_graph_spec("kbip:2,3")
    text = graph_to_edge_list_text(g)
    h = graph_from_edge_list_text(text)
    assert h.n == g.n
    assert sorted(h.edges()) == sorted(g.edges())


def test_edge_list_file_round_trip(tmp_path):
    g = parse_graph_spec("cycle:5")
    p = tmp_path / "c5.txt"
    p.write_text(graph_to_edge_list_text(g))
    h = read_edge_list_file(str(p))
    assert sorted(h.edges()) == sorted(g.edges())


def test_edge_list_parses_comments_and_blanks():
    text = "# a comment\n3 2\n\n1 2\n# another\n2 3\n"
    g = graph_from_edge_list_text(text)
    assert g.n == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_edge_list_errors():
    with pytest.raises(ValueError):
        graph_from_edge_list_text("")
    with pytest.raises(ValueError):
        graph_from_edge_list_text("3\n1 2\n")
    with pytest.raises(ValueError):
        graph_from_edge_list_text("3 2\n1 2\n")  # fewer edges than promised
    with pytest.raises(ValueError):
        graph_from_edge_list_text("3 1\n1 2\n2 3\n")  # more edges than promised
    with pytest.raises(ValueError):
        graph_from_edge_list_text("3 1\n0 1\n")  # vertices are 1-based
    with pytest.raises(ValueError):
        graph_from_edge_list_text("3 1\n1 4\n")
    # numbers are ASCII digits, one sign at most in the header
    for text in ("2 1\n1 \u0662\n", "\u0662 1\n1 2\n", "2 1\n1 \u00b2\n", "--3 1\n1 2\n"):
        with pytest.raises(ValueError, match="bad edge"):
            graph_from_edge_list_text(text)


def test_is_complete():
    assert parse_graph_spec("complete:4").is_complete()
    assert not parse_graph_spec("kminus:4").is_complete()
    assert not parse_graph_spec("path:3").is_complete()


def test_distance_matrix_agrees_with_random_walk_check():
    # Cross-check BFS distances against a tiny Floyd-Warshall.
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(3, 8)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = build_graph(n, edges)
        d = all_pairs_distances(g)
        inf = float("inf")
        fw = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in g.edges():
            fw[u][v] = fw[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if fw[i][k] + fw[k][j] < fw[i][j]:
                        fw[i][j] = fw[i][k] + fw[k][j]
        for i in range(n):
            for j in range(n):
                want = UNREACHABLE if fw[i][j] == inf else int(fw[i][j])
                assert d.d(i, j) == want
