"""Named families, the two operators, and the graph-spec grammar."""

from __future__ import annotations

import itertools
import re

import pytest

from gpvis import (
    FamilySpec,
    GraphSpecError,
    all_pairs_distances,
    double_graph,
    generate,
    graph_to_edge_list_text,
    mycielskian,
    parse_graph_spec,
    wheel_graph,
)
from gpvis import families
from gpvis.graphs import Graph, build_graph, layout_roles


def distance_multiset(g):
    d = all_pairs_distances(g)
    return sorted(
        d.d(u, v) for u, v in itertools.combinations(range(g.n), 2)
    )


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("path:1", 1, 0),
        ("path:5", 5, 4),
        ("cycle:3", 3, 3),
        ("cycle:8", 8, 8),
        ("complete:5", 5, 10),
        ("kminus:5", 5, 9),
        ("kbip:3,4", 7, 12),
        ("star:4", 4, 3),
        ("balloon:1", 6, 6),
        ("balloon:2", 11, 12),
        ("balloon:3", 16, 18),
    ],
)
def test_family_orders_and_sizes(spec, n, m):
    g = parse_graph_spec(spec)
    assert g.n == n
    assert g.num_edges() == m


def test_cycle_is_two_regular():
    g = parse_graph_spec("cycle:7")
    assert g.degree_sequence() == (2,) * 7


def test_kminus_misses_exactly_one_edge():
    g = parse_graph_spec("kminus:5")
    missing = [
        (u, v)
        for u, v in itertools.combinations(range(5), 2)
        if not g.has_edge(u, v)
    ]
    assert missing == [(0, 1)]


def test_star_center_and_leaves():
    # star:n is K_{1,n-1}: center v1 plus n-1 leaves.
    g = parse_graph_spec("star:6")
    assert g.n == 6
    assert g.degree(0) == 5
    assert all(g.degree(i) == 1 for i in range(1, 6))


def test_kbip_structure():
    g = parse_graph_spec("kbip:2,3")
    left, right = range(2), range(2, 5)
    for u, v in itertools.combinations(range(5), 2):
        expect = (u in left) != (v in left)
        assert g.has_edge(u, v) == expect


def test_balloon_structure():
    k = 3
    g = parse_graph_spec(f"balloon:{k}")
    hub = g.n - 1
    assert g.degree(hub) == k
    # Each balloon is a 5-cycle on 5(i-1)..5i-1 with the hub tied to its
    # first vertex.
    for i in range(k):
        base = 5 * i
        cycle = list(range(base, base + 5))
        for j in range(5):
            assert g.has_edge(cycle[j], cycle[(j + 1) % 5])
        assert g.has_edge(hub, base)
        degs = sorted(g.degree(v) for v in cycle)
        assert degs == [2, 2, 2, 2, 3]
    d = all_pairs_distances(g)
    assert d.connected


def test_wheel_graph():
    g = wheel_graph(5)
    assert g.n == 6
    assert g.degree(0) == 5
    assert all(g.degree(i) == 3 for i in range(1, 6))


def wheel_edges(m):
    """W_m by hand: the hub v1 on every rim vertex, the rim v2..v(m+1) in order."""
    return [(0, i) for i in range(1, m + 1)] + [(i, i % m + 1) for i in range(1, m + 1)]


@pytest.mark.parametrize("m", range(3, 8))
def test_wheel_spec_is_wheel_graph(m):
    g = parse_graph_spec(f"wheel:{m}")
    assert g == wheel_graph(m) == build_graph(m + 1, wheel_edges(m))
    assert g.roles == wheel_graph(m).roles


@pytest.mark.parametrize("m", range(4, 7))
def test_operators_on_wheel_specs(m):
    """D(W_m) and M(W_m) from the grammar, against both operators written
    out edge by edge from their definitions."""
    n = m + 1
    double, myc = [], []
    for u, v in wheel_edges(m):
        for a, b in ((u, v), (v, u)):
            double += [(a, b), (n + a, n + b), (a, n + b)]
            myc += [(a, b), (a, n + b)]
    myc += [(n + u, 2 * n) for u in range(n)]
    want_d = build_graph(2 * n, double, layout_roles(n, "double"))
    want_m = build_graph(2 * n + 1, myc, layout_roles(n, "myc"))
    assert parse_graph_spec(f"double(wheel:{m})") == double_graph(wheel_graph(m)) == want_d
    assert parse_graph_spec(f"myc(wheel:{m})") == mycielskian(wheel_graph(m)) == want_m


def test_errors_name_what_the_user_typed():
    # the domain error names the grammar token, not the family behind it
    with pytest.raises(GraphSpecError, match=r"^kbip needs each parameter >= 1 \(at position 0\)$"):
        parse_graph_spec("kbip:0,3")
    with pytest.raises(GraphSpecError, match=r"^wheel needs each parameter >= 3 "):
        parse_graph_spec("double(wheel:2)")
    with pytest.raises(ValueError, match="^complete_bipartite needs each parameter >= 1$"):
        generate(FamilySpec("complete_bipartite", (0, 3)))
    with pytest.raises(ValueError, match="^wheel needs each parameter >= 3$"):
        wheel_graph(2)
    # an arity error says how many parameters the family takes
    with pytest.raises(ValueError, match="^path takes 1 parameter, got 2$"):
        generate(FamilySpec("path", (4, 5)))
    with pytest.raises(ValueError, match="^complete_bipartite takes 2 parameters, got 1$"):
        generate(FamilySpec("complete_bipartite", (3,)))
    with pytest.raises(ValueError, match="^star takes 1 parameter, got 0$"):
        generate(FamilySpec("star"))


def test_generate_matches_parse():
    for spec, fam in [
        ("path:4", FamilySpec("path", (4,))),
        ("kbip:2,2", FamilySpec("complete_bipartite", (2, 2))),
        ("kminus:4", FamilySpec("complete_minus_edge", (4,))),
    ]:
        a = parse_graph_spec(spec)
        b = generate(fam)
        assert a.n == b.n and sorted(a.edges()) == sorted(b.edges())


def test_family_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        FamilySpec("petersen", (1,))


def test_double_graph_order_and_degrees():
    g = parse_graph_spec("cycle:5")
    dg = double_graph(g)
    assert dg.n == 10
    # Doubling doubles every degree.
    for i in range(5):
        assert dg.degree(i) == 2 * g.degree(i)
        assert dg.degree(i + 5) == 2 * g.degree(i)


def test_double_graph_edge_rule():
    g = parse_graph_spec("path:3")
    dg = double_graph(g)
    n = 3
    for u, v in itertools.combinations(range(n), 2):
        e = g.has_edge(u, v)
        assert dg.has_edge(u, v) == e
        assert dg.has_edge(u + n, v + n) == e
        assert dg.has_edge(u, v + n) == e
        assert dg.has_edge(u + n, v) == e
    # Never an edge between a vertex and its own copy.
    for u in range(n):
        assert not dg.has_edge(u, u + n)


def test_double_of_k2_is_c4():
    dg = parse_graph_spec("double(path:2)")
    c4 = parse_graph_spec("cycle:4")
    assert dg.n == c4.n
    assert dg.num_edges() == c4.num_edges()
    assert distance_multiset(dg) == distance_multiset(c4)


def test_mycielskian_order_and_structure():
    g = parse_graph_spec("cycle:5")
    mg = mycielskian(g)
    n = 5
    assert mg.n == 2 * n + 1
    apex = 2 * n
    assert mg.degree(apex) == n
    for i in range(n):
        # Copy i sees the base neighbors of i plus the apex.
        assert sorted(mg.neighbors(i + n)) == sorted(
            list(g.neighbors(i)) + [apex]
        )
        # Base i sees its old neighbors plus their copies.
        assert sorted(mg.neighbors(i)) == sorted(
            list(g.neighbors(i)) + [j + n for j in g.neighbors(i)]
        )
        # No edge between a vertex and its own copy, none base-to-apex.
        assert not mg.has_edge(i, i + n)
        assert not mg.has_edge(i, apex)


def test_mycielskian_of_k2_is_c5():
    mg = parse_graph_spec("myc(path:2)")
    c5 = parse_graph_spec("cycle:5")
    assert mg.n == 5
    assert mg.num_edges() == 5
    assert mg.degree_sequence() == (2,) * 5
    assert distance_multiset(mg) == distance_multiset(c5)


def test_mycielskian_of_c5_is_grotzsch_sized():
    mg = parse_graph_spec("myc(cycle:5)")
    assert mg.n == 11
    assert mg.num_edges() == 20


def test_nested_operators():
    g = parse_graph_spec("double(myc(path:2))")
    assert g.n == 10  # D of a 5-vertex graph
    h = parse_graph_spec("myc(double(path:2))")
    assert h.n == 9
    # whitespace is skipped around the spec, after '(' and before ')'
    for spaced in ("double(cycle:5 )", "double( cycle:5)", " double( cycle:5 ) "):
        assert parse_graph_spec(spaced) == parse_graph_spec("double(cycle:5)")
    assert parse_graph_spec(" myc( double( path:2 )\t) ") == h


def test_file_atom(tmp_path):
    g = parse_graph_spec("cycle:6")
    p = tmp_path / "c6.txt"
    p.write_text(graph_to_edge_list_text(g))
    h = parse_graph_spec(f"file:{p}")
    assert sorted(h.edges()) == sorted(g.edges())
    dd = parse_graph_spec(f"double(file:{p})")
    assert dd.n == 12


def test_file_path_may_hold_parentheses(tmp_path):
    g = parse_graph_spec("cycle:6")
    text = graph_to_edge_list_text(g)
    paired = tmp_path / "a(b).txt"
    paired.write_text(text)
    unpaired = tmp_path / "c)d.txt"
    unpaired.write_text(text)
    # at top level the path runs to the end of the text
    for p in (paired, unpaired):
        assert parse_graph_spec(f"file:{p}") == g
        assert parse_graph_spec(f"file: {p} ") == g
    # inside operators it ends at the ')' that closes its operator
    assert parse_graph_spec(f"double(file:{paired})") == double_graph(g)
    assert parse_graph_spec(f"myc(double( file:{paired} ))") == mycielskian(double_graph(g))
    # an unpaired ')' closes the operator, so the path is cut short
    with pytest.raises(FileNotFoundError, match=re.escape(f"{tmp_path / 'c'}'")):
        parse_graph_spec(f"double(file:{unpaired})")
    with pytest.raises(GraphSpecError, match="trailing input"):
        parse_graph_spec(f"double(file:{paired}))")


def test_whitespace_after_operator_name_colon_and_comma():
    assert parse_graph_spec("double (cycle:5)") == parse_graph_spec("double(cycle:5)")
    assert parse_graph_spec("myc\t( double (path: 2))") == parse_graph_spec("myc(double(path:2))")
    assert parse_graph_spec("cycle: 5") == parse_graph_spec("cycle:5")
    assert parse_graph_spec("kbip:2, 3") == parse_graph_spec("kbip:2,3")
    assert parse_graph_spec("kbip: 2,\t3 ") == parse_graph_spec("kbip:2,3")


@pytest.mark.parametrize(
    "bad,message",
    [
        ("path: x", "expected an integer parameter"),
        ("kbip:2, ", "expected an integer parameter"),
        ("cycle :5", "expected ':' after 'cycle'"),
        ("kbip:2 ,3", "expected ','"),
        ("double (", "expected a family or operator name"),
        ("double ", "expected ':' after 'double'"),
        ("bogus (path:3)", "unknown operator 'bogus'"),
        ("double(file: )", "file spec needs a path"),
    ],
)
def test_whitespace_leaves_real_errors_as_they_were(bad, message):
    with pytest.raises(GraphSpecError, match=re.escape(message)):
        parse_graph_spec(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "bogus:3",
        "path",
        "path:",
        "path:x",
        "path:0",
        "cycle:2",
        "kbip:3",
        "kbip:3,",
        "kbip:0,3",
        "balloon:0",
        "wheel:2",
        "wheel:",
        "double",
        "double(",
        "double(path:3",
        "double()",
        "path:3)",
        "double(path:3)x",
        "myc(path:3),",
        # parameters are ASCII digits only
        "cycle:\u0665",
        "cycle:\u00b2",
        "kbip:\u0662,3",
        "kbip:2,\u0663",
    ],
)
def test_grammar_rejects(bad):
    with pytest.raises(GraphSpecError):
        parse_graph_spec(bad)


def test_grammar_error_reports_position():
    with pytest.raises(GraphSpecError) as exc:
        parse_graph_spec("double(bogus:3)")
    assert "position 7" in str(exc.value)
    assert exc.value.pos == 7


def test_grammar_error_is_value_error():
    with pytest.raises(ValueError):
        parse_graph_spec("nope")


def test_operator_labels():
    dg = parse_graph_spec("double(path:2)")
    assert [dg.label(i) for i in range(4)] == ["v1", "v2", "v1'", "v2'"]
    mg = parse_graph_spec("myc(path:2)")
    assert [mg.label(i) for i in range(5)] == ["v1", "v2", "v1'", "v2'", "v*"]


@pytest.mark.parametrize("param", [True, 5.0, "5"])
def test_parameters_must_be_int(param):
    # 5.0 == 5 and True == 1 hash alike, so the atom memo must never see them
    generate(FamilySpec("cycle", (5,)))
    with pytest.raises(ValueError, match=f"^path parameters must be integers, got {re.escape(repr(param))}$"):
        generate(FamilySpec("path", (param,)))
    with pytest.raises(ValueError, match="^cycle parameters must be integers"):
        generate(FamilySpec("cycle", (param,)))
    with pytest.raises(ValueError, match="^complete_bipartite parameters must be integers"):
        generate(FamilySpec("complete_bipartite", (2, param)))


@pytest.mark.parametrize("operator,order", [(double_graph, 6), (mycielskian, 7)])
def test_operators_take_list_rows(operator, order):
    g = Graph(3, [6, 5, 3], layout_roles(3))
    h = operator(g)
    assert h.n == order
    assert h == operator(build_graph(3, [(0, 1), (0, 2), (1, 2)]))


@pytest.mark.parametrize("spec", ["double(cycle:5)", "myc(double(path:4))", "kbip:2,3"])
def test_equal_specs_share_rows_not_graphs(spec):
    g, h = parse_graph_spec(spec), parse_graph_spec(spec)
    assert g is not h and g == h
    assert g.adj is h.adj


def test_wheel_graph_shares_the_spec_rows():
    g, h = wheel_graph(5), parse_graph_spec("wheel:5")
    assert g is not h and g.adj is h.adj


@pytest.mark.parametrize("memo", ["_atom_rows", "_double_rows", "_myc_rows"])
def test_row_memos_stay_bounded_and_correct(memo):
    cache = getattr(families, memo)
    cache.cache_clear()
    limit = cache.cache_info().maxsize
    op = {"_atom_rows": "{}", "_double_rows": "double({})", "_myc_rows": "myc({})"}[memo]
    specs = [op.format(f"path:{n}") for n in range(1, limit + 40)]
    first = parse_graph_spec(specs[0])
    for spec in specs[1:]:
        parse_graph_spec(spec)
    assert cache.cache_info().currsize <= limit
    # the first spec's rows have been evicted; a fresh build gives an equal graph
    again = parse_graph_spec(specs[0])
    assert again.adj is not first.adj and again == first


@pytest.mark.parametrize(
    "bad,message,pos",
    [
        ("cycle:2", "cycle needs each parameter >= 3", 0),
        ("kbip:0,3", "kbip needs each parameter >= 1", 0),
        ("path:4,5", "trailing input ',5'", 6),
        ("double(cycle:2)", "cycle needs each parameter >= 3", 7),
    ],
)
def test_rejected_spec_is_rejected_again(bad, message, pos):
    for _ in range(2):
        with pytest.raises(GraphSpecError) as exc:
            parse_graph_spec(bad)
        assert str(exc.value) == f"{message} (at position {pos})"
        assert exc.value.pos == pos


def test_file_atom_is_read_on_every_parse(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(graph_to_edge_list_text(parse_graph_spec("path:4")))
    top, nested = parse_graph_spec(f"file:{p}"), parse_graph_spec(f"double(file:{p})")
    p.write_text(graph_to_edge_list_text(parse_graph_spec("cycle:4")))
    assert parse_graph_spec(f"file:{p}") == parse_graph_spec("cycle:4") != top
    assert parse_graph_spec(f"double(file:{p})") == parse_graph_spec("double(cycle:4)") != nested


def test_operators_are_called_on_every_parse(monkeypatch):
    calls = []

    def counting(name):
        operator = families._OPERATORS[name]

        def wrapped(g):
            calls.append(name)
            return operator(g)
        monkeypatch.setitem(families._OPERATORS, name, wrapped)

    counting("double")
    counting("myc")
    for _ in range(3):
        calls.clear()
        g = parse_graph_spec("myc(double(myc(path:3)))")
        assert calls == ["myc", "double", "myc"]
        assert g == mycielskian(double_graph(mycielskian(parse_graph_spec("path:3"))))
