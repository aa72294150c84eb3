"""The pure kernel's set check and search: the per-source sweep of
``set_ok``, the per-child candidate filter, its cuts, pair tables, reverse
intervals and memo, the relabelled search copy, the twin-class prefix
rule, the root orbits of the role symmetries and pinned search trees.
Pure kernel only, so these never skip."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from gpvis import all_pairs_distances, build_graph, parse_graph_spec
from gpvis._kernel import pure
from gpvis.families import double_graph, mycielskian
from gpvis.graphs import role_symmetries
from gpvis.report import corpus_graphs

KINDS = (pure.MV, pure.OUTER, pure.TOTAL, pure.GP)

# The pair roles whose re-check is each visibility kind's own branch of
# the filter: ``s`` is a member of S, ``z`` a vertex outside S ∪ {w, x}.
BRANCHES = {
    pure.MV: {("w", "x"), ("s", "w"), ("s", "x"), ("s", "s")},
    pure.OUTER: {("s", "s"), ("s", "z"), ("w", "z"), ("x", "z")},
    pure.TOTAL: {("s", "z"), ("z", "z")},
}


def graphs_under_test():
    specs = [
        "double(cycle:5)",
        "double(cycle:6)",
        "double(path:5)",
        "double(kminus:5)",
        "double(star:4)",
        "myc(cycle:5)",
        "myc(cycle:6)",
        "myc(path:5)",
        "myc(kbip:3,3)",
    ]
    return [parse_graph_spec(s) for s in specs] + corpus_graphs(31, count=10, n_lo=5, n_hi=10)


def search_states(g, dist, kind, rng, count):
    """Random (S, w, cands) as the search meets them: S ∪ {w} and every
    S ∪ {x}, x in cands, have the property; cands in a random order."""
    for _ in range(count):
        smask = 0
        for v in rng.sample(range(g.n), rng.randrange(g.n)):
            if pure.set_ok(g.n, g.adj, dist, smask | 1 << v, kind):
                smask |= 1 << v
        fits = [
            v
            for v in range(g.n)
            if not smask >> v & 1 and pure.set_ok(g.n, g.adj, dist, smask | 1 << v, kind)
        ]
        if len(fits) < 2:
            continue
        w = rng.choice(fits)
        cands = [x for x in fits if x != w]
        rng.shuffle(cands)
        yield smask, w, cands


def mask_of(vertices):
    return sum(1 << v for v in vertices)


def failing_pairs(g, dist, mask, kind):
    """The pairs u < v that the visibility kind requires of ``mask`` and
    that ``pair_visible`` finds hidden under it, one pair at a time."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            inside = (mask >> u & 1) + (mask >> v & 1)
            required = {pure.MV: inside == 2, pure.OUTER: inside >= 1, pure.TOTAL: True}[kind]
            if required and not pure.pair_visible(g.n, g.adj, dist, u, v, mask):
                yield u, v


def failing_roles(g, dist, kind, smask, w, x):
    """The role pairs of the required pairs that fail under S ∪ {w, x}."""

    def role(v):
        return "w" if v == w else "x" if v == x else "s" if smask >> v & 1 else "z"

    full = smask | 1 << w | 1 << x
    return {tuple(sorted((role(u), role(v)))) for u, v in failing_pairs(g, dist, full, kind)}


def test_set_ok_equals_its_definition(small_corpus):
    """set_ok's one sweep per source equals pair_visible over every pair
    the kind requires: on random sets of the search graphs, and on every
    subset of the small oracle graphs."""
    rng = random.Random(99)
    verdicts = Counter()
    cases = [(g, [rng.getrandbits(g.n) & rng.getrandbits(g.n) for _ in range(40)])
             for g in graphs_under_test()]
    small = small_corpus + [
        parse_graph_spec(s) for s in ("path:4", "cycle:5", "kminus:4", "kbip:2,3", "star:5")
    ]
    cases += [(g, range(1 << g.n)) for g in small]
    for g, masks in cases:
        dist = all_pairs_distances(g).data
        for mask in masks:
            for kind in (pure.MV, pure.OUTER, pure.TOTAL):
                want = not any(failing_pairs(g, dist, mask, kind))
                assert pure.set_ok(g.n, g.adj, dist, mask, kind) == want, (g.adj, mask, kind)
                verdicts[kind, want] += 1
    assert min(verdicts[kind, ok] for kind in KINDS[:3] for ok in (True, False)) > 0, verdicts


def test_filter_equals_one_candidate_at_a_time():
    rng = random.Random(2011)
    sole_causes = {kind: Counter() for kind in KINDS}
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        tables = pure._Tables(g.n, g.adj, dist)
        for kind in KINDS:
            ctx = pure._Ctx(tables, kind)
            for smask, w, cands in search_states(g, dist, kind, rng, 12):
                new = smask | 1 << w
                want = [x for x in cands if pure.set_ok(g.n, g.adj, dist, new | 1 << x, kind)]
                got = ctx.extensions(smask, w, mask_of(cands))
                assert got == mask_of(want), (g.adj, kind, smask, w)
                for x in set(cands) - set(want):
                    if kind == pure.GP:
                        sole_causes[kind]["triple"] += 1
                        continue
                    roles = failing_roles(g, dist, kind, smask, w, x)
                    if len(roles) == 1:
                        sole_causes[kind][roles.pop()] += 1
    # Every re-check branch rejects some candidate on its own.
    for kind, branches in BRANCHES.items():
        assert branches <= set(sole_causes[kind]), (kind, sole_causes[kind])
    assert sole_causes[pure.GP]["triple"] > 0


def test_greedy_and_roots_equal_one_vertex_sweeps():
    """The greedy seed walks the filter's leftmost path; it equals the
    sweep that adds each vertex of the default order when the set stays
    good.  The roots are the vertices that are good sets on their own."""
    non_roots = Counter()
    for g in graphs_under_test() + [parse_graph_spec("path:6")]:
        dist = all_pairs_distances(g).data
        order = pure._default_order(g.n, g.adj)
        for kind in KINDS:
            sweep = 0
            for w in order:
                if pure.set_ok(g.n, g.adj, dist, sweep | 1 << w, kind):
                    sweep |= 1 << w
            assert pure.greedy_set(g.n, g.adj, dist, kind) == sweep, (g.adj, kind)
            roots = pure._Ctx(pure._Tables(g.n, g.adj, dist), kind).roots()
            assert roots == mask_of(w for w in order if pure.set_ok(g.n, g.adj, dist, 1 << w, kind))
            non_roots[kind] += g.n - roots.bit_count()
    assert non_roots[pure.TOTAL] > 0
    assert non_roots[pure.MV] == non_roots[pure.OUTER] == non_roots[pure.GP] == 0


def test_cut_equals_its_definition():
    """The cut of a visible pair is the set of interior vertices whose
    blocking hides the pair."""
    rng = random.Random(7)
    far = near = 0
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        balls = pure._all_balls(g.n, tuple(dist))
        btw = pure._Tables(g.n, g.adj, dist).btw
        for _ in range(60):
            u, v = rng.sample(range(g.n), 2)
            blocked = rng.getrandbits(g.n) & rng.getrandbits(g.n)
            if not pure.pair_visible(g.n, g.adj, dist, u, v, blocked):
                continue
            want = 0
            for x in range(g.n):
                if btw[u][v] >> x & 1 and not blocked >> x & 1:
                    if not pure.pair_visible(g.n, g.adj, dist, u, v, blocked | 1 << x):
                        want |= 1 << x
            assert pure._pv_cut(g.n, g.adj, dist, balls, u, v, blocked) == want, (g.adj, u, v)
            near += dist[u * g.n + v] <= 1
            far += dist[u * g.n + v] >= 3
    assert near > 0 and far > 0, (near, far)


def split_graph():
    """A disconnected graph: P3 beside P3, and an isolated vertex."""
    return build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])


def test_reverse_intervals_equal_their_definition():
    """inw[w][x] holds exactly the y with w strictly inside some
    x,y-geodesic, and through[w] lists the pairs u < v with w strictly
    inside some u,v-geodesic, on a disconnected graph too."""
    inside = 0
    for g in graphs_under_test() + [split_graph()]:
        n, dist = g.n, tuple(all_pairs_distances(g).data)
        tables = pure._Tables(n, g.adj, dist)
        btw, inw = tables.btw, tables.inw
        for w in range(n):
            for x in range(n):
                want = mask_of(y for y in range(n) if btw[x][y] >> w & 1)
                assert inw[w][x] == want, (g.adj, w, x)
                inside += want.bit_count()
            assert tables.through[w] == [
                (u, v, btw[u][v]) for u in range(n) for v in range(u + 1, n) if btw[u][v] >> w & 1
            ], (g.adj, w)
    assert inside > 0


def test_tables_equal_their_definitions():
    """btw and pairbad, built from ball intersections, equal their
    definitions read off the distances one vertex triple at a time, on a
    disconnected graph too; inw is checked against btw above."""
    for g in graphs_under_test() + [split_graph()]:
        n, dist = g.n, tuple(all_pairs_distances(g).data)
        tables = pure._Tables(n, g.adj, dist)
        btw, bad = tables.btw, tables.pairbad
        for u in range(n):
            for v in range(n):
                duv = dist[u * n + v]
                want_btw = want_bad = 0
                for x in range(n):
                    if u == v or x in (u, v):
                        continue
                    dux, dxv = dist[u * n + x], dist[x * n + v]
                    if dux + dxv == duv:
                        want_btw |= 1 << x
                    if dux + dxv == duv or duv + dxv == dux or dux + duv == dxv:
                        want_bad |= 1 << x
                assert (btw[u][v], bad[u][v]) == (want_btw, want_bad), (g.adj, u, v)


def test_role_symmetries_keep_every_value():
    """Dropping each done root's orbit keeps the optimum: with the role
    symmetries, every kind's value on the families, the corpus graphs and
    their double graphs and Mycielskians is the one found without them,
    and the witness has the property."""
    families = [parse_graph_spec(f"{op}({fam}:{n})") for op in ("double", "myc")
                for fam in ("path", "cycle") for n in range(3, 9)]
    corpus = [h for g in corpus_graphs(5, count=8, n_lo=4, n_hi=7)
              for h in (g, double_graph(g), mycielskian(g))]
    symmetric = fewer = 0
    for g in families + corpus:
        dist = all_pairs_distances(g).data
        symmetries = role_symmetries(g)
        symmetric += bool(symmetries)
        for kind in KINDS:
            plain = pure.solve_max(g.n, g.adj, dist, kind)
            size, mask, nodes, status = pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, symmetries)
            assert (size, status) == (plain[0], plain[3]), (g.adj, kind)
            assert mask.bit_count() == size and pure.set_ok(g.n, g.adj, dist, mask, kind)
            fewer += nodes < plain[2]
    assert symmetric >= len(families) and fewer > 0, (symmetric, fewer)


# spec, kind: the nodes of solve_max without symmetries, and solve_max
# (size, mask, nodes, status) with the role symmetries.  These are the
# benchmark's instances at their identity labelling.
PINNED_SYMMETRIC = [
    ("double(cycle:8)", pure.TOTAL, 80, (8, 255, 48, 0)),
    ("double(cycle:8)", pure.OUTER, 93, (8, 255, 56, 0)),
    ("myc(cycle:12)", pure.MV, 2074, (15, 7828821, 1355, 0)),
    ("double(cycle:10)", pure.MV, 511, (10, 1023, 290, 0)),
]


@pytest.mark.parametrize("spec,kind,plain_nodes,solved", PINNED_SYMMETRIC)
def test_symmetric_search_trees_are_pinned(spec, kind, plain_nodes, solved):
    g = parse_graph_spec(spec)
    dist = all_pairs_distances(g).data
    assert pure.solve_max(g.n, g.adj, dist, kind)[2] == plain_nodes
    assert pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, role_symmetries(g)) == solved


def relabelled_graphs():
    """Graphs whose default search order is not the identity: myc(cycle:7),
    star:6 with its centre last, and double(path:5) with its vertices and
    roles permuted the way the hard benchmark builds its instances."""
    star = build_graph(6, [(u, 5) for u in range(5)])
    base = parse_graph_spec("double(path:5)")
    perm = list(range(base.n))
    random.Random(5).shuffle(perm)
    roles = [None] * base.n
    for v, p in enumerate(perm):
        roles[p] = base.roles[v]
    shuffled = build_graph(base.n, [(perm[u], perm[v]) for u, v in base.edges()], roles)
    return [parse_graph_spec("myc(cycle:7)"), star, shuffled]


def test_results_come_back_in_the_callers_labels():
    """The searches run on a copy relabelled into search order and map
    their masks back: every set they return passes set_ok in the caller's
    labels, and equals the result on an explicitly relabelled copy (whose
    search order is the identity), mapped back."""
    for g in relabelled_graphs():
        dist = all_pairs_distances(g).data
        order = pure._default_order(g.n, g.adj)
        assert order != list(range(g.n))
        label = {v: i for i, v in enumerate(order)}
        copy = build_graph(g.n, [(label[u], label[v]) for u, v in g.edges()])
        cdist = all_pairs_distances(copy).data
        assert pure._default_order(copy.n, copy.adj) == list(range(g.n))

        def back(mask):
            return mask_of(order[i] for i in range(g.n) if mask >> i & 1)

        for kind in KINDS:
            size, mask, nodes, status = pure.solve_max(g.n, g.adj, dist, kind)
            assert mask.bit_count() == size and pure.set_ok(g.n, g.adj, dist, mask, kind)
            size_c, mask_c, nodes_c, status_c = pure.solve_max(copy.n, copy.adj, cdist, kind)
            assert (size, mask, nodes, status) == (size_c, back(mask_c), nodes_c, status_c)
            greedy = pure.greedy_set(g.n, g.adj, dist, kind)
            assert pure.set_ok(g.n, g.adj, dist, greedy, kind)
            assert greedy == back(pure.greedy_set(copy.n, copy.adj, cdist, kind))
            sets = pure.enumerate_exact(g.n, g.adj, dist, kind, size)
            assert mask in sets and all(pure.set_ok(g.n, g.adj, dist, m, kind) for m in sets)
            assert sets == [back(m) for m in pure.enumerate_exact(copy.n, copy.adj, cdist, kind, size)]


def test_warm_memo_matches_a_fresh_context():
    """One context answers many unrelated search states with its memo
    filling up; each answer equals a fresh context's and set_ok's.  Each
    state also comes with one member of S dropped (still a search state,
    as the properties are hereditary): same w and candidates, another
    blocked set."""
    rng = random.Random(1234)
    filled = 0
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        tables = pure._Tables(g.n, g.adj, dist)
        for kind in (pure.MV, pure.OUTER, pure.TOTAL):
            warm = pure._Ctx(tables, kind)
            states = []
            for smask, w, cands in search_states(g, dist, kind, rng, 30):
                states.append((smask, w, cands))
                if smask:
                    drop = rng.choice([s for s in range(g.n) if smask >> s & 1])
                    states.append((smask & ~(1 << drop), w, cands))
            for smask, w, cands in states + rng.sample(states, len(states)):
                new = smask | 1 << w
                cmask = mask_of(cands)
                got = warm.extensions(smask, w, cmask)
                assert got == pure._Ctx(tables, kind).extensions(smask, w, cmask)
                assert got == mask_of(
                    x for x in cands if pure.set_ok(g.n, g.adj, dist, new | 1 << x, kind)
                ), (g.adj, kind, smask, w)
            filled += len(warm.seen) + len(warm.cuts)
    assert filled > 0


def digest(masks):
    return hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec",
    ["double(double(path:3))", "kbip:3,4", "star:6", "double(cycle:6)", "myc(kbip:3,3)"],
)
def test_twin_rule_keeps_the_optimum(spec):
    """solve_max skips sets that a swap of twins maps onto one it keeps;
    enumerate_exact walks the full tree and finds no larger set."""
    g = parse_graph_spec(spec)
    dist = all_pairs_distances(g).data
    for kind in KINDS:
        size, mask, _, status = pure.solve_max(g.n, g.adj, dist, kind)
        assert status == 0 and mask.bit_count() == size
        assert pure.set_ok(g.n, g.adj, dist, mask, kind)
        assert pure.enumerate_exact(g.n, g.adj, dist, kind, size + 1) == [], (spec, kind)


# spec, kind: solve_max (size, mask, nodes, status), the node count of a
# search that stops at the optimum as its target, and the number and
# digest (in DFS order) of the sets one smaller than the optimum.  The
# double graphs and myc(kbip:3,3) have twin classes, which solve_max
# prunes and enumerate_exact does not.
PINNED = [
    ("double(cycle:7)", pure.MV, (7, 127, 113, 0), 0, 938, "6a414acd412c54bd"),
    ("myc(cycle:7)", pure.MV, (9, 15253, 218, 0), 154, 168, "b41f4b079bd01713"),
    ("myc(kbip:3,3)", pure.OUTER, (8, 1755, 20, 0), 11, 342, "10726e1ec2db19dd"),
    ("myc(cycle:7)", pure.OUTER, (7, 16256, 54, 0), 54, 7, "6b82d46ec24d2476"),
    ("myc(kbip:3,3)", pure.TOTAL, (8, 1755, 16, 0), 0, 324, "98dc976c78f995a2"),
    ("double(balloon:1)", pure.TOTAL, (7, 2111, 19, 0), 0, 144, "1c73e91515a8d8da"),
    ("myc(cycle:7)", pure.GP, (7, 16256, 112, 0), 112, 28, "0a224a21c286f145"),
    ("double(kminus:6)", pure.GP, (5, 61, 16, 0), 0, 145, "d14595ce6921a58f"),
]


@pytest.mark.parametrize("spec,kind,solved,target_nodes,count,sets", PINNED)
def test_search_trees_are_pinned(spec, kind, solved, target_nodes, count, sets):
    g = parse_graph_spec(spec)
    dist = all_pairs_distances(g).data
    assert pure.solve_max(g.n, g.adj, dist, kind) == solved
    size = solved[0]
    assert pure.solve_max(g.n, g.adj, dist, kind, size)[2:] == (target_nodes, 1)
    masks = pure.enumerate_exact(g.n, g.adj, dist, kind, size - 1)
    assert (len(masks), digest(masks)) == (count, sets)
