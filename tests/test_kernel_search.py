"""The pure kernel's set check and search: the per-source sweep of
``set_ok`` and ``pair_visible``, the per-child candidate filter, its
cuts, pair tables, reverse intervals and memo, the relabelled search
copy, the twin-class prefix rule, the root and stabilizer orbits of the
role symmetries and pinned search trees.  Pure kernel only, so these
never skip, but for ``test_compiled_role_symmetries_keep_every_value``
and the compiled halves of ``test_pair_visible_equals_its_definition``
and ``test_results_come_back_in_the_callers_labels``, which skip without
a C compiler."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from gpvis import PropertyKind, all_pairs_distances, build_graph, parse_graph_spec
from gpvis._kernel import pure
from gpvis.families import double_graph, mycielskian
from gpvis.graphs import role_symmetries
from gpvis.report import corpus_graphs

from oracles import oracle_pair_visible, oracle_property_ok

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


def test_filter_equals_one_candidate_at_a_time(monkeypatch):
    """The filter keeps exactly the candidates that keep the property.
    Every re-check branch rejects some candidate on its own, MV's sweep
    from w is both skipped, when every candidate left that is not w's
    neighbour sees w at sight, and run to drop a candidate, and OUTER's
    sweep from a candidate both drops it and reaches every partner."""
    rng = random.Random(2011)
    sole_causes = {kind: Counter() for kind in KINDS}
    sweeps = []
    unreached = pure._unreached

    def record(adj, ball, front, want, free):
        missed = unreached(adj, ball, front, want, free)
        sweeps.append((front, missed))
        return missed

    monkeypatch.setattr(pure, "_unreached", record)
    w_sweep = Counter()
    outer_sweep = Counter()
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        tables = pure._Tables(g.n, dist)
        for kind in KINDS:
            for smask, w, cands in search_states(g, dist, kind, rng, 12):
                new = smask | 1 << w
                want = [x for x in cands if pure.set_ok(g.n, g.adj, dist, new | 1 << x, kind)]
                sweeps.clear()
                got = tables.extensions(kind, smask, w, mask_of(cands))
                assert got == mask_of(want), (g.adj, kind, smask, w)
                if kind == pure.MV:
                    from_w = [missed for front, missed in sweeps if front == 1 << w]
                    if from_w:
                        w_sweep["dropped"] += from_w[0] != 0
                    elif any(dist[w * g.n + x] >= 2 for x in pure._bits(got)):
                        w_sweep["skipped"] += 1
                elif kind == pure.OUTER:
                    # every OUTER sweep starts from a candidate
                    for _, missed in sweeps:
                        outer_sweep["dropped" if missed else "reached"] += 1
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
    assert w_sweep["skipped"] > 0 and w_sweep["dropped"] > 0, w_sweep
    assert outer_sweep["dropped"] > 0 and outer_sweep["reached"] > 0, outer_sweep


def test_filter_stops_only_below_its_threshold(monkeypatch):
    """On the states that the search reaches (twin-rich double graphs,
    Mycielskians with their role symmetries, the corpus), the filter given
    a threshold ``need`` returns its exact mask whenever that has at least
    ``need`` bits, and a mask of fewer than ``need`` bits otherwise.  Some
    MV, OUTER and TOTAL calls stop early (GP's filter never does)."""
    states = []
    extensions = pure._Tables.extensions

    def record(tables, kind, smask, w, cmask, need=0):
        states.append((tables, kind, smask, w, cmask))
        return extensions(tables, kind, smask, w, cmask, need)

    monkeypatch.setattr(pure._Tables, "extensions", record)
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        for kind in KINDS:
            pure.solve_max(g.n, g.adj, dist, kind, 0, 0.0, role_symmetries(g))
    monkeypatch.undo()
    early = Counter()
    for tables, kind, smask, w, cmask in states:
        exact = tables.extensions(kind, smask, w, cmask)
        for need in range(cmask.bit_count() + 2):
            got = tables.extensions(kind, smask, w, cmask, need)
            if exact.bit_count() >= need:
                assert got == exact, (tables.adj, kind, smask, w, cmask, need)
            else:
                assert got.bit_count() < need, (tables.adj, kind, smask, w, cmask, need)
                early[kind] += got != exact
    assert min(early[kind] for kind in (pure.MV, pure.OUTER, pure.TOTAL)) > 0, early


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
            roots = pure._Tables(g.n, dist).roots(kind)
            assert roots == mask_of(w for w in order if pure.set_ok(g.n, g.adj, dist, 1 << w, kind))
            non_roots[kind] += g.n - roots.bit_count()
    assert non_roots[pure.TOTAL] > 0
    assert non_roots[pure.MV] == non_roots[pure.OUTER] == non_roots[pure.GP] == 0


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_pair_visible_equals_its_definition(request, backend):
    """On both kernels, pair_visible answers as the oracle that lists
    every geodesic does, for every ordered pair u != v under random
    blocked sets, some of which hold u or v (the ends are exempt).  On a
    disconnected graph, a vertex with itself and a pair split across
    components read True, blocked or not."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    rng = random.Random(19)
    verdicts = Counter()
    for g in graphs_under_test():
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                for _ in range(3):
                    blocked = rng.getrandbits(g.n) & rng.getrandbits(g.n)
                    got = kernel.pair_visible(g.n, g.adj, d.data, u, v, blocked)
                    want = oracle_pair_visible(g, d, u, v, pure._bits(blocked))
                    assert got == want, (g.adj, u, v, blocked)
                    verdicts[got, (blocked >> u | blocked >> v) & 1] += 1
    assert len(verdicts) == 4 and min(verdicts.values()) > 0, verdicts
    g = split_graph()
    dist = all_pairs_distances(g).data
    for blocked in (0, (1 << g.n) - 1):
        for u in range(g.n):
            assert kernel.pair_visible(g.n, g.adj, dist, u, u, blocked)
        for u, v in ((0, 3), (2, 5), (1, 6), (6, 4)):
            assert kernel.pair_visible(g.n, g.adj, dist, u, v, blocked), (u, v, blocked)


def test_cut_equals_its_definition():
    """The cut of a visible pair is the set of interior vertices whose
    blocking hides the pair."""
    rng = random.Random(7)
    far = near = two = ends = 0
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        balls = pure._checked(g.n, g.adj, dist).balls
        btw = pure._Tables(g.n, dist).btw
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
            two += dist[u * g.n + v] == 2
            far += dist[u * g.n + v] >= 3
            ends += (blocked >> u | blocked >> v) & 1
    assert min(near, two, far, ends) > 0, (near, two, far, ends)


def split_graph():
    """A disconnected graph: P3 beside P3, and an isolated vertex."""
    return build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])


def test_reverse_intervals_equal_their_definition():
    """inw[w][x] holds exactly the y with w strictly inside some
    x,y-geodesic, and through[w] lists the pairs u < v with w strictly
    inside some u,v-geodesic whose u is first in its twin class and whose
    v is first in its class or second in u's, on a disconnected graph and
    on twin classes of three and more too."""
    inside = dropped = 0
    twin_rich = [parse_graph_spec(s) for s in ("double(double(path:3))", "kbip:3,4")]
    for g in graphs_under_test() + twin_rich + [split_graph()]:
        n, dist = g.n, tuple(all_pairs_distances(g).data)
        tables = pure._Tables(n, dist)
        btw, inw, pred = tables.btw, tables.inw, tables.twin_pred
        for w in range(n):
            for x in range(n):
                want = mask_of(y for y in range(n) if btw[x][y] >> w & 1)
                assert inw[w][x] == want, (g.adj, w, x)
                inside += want.bit_count()
            pairs = [(u, v, btw[u][v]) for u in range(n) for v in range(u + 1, n) if btw[u][v] >> w & 1]
            assert tables.through[w] == [
                (u, v, m) for u, v, m in pairs if pred[u] < 0 and pred[v] in (-1, u)
            ], (g.adj, w)
            dropped += len(pairs) - len(tables.through[w])
    assert inside > 0 and dropped > 0


def test_tables_equal_their_definitions():
    """btw and pairbad, built from ball intersections, equal their
    definitions read off the distances one vertex triple at a time, on a
    disconnected graph too; inw is checked against btw above."""
    for g in graphs_under_test() + [split_graph()]:
        n, dist = g.n, tuple(all_pairs_distances(g).data)
        tables = pure._Tables(n, dist)
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


def check_role_symmetries_keep_every_value(kernel):
    """Dropping each done root's orbit, and each done depth-1 child's
    orbit under its root's stabilizer, keeps the optimum: with the role
    symmetries, every kind's value on the families (cycles up to n = 11),
    the corpus graphs and their double graphs and Mycielskians is the one
    found without them, and the witness has the property."""
    families = [parse_graph_spec(f"{op}({fam}:{n})") for op in ("double", "myc")
                for fam, top in (("path", 8), ("cycle", 11)) for n in range(3, top + 1)]
    corpus = [h for g in corpus_graphs(5, count=8, n_lo=4, n_hi=7)
              for h in (g, double_graph(g), mycielskian(g))]
    symmetric = fewer = 0
    for g in families + corpus:
        dist = all_pairs_distances(g).data
        symmetries = role_symmetries(g)
        symmetric += bool(symmetries)
        for kind in KINDS:
            plain = kernel.solve_max(g.n, g.adj, dist, kind)
            size, mask, nodes, status = kernel.solve_max(g.n, g.adj, dist, kind, 0, 0.0, symmetries)
            assert (size, status) == (plain[0], plain[3]), (kernel.NAME, g.adj, kind)
            assert mask.bit_count() == size and pure.set_ok(g.n, g.adj, dist, mask, kind)
            fewer += nodes < plain[2]
    assert symmetric >= len(families) and fewer > 0, (kernel.NAME, symmetric, fewer)


def test_role_symmetries_keep_every_value():
    check_role_symmetries_keep_every_value(pure)


def test_compiled_role_symmetries_keep_every_value(fast_kernel):
    check_role_symmetries_keep_every_value(fast_kernel)


def group_closure(n, gens):
    """Every element of the group that the permutations generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        perm = frontier.pop()
        for g in gens:
            moved = tuple(g[x] for x in perm)
            if moved not in group:
                group.add(moved)
                frontier.append(moved)
    return group


def test_stabilizer_orbits_equal_a_closure():
    """The Schreier-generator orbits of each vertex's stabilizer are the
    orbits of the elements that fix it, found by closing the generators
    into the whole group: on double graphs and Mycielskians of cycles
    (the apex is fixed by every element) and paths, and on copies whose
    vertices and roles are permuted together."""
    specs = [f"{op}({fam}:{n})" for op in ("double", "myc") for fam in ("cycle", "path") for n in (4, 5, 6, 7)]
    rng = random.Random(14)
    checked = 0
    for spec in specs:
        base = parse_graph_spec(spec)
        perm = list(range(base.n))
        rng.shuffle(perm)
        roles = [None] * base.n
        for v, p in enumerate(perm):
            roles[p] = base.roles[v]
        shuffled = build_graph(base.n, [(perm[u], perm[v]) for u, v in base.edges()], roles)
        for g in (base, shuffled):
            gens = role_symmetries(g)
            assert gens, spec
            group = group_closure(g.n, gens)
            for w in range(g.n):
                fixing = [p for p in group if p[w] == w]
                want = [mask_of({p[v] for p in fixing}) for v in range(g.n)]
                assert pure._stabilizer_orbits(g.n, gens, w) == want, (spec, w)
                checked += len(fixing) > 1
    assert checked > 0
    assert pure._stabilizer_orbits(3, [], 1) == [1, 2, 4]


# spec, kind: the nodes of solve_max without symmetries, and solve_max
# (size, mask, nodes, status) with the role symmetries.  These are the
# benchmark's instances at their identity labelling.
PINNED_SYMMETRIC = [
    ("double(cycle:8)", pure.TOTAL, 34, (8, 255, 17, 0)),
    ("double(cycle:8)", pure.OUTER, 38, (8, 255, 18, 0)),
    ("myc(cycle:12)", pure.MV, 1065, (15, 7828821, 487, 0)),
    ("double(cycle:10)", pure.MV, 186, (10, 1023, 66, 0)),
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


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_results_come_back_in_the_callers_labels(request, backend):
    """The searches of both kernels run on a copy relabelled into search
    order and map their masks back: every set they return passes set_ok
    in the caller's labels, and equals the result on an explicitly
    relabelled copy (whose search order is the identity), mapped back.
    The shuffled D(P5) is solved with its role symmetries too, read into
    the copy's labels, which are not the identity on it.  enumerate_exact
    is the pure kernel's alone."""
    kernel = pure if backend == "pure" else request.getfixturevalue("fast_kernel")
    for g in relabelled_graphs():
        dist = all_pairs_distances(g).data
        order = pure._default_order(g.n, g.adj)
        assert order != list(range(g.n))
        label = {v: i for i, v in enumerate(order)}
        copy = build_graph(g.n, [(label[u], label[v]) for u, v in g.edges()])
        cdist = all_pairs_distances(copy).data
        assert pure._default_order(copy.n, copy.adj) == list(range(g.n))
        syms = role_symmetries(g)
        csyms = [tuple(label[perm[v]] for v in order) for perm in syms]

        def back(mask):
            return mask_of(order[i] for i in range(g.n) if mask >> i & 1)

        for kind in KINDS:
            for symmetries, csymmetries in (((), ()), (syms, csyms)):
                size, mask, nodes, status = kernel.solve_max(g.n, g.adj, dist, kind, 0, 0.0, symmetries)
                assert mask.bit_count() == size and pure.set_ok(g.n, g.adj, dist, mask, kind)
                size_c, mask_c, nodes_c, status_c = kernel.solve_max(
                    copy.n, copy.adj, cdist, kind, 0, 0.0, csymmetries
                )
                assert (size, mask, nodes, status) == (size_c, back(mask_c), nodes_c, status_c)
            greedy = kernel.greedy_set(g.n, g.adj, dist, kind)
            assert pure.set_ok(g.n, g.adj, dist, greedy, kind)
            assert greedy == back(kernel.greedy_set(copy.n, copy.adj, cdist, kind))
            if backend == "pure":
                sets = pure.enumerate_exact(g.n, g.adj, dist, kind, size)
                assert mask in sets and all(pure.set_ok(g.n, g.adj, dist, m, kind) for m in sets)
                assert sets == [back(m) for m in pure.enumerate_exact(copy.n, copy.adj, cdist, kind, size)]
    assert syms  # the shuffled D(P5), last, has role symmetries


def test_warm_memo_matches_a_fresh_context():
    """One search copy answers many unrelated search states of MV, OUTER
    and TOTAL with its one memo filling up; each answer equals a fresh
    copy's and set_ok's.  Each state also comes with one member of S
    dropped (still a search state, as the properties are hereditary): same
    w and candidates, another blocked set."""
    rng = random.Random(1234)
    filled = 0
    for g in graphs_under_test():
        dist = all_pairs_distances(g).data
        warm = pure._Tables(g.n, dist)
        for kind in (pure.MV, pure.OUTER, pure.TOTAL):
            states = []
            for smask, w, cands in search_states(g, dist, kind, rng, 30):
                states.append((smask, w, cands))
                if smask:
                    drop = rng.choice([s for s in range(g.n) if smask >> s & 1])
                    states.append((smask & ~(1 << drop), w, cands))
            for smask, w, cands in states + rng.sample(states, len(states)):
                new = smask | 1 << w
                cmask = mask_of(cands)
                got = warm.extensions(kind, smask, w, cmask)
                fresh = pure._Tables(g.n, dist)
                assert got == fresh.extensions(kind, smask, w, cmask)
                assert got == mask_of(
                    x for x in cands if pure.set_ok(g.n, g.adj, dist, new | 1 << x, kind)
                ), (g.adj, kind, smask, w)
        filled += len(warm.cuts)
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


def test_enumeration_on_twin_classes_equals_the_oracle():
    """On graphs whose twin classes have three or more vertices,
    enumerate_exact lists exactly the sets that the oracle finds good, one
    above the optimum, at it and one below it.  It walks the full tree, so
    it lists sets that hold a later twin without the first vertex of its
    class, which the search's prefix rule skips and the filter must still
    judge."""
    broken = 0
    for spec in ("double(star:4)", "double(double(path:3))", "kbip:3,4"):
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        pred = pure._Tables(g.n, d.data).twin_pred
        for kind in PropertyKind:
            size = pure.solve_max(g.n, g.adj, d.data, kind.code)[0]
            for k in (size + 1, size, size - 1):
                sets = itertools.combinations(range(g.n), k)
                want = [mask_of(c) for c in sets if oracle_property_ok(g, d, c, kind)]
                got = pure.enumerate_exact(g.n, g.adj, d.data, kind.code, k)
                assert sorted(got) == sorted(want), (spec, kind, k)
                for m in got:
                    broken += any(m >> v & 1 and not m >> p & 1 for v, p in enumerate(pred) if p >= 0)
    assert broken > 0


# spec, kind: solve_max (size, mask, nodes, status), the node count of a
# search that stops at the optimum as its target, and the number and
# digest (in DFS order) of the sets one smaller than the optimum.  The
# double graphs and myc(kbip:3,3) have twin classes, which solve_max
# prunes and enumerate_exact does not.
PINNED = [
    ("double(cycle:7)", pure.MV, (7, 127, 50, 0), 0, 938, "6a414acd412c54bd"),
    ("myc(cycle:7)", pure.MV, (9, 15253, 107, 0), 69, 168, "b41f4b079bd01713"),
    ("myc(kbip:3,3)", pure.OUTER, (8, 1755, 17, 0), 11, 342, "10726e1ec2db19dd"),
    ("myc(cycle:7)", pure.OUTER, (7, 16256, 39, 0), 39, 7, "6b82d46ec24d2476"),
    ("myc(kbip:3,3)", pure.TOTAL, (8, 1755, 13, 0), 0, 324, "98dc976c78f995a2"),
    ("double(balloon:1)", pure.TOTAL, (7, 2111, 8, 0), 0, 144, "1c73e91515a8d8da"),
    ("myc(cycle:7)", pure.GP, (7, 16256, 49, 0), 49, 28, "0a224a21c286f145"),
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
