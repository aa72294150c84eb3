"""Property verifiers against the geodesic-enumeration oracle, plus the
hereditary/chain structure, the GP characterization, and twin operations."""

from __future__ import annotations

import itertools
import random

import pytest

from gpvis import (
    PropertyKind,
    VertexSet,
    all_pairs_distances,
    build_graph,
    corpus_graphs,
    double_graph,
    exists_avoiding_geodesic,
    false_twin_swap,
    find_false_twins,
    find_true_twins,
    is_general_position_set,
    is_general_position_set_via_characterization,
    is_mutual_visibility_set,
    is_outer_mutual_visibility_set,
    is_property_set,
    is_total_mutual_visibility_set,
    parse_graph_spec,
    true_twin_extend,
)
from gpvis import _kernel, graphs, visibility
from gpvis.report import _oracle_family_graphs

from oracles import gp_characterization, oracle_property_ok, random_subset

ALL_KINDS = list(PropertyKind)


def test_kind_tokens():
    assert PropertyKind.from_token("mv") is PropertyKind.MV
    assert PropertyKind.from_token("outer") is PropertyKind.OUTER
    assert PropertyKind.from_token("total") is PropertyKind.TOTAL
    assert PropertyKind.from_token("gp") is PropertyKind.GP
    with pytest.raises(ValueError):
        PropertyKind.from_token("both")


def test_verifiers_match_oracle_on_corpus(small_corpus, small_corpus_dists):
    rng = random.Random(2024)
    for g, d in zip(small_corpus, small_corpus_dists):
        for _ in range(25):
            s = VertexSet.of(g.n, random_subset(rng, g.n))
            for kind in ALL_KINDS:
                got = is_property_set(g, d, s, kind)
                want = oracle_property_ok(g, d, s.members(), kind)
                assert got == want, (g.n, sorted(g.edges()), s.members(), kind)


def test_verifiers_match_oracle_exhaustively_small():
    for spec in ["path:4", "cycle:5", "kminus:4", "kbip:2,3", "star:5"]:
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        for mask in range(1 << g.n):
            s = VertexSet(g.n, mask)
            for kind in ALL_KINDS:
                got = is_property_set(g, d, s, kind)
                want = oracle_property_ok(g, d, s.members(), kind)
                assert got == want, (spec, mask, kind)


def test_named_wrappers_agree():
    g = parse_graph_spec("cycle:6")
    d = all_pairs_distances(g)
    s = VertexSet.of(6, [0, 2, 4])
    assert is_mutual_visibility_set(g, d, s) == is_property_set(
        g, d, s, PropertyKind.MV
    )
    assert is_outer_mutual_visibility_set(g, d, s) == is_property_set(
        g, d, s, PropertyKind.OUTER
    )
    assert is_total_mutual_visibility_set(g, d, s) == is_property_set(
        g, d, s, PropertyKind.TOTAL
    )
    assert is_general_position_set(g, d, s) == is_property_set(
        g, d, s, PropertyKind.GP
    )


def test_trivial_sets():
    for spec in ["path:5", "cycle:6", "kbip:2,3"]:
        g = parse_graph_spec(spec)
        d = all_pairs_distances(g)
        empty = VertexSet.of(g.n, [])
        # The empty set has every property; for total this says every pair
        # of the graph is visible with nothing blocked.
        for kind in ALL_KINDS:
            assert is_property_set(g, d, empty, kind)
        for v in range(g.n):
            single = VertexSet.of(g.n, [v])
            assert is_mutual_visibility_set(g, d, single)
            assert is_outer_mutual_visibility_set(g, d, single)
            assert is_general_position_set(g, d, single)


def test_concrete_path_sets():
    g = parse_graph_spec("path:4")
    d = all_pairs_distances(g)
    assert is_mutual_visibility_set(g, d, VertexSet.of(4, [0, 3]))
    # v2 sits inside the only v1..v4 geodesic.
    assert not is_mutual_visibility_set(g, d, VertexSet.of(4, [0, 1, 3]))
    # Any two path vertices are in general position, three never are.
    assert is_general_position_set(g, d, VertexSet.of(4, [0, 3]))
    assert not is_general_position_set(g, d, VertexSet.of(4, [0, 1, 3]))


def test_endpoints_are_not_blockers():
    # In C_4, opposite vertices see each other even when both are in S.
    g = parse_graph_spec("cycle:4")
    d = all_pairs_distances(g)
    assert is_mutual_visibility_set(g, d, VertexSet.of(4, [0, 2]))
    assert is_total_mutual_visibility_set(g, d, VertexSet.of(4, [0]))


def test_property_chain_total_outer_mv(small_corpus, small_corpus_dists):
    rng = random.Random(7)
    seen_total = 0
    for g, d in zip(small_corpus, small_corpus_dists):
        for _ in range(40):
            s = VertexSet.of(g.n, random_subset(rng, g.n))
            if is_total_mutual_visibility_set(g, d, s):
                seen_total += 1
                assert is_outer_mutual_visibility_set(g, d, s)
            if is_outer_mutual_visibility_set(g, d, s):
                assert is_mutual_visibility_set(g, d, s)
    assert seen_total > 0


def test_hereditary_under_vertex_removal(small_corpus, small_corpus_dists):
    rng = random.Random(13)
    for g, d in zip(small_corpus, small_corpus_dists):
        for _ in range(30):
            s = VertexSet.of(g.n, random_subset(rng, g.n))
            for kind in ALL_KINDS:
                if len(s) == 0 or not is_property_set(g, d, s, kind):
                    continue
                drop = rng.choice(s.members())
                assert is_property_set(g, d, s.without_vertex(drop), kind)


def test_gp_characterization_matches_triple_check(small_corpus, small_corpus_dists):
    for g, d in zip(small_corpus, small_corpus_dists):
        if g.n > 6:
            continue
        for mask in range(1 << g.n):
            s = VertexSet(g.n, mask)
            ok, witness = is_general_position_set_via_characterization(g, d, s)
            assert ok == is_general_position_set(g, d, s), (g.n, mask)
            if ok:
                assert witness is not None
                union = set()
                for block in witness.blocks:
                    union.update(block.members())
                assert union == set(s.members())
            else:
                assert witness is None


def test_gp_characterization_witness_structure():
    g = parse_graph_spec("double(path:3)")
    d = all_pairs_distances(g)
    s = VertexSet.of(6, [0, 2, 3, 5])
    ok, witness = is_general_position_set_via_characterization(g, d, s)
    assert ok
    # Blocks are cliques; block distances are symmetric and positive.
    for block in witness.blocks:
        for u, v in itertools.combinations(block.members(), 2):
            assert g.has_edge(u, v)
    p = len(witness.blocks)
    for i in range(p):
        assert witness.block_distances[i][i] == 0
        for j in range(i + 1, p):
            assert (
                witness.block_distances[i][j]
                == witness.block_distances[j][i]
                > 0
            )


def oracle_sweep_graphs():
    """The graphs of order at most 7 in corpus seeds 0-7, then the oracle
    check's named families: the pool that ``gp_oracle_equivalence`` sweeps."""
    pool = [g for seed in range(8) for g in corpus_graphs(seed) if g.n <= 7]
    return pool + _oracle_family_graphs()


def test_gp_characterization_matches_frozen_copy():
    # same verdict and an equal witness on every subset, blocks in the same order
    subsets = 0
    for g in oracle_sweep_graphs():
        d = all_pairs_distances(g)
        for mask in range(1 << g.n):
            s = VertexSet(g.n, mask)
            assert is_general_position_set_via_characterization(g, d, s) == gp_characterization(
                g, d, s
            ), (g.adj, mask)
            subsets += 1
    assert subsets > 20000


def test_gp_characterization_runs_without_the_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the characterization called into the kernel")

    backends = [_kernel.pure] + ([_kernel.fast] if _kernel.fast is not None else [])
    for backend in backends:
        for name in ("set_ok", "extend_ok", "pair_visible", "greedy_set", "solve_max"):
            monkeypatch.setattr(backend, name, refuse)
    for module in (_kernel, graphs, visibility):
        monkeypatch.setattr(module, "get_kernel", refuse)
    c4 = parse_graph_spec("cycle:4")
    with pytest.raises(AssertionError, match="kernel"):
        is_general_position_set(c4, all_pairs_distances(c4), VertexSet.of(4, [0, 1]))
    for g in oracle_sweep_graphs()[-12:]:
        d = all_pairs_distances(g)
        for mask in range(1 << g.n):
            s = VertexSet(g.n, mask)
            assert is_general_position_set_via_characterization(g, d, s) == gp_characterization(g, d, s)


def test_find_false_twins_in_double():
    g = parse_graph_spec("cycle:5")
    dg = double_graph(g)
    twins = set(find_false_twins(dg))
    # Every base/copy pair is a false-twin pair.
    for i in range(5):
        assert (i, i + 5) in twins


def test_find_true_twins():
    g = parse_graph_spec("complete:4")
    assert len(find_true_twins(g)) == 6
    h = parse_graph_spec("kminus:4")
    assert find_true_twins(h) == [(2, 3)]
    assert find_false_twins(h) == [(0, 1)]


def test_false_twin_swap_validation():
    g = parse_graph_spec("kminus:4")
    s = VertexSet.of(4, [0, 2])
    swapped = false_twin_swap(g, s, 0, 1)
    assert swapped.members() == (1, 2)
    with pytest.raises(ValueError):
        false_twin_swap(g, s, 2, 3)  # true twins, not false twins
    with pytest.raises(ValueError):
        false_twin_swap(g, s, 1, 0)  # u not in the set
    with pytest.raises(ValueError):
        false_twin_swap(g, VertexSet.of(4, [0, 1]), 0, 1)  # v already in


def test_false_twin_swap_preserves_mv_and_gp(small_corpus, small_corpus_dists):
    rng = random.Random(23)
    checked = 0
    for g, d in zip(small_corpus, small_corpus_dists):
        dg = double_graph(g)
        dd = all_pairs_distances(dg)
        for _ in range(20):
            members = random_subset(rng, dg.n)
            u = rng.randrange(g.n)
            v = u + g.n
            members = sorted((set(members) | {u}) - {v})
            s = VertexSet.of(dg.n, members)
            t = false_twin_swap(dg, s, u, v)
            for kind in (PropertyKind.MV, PropertyKind.GP):
                assert is_property_set(dg, dd, s, kind) == is_property_set(
                    dg, dd, t, kind
                )
            checked += 1
    assert checked > 0


def test_true_twin_extend_preserves_gp():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(3, 6)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.6
        ]
        base = build_graph(n, edges)
        d0 = all_pairs_distances(base)
        if not d0.connected:
            continue
        u = rng.randrange(n)
        # Clone u's closed neighborhood as a fresh vertex v.
        v = n
        new_edges = list(base.edges()) + [(u, v)]
        new_edges += [(w, v) for w in base.neighbors(u)]
        g = build_graph(n + 1, new_edges)
        d = all_pairs_distances(g)
        members = sorted(set(random_subset(rng, n)) | {u})
        s = VertexSet.of(n + 1, members)
        if not is_general_position_set(g, d, s):
            continue
        t = true_twin_extend(g, s, u, v)
        assert is_general_position_set(g, d, t)


def test_true_twin_extend_does_not_preserve_mv():
    # K_4 minus the edge {v1,v2}: {v1,v2,v3} is a mutual-visibility set,
    # but adding v3's true twin v4 blocks every v1..v2 geodesic.
    g = parse_graph_spec("kminus:4")
    d = all_pairs_distances(g)
    s = VertexSet.of(4, [0, 1, 2])
    assert is_mutual_visibility_set(g, d, s)
    t = true_twin_extend(g, s, 2, 3)
    assert t.members() == (0, 1, 2, 3)
    assert not is_mutual_visibility_set(g, d, t)


def test_true_twin_extend_validation():
    g = parse_graph_spec("kminus:4")
    with pytest.raises(ValueError):
        true_twin_extend(g, VertexSet.of(4, [0, 2]), 0, 1)  # false twins
    with pytest.raises(ValueError):
        true_twin_extend(g, VertexSet.of(4, [0]), 2, 3)  # u not in set


def test_twin_operations_reject_bad_inputs():
    """A set of another order, or a vertex outside the graph, is an error
    and never indexes the adjacency rows."""
    with pytest.raises(ValueError, match="order"):
        true_twin_extend(parse_graph_spec("complete:3"), VertexSet.of(5, [0]), 0, 1)
    g = parse_graph_spec("kminus:4")
    with pytest.raises(ValueError, match="order"):
        false_twin_swap(g, VertexSet.of(5, [0]), 0, 1)
    s = VertexSet.of(4, [0, 2])
    for u, v in ((0, 4), (0, -3), (-4, 1)):
        with pytest.raises(ValueError, match="out of range"):
            false_twin_swap(g, s, u, v)
    for u, v in ((2, 4), (2, -1), (-2, 3)):
        with pytest.raises(ValueError, match="out of range"):
            true_twin_extend(g, s, u, v)


def test_gp_characterization_rejects_mismatched_set():
    g = parse_graph_spec("cycle:6")
    d = all_pairs_distances(g)
    with pytest.raises(ValueError, match="order"):
        is_general_position_set_via_characterization(g, d, VertexSet.of(4, [0, 3]))


def test_is_property_set_rejects_mismatched_set():
    g = parse_graph_spec("path:4")
    d = all_pairs_distances(g)
    with pytest.raises(ValueError):
        is_property_set(g, d, VertexSet.of(5, [0]), PropertyKind.MV)


def test_verifiers_reject_another_graphs_distances():
    # path:6 is cycle:6 minus an edge; its matrix gives cycle:6 the wrong
    # geodesics, so a verifier must refuse it rather than answer.
    g = parse_graph_spec("cycle:6")
    wrong = all_pairs_distances(parse_graph_spec("path:6"))
    s = VertexSet.of(6, [0, 2, 4])
    with pytest.raises(ValueError):
        is_property_set(g, wrong, s, PropertyKind.MV)
    with pytest.raises(ValueError):
        is_general_position_set_via_characterization(g, wrong, s)
    with pytest.raises(ValueError):
        exists_avoiding_geodesic(g, wrong, 0, 3, s)


def test_verifiers_accept_an_identical_graphs_distances():
    g = parse_graph_spec("cycle:6")
    same = all_pairs_distances(parse_graph_spec("cycle:6"))
    assert same is not all_pairs_distances(g)
    s = VertexSet.of(6, [0, 2, 4])
    assert is_property_set(g, same, s, PropertyKind.MV)
    assert is_general_position_set_via_characterization(g, same, s)[0]
    assert exists_avoiding_geodesic(g, same, 0, 3, s) == exists_avoiding_geodesic(
        g, all_pairs_distances(g), 0, 3, s
    )
