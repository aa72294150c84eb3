"""The verification suite report object, the seeded corpus, and the CLI."""

from __future__ import annotations

import io
import random
import re
from collections import namedtuple
from dataclasses import replace

import pytest

from gpvis import (
    DEFAULT_CORPUS_SEED,
    FormulaId,
    PropertyKind,
    build_graph,
    corpus_graphs,
    double_graph,
    enumerate_maximum_sets,
    max_property_set,
    parse_graph_spec,
    report,
    run_verification_suite,
    solver,
    witnesses,
)
from gpvis._kernel import pure
from gpvis.cli import main
from gpvis.graphs import all_pairs_distances
from gpvis.report import (
    CORPUS_SIZE,
    SCOPES,
    Expected,
    at_least,
    exactly,
    random_connected_graph,
)

MACHINE_RE = re.compile(
    r"^CHECK [a-zA-Z0-9_]+ expected=(\d+|>=\d+) "
    r"actual=(-|\d+) status=(pass|fail|timeout|error)$"
)


def test_expected_conditions():
    assert exactly(5).satisfied(5)
    assert not exactly(5).satisfied(4)
    assert at_least(3).satisfied(7)
    assert not at_least(3).satisfied(2)
    assert str(exactly(5)) == "5"
    assert str(at_least(12)) == ">=12"
    with pytest.raises(ValueError):
        Expected("<=", 3)


def test_corpus_is_deterministic_and_connected():
    a = corpus_graphs(DEFAULT_CORPUS_SEED)
    b = corpus_graphs(DEFAULT_CORPUS_SEED)
    assert len(a) == CORPUS_SIZE
    assert [g.adj for g in a] == [g.adj for g in b]
    for g in a:
        assert 4 <= g.n <= 8
        assert all_pairs_distances(g).connected
    c = corpus_graphs(DEFAULT_CORPUS_SEED + 1)
    assert [g.adj for g in a] != [g.adj for g in c]


def test_scopes_cover_expected_checks(full_report):
    assert set(SCOPES) == {"all", "double", "mycielskian", "bounds"}
    names = [c.name for c in full_report.checks]
    assert len(names) == len(set(names)), "duplicate check names"
    assert len(names) == 76
    # Spot membership across the three sections.
    for expected_name in (
        "mu_D_C7",
        "gp_D_P3",
        "mu_D_balloon2_target",
        "mu_M_P4",
        "mu_M_K33",
        "gp_double_sandwich",
        "gp_oracle_equivalence",
        "witness_gate_double",
        "witness_gate_myc",
    ):
        assert expected_name in names


def test_full_report_known_failures(full_report):
    # The only failing checks are the four recorded-vs-computed mismatches
    # for gp on the doubled near-complete graphs; everything else passes.
    failing = [c.name for c in full_report.checks if c.status == "fail"]
    assert failing == [
        "gp_D_Kminus5",
        "gp_D_Kminus6",
        "gp_D_Kminus7",
        "gp_D_Kminus8",
    ]
    for c in full_report.checks:
        if c.name.startswith("gp_D_Kminus"):
            n = int(c.name[-1])
            assert c.expected.lo == n
            assert c.actual == n - 1
    assert full_report.count("timeout") == 0
    assert full_report.count("error") == 0
    assert full_report.exit_code() == 1
    assert not full_report.all_pass()


def test_machine_lines_format(full_report):
    for line in full_report.machine_lines():
        assert MACHINE_RE.match(line), line


def test_table_and_csv(full_report):
    table = full_report.to_table()
    assert "76 checks:" in table
    assert "mu_D_C7" in table
    csv_text = full_report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,graph,kind,expected,actual,status,elapsed"
    assert len(lines) == 77


def test_scope_double_runs_subset():
    buf = io.StringIO()
    report = run_verification_suite("double", seed=DEFAULT_CORPUS_SEED, stream=buf)
    names = [c.name for c in report.checks]
    assert "mu_D_C7" in names
    assert "mu_M_P4" not in names
    assert "gp_double_sandwich" not in names
    # The stream sees one CHECK line per check, as they complete.
    streamed = [l for l in buf.getvalue().splitlines() if l.startswith("CHECK ")]
    assert streamed == report.machine_lines()


def test_max_n_skips_large_graphs():
    report = run_verification_suite("double", seed=DEFAULT_CORPUS_SEED, max_n=12)
    names = [c.name for c in report.checks]
    assert "mu_D_C7" not in names  # order 14 skipped
    assert "mu_D_C4" in names  # order 8 kept
    assert any("mu_D_C7" in s for s in report.skipped)


@pytest.mark.parametrize("max_n", [0, -1])
def test_max_n_below_one_rejected(max_n):
    # It would skip every value check, the known red included.
    with pytest.raises(ValueError):
        run_verification_suite("all", max_n=max_n)


def test_suite_deterministic():
    a = run_verification_suite("bounds", seed=DEFAULT_CORPUS_SEED)
    b = run_verification_suite("bounds", seed=DEFAULT_CORPUS_SEED)
    assert a.machine_lines() == b.machine_lines()


SEEDED_ROWS = {
    FormulaId.MU_DOUBLE_CYCLE, FormulaId.MU_DOUBLE_CYCLE_SMALL, FormulaId.MU_DOUBLE_PATH,
    FormulaId.MU_UNIVERSAL_DOUBLE, FormulaId.MU_MYC_PATH, FormulaId.MU_MYC_CYCLE,
    FormulaId.MU_UNIVERSAL_MYC,
}


def catalog_checks():
    """(row, family, params, graph) for every check of the catalog."""
    for row in FormulaId:
        for fam in row.families:
            for p in fam.params:
                g = parse_graph_spec(fam.spec.format(**p))
                yield row, fam, p, g


def test_seeded_catalog_rows_start_from_their_value():
    """Every family with a witness builds, with no solve, a set of exactly
    its row's value in its own graph, and the solve from it returns the
    value of the solve from the greedy seed."""
    seeded = set()
    for row, fam, p, g in catalog_checks():
        if fam.witness is None:
            continue
        seeded.add(row)
        seed = fam.witness(p)
        assert seed.n == g.n and len(seed) == row.at(p), fam.name.format(**p)
        plain = max_property_set(g, row.kind)
        res = max_property_set(g, row.kind, start=seed)
        assert res.exact and res.value == plain.value == row.at(p)
        assert res.nodes_explored <= plain.nodes_explored
    assert seeded == SEEDED_ROWS


Solve = namedtuple("Solve", "g kind start time_limit result")


def recording_solves(monkeypatch):
    """Record a Solve for each solve that the suite makes itself, not
    those inside enumeration."""
    calls = []

    def solve(g, kind, **kw):
        res = max_property_set(g, kind, **kw)
        calls.append(Solve(g, kind, kw.get("start"), kw.get("time_limit"), res))
        return res

    monkeypatch.setattr(report, "max_property_set", solve)
    return calls


def test_suite_starts_each_seeded_row_from_its_witness(monkeypatch):
    calls = recording_solves(monkeypatch)
    for scope in ("double", "mycielskian"):
        run_verification_suite(scope)
    # the catalog's checks, in order, then the witness gates' diam3 solves
    checks = list(catalog_checks())
    assert len(calls) == len(checks) + 3
    for (row, fam, p, g), call in zip(checks, calls):
        assert (call.g.adj, call.kind) == (g.adj, row.kind)
        if fam.witness is None:
            assert call.start is None
        else:
            assert call.start == fam.witness(p)


def test_bounds_seed_every_mv_solve_and_solve_each_gp_once(monkeypatch):
    """The bounds scope starts μ(D(G)) from V(G') plus a μ_t set, μ(G) from
    a μ_o set and μ(M(G)) from V(G') plus a μ_o set, and solves gp(G) and
    gp(D(G)) of each corpus graph once for the two checks that read them."""
    calls = recording_solves(monkeypatch)
    assert run_verification_suite("bounds", seed=DEFAULT_CORPUS_SEED).all_pass()
    mv = [c.start for c in calls if c.kind == PropertyKind.MV]
    gp = [c.g.adj for c in calls if c.kind == PropertyKind.GP]
    assert mv and all(start is not None for start in mv)
    assert len(gp) == len(set(gp)) == 2 * CORPUS_SIZE


def test_bounds_solve_each_double_graph_once(monkeypatch):
    """gp_equality_structure enumerates the maximum GP sets of D(G) from the
    corpus pass's gp solve of D(G), so each D(G) is solved once."""
    calls = recording_solves(monkeypatch)
    monkeypatch.setattr(solver, "max_property_set", report.max_property_set)
    checks = {c.name: c for c in run_verification_suite("bounds", seed=DEFAULT_CORPUS_SEED).checks}
    assert checks["gp_equality_structure"].status == "pass"
    assert not checks["gp_equality_structure"].note.startswith("0 ")
    doubles = {double_graph(g).adj for g in corpus_graphs(DEFAULT_CORPUS_SEED)}
    gp = [c.g.adj for c in calls if c.kind == PropertyKind.GP and c.g.adj in doubles]
    assert len(gp) == len(set(gp)) == len(doubles)


BOUNDS_CHECKS = (
    "gp_double_sandwich", "mu_double_total_lb", "mu_myc_diam3_sandwich", "gp_oracle_equivalence",
    "false_twin_swap_trials", "true_twin_extend_trials", "true_twin_mv_regression",
    "gp_equality_structure",
)


# corpus seed -> graphs with diam <= 3, oracle subsets and graphs, and graphs
# with gp(D(G)) = 2 gp(G); every corpus has 50 non-complete graphs
BOUNDS_NOTES = {
    0: (39, 4272, 78, 17), 1: (39, 4528, 78, 20), 2: (38, 4304, 74, 21),
    3: (37, 4304, 84, 27), 4: (38, 4240, 73, 23), 5: (41, 3680, 76, 23),
    6: (37, 4560, 79, 23), 7: (32, 4528, 76, 24), DEFAULT_CORPUS_SEED: (30, 3712, 76, 22),
}


@pytest.mark.parametrize("seed", sorted(BOUNDS_NOTES))
def test_bounds_outputs_are_pinned(seed):
    diam3, subsets, pool, equal = BOUNDS_NOTES[seed]
    notes = {
        "mu_double_total_lb": "50 non-complete graphs checked",
        "mu_myc_diam3_sandwich": f"{diam3} graphs with diam <= 3 checked",
        "gp_oracle_equivalence": f"{subsets} subsets over {pool} graphs",
        "gp_equality_structure": f"{equal} graphs with gp(D(G)) = 2 gp(G)",
    }
    got = [(c.name, c.status, c.actual, c.note)
           for c in run_verification_suite("bounds", seed=seed).checks]
    assert got == [(name, "pass", 0, notes.get(name, "")) for name in BOUNDS_CHECKS]


def test_bounds_solve_each_graph_on_one_search_copy(monkeypatch):
    """Over corpus seeds 4-7 the bounds scope makes the same solves as
    when each check swept the corpus on its own, with the node counts of
    the current search; each graph's kinds are solved once, back to back,
    so the pure kernel builds one search copy per solved graph."""
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    builds = []
    init = pure._Tables.__init__
    monkeypatch.setattr(pure._Tables, "__init__", lambda self, *a: builds.append(init(self, *a)))
    calls = recording_solves(monkeypatch)
    for seed in (4, 5, 6, 7):
        run_verification_suite("bounds", seed=seed)
    solved = [(id(c.g), c.kind) for c in calls]
    assert len(solved) == len(set(solved))
    assert len(builds) == len({g for g, _ in solved}) == 548
    totals = {}
    for c in calls:
        count, nodes = totals.get(c.kind, (0, 0))
        totals[c.kind] = (count + 1, nodes + c.result.nodes_explored)
    assert totals == {
        PropertyKind.GP: (400, 2658), PropertyKind.TOTAL: (200, 254),
        PropertyKind.OUTER: (148, 721), PropertyKind.MV: (496, 7031),
    }


def test_time_limit_bounds_every_solve(monkeypatch):
    """A time limit reaches every solve of the suite, the corpus pass and
    the diameter-3 witnesses included, and a bound check that read a solve
    the limit stopped reports a timeout, never a failure.  On the pure
    kernel a solve's set-up alone outlasts the limit, so every solve stops."""
    monkeypatch.setenv("GPVIS_KERNEL", "pure")
    calls = recording_solves(monkeypatch)
    checks = {c.name: c for c in run_verification_suite("all", time_limit=1e-6).checks}
    assert calls and all(c.time_limit == 1e-6 and c.result.stopped_by == "time" for c in calls)
    assert {checks[name].status for name in BOUNDS_CHECKS} == {"pass", "timeout"}
    for name in ("gp_double_sandwich", "mu_double_total_lb", "mu_myc_diam3_sandwich",
                 "gp_equality_structure"):
        assert checks[name].status == "timeout"
        assert re.search(r"(^|; )\d+ of \d+ solves stopped by the time limit$", checks[name].note)
    assert checks["witness_gate_myc"].status == "pass"


def test_enumeration_takes_the_callers_result():
    g = parse_graph_spec("double(path:3)")
    best = max_property_set(g, PropertyKind.GP)
    assert enumerate_maximum_sets(g, PropertyKind.GP, best=best) == enumerate_maximum_sets(
        g, PropertyKind.GP
    )
    smaller = replace(best, witness=best.witness.without_vertex(best.witness.members()[0]))
    mv = max_property_set(g, PropertyKind.MV)
    other = max_property_set(parse_graph_spec("double(cycle:3)"), PropertyKind.GP)
    bound = max_property_set(g, PropertyKind.GP, target=1)
    for bad in (smaller, mv, other, bound):
        with pytest.raises(ValueError):
            enumerate_maximum_sets(g, PropertyKind.GP, best=bad)


def test_a_seed_that_raises_fails_its_check(monkeypatch):
    def broken(n):
        raise AssertionError(f"no witness for n={n}")

    monkeypatch.setattr(witnesses, "witness_myc_cycle", broken)
    checks = {c.name: c for c in run_verification_suite("mycielskian").checks}
    for n in (8, 9, 10):
        c = checks[f"mu_M_C{n}"]
        assert (c.status, c.actual, c.note) == ("fail", None, f"no witness for n={n}")
    assert checks["mu_M_C7"].status == "pass"
    assert checks["witness_gate_myc"].actual == 5


def test_random_graphs_follow_the_distance_rule():
    """One BFS from vertex 0 accepts exactly the samples whose distance
    matrix says they are connected, so the stream draws the same graphs."""
    def by_distances(rng, n_lo, n_hi, p):
        while True:
            n = rng.randint(n_lo, n_hi)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = build_graph(n, edges)
            if all_pairs_distances(g).connected:
                return g

    for n_lo, n_hi, p in ((1, 8, 0.4), (4, 10, 0.2), (3, 4, 0.4)):
        a, b = random.Random(f"rule:{p}"), random.Random(f"rule:{p}")
        for _ in range(60):
            assert random_connected_graph(a, n_lo, n_hi, p).adj == by_distances(b, n_lo, n_hi, p).adj
        assert a.random() == b.random()


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        run_verification_suite("everything")


# --- CLI ---


def test_cli_gen(capsys):
    assert main(["gen", "cycle:4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 4"


def test_cli_dist(capsys):
    assert main(["dist", "path:3"]) == 0
    out = capsys.readouterr().out
    assert "0 1 2" in out


def test_cli_check_set_pass_and_fail(capsys):
    rc = main(["check-set", "double(cycle:4)", "--kind", "mv",
               "--set", "v1,v2,v1',v2',v3',v4'"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS kind=mv size=6")
    rc = main(["check-set", "path:4", "--kind", "mv", "--set", "v1,v2,v4"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kind=mv size=3")


def test_cli_invariant(capsys):
    rc = main(["invariant", "double(cycle:7)", "--kind", "mv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "value=7 status=exact" in out
    assert "witness=" in out and "nodes=" in out


def test_cli_invariant_target(capsys):
    rc = main(["invariant", "double(cycle:8)", "--kind", "mv", "--target", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=lower_bound stopped_by=target " in out
    # the deadline is checked at the search's first node, so this limit
    # always stops it
    rc = main(["invariant", "double(cycle:8)", "--kind", "mv", "--time-limit", "1e-9"])
    assert rc == 0
    assert "status=lower_bound stopped_by=time " in capsys.readouterr().out
    rc = main(["invariant", "double(cycle:8)", "--kind", "mv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=exact witness=" in out and "stopped_by" not in out


def test_cli_enumerate(capsys):
    rc = main(["enumerate", "double(path:3)", "--kind", "gp"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "size=4 count=1"
    assert out[1] == "v1,v3,v1',v3'"


def test_cli_verify_paper_scope_bounds(capsys):
    rc = main(["verify-paper", "--scope", "bounds"])
    assert rc == 0  # no recorded-value mismatches live in this scope
    out = capsys.readouterr().out
    assert "CHECK gp_double_sandwich" in out
    assert "checks:" in out


def test_cli_verify_paper_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = main(["verify-paper", "--scope", "bounds", "--csv", str(csv_path)])
    assert rc == 0
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("name,graph,kind")


def test_cli_error_handling(capsys):
    rc = main(["gen", "bogus:3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    rc = main(["check-set", "path:4", "--kind", "mv", "--set", "v9"])
    assert rc == 2
    # an Arabic-Indic three is not v3, nor a five the order of C5
    assert main(["check-set", "cycle:5", "--kind", "mv", "--set", "v\u0663"]) == 2
    assert main(["gen", "cycle:\u0665"]) == 2
    rc = main(["invariant", "path:4", "--kind", "nope"])
    assert rc == 2


def test_cli_rejects_meaningless_limits(capsys):
    for flags in (["--target", "-1"], ["--time-limit", "-5"], ["--time-limit", "nan"]):
        rc = main(["invariant", "myc(cycle:12)", "--kind", "mv", *flags])
        assert rc == 2, flags
        assert capsys.readouterr().err.startswith("error:")
    assert main(["verify-paper", "--scope", "double", "--time-limit", "-5"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["verify-paper", "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_check_set_rejects_duplicate_labels(capsys):
    rc = main(["check-set", "cycle:6", "--kind", "mv", "--set", "v1,v1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "twice" in captured.err


def test_cli_file_round_trip(tmp_path, capsys):
    assert main(["gen", "cycle:5"]) == 0
    text = capsys.readouterr().out
    p = tmp_path / "c5.txt"
    p.write_text(text)
    assert main(["invariant", f"file:{p}", "--kind", "mv"]) == 0
    assert "value=3" in capsys.readouterr().out
