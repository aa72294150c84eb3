"""The reference-value verification suite and its report machinery.

The suite re-derives every recorded exact value, bound, and witness with
the solver and verifiers, and reports one named check per fact.  Output
is deterministic for a fixed seed: the random corpus and the twin trials
derive their randomness from the documented default seed below.

Scopes: ``double`` covers the double-graph values, witnesses, and the
balloon; ``mycielskian`` covers the Mycielskian values and witnesses;
``bounds`` covers corpus-driven inequalities and structural property
trials; ``all`` runs everything.

The bound checks read one pass over the corpus (``_corpus_pass``), which
runs every solve of a graph G back to back: gp, μ_t, μ_o and μ of G,
then gp and μ of one D(G) and the maximum GP sets that
``gp_equality_structure`` needs, then μ(M(G)).  Consecutive solves of
one graph so share the kernel's search copy.  The first check that reads
the pass, ``gp_double_sandwich``, runs it, so its time shows there.  The
time limit bounds every solve of the suite; a bound check that read a
solve stopped by it reports ``timeout``, as its values are then lower
bounds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, TextIO

from .catalog import FormulaId
from .families import double_graph, mycielskian, parse_graph_spec
from .graphs import Graph, VertexSet, all_pairs_distances, build_graph
from .solver import (
    ENUMERATION_CAP,
    InvariantResult,
    check_time_limit,
    enumerate_maximum_sets,
    max_property_set,
)
from .visibility import (
    PropertyKind,
    is_general_position_set,
    is_general_position_set_via_characterization,
    is_mutual_visibility_set,
    is_property_set,
    true_twin_extend,
    false_twin_swap,
)
from .witnesses import balloon_double_witness, witness_diam3, witness_double_from_total

DEFAULT_CORPUS_SEED = 1729
CORPUS_SIZE = 50
SCOPES = ("all", "double", "mycielskian", "bounds")


@dataclass(frozen=True)
class Expected:
    """Pass condition for a check: an exact value or a lower bound."""

    op: str  # "==" or ">="
    lo: int

    def __post_init__(self):
        if self.op not in ("==", ">="):
            raise ValueError(f"unknown check operator {self.op!r}")

    def satisfied(self, actual: int) -> bool:
        return actual == self.lo if self.op == "==" else actual >= self.lo

    def __str__(self) -> str:
        return str(self.lo) if self.op == "==" else f">={self.lo}"


def exactly(v: int) -> Expected:
    return Expected("==", v)


def at_least(v: int) -> Expected:
    return Expected(">=", v)


@dataclass
class Check:
    """One named fact: expected versus actual, with a pass/fail status."""

    name: str
    spec_text: str
    kind: PropertyKind | None
    expected: Expected
    actual: int | None = None
    status: str = "pending"
    elapsed: float = 0.0
    note: str = ""

    def machine_line(self) -> str:
        actual = "-" if self.actual is None else str(self.actual)
        return (
            f"CHECK {self.name} expected={self.expected} "
            f"actual={actual} status={self.status}"
        )


@dataclass
class Report:
    """Ordered checks plus summary counts; order follows declaration order."""

    scope: str
    seed: int
    checks: list[Check] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    total_elapsed: float = 0.0

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def exit_code(self) -> int:
        return 0 if self.all_pass() else 1

    def machine_lines(self) -> list[str]:
        return [c.machine_line() for c in self.checks]

    def to_table(self) -> str:
        rows = [("name", "graph", "kind", "expected", "actual", "status", "time")]
        for c in self.checks:
            rows.append(
                (
                    c.name,
                    c.spec_text,
                    c.kind.value if c.kind else "-",
                    str(c.expected),
                    "-" if c.actual is None else str(c.actual),
                    c.status,
                    f"{c.elapsed:.2f}s",
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = []
        for idx, r in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append(
            f"{len(self.checks)} checks: {self.count('pass')} pass, "
            f"{self.count('fail')} fail, {self.count('timeout')} timeout; "
            f"{self.total_elapsed:.1f}s total"
        )
        if self.skipped:
            lines.append(
                f"skipped (over --max-n): {', '.join(self.skipped)}"
            )
        notes = [c for c in self.checks if c.note]
        for c in notes:
            lines.append(f"note [{c.name}]: {c.note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = ["name,graph,kind,expected,actual,status,elapsed"]
        for c in self.checks:
            kind = c.kind.value if c.kind else ""
            actual = "" if c.actual is None else str(c.actual)
            spec = c.spec_text.replace('"', "'")
            out.append(
                f'{c.name},"{spec}",{kind},{c.expected},{actual},{c.status},'
                f"{c.elapsed:.3f}"
            )
        return "\n".join(out) + "\n"


def corpus_graphs(
    seed: int = DEFAULT_CORPUS_SEED,
    count: int = CORPUS_SIZE,
    n_lo: int = 4,
    n_hi: int = 8,
    p: float = 0.4,
) -> list[Graph]:
    """Seeded random connected graphs: order uniform in [n_lo, n_hi], each
    edge present with probability p, disconnected samples rejected."""
    rng = random.Random(f"gpvis-corpus:{seed}")
    return [random_connected_graph(rng, n_lo, n_hi, p) for _ in range(count)]


def random_connected_graph(rng: random.Random, n_lo: int, n_hi: int, p: float = 0.4) -> Graph:
    """A G(n, p) sample, order uniform in [n_lo, n_hi], drawn again until
    it is connected; one BFS from vertex 0 decides that, so a rejected
    sample costs no distance matrix."""
    while True:
        n = rng.randint(n_lo, n_hi)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        seen = frontier = 1
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= g.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~seen
            seen |= frontier
        if seen == (1 << n) - 1:
            return g


class _Suite:
    def __init__(self, scope, seed, max_n, time_limit, stream):
        self.seed = seed
        self.max_n = max_n
        self.time_limit = time_limit
        self.stream: TextIO | None = stream
        self.report = Report(scope=scope, seed=seed)

    def _emit(self, check: Check) -> None:
        self.report.checks.append(check)
        if self.stream is not None:
            print(check.machine_line(), file=self.stream, flush=True)

    def value_check(
        self,
        name: str,
        spec_text: str,
        kind: PropertyKind,
        expected: Expected,
        target: int | None = None,
        start: Callable[[], VertexSet] | None = None,
    ) -> None:
        """Solve one invariant and compare against its expected value.
        ``start`` builds the solve's first incumbent; if it raises, the
        check fails with the error as its note."""
        try:
            g = parse_graph_spec(spec_text)
        except ValueError as exc:
            self._emit(Check(name, spec_text, kind, expected, None, "fail", 0.0, str(exc)))
            return
        if self.max_n is not None and g.n > self.max_n:
            self.report.skipped.append(name)
            return
        check = Check(name, spec_text, kind, expected)
        t0 = time.perf_counter()
        try:
            res = max_property_set(
                g, kind, target=target, time_limit=self.time_limit,
                start=None if start is None else start(),
            )
            check.actual = res.value
            if res.stopped_by == "time" and not expected.satisfied(res.value):
                check.status = "timeout"
                check.note = "time limit hit before the bound was established"
            else:
                check.status = "pass" if expected.satisfied(res.value) else "fail"
        except Exception as exc:
            check.status = "fail"
            check.note = str(exc)
        check.elapsed = time.perf_counter() - t0
        self._emit(check)

    def aggregate_check(
        self,
        name: str,
        spec_text: str,
        kind: PropertyKind | None,
        expected: Expected,
        fn: Callable[[], tuple],
    ) -> None:
        """Run a counting check (violations, mismatches) built by ``fn``,
        which returns the count, a note and, for a check that reads
        solves, the solves it read.  If the time limit stopped any of them,
        the count rests on lower bounds and the check reports a timeout."""
        check = Check(name, spec_text, kind, expected)
        start = time.perf_counter()
        try:
            check.actual, check.note, *read = fn()
            solves = read[0] if read else []
            stopped = sum(1 for res in solves if res.stopped_by == "time")
            if stopped:
                check.status = "timeout"
                cut = f"{stopped} of {len(solves)} solves stopped by the time limit"
                check.note = f"{check.note}; {cut}" if check.note else cut
            else:
                check.status = "pass" if expected.satisfied(check.actual) else "fail"
        except Exception as exc:
            check.status = "fail"
            check.note = str(exc)
        check.elapsed = time.perf_counter() - start
        self._emit(check)

    # scope sections

    def run_catalog(self, scope: str) -> None:
        """One value check per catalog parameter, in table order, each
        solve started from its family's witness when it has one."""
        for row in FormulaId:
            if row.scope != scope:
                continue
            for fam in row.families:
                for params in fam.params:
                    value = row.at(params)
                    self.value_check(
                        fam.name.format(**params), fam.spec.format(**params), row.kind,
                        Expected(row.op, value),
                        target=value if row.op == ">=" else None,
                        start=None if fam.witness is None else partial(fam.witness, params),
                    )

    def run_double(self) -> None:
        self.run_catalog("double")
        self.aggregate_check(
            "witness_gate_double", "dc4/dc5/dc6, universal, from-total, balloon file",
            PropertyKind.MV, exactly(0), self._witness_failures_double,
        )

    def run_myc(self) -> None:
        self.run_catalog("mycielskian")
        self.aggregate_check(
            "witness_gate_myc", "myc path/cycle, universal, diam<=3",
            PropertyKind.MV, exactly(0), self._witness_failures_myc,
        )

    def run_bounds(self) -> None:
        graphs = corpus_graphs(self.seed)
        corpus_text = f"corpus({len(graphs)} graphs, seed={self.seed})"
        # run by the first check that reads it; a failure is retried
        solved = cache(lambda: _corpus_pass(graphs, self.time_limit))
        self.aggregate_check(
            "gp_double_sandwich", corpus_text, PropertyKind.GP, exactly(0),
            lambda: _gp_sandwich_violations(solved()),
        )
        self.aggregate_check(
            "mu_double_total_lb", corpus_text, PropertyKind.MV, exactly(0),
            lambda: _double_lower_bound_violations(solved()),
        )
        self.aggregate_check(
            "mu_myc_diam3_sandwich", corpus_text, PropertyKind.MV, exactly(0),
            lambda: _myc_sandwich_violations(solved()),
        )
        self.aggregate_check(
            "gp_oracle_equivalence", "all subsets, corpus + families, n <= 7",
            PropertyKind.GP, exactly(0),
            lambda: self._oracle_mismatches(graphs),
        )
        self.aggregate_check(
            "false_twin_swap_trials", f"200 seeded trials (seed={self.seed})",
            None, exactly(0), self._false_twin_violations,
        )
        self.aggregate_check(
            "true_twin_extend_trials", f"200 seeded trials (seed={self.seed})",
            None, exactly(0), self._true_twin_violations,
        )
        self.aggregate_check(
            "true_twin_mv_regression", "kminus:4", PropertyKind.MV, exactly(0),
            self._k4_minus_regression,
        )
        self.aggregate_check(
            "gp_equality_structure", corpus_text, PropertyKind.GP, exactly(0),
            lambda: _equality_structure_violations(solved()),
        )

    # aggregate bodies

    def _oracle_mismatches(self, graphs) -> tuple[int, str]:
        pool = [g for g in graphs if g.n <= 7] + _oracle_family_graphs()
        mism = subsets = 0
        for g in pool:
            n = g.n
            d = all_pairs_distances(g)
            for mask in range(1 << n):
                s = VertexSet(n, mask)
                b, wit = is_general_position_set_via_characterization(g, d, s)
                if is_general_position_set(g, d, s) != b or (b and wit is None):
                    mism += 1
            subsets += 1 << n
        return mism, f"{subsets} subsets over {len(pool)} graphs"

    def _false_twin_violations(self) -> tuple[int, str]:
        rng = random.Random(f"gpvis-false-twins:{self.seed}")
        viol = 0
        for _ in range(200):
            base = random_connected_graph(rng, 3, 4)
            g = double_graph(base)
            d = all_pairs_distances(g)
            u = rng.randrange(base.n)
            v = base.n + u
            mask = rng.getrandbits(g.n) | 1 << u
            mask &= ~(1 << v)
            s = VertexSet(g.n, mask)
            t = false_twin_swap(g, s, u, v)
            for kind in (PropertyKind.MV, PropertyKind.GP):
                if is_property_set(g, d, s, kind) != is_property_set(g, d, t, kind):
                    viol += 1
        return viol, ""

    def _true_twin_violations(self) -> tuple[int, str]:
        rng = random.Random(f"gpvis-true-twins:{self.seed}")
        viol = 0
        for _ in range(200):
            base = random_connected_graph(rng, 3, 8)
            u = rng.randrange(base.n)
            v = base.n
            edges = list(base.edges()) + [(v, u)] + [
                (v, w) for w in base.neighbors(u)
            ]
            g = build_graph(base.n + 1, edges)
            d = all_pairs_distances(g)
            mask = rng.getrandbits(g.n) | 1 << u
            mask &= ~(1 << v)
            s = VertexSet(g.n, mask)
            if not is_general_position_set(g, d, s):
                continue
            t = true_twin_extend(g, s, u, v)
            if not is_general_position_set(g, d, t):
                viol += 1
        return viol, ""

    def _k4_minus_regression(self) -> tuple[int, str]:
        g = parse_graph_spec("kminus:4")
        d = all_pairs_distances(g)
        s = VertexSet.of(4, [0, 1, 2])
        if not is_mutual_visibility_set(g, d, s):
            return 1, "the starting set unexpectedly fails MV"
        t = true_twin_extend(g, s, 2, 3)
        # adding the true twin must break mutual visibility here
        return (1 if is_mutual_visibility_set(g, d, t) else 0), ""

    def _witness_failures_double(self) -> tuple[int, str]:
        rows = _witness_rows(FormulaId.MU_DOUBLE_CYCLE_SMALL)
        rows += _witness_rows(FormulaId.MU_UNIVERSAL_DOUBLE)
        rows += _witness_rows(FormulaId.MU_DOUBLE_PATH, (5,))
        rows += _witness_rows(FormulaId.MU_DOUBLE_CYCLE, (7, 9))
        rows.append(("balloon file", lambda: balloon_double_witness(2)))
        return _failures(rows)

    def _witness_failures_myc(self) -> tuple[int, str]:
        rows = _witness_rows(FormulaId.MU_MYC_PATH, range(5, 13))
        rows += _witness_rows(FormulaId.MU_MYC_CYCLE, range(8, 13))
        rows += _witness_rows(FormulaId.MU_UNIVERSAL_MYC)
        rows += [
            (f"diam3 {spec}", partial(_diam3_witness, spec, self.time_limit))
            for spec in ("cycle:5", "kbip:3,3", "path:4")
        ]
        return _failures(rows)


def _witness_rows(row: FormulaId, ns=None) -> list:
    """(label, thunk) rows that build the witness of each of the row's
    families at each of its parameters, or at order n for each n in
    ``ns``."""
    return [
        (fam.name.format(**p), partial(fam.witness, p))
        for fam in row.families
        for p in (fam.params if ns is None else [{"n": n} for n in ns])
    ]


@dataclass
class _Solved:
    """The solves of one corpus graph G that the bound checks read.  The
    μ solves are None where their bound does not apply to G (μ_t and
    μ(D(G)) need G non-complete, μ_o, μ and μ(M(G)) also diam(G) <= 3).
    ``gp_double_sets`` lists the maximum GP sets of D(G) when D(G) is
    small enough to enumerate and both gp solves are exact with
    gp(D(G)) = 2 gp(G), and is None otherwise."""

    g: Graph
    gp: InvariantResult
    gp_double: InvariantResult | None = None
    total: InvariantResult | None = None
    mu_double: InvariantResult | None = None
    outer: InvariantResult | None = None
    mu: InvariantResult | None = None
    mu_myc: InvariantResult | None = None
    gp_double_sets: list[VertexSet] | None = None


def _corpus_pass(graphs, time_limit) -> list[_Solved]:
    """Every solve of the bound checks, one corpus graph at a time: those
    on G, then those on one D(G), then μ(M(G)), so that consecutive solves
    of one graph share the kernel's search copy and its tables.  Each μ
    solve starts from the paper's construction: μ(G) from a μ_o set,
    μ(D(G)) from V(G') plus a μ_t set, μ(M(G)) from V(G') plus a μ_o set."""

    def solve(h, kind, start=None):
        return max_property_set(h, kind, time_limit=time_limit, start=start)

    out = []
    for g in graphs:
        s = _Solved(g, solve(g, PropertyKind.GP))
        if not g.is_complete():
            s.total = solve(g, PropertyKind.TOTAL)
            if all_pairs_distances(g).diameter() <= 3:
                s.outer = solve(g, PropertyKind.OUTER)
                # an outer mutual-visibility set is a mutual-visibility set
                s.mu = solve(g, PropertyKind.MV, start=s.outer.witness)
        dg = double_graph(g)
        s.gp_double = solve(dg, PropertyKind.GP)
        if s.total is not None:
            seed = witness_double_from_total(g, s.total.witness)
            s.mu_double = solve(dg, PropertyKind.MV, start=seed)
        if (dg.n <= ENUMERATION_CAP and s.gp.exact and s.gp_double.exact
                and s.gp_double.value == 2 * s.gp.value):
            s.gp_double_sets = enumerate_maximum_sets(dg, PropertyKind.GP, best=s.gp_double)
        if s.outer is not None:
            seed = witness_diam3(g, s.outer.witness)
            s.mu_myc = solve(mycielskian(g), PropertyKind.MV, start=seed)
        out.append(s)
    return out


def _gp_sandwich_violations(solved) -> tuple[int, str, list]:
    viol = sum(1 for s in solved if not s.gp.value <= s.gp_double.value <= 2 * s.gp.value)
    return viol, "", [res for s in solved for res in (s.gp, s.gp_double)]


def _double_lower_bound_violations(solved) -> tuple[int, str, list]:
    rows = [s for s in solved if s.total is not None]
    viol = sum(1 for s in rows if not s.mu_double.value >= s.g.n + s.total.value)
    return (viol, f"{len(rows)} non-complete graphs checked",
            [res for s in rows for res in (s.total, s.mu_double)])


def _myc_sandwich_violations(solved) -> tuple[int, str, list]:
    rows = [s for s in solved if s.outer is not None]
    viol = sum(1 for s in rows
               if not s.g.n + s.outer.value <= s.mu_myc.value <= s.g.n + s.mu.value + 1)
    return (viol, f"{len(rows)} graphs with diam <= 3 checked",
            [res for s in rows for res in (s.outer, s.mu, s.mu_myc)])


def _equality_structure_violations(solved) -> tuple[int, str, list]:
    """Each maximum GP set of D(G), where gp(D(G)) = 2 gp(G), must be some
    independent set of G together with its copies."""
    viol = 0
    rows = [s for s in solved if s.gp_double_sets is not None]
    for s in rows:
        n = s.g.n
        for gp_set in s.gp_double_sets:
            bases = gp_set.mask & ((1 << n) - 1)
            if bases != gp_set.mask >> n or any(s.g.adj[u] & bases for u in VertexSet(n, bases)):
                viol += 1
    read = [res for s in solved if 2 * s.g.n <= ENUMERATION_CAP for res in (s.gp, s.gp_double)]
    return viol, f"{len(rows)} graphs with gp(D(G)) = 2 gp(G)", read


def _failures(rows) -> tuple[int, str]:
    """Run each (label, thunk) row; count the ones that raise, with notes."""
    notes = []
    for label, thunk in rows:
        try:
            thunk()
        except Exception as exc:
            notes.append(f"{label}: {exc}")
    return len(notes), "; ".join(notes)


def _diam3_witness(spec: str, time_limit: float | None) -> VertexSet:
    g = parse_graph_spec(spec)
    outer = max_property_set(g, PropertyKind.OUTER, time_limit=time_limit)
    return witness_diam3(g, outer.witness)


def run_verification_suite(
    scope: str = "all",
    *,
    seed: int = DEFAULT_CORPUS_SEED,
    max_n: int | None = None,
    time_limit: float | None = None,
    stream: TextIO | None = None,
) -> Report:
    """Execute the verification checks for a scope and return the Report.

    When ``stream`` is given, each check's machine-readable line
    (``CHECK <name> expected=<e> actual=<a> status=<s>``) is printed as it
    completes.  ``max_n`` skips value checks on graphs of larger order
    (recorded in the report); ``time_limit`` bounds each solver call.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r} (use one of {', '.join(SCOPES)})")
    check_time_limit(time_limit)
    if max_n is not None and max_n < 1:
        raise ValueError(f"max order must be at least 1, got {max_n}")
    suite = _Suite(scope, seed, max_n, time_limit, stream)
    start = time.perf_counter()
    if scope in ("all", "double"):
        suite.run_double()
    if scope in ("all", "mycielskian"):
        suite.run_myc()
    if scope in ("all", "bounds"):
        suite.run_bounds()
    suite.report.total_elapsed = time.perf_counter() - start
    return suite.report


def _oracle_family_graphs() -> list[Graph]:
    """Named families of order at most 7 for the oracle-equivalence sweep."""
    specs = [f"path:{n}" for n in range(2, 8)] + [f"cycle:{n}" for n in range(3, 8)]
    specs += [f"complete:{n}" for n in range(2, 8)] + [f"kminus:{n}" for n in range(3, 8)]
    specs += [f"star:{n}" for n in range(2, 8)]
    specs += [f"kbip:{r},{s}" for r in range(1, 4) for s in range(r, 4)]
    specs += ["balloon:1", "double(path:2)", "double(path:3)", "myc(path:2)", "myc(path:3)"]
    return [parse_graph_spec(spec) for spec in specs]
