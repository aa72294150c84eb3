"""The benchmark's three workloads.

Each workload is a closed loop in one thread: the next operation starts
when the previous one has returned, as a caller waiting on each answer
would.  A workload yields operations from ``ops`` (inputs and reference
answers are made there, outside the timed region), runs one in ``run``
(the only timed code; it calls the package's public functions and
nothing else), and judges the output in ``check`` against a reference
that does not use the package.

What the seed varies:

- ``suite``: the four corpus seeds of the verification suite
  (``4 * seed + k``), i.e. the 50 random graphs behind the ``bounds``
  scope and its twin trials.
- ``hard``: the vertex labellings of every instance (sixteen of each).
- ``verify``: the 2000 queries (graph, kind, base set and perturbation).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import namedtuple

from reference import KINDS, Geodesics, relabel, unrelabel_mask


def percentile(values, q):
    """The q-th percentile (1..99, interpolated; 100 is the maximum)."""
    if q == 100 or len(values) == 1:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_metrics(wall, p50, tail):
    """The three timed end-to-end metrics, from scaled times in seconds.

    Every time is scaled to the reference pace (see pace.py), and each
    workload repeats the same work through its run and keeps the median
    scaled time of each piece.
    """
    return {
        "run_s": (wall, "s"),
        "op_p50_ms": (p50 * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
    }


class Suite:
    """``gpvis verify-paper``: the 76-check catalog, one catalog per op.

    Chosen because it is the headline user action and mixes hundreds of
    small solves, distance builds and set checks.  Per-check latency is
    read from the time each ``CHECK`` line reaches the output stream; a
    pace piece that falls due is run there, between two checks, and left
    out of both.  The seed gives ``CORPORA`` corpus seeds (the random graphs of the
    ``bounds`` scope differ in size, and one corpus alone moves the
    catalog's time by up to 15% from seed to seed); catalog ``k`` of a run
    uses corpus ``k % CORPORA``.  A catalog repeats the work of the same
    corpus exactly, and the ``double`` and ``mycielskian`` scopes do not
    use the corpus, so each check's median time is taken over all
    catalogs for those scopes, and per corpus for ``bounds``.
    """

    name = "suite"
    unit = "checks"
    expected_layers = (
        "families.parse_graph_spec", "families.build", "graphs.all_pairs_distances",
        "kernel.get_kernel", "kernel.solve_max", "kernel.greedy_set", "kernel.set_ok",
        "kernel.enumerate_exact", "solver.max_property_set", "visibility.is_property_set",
        "visibility.gp_characterization", "witnesses", "report.run_verification_suite",
        "report.scope.double", "report.scope.mycielskian", "report.scope.bounds",
        "report.corpus",
    )
    # the catalog in emission order, split by scope; every check passes
    # except the four known-red gp_D_Kminus checks
    SCOPES = {
        "double": (
            "mu_D_C7 mu_D_C8 mu_D_C9 mu_D_C10 mu_D_C4 mu_D_C5 mu_D_C6 "
            "mu_D_P3 mu_D_P4 mu_D_P5 mu_D_P6 mu_D_P7 mu_D_P8 "
            "gp_D_P3 gp_D_P4 gp_D_P5 gp_D_P6 gp_D_P7 gp_D_P8 "
            "gp_D_C6 gp_D_C7 gp_D_C8 gp_D_C9 gp_D_C10 "
            "gp_D_K2 gp_D_K3 gp_D_K4 gp_D_K5 gp_D_K6 gp_D_K7 "
            "gp_D_Kminus5 gp_D_Kminus6 gp_D_Kminus7 gp_D_Kminus8 "
            "mu_D_K1_2 mu_D_K1_3 mu_D_K1_4 mu_D_K1_5 mu_D_W4 mu_D_W5 mu_D_W6 "
            "mu_D_balloon2_target mu_t_balloon2 witness_gate_double"
        ).split(),
        "mycielskian": (
            "mu_M_P4 mu_M_P5 mu_M_P6 mu_M_P7 mu_M_P8 mu_M_P9 mu_M_P10 "
            "mu_M_C4 mu_M_C5 mu_M_C6 mu_M_C7 mu_M_C8 mu_M_C9 mu_M_C10 "
            "mu_M_K33 mu_M_K43 mu_M_K1_2 mu_M_K1_3 mu_M_K1_4 mu_M_K1_5 "
            "mu_M_W4 mu_M_W5 mu_M_W6 witness_gate_myc"
        ).split(),
        "bounds": (
            "gp_double_sandwich mu_double_total_lb mu_myc_diam3_sandwich "
            "gp_oracle_equivalence false_twin_swap_trials true_twin_extend_trials "
            "true_twin_mv_regression gp_equality_structure"
        ).split(),
    }
    EXPECTED_FAIL = {f"gp_D_Kminus{n}" for n in range(5, 9)}
    CHECKS = [name for names in SCOPES.values() for name in names]
    CORPORA = 4

    def __init__(self, gpvis, seed):
        self.gpvis = gpvis
        self.seed = seed
        self.pace = None
        self.corpora = [seed * self.CORPORA + k for k in range(self.CORPORA)]

    def ops(self):
        k = 0
        while True:
            yield self.corpora[k % self.CORPORA]
            k += 1

    def enough(self, done):
        return done >= self.CORPORA

    def units(self, op):
        return len(self.CHECKS)

    def run(self, op):
        stamps = _Stamps(self.pace)
        report = self.gpvis.run_verification_suite("all", seed=op, stream=stamps)
        return report, stamps

    def check(self, op, output):
        """Failed checks: status differs from the pinned catalog."""
        report, stamps = output
        got = [(c.name, c.status) for c in report.checks]
        want = [(name, "fail" if name in self.EXPECTED_FAIL else "pass")
                for name in self.CHECKS]
        if len(got) != len(want) or len(stamps.checks) != len(want):
            return len(want), [f"catalog has {len(got)} checks, pinned {len(want)}"]
        bad = [f"{g[0]}: {g[1]}" for g, w in zip(got, want) if g != w]
        return len(bad), bad

    def sample(self, op, output, t0, dt):
        return op, output[1].checks

    def metrics(self, times, samples, pace):
        """Each check's median scaled time (per corpus in ``bounds``); a
        catalog's time is the sum of its checks' median times, and
        ``run_s`` its mean over corpora.  The per-check percentiles pool
        all corpora."""
        fixed = len(self.SCOPES["double"]) + len(self.SCOPES["mycielskian"])
        samples = [(corpus, [pace.scaled(t0, dt) for t0, dt in checks])
                   for corpus, checks in samples]
        median = statistics.median
        shared = [median(check) for check in zip(*(lat[:fixed] for _, lat in samples))]
        by_corpus = {}
        for corpus, lat in samples:
            by_corpus.setdefault(corpus, []).append(lat[fixed:])
        typical = [shared + [median(check) for check in zip(*cats)]
                   for cats in by_corpus.values()]
        pooled = [t for b in typical for t in b]
        m = timed_metrics(sum(pooled) / len(typical), statistics.median(pooled),
                          percentile(pooled, 85))
        m["suite_s"], m["check_p50_ms"], m["check_p85_ms"] = (
            m["run_s"], m["op_p50_ms"], m["op_tail_ms"])
        m["catalogs"] = (len(samples), "count")
        m["corpora"] = (len(typical), "count")
        at = 0
        for scope, names in self.SCOPES.items():
            m[f"scope_{scope}_s"] = (
                sum(sum(b[at:at + len(names)]) for b in typical) / len(typical), "s")
            at += len(names)
        return m

    def counts(self, samples, spans, ops):
        """Search nodes per corpus, from the traced run's solve spans;
        every catalog of one corpus does the same work."""
        if spans is None:
            return []
        per_op = {}
        for span in spans:
            if span[0] == "kernel.solve_max":
                per_op[span[4]] = per_op.get(span[4], 0) + span[5][1]
        return [(f"catalog_nodes:{ops[op]}", nodes) for op, nodes in per_op.items()]

    def group_of(self, op):
        return None


class _Stamps:
    """Output stream that records, as (start, duration), the time up to
    each check line from the previous one.  When ``pace`` is given and a
    piece is due, it runs after the line is stamped and the next check's
    time starts when it is done."""

    def __init__(self, pace):
        self.pace = pace
        self.start = time.perf_counter()
        self.checks = []

    def write(self, text):
        if text.startswith("CHECK "):
            t = time.perf_counter()
            self.checks.append((self.start, t - self.start))
            if self.pace is not None and self.pace.due():
                self.pace.tick()
                t = time.perf_counter()
            self.start = t
        return len(text)

    def flush(self):
        pass


HardOp = namedtuple("HardOp", "round labelling index perm graph kind")


class Hard:
    """Large exact solves through ``max_property_set``, one solve per op.

    Chosen to isolate the kernel's search: distances and table builds are
    well under 1% of it.  Ops come in rounds of the five instances below.
    The seed draws ``LABELLINGS`` vertex relabellings of every instance,
    which keep each value fixed but move node counts (most on the outer
    and total kinds); round ``r`` uses labelling ``r % LABELLINGS``, so
    every solve recurs through the run and its median time is kept.  The
    instances are grouped so that one optimisation moves one group and
    not the others: twin-breaking should move ``twin`` and ``gp`` and
    leave ``twinfree`` (the Mycielskian has no twins) unchanged; the
    group metrics ``{twin,twinfree,gp}_solve_s`` show which moved.
    """

    name = "hard"
    unit = "solves"
    expected_layers = (
        "graphs.all_pairs_distances", "kernel.get_kernel", "kernel.solve_max",
        "kernel.greedy_set", "kernel.set_ok", "solver.max_property_set",
        "visibility.is_property_set",
    )
    # spec, kind, exact value, group
    INSTANCES = (
        ("double(cycle:8)", "total", 8, "twin"),
        ("double(cycle:8)", "outer", 8, "twin"),
        ("myc(cycle:12)", "mv", 15, "twinfree"),
        ("double(cycle:10)", "mv", 10, "twin"),
        ("double(kminus:11)", "gp", 10, "gp"),
    )
    GROUPS = ("gp", "twin", "twinfree")
    LABELLINGS = 16
    CONFIRM_ORDER = 16  # confirm pinned values by brute force up to this order

    def __init__(self, gpvis, seed):
        self.gpvis = gpvis
        self.seed = seed
        self.base = [gpvis.parse_graph_spec(spec) for spec, *_ in self.INSTANCES]
        self.reference = [Geodesics(g.n, g.adj) for g in self.base]
        # values small enough to confirm here: no larger set has the
        # property (all four properties are closed under subsets)
        for (spec, kind, value, _), ref in zip(self.INSTANCES, self.reference):
            if ref.n <= self.CONFIRM_ORDER and ref.has_set_of_size(value + 1, kind):
                raise ValueError(f"{spec} {kind}: pinned value {value} is not the maximum")
        self.labellings = []
        for lab in range(self.LABELLINGS):
            row = []
            for i, g in enumerate(self.base):
                perm = list(range(g.n))
                random.Random(f"hard:{seed}:{lab}:{i}").shuffle(perm)
                roles = [None] * g.n
                for v, p in enumerate(perm):
                    roles[p] = g.roles[v]
                row.append((perm, gpvis.Graph(g.n, relabel(g.n, g.adj, perm), tuple(roles))))
            self.labellings.append(row)

    def ops(self):
        rnd = 0
        while True:
            lab = rnd % self.LABELLINGS
            for i, (_, kind, _, _) in enumerate(self.INSTANCES):
                perm, graph = self.labellings[lab][i]
                yield HardOp(rnd, lab, i, perm, graph, self.gpvis.PropertyKind.from_token(kind))
            rnd += 1

    def enough(self, done):
        return done >= len(self.INSTANCES) * self.LABELLINGS

    def units(self, op):
        return 1

    def run(self, op):
        return self.gpvis.max_property_set(op.graph, op.kind)

    def check(self, op, res):
        spec, kind, value, _ = self.INSTANCES[op.index]
        what = f"{spec} {kind} round {op.round}"
        if not res.exact or res.value != value or len(res.witness) != value:
            return 1, [f"{what}: value {res.value} ({res.status}), want {value}"]
        if not self.reference[op.index].ok(unrelabel_mask(res.witness.mask, op.perm), kind):
            return 1, [f"{what}: witness fails the reference check"]
        return 0, []

    def sample(self, op, res, t0, dt):
        return op.labelling, op.index, t0, dt, res.nodes_explored

    def metrics(self, times, samples, pace):
        """Median scaled time of each (labelling, instance) solve.  A round
        is the five median times of one labelling; its sum, median and
        slowest solve are averaged over the labellings that were solved
        in full (a mean, because each labelling is different work)."""
        solves = {}
        for lab, index, t0, dt, _ in samples:
            solves.setdefault((lab, index), []).append(pace.scaled(t0, dt))
        typical = {key: statistics.median(v) for key, v in solves.items()}
        n = len(self.INSTANCES)
        labs = [lab for lab in range(self.LABELLINGS)
                if all((lab, i) in typical for i in range(n))]
        rounds = [[typical[lab, i] for i in range(n)] for lab in labs]
        m = timed_metrics(statistics.mean(sum(r) for r in rounds),
                          statistics.mean(statistics.median(r) for r in rounds),
                          statistics.mean(max(r) for r in rounds))
        m["hard_s"] = m["run_s"]
        m["labellings"] = (len(labs), "count")
        m["solves"] = (len(samples), "count")
        for group in self.GROUPS:
            m[f"{group}_solve_s"] = (sum(
                typical[lab, i] for lab in labs for i, inst in enumerate(self.INSTANCES)
                if inst[3] == group) / len(labs), "s")
        return m

    def counts(self, samples, spans, ops):
        """Search nodes per (labelling, instance): deterministic for a seed."""
        return [(f"{lab}:{index}", nodes) for lab, index, _, _, nodes in samples]

    def group_of(self, op):
        return self.INSTANCES[op.index][3]


VerifyOp = namedtuple("VerifyOp", "spec kind labels mask verdict")


class Verify:
    """A seeded stream of ``gpvis check-set`` queries, run in-process.

    Each op does what the CLI's check-set does: parse the spec, parse the
    labelled set, build distances, verify.  About 30 graphs recur, so a
    per-graph cache has something to hit.  Sets are random maximal sets
    (grown by the reference checker) and one-vertex perturbations of
    them, so about half pass and a passing set costs a full check.  This
    uses the kernel's from-scratch ``set_ok`` where ``hard`` uses the
    incremental ``extend_ok``.  The seed draws ``QUERIES`` queries (and
    their reference verdicts) up front; the run cycles through them, so
    each query recurs through the run and its median time is kept.
    """

    name = "verify"
    unit = "queries"
    expected_layers = (
        "families.parse_graph_spec", "families.build", "graphs.all_pairs_distances",
        "kernel.get_kernel", "kernel.set_ok", "visibility.is_property_set",
    )
    POOL = tuple(
        f"{op}({fam}:{n})" for op in ("double", "myc") for fam in ("path", "cycle")
        for n in range(6, 13)
    ) + ("double(balloon:2)", "myc(balloon:2)", "double(kbip:5,6)", "myc(kbip:5,6)")
    BASE_SETS = 4
    QUERIES = 2000
    PER_WALL = 1000  # run_s is the time of this many queries
    TAIL = 99

    def __init__(self, gpvis, seed):
        self.gpvis = gpvis
        self.seed = seed
        self.graphs = [gpvis.parse_graph_spec(spec) for spec in self.POOL]
        self.reference = [Geodesics(g.n, g.adj) for g in self.graphs]
        self.maximal = {}
        self.queries = self._make_queries()

    def _base_set(self, gi, kind, j):
        key = (gi, kind, j)
        if key not in self.maximal:
            rng = random.Random(f"verify-base:{self.seed}:{gi}:{kind}:{j}")
            self.maximal[key] = self.reference[gi].random_maximal(kind, rng)
        return self.maximal[key]

    def _make_queries(self):
        rng = random.Random(f"verify:{self.seed}")
        queries = []
        for _ in range(self.QUERIES):
            gi = rng.randrange(len(self.POOL))
            kind = rng.choice(KINDS)
            mask = self._base_set(gi, kind, rng.randrange(self.BASE_SETS))
            g = self.graphs[gi]
            inside = [v for v in range(g.n) if mask >> v & 1]
            outside = [v for v in range(g.n) if not mask >> v & 1]
            move = rng.randrange(4)
            if move in (1, 3) and len(inside) > 1:
                mask &= ~(1 << rng.choice(inside))
            if (move in (2, 3) or not mask) and outside:
                mask |= 1 << rng.choice(outside)
            labels = ",".join(g.label(v) for v in range(g.n) if mask >> v & 1)
            verdict = self.reference[gi].ok(mask, kind)
            queries.append(VerifyOp(self.POOL[gi], kind, labels, mask, verdict))
        return queries

    def ops(self):
        while True:
            yield from self.queries

    def enough(self, done):
        return done >= self.QUERIES

    def units(self, op):
        return 1

    def run(self, op):
        gpvis = self.gpvis
        g = gpvis.parse_graph_spec(op.spec)
        kind = gpvis.PropertyKind.from_token(op.kind)
        s = gpvis.VertexSet.of(g.n, [g.index(tok) for tok in op.labels.split(",")])
        d = gpvis.all_pairs_distances(g)
        return gpvis.is_property_set(g, d, s, kind), s.mask

    def check(self, op, output):
        ok, mask = output
        if mask != op.mask or ok != op.verdict:
            return 1, [f"{op.spec} {op.kind} {{{op.labels}}}: got {ok}, want {op.verdict}"]
        return 0, []

    def sample(self, op, output, t0, dt):
        return None

    def metrics(self, times, samples, pace):
        """Median scaled time of each query over its repeats (op ``k`` of
        the run is query ``k % QUERIES``); ``run_s`` is ``PER_WALL``
        queries at their mean median time."""
        q = self.QUERIES
        typical = [statistics.median(times[j::q]) for j in range(q)]
        m = timed_metrics(sum(typical) * self.PER_WALL / q, statistics.median(typical),
                          percentile(typical, self.TAIL))
        m["verify_sets_per_s"] = (self.PER_WALL / m["run_s"][0], "1/s")
        m["verify_p50_ms"], m["verify_p99_ms"] = m["op_p50_ms"], m["op_tail_ms"]
        m["queries"] = (len(times), "count")
        m["pass_share"] = (sum(op.verdict for op in self.queries) / q, "ratio")
        return m

    def counts(self, samples, spans, ops):
        return []

    def group_of(self, op):
        return None


WORKLOADS = {w.name: w for w in (Suite, Hard, Verify)}
