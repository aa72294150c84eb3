"""Benchmark of the gpvis package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is built: the kernel is whichever backend
``get_kernel`` picks).  ``--trace 0`` measures the workload for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs the
same operations untraced and then traced, and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a result record (and,
traced, its spans) under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from pace import REF_S, WARM, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 3  # spawn pairs before the run; more follow between ops
SETUP_EVERY_S = 2.0
TRACE_CHUNK_S = 1.0
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import gpvis; gpvis.backend_name()"
BARE_CODE = "import sys; sys.path.insert(0, sys.argv[1])"


def load_package():
    """Import gpvis from this checkout's src/, never from anywhere else."""
    if not (SRC / "gpvis" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'gpvis'}")
    os.environ.pop("GPVIS_KERNEL", None)
    sys.path.insert(0, str(SRC))
    import gpvis

    if Path(gpvis.__file__).resolve().parent != (SRC / "gpvis").resolve():
        raise SystemExit(f"error: imported gpvis from {gpvis.__file__}, not {SRC}")
    return gpvis


class Setup:
    """Set-up time: a fresh interpreter that imports gpvis and chooses its
    backend, beside a bare interpreter with the same path.  Spawns are
    spread over the run (``between_ops`` runs after each op, outside its
    timing); each spawn's time is scaled to the reference pace and the
    median of each is reported."""

    def __init__(self, pace):
        self.pace = pace
        self.env = {k: v for k, v in os.environ.items() if k != "GPVIS_KERNEL"}
        self.times = {"bare": [], "import": []}
        self.last = 0.0

    def spawn(self, pairs=1):
        for _ in range(pairs):
            for key, code in (("bare", BARE_CODE), ("import", IMPORT_CODE)):
                t0 = time.perf_counter()
                # no timeout: with one, the wait polls and rounds the time up
                subprocess.run([sys.executable, "-c", code, str(SRC)], env=self.env,
                               cwd=ROOT, check=True)
                self.times[key].append((t0, time.perf_counter() - t0))
                self.pace.tick()
        self.last = time.perf_counter()

    def between_ops(self):
        """One spawn pair if ``SETUP_EVERY_S`` has passed since the last,
        and a pace piece if one is due."""
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.spawn()
        self.pace.maybe()

    def result(self):
        """Median scaled time of the import spawns and of the bare ones,
        and the raw minimum of the import spawns."""
        scaled = {key: statistics.median(self.pace.scaled(t0, dt) for t0, dt in times)
                  for key, times in self.times.items()}
        return scaled["import"], scaled["bare"], min(dt for _, dt in self.times["import"])


class Run:
    """What one measuring loop leaves: per-op times, the workload's compact
    samples, and the correctness tally.  Kept small, because it grows
    with the number of ops and counts toward peak RSS."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self.samples = []
        self.ops = []
        self.attempted = self.failed = 0
        self.notes = []

    def extend(self, other):
        self.starts.extend(other.starts)
        self.times.extend(other.times)
        self.samples += other.samples
        self.ops += other.ops
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[:50 - len(self.notes)]


def measure(workload, ops, seconds, tracer=None, keep_ops=False, first_op=0, between=None):
    """Closed loop: run ops one after another until ``seconds`` have passed
    and the workload has enough of them.  Each output is checked right
    after its op, outside the op's timed region, and ``between`` (if
    given) is called there too."""
    run = Run()
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = first_op + len(run.times)
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc().strip().splitlines()[-1]
        dt = time.perf_counter() - t0
        run.starts.append(t0)
        run.times.append(dt)
        units = workload.units(op)
        run.attempted += units
        if error is None:
            bad, why = workload.check(op, out)
            sample = workload.sample(op, out, t0, dt)
            if sample is not None:
                run.samples.append(sample)
        else:
            bad, why = units, [error]
        run.failed += bad
        run.notes += why[:50 - len(run.notes)]
        if keep_ops:
            run.ops.append(op)
        if between is not None:
            between()
        if time.perf_counter() - start >= seconds and workload.enough(len(run.times)):
            break
    return run


def source_digest(root, top):
    h = hashlib.sha256()
    for path in sorted((root / top).rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".txt"):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or None


def untraced(workload, seconds, setup):
    pace = setup.pace
    workload.pace = pace
    try:
        run = measure(workload, workload.ops(), seconds, between=setup.between_ops)
    finally:
        workload.pace = None
    pace.tick(WARM)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [pace.scaled(t0, dt) for t0, dt in zip(run.starts, run.times)]
    metrics = workload.metrics(scaled, run.samples, pace)
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    metrics["pace.piece_ms"] = (pace.median() * 1000, "ms")
    metrics["pace.pieces"] = (len(pace.took), "count")
    metrics["pace.raw_over_scaled"] = (sum(run.times) / sum(scaled), "ratio")
    return [run], metrics, workload.counts(run.samples, None, None), None, []


def traced(workload, seconds, setup):
    """Alternate between running about a second of ops untraced and
    replaying the same ops traced, for ``seconds`` in all.  The difference
    in summed wall time is the tracing overhead; alternating keeps a drift
    in machine speed out of it."""
    from gpvis import _kernel
    from trace import Tracer, layer_metrics, probe_tables
    from workloads import Hard

    kernels = [k for k in (_kernel.pure, _kernel.fast) if k is not None]
    plain, replay, tracer, missed = Run(), Run(), Tracer(), set()
    ops = workload.ops()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain.times:
        chunk = measure(workload, ops, TRACE_CHUNK_S, keep_ops=True, between=setup.between_ops)
        missed.update(tracer.install(kernels))
        try:
            replay.extend(measure(workload, chunk.ops, float("inf"), tracer,
                                  first_op=len(plain.ops)))
        finally:
            tracer.uninstall()
        plain.extend(chunk)
    plain_wall, traced_wall = sum(plain.times), sum(replay.times)
    metrics = layer_metrics(tracer, traced_wall, [workload.group_of(op) for op in plain.ops],
                            Hard.GROUPS)
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    probe_ms, probes = probe_tables(tracer, _kernel.get_kernel())
    metrics["kernel.tables.probe_ms"] = (probe_ms, "ms")
    metrics["kernel.tables.probes"] = (probes, "count")
    metrics["kernel.fast_available"] = (int(_kernel.fast is not None), "count")
    problems = [f"binding left unwrapped: {name}" for name in sorted(missed)]
    # the compiled solve_max seeds itself without calling the module's greedy_set
    expected = [layer for layer in workload.expected_layers
                if _kernel.get_kernel().NAME == "pure" or layer != "kernel.greedy_set"]
    problems += [f"layer {layer} recorded no calls" for layer in expected
                 if not any(s[0] == layer for s in tracer.spans)]
    if workload.name == "hard" and _kernel.fast is not None:
        metrics.update(fast_parity(workload, plain.ops, problems))
    counts = (workload.counts(plain.samples, None, None)
              + workload.counts(replay.samples, tracer.spans, plain.ops))
    return [plain, replay], metrics, counts, tracer, problems


def fast_parity(workload, ops, problems):
    """Pure against compiled ``solve_max`` on the first round of ``hard``:
    identical results required; the speed-up is reported per instance."""
    from gpvis._kernel import fast, pure

    out = {}
    for op in ops[:len(workload.INSTANCES)]:
        g = op.graph
        dist = workload.gpvis.all_pairs_distances(g).data
        results, times = [], []
        for kernel in (pure, fast):
            t0 = time.perf_counter()
            results.append(kernel.solve_max(g.n, g.adj, dist, op.kind.code))
            times.append(time.perf_counter() - t0)
        if results[0] != results[1]:
            problems.append(f"pure/fast mismatch on instance {op.index}: {results}")
        out[f"kernel.fast_speedup.{op.index}"] = (times[0] / times[1], "ratio")
    return out


def repeated_counts(meta, workload, counts):
    """Deterministic counts (search nodes) must repeat exactly: within this
    run wherever a key recurs, and across runs of the same package source,
    benchmark, backend, Python and seed through a record kept under
    .perfbench_out/counts/."""
    if not counts:
        return []
    bad = []
    seen = {}
    for key, value in counts:
        if seen.setdefault(key, value) != value:
            bad.append(f"count {key}: {value} and {seen[key]} in one run")
    name = "-".join([meta["src_sha256"], meta["bench_sha256"], meta["backend"],
                     meta["python"], workload, str(meta["seed"])])
    path = OUT / "counts" / f"{name}.json"
    before = json.loads(path.read_text()) if path.exists() else {}
    bad += [f"count {k}: {v} now, {before[k]} in an earlier run" for k, v in seen.items()
            if k in before and before[k] != v]
    if not bad:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**before, **seen}, sort_keys=True))
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["suite", "hard", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gpvis = load_package()
    from workloads import WORKLOADS

    setup = Setup(Pace())
    setup.pace.tick(WARM)
    setup.spawn(SETUP_SPAWNS)
    workload = WORKLOADS[args.workload](gpvis, args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": gpvis.backend_name(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "src_sha256": source_digest(SRC, "gpvis"),
        "bench_sha256": source_digest(ROOT, HERE.name), "machine": platform.machine(),
        "pace_ref_s": REF_S,
    }
    print("META " + json.dumps(meta, sort_keys=True), flush=True)
    measure_run = traced if args.trace else untraced
    runs, metrics, counts, tracer, problems = measure_run(workload, args.seconds, setup)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    notes = [note for r in runs for note in r.notes]
    problems += repeated_counts(meta, args.workload, counts)
    setup_s, bare_s, raw_min_s = setup.result()
    metrics["setup_s"] = (setup_s, "s")
    metrics["setup.raw_min_s"] = (raw_min_s, "s")
    metrics["setup.interpreter_s"] = (bare_s, "s")
    metrics["setup.import_s"] = (setup_s - bare_s, "s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    correct = failed == 0 and not problems

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "notes": notes[:50],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{stamp}.jsonl")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"METRIC {name} {value!r} {unit}")
    print(f"RESULT {workload.unit} attempted={attempted} failed={failed} "
          f"backend={meta['backend']} correct={correct}")
    for line in problems + notes[:50]:
        print(f"PROBLEM {line}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
