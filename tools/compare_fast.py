"""Time two kernels against each other: two builds of the compiled
kernel, two versions of the pure one, or one of each.

    python3 tools/compare_fast.py BASE CHANGE [--runs 11] [--start] [--out FILE.json]

BASE and CHANGE are kernel sources, loaded by their suffix.  A ``.c``
file (a ``_fast.c``) is built with the flags of the test suite's
``fast_kernel`` fixture into a temporary directory; a ``.py`` file (a
``pure.py``) is imported from its path under a module name of its own.
Every instance is solved with the graph's ``role_symmetries``, as
``solver.max_property_set`` passes them.  A pure kernel keeps the latest
search copy with its tables and memo, so it is dropped before each solve,
which is then timed as a first solve of its graph.  With ``--start``
both sides start every solve from the instance's optimum, the mask of
the base's first solve without a start, in place of the greedy seed.
It checks that both kernels return the same size, mask and status, prints
both node counts (a change that prunes more walks a smaller tree), then
times ``solve_max`` in alternating runs: run k times the base first when k
is even.  A run times enough back-to-back solves to last about 20 ms and
records the time per solve.  Prints per instance the base and change
medians, the median over runs of change/base (each run times the two
back to back, so a machine that changes speed between runs shifts both
sides alike) and in how many runs the change was faster.  Then it times
``set_ok`` of the instance's optimum (the mask of the base's first solve)
the same way, for every kind that set has, as a from-scratch set check
of a recurring graph (a pure kernel keeps its checked record between
calls).  Last come the sums of the base and change medians over the
solves, and over the set checks, with their ratios; ``--out`` writes
every run as JSON.  Run it from the repo
root, with ``src`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shlex
import statistics
import subprocess
import sysconfig
import tempfile
import time
from pathlib import Path

from gpvis import all_pairs_distances, parse_graph_spec
from gpvis.graphs import role_symmetries

KIND_CODES = {"mv": 0, "outer": 1, "total": 2, "gp": 3}
INSTANCES = [
    *(f"{g} outer" for g in ("double(cycle:8)", "double(cycle:12)", "myc(path:12)", "double(path:10)",
                             "double(balloon:2)", "myc(cycle:12)", "double(kbip:5,6)")),
    *(f"{g} total" for g in ("double(cycle:8)", "double(cycle:10)", "double(cycle:12)", "double(path:12)",
                             "double(kbip:5,6)", "myc(balloon:2)", "double(balloon:2)", "double(path:8)")),
    *(f"{g} mv" for g in ("double(cycle:10)", "double(cycle:14)", "myc(cycle:12)", "myc(cycle:16)")),
    *(f"{g} gp" for g in ("double(kminus:11)", "double(kminus:16)", "myc(cycle:20)", "double(cycle:20)")),
]


def load(source: str, outdir: Path, tag: str):
    """Import one kernel: a ``pure.py`` from its path as ``_pure_<tag>``, or
    a ``_fast.c`` compiled as the ``fast_kernel`` fixture compiles it."""
    if source.endswith(".py"):
        spec = importlib.util.spec_from_file_location(f"_pure_{tag}", source)
    else:
        out = outdir / tag / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
        out.parent.mkdir()
        cmd = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
        cmd += ["-O2", "-Wall", "-Werror", "-fPIC", "-I", sysconfig.get_paths()["include"], source, "-o", str(out)]
        subprocess.run(cmd, check=True)
        spec = importlib.util.spec_from_file_location("_fast", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_solve(kernel, args, reps: int) -> float:
    copies = getattr(kernel, "_search_copy", None)
    start = time.perf_counter()
    for _ in range(reps):
        if copies is not None:
            copies.cache_clear()
        kernel.solve_max(*args)
    return (time.perf_counter() - start) / reps


def per_check(kernel, args, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        kernel.set_ok(*args)
    return (time.perf_counter() - start) / reps


def alternate(kernels, per_call, args, runs: int) -> dict:
    """Time ``per_call`` on both sides in ``runs`` alternating runs of
    about 20 ms each; the run times and their summary."""
    reps = max(1, round(0.02 / per_call(kernels["base"], args, 1)))
    times = {"base": [], "change": []}
    for k in range(runs):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            times[side].append(per_call(kernels[side], args, reps))
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    return {"reps": reps, "runs": times,
            "base_median_s": statistics.median(times["base"]),
            "change_median_s": statistics.median(times["change"]),
            "median_run_ratio": statistics.median(ratios),
            "change_faster_runs": sum(r < 1 for r in ratios)}


def report(label: str, timing: dict, runs: int, unit: str = "ms") -> str:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    base, change = timing["base_median_s"] * scale, timing["change_median_s"] * scale
    return (f"{label:40} base {base:8.3f} {unit}  change {change:8.3f} {unit}"
            f"  ratio {timing['median_run_ratio']:.2f}  faster in {timing['change_faster_runs']}/{runs}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--instances", nargs="+", default=INSTANCES, metavar="'SPEC KIND'")
    ap.add_argument("--start", action="store_true",
                    help="start both sides from the optimum of the base's first solve")
    ap.add_argument("--out")
    opts = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        kernels = {"base": load(opts.base, Path(tmp), "base"), "change": load(opts.change, Path(tmp), "change")}
        rows = []
        for instance in opts.instances:
            spec, kind = instance.split()
            g = parse_graph_spec(spec)
            args = (g.n, g.adj, all_pairs_distances(g).data, KIND_CODES[kind], 0, 0.0, role_symmetries(g))
            if opts.start:
                args += (kernels["base"].solve_max(*args)[1],)
            result = {side: kernels[side].solve_max(*args) for side in kernels}
            base_r, change_r = result["base"], result["change"]
            if base_r[:2] != change_r[:2] or base_r[3] != change_r[3]:
                raise SystemExit(f"{instance}: the two kernels disagree on size, mask or status")
            row = {"instance": instance, "result": {side: list(r) for side, r in result.items()},
                   **alternate(kernels, per_solve, args, opts.runs), "set_ok": {}}
            nodes = f"nodes {result['base'][2]:>6} -> {result['change'][2]:>6}"
            print(report(f"{instance:26} {nodes}", row, opts.runs), flush=True)
            for name, code in KIND_CODES.items():
                check = (*args[:3], base_r[1], code)
                verdicts = {side: kernels[side].set_ok(*check) for side in kernels}
                if verdicts["base"] != verdicts["change"]:
                    raise SystemExit(f"{instance}: the two kernels disagree on set_ok {name} of the optimum")
                if verdicts["base"]:
                    row["set_ok"][name] = alternate(kernels, per_check, check, opts.runs)
                    print(report(f"  set_ok {name}", row["set_ok"][name], opts.runs, "us"), flush=True)
            rows.append(row)
    total = {}
    checks = [t for row in rows for t in row["set_ok"].values()]
    for what, timings, unit, scale in (("solve_max", rows, "ms", 1e3), ("set_ok", checks, "us", 1e6)):
        base = sum(t["base_median_s"] for t in timings)
        change = sum(t["change_median_s"] for t in timings)
        total[what] = {"base_s": base, "change_s": change, "ratio": change / base}
        print(f"{'total ' + what:40} base {base * scale:8.3f} {unit}  change {change * scale:8.3f} {unit}"
              f"  ratio {change / base:.2f}")
    if opts.out:
        Path(opts.out).write_text(json.dumps({"runs_per_side": opts.runs, "start": opts.start, "instances": rows,
                                             "total": total},
                                             indent=1) + "\n")


if __name__ == "__main__":
    main()
