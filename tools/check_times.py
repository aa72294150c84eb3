"""Per-check times of the verification suite, measured in process.

    python3 tools/check_times.py [--seeds 4 5 6 7] [--repeats 3] [--out FILE.json]

Runs ``run_verification_suite(seed=s)``, the ``verify-paper`` catalog,
once per corpus seed s, ``--repeats`` times over, in one process, on the
backend that ``get_kernel`` picks (set GPVIS_KERNEL to force one).  One
catalog of the first seed runs first untimed, scope by scope, so imports
and first-use set-up are not counted and each check's scope is known.
Each catalog records every check's ``elapsed`` and its share of the
catalog's total.  Prints, per check, the median time in ms over all
catalogs, its range and its median share, slowest first; then the same
for each scope's sum (double, mycielskian, bounds; the bounds scope's
corpus solves all land on ``gp_double_sandwich``, the first check that
reads them), and last the median catalog total; ``--out`` writes every
catalog's times as JSON.  Run it from the repo root, with ``src``
importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
from pathlib import Path

from gpvis import backend_name
from gpvis.report import SCOPES, run_verification_suite


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[4, 5, 6, 7])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out")
    opts = ap.parse_args(argv)
    if opts.repeats < 1:
        ap.error("--repeats must be at least 1")
    parts = [scope for scope in SCOPES if scope != "all"]
    scope_of = {check.name: scope for scope in parts
                for check in run_verification_suite(scope, seed=opts.seeds[0]).checks}
    catalogs = []
    for _ in range(opts.repeats):
        for seed in opts.seeds:
            report = run_verification_suite(seed=seed)
            times = {check.name: check.elapsed for check in report.checks}
            catalogs.append({"seed": seed, "total_s": sum(times.values()), "checks": times})
    print(f"backend {backend_name()}, Python {platform.python_version()}, "
          f"seeds {' '.join(map(str, opts.seeds))}, {len(catalogs)} catalogs")
    _print_rows(catalogs, {name: [name] for name in catalogs[0]["checks"]})
    _print_rows(catalogs, {f"scope {scope}": [name for name in catalogs[0]["checks"]
                                              if scope_of[name] == scope]
                           for scope in parts}, sort=False)
    total = statistics.median(c["total_s"] for c in catalogs)
    print(f"{'catalog total':32} {total * 1e3:8.2f} ms")
    if opts.out:
        Path(opts.out).write_text(json.dumps({
            "backend": backend_name(), "python": platform.python_version(),
            "seeds": opts.seeds, "repeats": opts.repeats, "catalogs": catalogs,
        }, indent=1) + "\n")


def _print_rows(catalogs, groups, sort=True) -> None:
    """One line per group of checks: the median of the group's summed time
    over catalogs, its range and its median share of a catalog."""
    rows = []
    for label, names in groups.items():
        times = [sum(c["checks"][name] for name in names) for c in catalogs]
        shares = [t / c["total_s"] for t, c in zip(times, catalogs)]
        rows.append((statistics.median(times), min(times), max(times), statistics.median(shares), label))
    if sort:
        rows.sort(reverse=True)
    for median, low, high, share, label in rows:
        print(f"{label:32} {median * 1e3:8.2f} ms  ({low * 1e3:7.2f} - {high * 1e3:7.2f})  {share:6.1%}")


if __name__ == "__main__":
    main()
