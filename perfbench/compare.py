"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result records that run.py writes under
``.perfbench_out/results/``; untraced records are compared.  For every
workload and end-to-end metric this prints both medians, each side's
quartile spread as a share of its median, and the change as a share of
the base median, marked ``WORSE`` when it exceeds the metric's bound in
BENCHMARK.json and ``UNRESOLVED`` when the base's own spread is wider
than the bound.  A workload is reported as not comparable instead when
its two sides ran a different backend or Python version, or when any
record on either side is not correct (a failed or wrong operation, a
failed pinned check or a count mismatch; a correct record has no failed
operation): a faster program that is wrong is no gain.  Exits 1 when any
metric is worse or any workload is not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if not rec["meta"]["trace"]:
            out.setdefault(rec["meta"]["workload"], []).append(rec)
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"{workload}: results on one side only")
            status = 1
            continue
        sides = [{(r["meta"]["backend"], r["meta"]["python"]) for r in rs} for rs in (a, b)]
        if len(sides[0] | sides[1]) > 1:
            print(f"{workload}: NOT COMPARABLE, backend/python {sorted(sides[0])} "
                  f"against {sorted(sides[1])}")
            status = 1
            continue
        wrong = [r["meta"]["seed"] for r in a + b if not r["correct"]]
        if wrong:
            print(f"{workload}: NOT COMPARABLE, incorrect runs (seeds {sorted(wrong)})")
            status = 1
            continue
        print(f"{workload}: {len(a)} base runs, {len(b)} new runs, backend {sides[0].pop()[0]}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            (ma, sa), (mb, sb) = spread(va), spread(vb)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if change > bound:
                verdict = "WORSE"
                status = 1
            elif sa > bound and not (max(vb) < min(va) if m["better"] == "lower"
                                     else min(vb) > max(va)):
                verdict = "UNRESOLVED"
            print(f"  {name:12s} base {ma:.5g} (spread {sa:.3f})  new {mb:.5g} "
                  f"(spread {sb:.3f})  worse by {change:+.3f} of base, bound {bound}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
