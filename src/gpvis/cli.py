"""Command-line interface.

Subcommands map one-to-one onto library operations: ``gen`` and ``dist``
emit a graph and its distance matrix, ``check-set`` verifies a labelled
vertex set, ``invariant`` and ``enumerate`` run the solver, and
``verify-paper`` executes the reference-value verification suite.

Vertex labels are 1-based: ``v3`` base, ``v3'`` copy, ``v*`` apex; sets
are comma-separated, e.g. ``--set v1,v3,v2',v*``.  Exit codes: 0 success
or all checks pass, 1 a check or set verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .families import parse_graph_spec
from .graphs import VertexSet, all_pairs_distances, graph_to_edge_list_text
from .report import DEFAULT_CORPUS_SEED, SCOPES, run_verification_suite
from .solver import enumerate_maximum_sets, max_property_set
from .visibility import PropertyKind, is_property_set
from .witnesses import parse_witness_set


def _parse_set(g, text: str) -> VertexSet:
    line = text.replace(",", " ")
    if not line.split():
        raise ValueError("empty vertex set argument")
    return parse_witness_set(g, line)


def _format_set(g, s: VertexSet) -> str:
    return ",".join(s.labels(g)) if len(s) else "(empty)"


def _cmd_gen(args) -> int:
    g = parse_graph_spec(args.spec)
    sys.stdout.write(graph_to_edge_list_text(g))
    return 0


def _cmd_dist(args) -> int:
    g = parse_graph_spec(args.spec)
    d = all_pairs_distances(g)
    for u in range(g.n):
        print(" ".join(str(x) for x in d.row(u)))
    return 0


def _cmd_check_set(args) -> int:
    g = parse_graph_spec(args.spec)
    kind = PropertyKind.from_token(args.kind)
    s = _parse_set(g, args.set)
    d = all_pairs_distances(g)
    ok = is_property_set(g, d, s, kind)
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} kind={kind.value} size={len(s)} set={_format_set(g, s)}")
    return 0 if ok else 1


def _cmd_invariant(args) -> int:
    g = parse_graph_spec(args.spec)
    kind = PropertyKind.from_token(args.kind)
    res = max_property_set(g, kind, target=args.target, time_limit=args.time_limit)
    stop = f" stopped_by={res.stopped_by}" if res.stopped_by else ""
    print(
        f"value={res.value} status={res.status}{stop} "
        f"witness={_format_set(g, res.witness)} "
        f"nodes={res.nodes_explored} elapsed={res.elapsed:.3f}s"
    )
    return 0


def _cmd_enumerate(args) -> int:
    g = parse_graph_spec(args.spec)
    kind = PropertyKind.from_token(args.kind)
    sets = enumerate_maximum_sets(g, kind)
    size = len(sets[0]) if sets else 0
    print(f"size={size} count={len(sets)}")
    for s in sets:
        print(_format_set(g, s))
    return 0


def _cmd_verify(args) -> int:
    report = run_verification_suite(
        args.scope,
        seed=args.seed,
        max_n=args.max_n,
        time_limit=args.time_limit,
        stream=sys.stdout,
    )
    print()
    print(report.to_table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"csv written to {args.csv}")
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpvis",
        description="Exact mutual-visibility and general-position engine "
        "for double graphs and Mycielskians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph as an edge list")
    p.add_argument("spec", help="graph spec, e.g. double(cycle:7)")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("dist", help="print the all-pairs distance matrix")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("check-set", help="verify a labelled vertex set")
    p.add_argument("spec")
    p.add_argument("--kind", required=True, help="mv | outer | total | gp")
    p.add_argument("--set", required=True, help="labels, e.g. v1,v3,v2',v*")
    p.set_defaults(fn=_cmd_check_set)

    p = sub.add_parser("invariant", help="exact maximum-set computation")
    p.add_argument("spec")
    p.add_argument("--kind", required=True)
    p.add_argument("--target", type=int, default=None,
                   help="stop at the first set of at least this size")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("enumerate", help="list all maximum sets (small graphs)")
    p.add_argument("spec")
    p.add_argument("--kind", required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run the reference-value suite")
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)
    p.add_argument("--max-n", type=int, default=None,
                   help="skip value checks on graphs of larger order")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                   help="per-solve time budget")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
