"""The catalog of recorded closed forms, one row per formula.

``FormulaId`` is the table.  Each member holds the suite scope it is
checked in, the property kind, the parameter domain, the closed form,
whether it is an exact value (``==``) or a lower bound (``>=``), and
the suite checks that recompute it.  ``formula_value``, the suite's
value checks and the witness constructors' size checks all read these
rows, so each closed form is written once.  A family whose value the
paper constructs names that construction as its ``witness``; the suite
starts the family's solves from it and gates it, so each construction
has one home too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .families import parse_graph_spec
from .graphs import VertexSet
from .visibility import PropertyKind


@dataclass(frozen=True)
class Family:
    """Suite checks on one graph family, one per parameter dict.

    ``name`` and ``spec`` are ``str.format`` templates; the spec names
    the graph of each check.  ``witness`` builds the paper's construction
    of a set of the row's value in the family's graph, with no solve; it
    calls its builder by name, so the builder resolves at call time.
    """

    name: str
    spec: str
    params: tuple[dict[str, int], ...]
    witness: Callable[[dict[str, int]], VertexSet] | None = None


def _ns(values) -> tuple[dict[str, int], ...]:
    return tuple({"n": n} for n in values)


# K_{1,m} and W_m have order n = m + 1 and the universal vertex v1
_STARS = tuple({"m": m, "n": m + 1} for m in range(2, 6))
_WHEELS = tuple({"m": m, "n": m + 1} for m in range(4, 7))


def _from_total(base: str, total: Callable[[int], tuple[int, ...]]):
    """The witness in D(G), G the graph of order n of the spec template
    ``base``: V(G') plus the total mutual-visibility set ``total(n)`` of G."""
    def build(p):
        g = parse_graph_spec(base.format(**p))
        return witnesses.witness_double_from_total(g, VertexSet.of(g.n, total(g.n)))
    return build


def _universal(base: str, operator: str):
    """The witness at the universal vertex v1 of G, the graph of the spec
    template ``base``, in D(G) or M(G) as ``operator`` says."""
    return lambda p: witnesses.witness_universal(parse_graph_spec(base.format(**p)), 0, operator)


class FormulaId(Enum):
    """A row: scope, kind, domain (each parameter's lowest and highest
    value, None for unbounded), form, families, and op."""

    def __init__(self, scope, kind, domain, form, families, op="=="):
        self.scope = scope
        self.kind = kind
        self.domain = domain
        self.form = form
        self.families = families
        self.op = op

    MU_DOUBLE_CYCLE = ("double", PropertyKind.MV, {"n": (7, None)}, lambda n: n,
                       (Family("mu_D_C{n}", "double(cycle:{n})", _ns(range(7, 11)),
                               witness=_from_total("cycle:{n}", lambda n: ())),))
    MU_DOUBLE_CYCLE_SMALL = ("double", PropertyKind.MV, {"n": (4, 6)},
                             lambda n: {4: 6, 5: 6, 6: 7}[n],
                             (Family("mu_D_C{n}", "double(cycle:{n})", _ns(range(4, 7)),
                                     witness=lambda p: witnesses.fixed_witness(f"dc{p['n']}")[1]),))
    MU_DOUBLE_PATH = ("double", PropertyKind.MV, {"n": (3, None)}, lambda n: n + 2,
                      (Family("mu_D_P{n}", "double(path:{n})", _ns(range(3, 9)),
                             witness=_from_total("path:{n}", lambda n: (0, n - 1))),))
    GP_DOUBLE_PATH = ("double", PropertyKind.GP, {"n": (3, None)}, lambda n: 4,
                      (Family("gp_D_P{n}", "double(path:{n})", _ns(range(3, 9))),))
    GP_DOUBLE_CYCLE = ("double", PropertyKind.GP, {"n": (6, None)}, lambda n: 6,
                       (Family("gp_D_C{n}", "double(cycle:{n})", _ns(range(6, 11))),))
    GP_DOUBLE_COMPLETE = ("double", PropertyKind.GP, {"n": (2, None)}, lambda n: n,
                          (Family("gp_D_K{n}", "double(complete:{n})", _ns(range(2, 8))),))
    # the recorded value; exhaustive search finds n - 1, and the suite says so
    GP_DOUBLE_KMINUS = ("double", PropertyKind.GP, {"n": (5, None)}, lambda n: n,
                        (Family("gp_D_Kminus{n}", "double(kminus:{n})", _ns(range(5, 9))),))
    MU_UNIVERSAL_DOUBLE = ("double", PropertyKind.MV, {"n": (2, None)}, lambda n: 2 * n - 1,
                           (Family("mu_D_K1_{m}", "double(star:{n})", _STARS,
                                   witness=_universal("star:{n}", "double")),
                            Family("mu_D_W{m}", "double(wheel:{m})", _WHEELS,
                                   witness=_universal("wheel:{m}", "double"))))
    # balloon:n is n five-cycles on a hub
    MU_DOUBLE_BALLOON = ("double", PropertyKind.MV, {"n": (1, None)}, lambda n: 6 * n,
                         (Family("mu_D_balloon{n}_target", "double(balloon:{n})", _ns((2,))),),
                         ">=")
    MU_TOTAL_BALLOON = ("double", PropertyKind.TOTAL, {"n": (1, None)}, lambda n: 0,
                        (Family("mu_t_balloon{n}", "balloon:{n}", _ns((2,))),))
    MU_MYC_PATH_SMALL = ("mycielskian", PropertyKind.MV, {"n": (4, 4)}, lambda n: 6,
                         (Family("mu_M_P{n}", "myc(path:{n})", _ns((4,))),))
    MU_MYC_PATH = ("mycielskian", PropertyKind.MV, {"n": (5, None)}, lambda n: n + (n + 1) // 4,
                   (Family("mu_M_P{n}", "myc(path:{n})", _ns(range(5, 11)),
                          witness=lambda p: witnesses.witness_myc_path(p["n"])),))
    MU_MYC_CYCLE_SMALL = ("mycielskian", PropertyKind.MV, {"n": (4, 7)}, lambda n: n + 2,
                          (Family("mu_M_C{n}", "myc(cycle:{n})", _ns(range(4, 8))),))
    MU_MYC_CYCLE = ("mycielskian", PropertyKind.MV, {"n": (8, None)}, lambda n: n + n // 4,
                    (Family("mu_M_C{n}", "myc(cycle:{n})", _ns(range(8, 11)),
                           witness=lambda p: witnesses.witness_myc_cycle(p["n"])),))
    MU_MYC_KBIP = ("mycielskian", PropertyKind.MV, {"r1": (3, None), "r2": (3, None)},
                   lambda r1, r2: 2 * (r1 + r2) - 2,
                   (Family("mu_M_K{r1}{r2}", "myc(kbip:{r1},{r2})",
                           ({"r1": 3, "r2": 3}, {"r1": 4, "r2": 3})),))
    MU_UNIVERSAL_MYC = ("mycielskian", PropertyKind.MV, {"n": (2, None)}, lambda n: 2 * n - 1,
                        (Family("mu_M_K1_{m}", "myc(star:{n})", _STARS,
                                witness=_universal("star:{n}", "myc")),
                         Family("mu_M_W{m}", "myc(wheel:{m})", _WHEELS,
                                witness=_universal("wheel:{m}", "myc"))))

    def at(self, params: dict[str, int | None]) -> int:
        """The value at ``params``; keys outside the domain are ignored,
        and a missing or out-of-domain parameter raises ValueError."""
        args = {name: params.get(name) for name in self.domain}
        if None in args.values():
            raise ValueError(f"{self.name.lower()} takes parameters {', '.join(self.domain)}")
        for name, (lo, hi) in self.domain.items():
            if not lo <= args[name] <= (args[name] if hi is None else hi):
                raise ValueError(f"{self.name.lower()} needs {name} in [{lo}, {hi or 'inf'}]")
        return self.form(**args)


def formula_value(formula: FormulaId, n: int | None = None,
                  r1: int | None = None, r2: int | None = None) -> int:
    """The closed-form value for the formula on in-domain parameters."""
    return formula.at({"n": n, "r1": r1, "r2": r2})


# last: witnesses imports FormulaId and formula_value from this module, and
# the families' witness callables above look it up only when called
from . import witnesses  # noqa: E402
