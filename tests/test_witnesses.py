"""Closed-form values, explicit witness constructions, and witness files."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpvis

from gpvis import (
    FormulaId,
    PropertyKind,
    VertexSet,
    all_pairs_distances,
    balloon_double_witness,
    double_graph,
    fixed_witness,
    format_witness_set,
    formula_value,
    generate,
    invariant,
    is_mutual_visibility_set,
    is_outer_mutual_visibility_set,
    is_total_mutual_visibility_set,
    load_witness_file,
    mycielskian,
    parse_graph_spec,
    parse_witness_set,
    save_witness_file,
    wheel_graph,
    witness_diam3,
    witness_double_from_total,
    witness_myc_cycle,
    witness_myc_path,
    witness_universal,
)


@pytest.mark.parametrize(
    "formula,n,value",
    [
        (FormulaId.MU_DOUBLE_CYCLE, 7, 7),
        (FormulaId.MU_DOUBLE_CYCLE, 10, 10),
        (FormulaId.MU_DOUBLE_CYCLE_SMALL, 4, 6),
        (FormulaId.MU_DOUBLE_CYCLE_SMALL, 5, 6),
        (FormulaId.MU_DOUBLE_CYCLE_SMALL, 6, 7),
        (FormulaId.GP_DOUBLE_PATH, 6, 4),
        (FormulaId.GP_DOUBLE_CYCLE, 8, 6),
        (FormulaId.GP_DOUBLE_COMPLETE, 5, 5),
        (FormulaId.MU_MYC_PATH, 5, 6),
        (FormulaId.MU_MYC_PATH, 8, 10),
        (FormulaId.MU_MYC_PATH, 10, 12),
        (FormulaId.MU_MYC_CYCLE, 8, 10),
        (FormulaId.MU_MYC_CYCLE, 10, 12),
        (FormulaId.MU_MYC_CYCLE_SMALL, 4, 6),
        (FormulaId.MU_MYC_CYCLE_SMALL, 7, 9),
        (FormulaId.MU_UNIVERSAL_DOUBLE, 4, 7),
        (FormulaId.MU_UNIVERSAL_MYC, 6, 11),
        (FormulaId.MU_DOUBLE_PATH, 5, 7),
        (FormulaId.MU_DOUBLE_BALLOON, 2, 12),
        (FormulaId.MU_TOTAL_BALLOON, 2, 0),
        (FormulaId.MU_MYC_PATH_SMALL, 4, 6),
    ],
)
def test_formula_values(formula, n, value):
    assert formula_value(formula, n=n) == value


def test_formula_kbip():
    assert formula_value(FormulaId.MU_MYC_KBIP, r1=3, r2=3) == 10
    assert formula_value(FormulaId.MU_MYC_KBIP, r1=4, r2=3) == 12
    with pytest.raises(ValueError):
        formula_value(FormulaId.MU_MYC_KBIP, r1=2, r2=3)
    with pytest.raises(ValueError):
        formula_value(FormulaId.MU_MYC_KBIP, n=6)


@pytest.mark.parametrize(
    "formula,n",
    [
        (FormulaId.MU_DOUBLE_CYCLE, 6),
        (FormulaId.MU_DOUBLE_CYCLE_SMALL, 7),
        (FormulaId.MU_MYC_PATH, 4),
        (FormulaId.MU_MYC_CYCLE, 7),
        (FormulaId.MU_MYC_CYCLE_SMALL, 8),
        (FormulaId.GP_DOUBLE_CYCLE, 5),
        (FormulaId.GP_DOUBLE_KMINUS, 4),
        (FormulaId.MU_MYC_PATH_SMALL, 5),
    ],
)
def test_formula_domains(formula, n):
    with pytest.raises(ValueError):
        formula_value(formula, n=n)


def test_formula_requires_n():
    with pytest.raises(ValueError):
        formula_value(FormulaId.MU_DOUBLE_CYCLE)


def test_recorded_kminus_formula_value():
    # The recorded closed form says n; the solver disagrees (see the
    # failing gp_D_Kminus checks in the verification suite).  The formula
    # reports the recorded value, not the computed one.
    assert formula_value(FormulaId.GP_DOUBLE_KMINUS, n=6) == 6


@pytest.mark.parametrize("n", range(5, 13))
def test_witness_myc_path(n):
    s = witness_myc_path(n)
    g = mycielskian(generate_path(n))
    assert s.n == g.n
    assert len(s) == n + (n + 1) // 4
    assert is_mutual_visibility_set(g, all_pairs_distances(g), s)


@pytest.mark.parametrize("n", range(8, 13))
def test_witness_myc_cycle(n):
    s = witness_myc_cycle(n)
    g = mycielskian(parse_graph_spec(f"cycle:{n}"))
    assert s.n == g.n
    assert len(s) == n + n // 4
    assert is_mutual_visibility_set(g, all_pairs_distances(g), s)


@pytest.mark.parametrize("name, n", [("witness_myc_path", 5), ("witness_myc_cycle", 8)])
def test_witness_size_check_survives_optimize_flag(name, n):
    # The size self-check must raise under ``python -O`` too, where a bare
    # assert is stripped: make the catalog report a wrong size.
    script = (
        "import gpvis.witnesses as w\n"
        "w.formula_value = lambda formula, n: n * 100\n"
        f"w.{name}({n})\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gpvis.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert "AssertionError" in run.stderr and "witness" in run.stderr


def test_witness_myc_path_is_optimal_small():
    # Where the solver can confirm it, the construction meets the optimum.
    for n in (5, 6, 7):
        g = parse_graph_spec(f"myc(path:{n})")
        assert len(witness_myc_path(n)) == invariant(g, PropertyKind.MV)


def test_witness_constructors_reject_out_of_range():
    with pytest.raises(ValueError):
        witness_myc_path(4)
    with pytest.raises(ValueError):
        witness_myc_cycle(7)


@pytest.mark.parametrize("name,n,size", [("dc4", 4, 6), ("dc5", 5, 6), ("dc6", 6, 7)])
def test_fixed_witnesses(name, n, size):
    spec, s = fixed_witness(name)
    assert spec.params == (n,)
    g = double_graph(generate(spec))
    assert len(s) == size
    assert is_mutual_visibility_set(g, all_pairs_distances(g), s)
    # These sets achieve the recorded small-cycle optima.
    assert size == invariant(g, PropertyKind.MV)


def test_fixed_witness_unknown_name():
    with pytest.raises(ValueError):
        fixed_witness("dc7")


def test_fixed_witness_dc4_members():
    _, s = fixed_witness("dc4")
    g = parse_graph_spec("double(cycle:4)")
    assert s.labels(g) == ("v1", "v2", "v1'", "v2'", "v3'", "v4'")


def test_witness_universal_star_and_wheel():
    for m in (2, 3, 4, 5):
        g = parse_graph_spec(f"star:{m + 1}")
        for op, build in (("double", double_graph), ("myc", mycielskian)):
            s = witness_universal(g, 0, op)
            h = build(g)
            assert len(s) == 2 * g.n - 1
            assert is_mutual_visibility_set(h, all_pairs_distances(h), s)
    w = wheel_graph(5)
    s = witness_universal(w, 0, "double")
    assert len(s) == 11
    h = double_graph(w)
    assert is_mutual_visibility_set(h, all_pairs_distances(h), s)


def test_witness_universal_validation():
    g = parse_graph_spec("path:4")  # no universal vertex
    with pytest.raises(ValueError):
        witness_universal(g, 0, "double")
    s5 = parse_graph_spec("star:5")
    with pytest.raises(ValueError):
        witness_universal(s5, 1, "double")  # leaf is not universal
    with pytest.raises(ValueError):
        witness_universal(s5, 0, "triple")
    for v in (4, 5, -1):  # outside 0..3 of star:4
        with pytest.raises(ValueError):
            witness_universal(parse_graph_spec("star:4"), v, "double")


def test_witness_double_from_total():
    g = parse_graph_spec("path:5")
    d = all_pairs_distances(g)
    total = VertexSet.of(5, [0, 4])
    assert is_total_mutual_visibility_set(g, d, total)
    s = witness_double_from_total(g, total)
    dg = double_graph(g)
    assert len(s) == 5 + 2
    assert is_mutual_visibility_set(dg, all_pairs_distances(dg), s)


def test_witness_double_from_total_validation():
    g = parse_graph_spec("complete:4")
    with pytest.raises(ValueError):
        witness_double_from_total(g, VertexSet.of(4, []))
    p = parse_graph_spec("path:5")
    with pytest.raises(ValueError):
        witness_double_from_total(p, VertexSet.of(5, [2]))  # not total


def test_witness_diam3():
    g = parse_graph_spec("cycle:5")
    d = all_pairs_distances(g)
    outer = VertexSet.of(5, [0, 2])
    assert is_outer_mutual_visibility_set(g, d, outer)
    assert not is_total_mutual_visibility_set(g, d, outer)
    s = witness_diam3(g, outer)
    mg = mycielskian(g)
    assert len(s) == 5 + 2
    assert is_mutual_visibility_set(mg, all_pairs_distances(mg), s)


def test_witness_diam3_validation():
    with pytest.raises(ValueError):
        witness_diam3(parse_graph_spec("complete:4"), VertexSet.of(4, []))
    with pytest.raises(ValueError):
        witness_diam3(parse_graph_spec("path:6"), VertexSet.of(6, [0]))  # diam 5
    g = parse_graph_spec("cycle:5")
    with pytest.raises(ValueError):
        witness_diam3(g, VertexSet.of(5, [0, 1, 2, 3]))  # not outer


def test_balloon_double_witness():
    s = balloon_double_witness(2)
    g = parse_graph_spec("double(balloon:2)")
    assert s.n == g.n
    assert len(s) >= 12
    assert is_mutual_visibility_set(g, all_pairs_distances(g), s)


def test_witness_format_and_parse():
    g = parse_graph_spec("double(path:3)")
    s = VertexSet.of(6, [0, 2, 3, 5])
    line = format_witness_set(g, s)
    assert line == "v1 v3 v1' v3'"
    assert parse_witness_set(g, line).members() == s.members()
    with pytest.raises(ValueError):
        parse_witness_set(g, "v1 v9")
    with pytest.raises(ValueError, match="twice"):
        parse_witness_set(parse_graph_spec("cycle:5"), "v1 v1 v3")


def test_witness_file_round_trip(tmp_path):
    g = parse_graph_spec("double(cycle:4)")
    _, s1 = fixed_witness("dc4")
    s2 = VertexSet.of(8, [0, 1])
    path = tmp_path / "sets.txt"
    save_witness_file(str(path), g, [s1, s2])
    text = path.read_text()
    assert text.startswith("#") or "v1" in text
    loaded = load_witness_file(str(path), g)
    assert [s.members() for s in loaded] == [s1.members(), s2.members()]


def generate_path(n):
    return parse_graph_spec(f"path:{n}")
