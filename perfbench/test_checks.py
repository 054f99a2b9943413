"""Tests of the benchmark's independent output checks.

Each checker must accept a correct output and reject a corrupted one:
a flipped output bit, a dropped cube, two blocks on one site and a
route that misses a sink among them.  Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import harness  # noqa: E402


def random_rows(rng, n, m, cubes):
    rows = []
    for _ in range(cubes):
        inputs = 0
        for i in range(n):
            inputs |= rng.choice((1, 2, 3, 3)) << (2 * i)
        rows.append((inputs, rng.randrange(1, 1 << m)))
    return rows


def flip_output_bit(rows, n_outputs):
    """The same cover with one cube's output tag changed."""
    inputs, outputs = rows[0]
    return [(inputs, outputs ^ 1 if n_outputs == 1 else outputs ^ 2)] \
        + rows[1:]


# ----------------------------------------------------------------------
# covers
# ----------------------------------------------------------------------
def test_truth_tables_agree_with_scalar_walk():
    rng = random.Random(3)
    for _ in range(20):
        n, m = rng.randint(1, 7), rng.randint(1, 3)
        rows = random_rows(rng, n, m, rng.randint(0, 9))
        tables = checks.cover_tables(n, m, rows)
        for minterm in range(1 << n):
            mask = sum(1 << k for k in range(m) if (tables[k] >> minterm) & 1)
            assert mask == checks.eval_rows(n, rows, minterm)


def test_parse_rows_round_trips_positional_notation():
    assert checks.parse_rows(["1-0 10"], 3, 2) == [(0b011110, 0b01)]
    with pytest.raises(checks.CheckError):
        checks.parse_rows(["1-0 1"], 3, 2)


@pytest.fixture(scope="module")
def minimized():
    from repro.espresso import espresso
    from repro.logic.cover import Cover
    from repro.logic.cube import Cube
    from repro.logic.function import BooleanFunction

    n, m = 6, 3
    rows = random_rows(random.Random(11), n, m, 14)
    function = BooleanFunction(Cover(n, m, [Cube(n, i, o, m)
                                            for i, o in rows]))
    cover = espresso(function).cover
    assert len(cover) < len(rows)
    return n, m, rows, [(c.inputs, c.outputs) for c in cover.cubes]


def test_minimized_cover_is_accepted(minimized):
    n, m, rows, result = minimized
    checks.check_equivalent(n, m, result, rows)


def test_flipped_output_bit_is_rejected(minimized):
    n, m, rows, result = minimized
    with pytest.raises(checks.CheckError):
        checks.check_equivalent(n, m, flip_output_bit(result, m), rows)


def test_dropped_cube_is_rejected(minimized):
    n, m, rows, result = minimized
    for index in range(len(result)):
        with pytest.raises(checks.CheckError):
            checks.check_equivalent(n, m, result[:index] + result[index + 1:],
                                    rows)


def test_dont_cares_may_be_covered():
    # f = x0 & x1 with x0 & ~x1 a don't care: the cube x0 is a valid cover
    on = [(0b1010, 1)]
    dc = [(0b0110, 1)]
    checks.check_equivalent(2, 1, [(0b1110, 1)], on, dc)
    with pytest.raises(checks.CheckError):
        checks.check_equivalent(2, 1, [(0b1110, 1)], on)


def test_phases_complement_outputs():
    on = [(0b1010, 1)]                 # f = x0 & x1
    complement = [(0b1101, 1), (0b0111, 1)]   # ~x0 | ~x1
    checks.check_equivalent(2, 1, complement, on, phases=[False])
    with pytest.raises(checks.CheckError):
        checks.check_equivalent(2, 1, complement, on, phases=[True])


# ----------------------------------------------------------------------
# the GNOR planes
# ----------------------------------------------------------------------
def plane_of(config):
    return ([[d.value for d in row] for row in config.and_plane],
            [[d.value for d in row] for row in config.or_plane],
            list(config.output_inverted))


def test_gnor_planes_of_mapped_cover(minimized):
    from repro.logic.cover import Cover
    from repro.logic.cube import Cube
    from repro.mapping.gnor_map import map_cover_to_gnor

    n, m, rows, result = minimized
    cover = Cover(n, m, [Cube(n, i, o, m) for i, o in result])
    plane = plane_of(map_cover_to_gnor(cover))
    checks.check_gnor(n, m, plane, rows)

    and_plane, or_plane, inverted = plane
    row = next(r for r, devices in enumerate(and_plane)
               if "pass" in devices)
    col = and_plane[row].index("pass")
    bad = [list(devices) for devices in and_plane]
    bad[row][col] = "invert"
    with pytest.raises(checks.CheckError):
        checks.check_gnor(n, m, (bad, or_plane, inverted), rows)
    with pytest.raises(checks.CheckError):
        checks.check_gnor(n, m, (and_plane, or_plane,
                                 [not inverted[0]] + inverted[1:]), rows)


def test_gnor_phase_assigned_planes():
    # one output realized complemented: OR plane computes ~f, no buffer
    on = [(0b1010, 1)]
    complement = [(0b1101, 1), (0b0111, 1)]
    and_plane = [["pass", "drop"], ["drop", "pass"]]
    plane = (and_plane, [["pass", "pass"]], [False])
    checks.check_gnor(2, 1, plane, on)
    checks.check_equivalent(2, 1, complement, on, phases=[False])


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["add3", "addc2", "cmp3", "gt4", "eq3",
                                  "pop5"])
def test_integer_oracles_match_generated_cells(spec):
    from repro import workloads

    info = workloads.parse_workload(spec)
    n, tables = checks.oracle_tables(info["family"], info["width"])
    function = workloads.build_workload(spec)
    rows = [(c.inputs, c.outputs) for c in function.on_set.cubes]
    got = checks.cover_tables(n, len(tables), rows)
    checks.check_tables(n, got, tables)
    bad = flip_output_bit(rows, len(tables))
    with pytest.raises(checks.CheckError):
        checks.check_tables(n, checks.cover_tables(n, len(tables), bad),
                            tables)


@pytest.mark.parametrize("spec", ["clf-majority9-perceptron",
                                  "clf-mux6-dlist"])
def test_classifier_rules_match_compiled_cells(spec):
    from repro import workloads

    info = workloads.parse_workload(spec)
    model = workloads.train_model(info["dataset"], info["algorithm"])
    n, table = checks.classifier_table(model.to_json())
    function = workloads.build_workload(spec)
    rows = [(c.inputs, c.outputs) for c in function.on_set.cubes]
    checks.check_tables(n, checks.cover_tables(n, 1, rows), [table])
    with pytest.raises(checks.CheckError):
        checks.check_tables(n, checks.cover_tables(n, 1, rows[1:]), [table])


def test_threshold_rule_by_hand():
    n, table = checks.classifier_table(
        {"kind": "threshold", "weights": [2, 1, 1], "theta": 2})
    expected = [m for m in range(8) if 2 * (m & 1) + ((m >> 1) & 1)
                + ((m >> 2) & 1) >= 2]
    assert n == 3
    assert [m for m in range(8) if (table >> m) & 1] == expected


# ----------------------------------------------------------------------
# Table 1 and the Wilson interval
# ----------------------------------------------------------------------
def test_table1_formula_gives_the_paper_areas():
    dims = {"max46": (9, 1, 46), "apla": (10, 12, 25), "t2": (17, 16, 52)}
    for name, areas in checks.PAPER_TABLE1.items():
        for tech, area in areas.items():
            assert checks.table1_area(tech, *dims[name]) == area
    with pytest.raises(checks.CheckError):
        checks.check_area(27601, "cnfet", 9, 1, 46)


TABLE1_TEXT = """Table 1: Area of logic functions in 3 technologies
==================================================
                 Flash    EEPROM   CNFET
---------------  -------  -------  -------
Basic cell (L2)  40       100      60
max46 (L2)       34 960   87 400   27 600
apla (L2)        32 000   80 000   33 000
t2 (L2)          104 000  260 000  102 960
"""


def test_table1_text_is_checked_against_the_paper():
    assert checks.check_table1_text(TABLE1_TEXT) == {
        "max46": 27600, "apla": 33000, "t2": 102960}
    with pytest.raises(checks.CheckError):
        checks.check_table1_text(TABLE1_TEXT.replace("33 000", "33 600"))
    with pytest.raises(checks.CheckError):
        checks.check_table1_text(TABLE1_TEXT.replace("t2 (L2)", "t3 (L2)"))


def test_wilson_interval():
    lo, hi = checks.wilson(8, 10)
    assert lo == pytest.approx(0.4901568, abs=1e-6)
    assert hi == pytest.approx(0.9433191, abs=1e-6)
    checks.check_wilson(8, 10, 0.8, (lo, hi))
    with pytest.raises(checks.CheckError):
        checks.check_wilson(8, 10, 0.7, (lo, hi))
    with pytest.raises(checks.CheckError):
        checks.check_wilson(8, 10, 0.8, (lo, hi + 0.01))


def test_wilson_matches_program_reports():
    from repro.robustness.yield_engine import wilson_interval

    for successes, n in ((0, 5), (5, 5), (3, 40), (97, 100)):
        assert checks.wilson(successes, n) == pytest.approx(
            wilson_interval(successes, n), abs=1e-12)


# ----------------------------------------------------------------------
# placement and routing
# ----------------------------------------------------------------------
def test_placement_walk():
    sites = {"a": (0, 0), "b": (1, 0), "c": (1, 1)}
    checks.check_placement(2, 2, ["a", "b", "c"], sites)
    with pytest.raises(checks.CheckError):  # two blocks on one site
        checks.check_placement(2, 2, ["a", "b", "c"],
                               dict(sites, c=(1, 0)))
    with pytest.raises(checks.CheckError):  # off the grid
        checks.check_placement(2, 2, ["a", "b", "c"], dict(sites, c=(2, 1)))
    with pytest.raises(checks.CheckError):  # a block left unplaced
        checks.check_placement(2, 2, ["a", "b", "c", "d"], sites)


def test_route_walk():
    terminals = [(0, 0), (2, 0), (2, 2)]
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1)),
             ((2, 1), (2, 2))]
    checks.check_route(3, 3, terminals, edges)
    with pytest.raises(checks.CheckError):  # the last sink is missed
        checks.check_route(3, 3, terminals, edges[:-1])
    with pytest.raises(checks.CheckError):  # a diagonal jump
        checks.check_route(3, 3, terminals,
                           edges[:2] + [((2, 0), (1, 1))])


def test_routed_emulation_passes_the_walks():
    from repro.fpga.emulate import run_emulation

    report = run_emulation(seed=5, grid_side=4, jobs=1)
    for run in (report.standard, report.cnfet):
        width, height = run.fabric.width, run.fabric.height
        checks.check_placement(width, height, run.netlist.blocks,
                               run.placement.sites)
        for net in run.netlist.nets:
            terminals = checks.net_terminals(net.source, net.sinks, net.name,
                                             run.placement.sites,
                                             run.placement.pads)
            edges = run.routing.routed[net.name].edges
            checks.check_route(width, height, terminals, edges)
            if len(set(terminals)) >= 2 and edges:
                sink = terminals[-1]
                cut = [e for e in edges if sink not in e]
                with pytest.raises(checks.CheckError):
                    checks.check_route(width, height, terminals, cut)


# ----------------------------------------------------------------------
# the benchmark description
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    for metric in spec["end_to_end"]:
        unit, better = harness.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == \
            harness.PER_LAYER[metric["name"]]
    from run import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
METRICS = {"p50_ms": (1.5, "ms")}


def test_known_failure_keeps_the_run_correct():
    from run import verdict

    ops = [harness.Op("info", 0.5), harness.Op("serve_stdio", 0.5, ok=False)]
    result = verdict(ops, [], ("serve_stdio",), METRICS)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (True, 2, 1)
    assert result["metrics"] == {"p50_ms": {"value": 1.5, "unit": "ms"}}


def test_unexpected_failure_makes_the_run_incorrect():
    from run import verdict

    ops = [harness.Op("minimize", 0.5),
           harness.Op("minimize", 0.5, ok=False, error="ValueError: t2")]
    result = verdict(ops, [], ("serve_stdio",), METRICS)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 2, 1)
    assert verdict(ops, [], (), METRICS)["correct"] is False


def test_wrong_output_makes_the_run_incorrect():
    from run import verdict

    result = verdict([harness.Op("minimize", 0.5)], ["minimize #1: differs"],
                     (), METRICS)
    assert result["correct"] is False and result["failed"] == 0
