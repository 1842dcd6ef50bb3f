"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

PATH5 = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])  # diameter 4; vertex 5 alone


def test_exact_diameter_accepts_truth_and_rejects_a_wrong_diameter():
    assert checks.diameter_problems("p", 6, PATH5, 4, 5 / 6, exact=True) == []
    assert checks.diameter_problems("p", 6, PATH5, 3, 5 / 6, exact=True)
    assert checks.diameter_problems("p", 6, PATH5, 5, 5 / 6, exact=True)


def test_wrong_component_fraction_fails():
    assert checks.diameter_problems("p", 6, PATH5, 4, 4 / 6, exact=True)
    assert checks.diameter_problems("p", 6, PATH5, 4, 1.0, exact=False)


def test_eccentricity_bracket():
    path = np.column_stack((np.arange(9), np.arange(1, 10)))  # diameter 9
    assert checks.diameter_problems("p", 10, path, 9, 1.0, exact=False) == []
    assert checks.diameter_problems("p", 10, path, 4, 1.0, exact=False)
    assert checks.diameter_problems("p", 10, path, 19, 1.0, exact=False)


def test_loops_and_parallel_edges_act_as_simple_adjacency():
    edges = np.array([[0, 0]] * 200 + [[0, 1]] * 200 + [[1, 2]])
    assert checks.diameter_problems("m", 3, edges, 2, 1.0, exact=True) == []


def _core_dist_csv(path, distances):
    lines = ["vertex,dist_to_core"] + [
        f"{v + 1},{'inf' if math.isinf(d) else int(d)}"
        for v, d in enumerate(distances)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_wrong_distance_to_core_fails(tmp_path):
    csv_path = tmp_path / "core_dist.csv"
    core = np.array([2])
    truth = [2, 1, 0, 1, 2, math.inf]
    _core_dist_csv(csv_path, truth)
    assert checks.core_dist_problems("c", 6, PATH5, core, csv_path) == []
    _core_dist_csv(csv_path, [2, 1, 0, 1, 3, math.inf])
    assert checks.core_dist_problems("c", 6, PATH5, core, csv_path)
    _core_dist_csv(csv_path, [2, 1, 0, 1, 2, 7])
    assert checks.core_dist_problems("c", 6, PATH5, core, csv_path)


def test_wrong_degrees_and_typical_distances_fail():
    assert checks.degree_problems("d", 6, PATH5, [1, 2, 2, 2, 1, 0]) == []
    assert checks.degree_problems("d", 6, PATH5, [1, 2, 2, 2, 2, 0])
    assert checks.typical_problems("t", 2.5, 4.0, 4) == []
    assert checks.typical_problems("t", 2.5, 5.0, 4)
    assert checks.typical_problems("t", 0.0, 3.0, 4)


def test_pam_checks_agree_with_the_program():
    from ultrasmall import PamParams, census_mkc, extract_core, generate_pam
    from ultrasmall import distance_to_core

    params = PamParams(m=2, delta=-1.0)
    graph = generate_pam(params, 3000, 11)
    assert checks.pam_mkc1(graph.xi) == census_mkc(graph, params, 1).count
    core = extract_core(graph, params, 2.2)
    assert np.array_equal(checks.pam_core(graph.xi, 2.2), core.members)
    expected = distance_to_core(graph, core).distances
    got = checks.core_distances(3000, checks.pam_edges(graph.xi), core.members)
    assert np.array_equal(got, expected)


def test_pam_check_rejects_a_bad_xi_and_bad_degrees():
    from ultrasmall import PamParams, generate_pam

    graph = generate_pam(PamParams(m=2, delta=-1.0), 500, 4)
    view = graph.undirected_view()
    xi, degrees = graph.xi, view.degrees
    assert checks.pam_problems("x", xi, degrees, view.num_edges) == []
    future = xi.copy()
    future[9, 1] = 11  # vertex 10 attaches to a vertex born after it
    assert checks.pam_problems("x", future, degrees, view.num_edges)
    zero = xi.copy()
    zero[9, 0] = 0
    assert checks.pam_problems("x", zero, degrees, view.num_edges)
    moved = xi.copy()
    moved[9, 1] = 1 if xi[9, 1] != 1 else 2  # valid, but not the view's xi
    assert checks.pam_problems("x", moved, degrees, view.num_edges)
    shifted = degrees.copy()
    shifted[[3, 4]] += (1, -1)  # same sum, wrong vertices
    assert checks.pam_problems("x", xi, shifted, view.num_edges)
    assert checks.pam_problems("x", xi, degrees, view.num_edges - 1)


def test_edge_list_parse_matches_the_program(tmp_path):
    from ultrasmall import PowerLawSpec, fix_parity, generate_cm
    from ultrasmall import sample_iid_powerlaw

    seq = fix_parity(sample_iid_powerlaw(PowerLawSpec(2.5, 1, 500), 3))
    graph = generate_cm(seq, 3)
    graph.write_edge_list(tmp_path / "g.txt")
    n, edges = checks.read_edge_list(tmp_path / "g.txt")
    assert n == 500
    assert np.array_equal(edges, graph.edges())
    assert checks.degree_problems("g", n, edges, seq.degrees) == []


def test_tracer_counts_self_time_and_restores_the_program():
    from ultrasmall import MultiGraph, harness, metrics

    original = metrics.diameter
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        assert harness.diameter is metrics.diameter is not original
        graph = MultiGraph.from_edge_list(6, PATH5)
        assert metrics.diameter(graph).diam == 4
    finally:
        uninstall()
    assert harness.diameter is metrics.diameter is original
    assert tracer.counts["metrics.diameter.calls"] == 1
    assert tracer.counts["metrics.components"] == 2
    parents = {span[0]: span for span in tracer.spans}
    for span_id, parent, layer, start, end in tracer.spans:
        if parent is not None:
            assert parents[parent][3] <= start <= end <= parents[parent][4]
    total = sum(end - start for _, parent, _, start, end in tracer.spans
                if parent is None)
    assert sum(tracer.self_s.values()) == pytest.approx(total)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "run_rel", "peak_rss_mib"]
