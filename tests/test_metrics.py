"""Distance measurement against an independent Floyd-Warshall oracle."""

import math

import numpy as np
import pytest

from ultrasmall.degrees import DegreeSequence, PowerLawSpec, sample_iid_powerlaw, fix_parity
from ultrasmall.cm import generate_cm
from ultrasmall.pam import PamParams, generate_pam
from ultrasmall.multigraph import MultiGraph
from ultrasmall.metrics import (
    bfs,
    connected_components,
    diameter,
    typical_distance_sample,
    extract_core,
    core_diameter,
)


def floyd_warshall(graph):
    """Dense all-pairs shortest paths, O(n^3); the test oracle."""
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in graph.edges():
        if u != v:
            dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def random_small_graph(index):
    rng = np.random.default_rng(index)
    n = int(rng.integers(2, 51))
    if index % 2 == 0:
        spec = PowerLawSpec(tau=2.5, d_min=1 + index % 3, n=n)
        seq = fix_parity(sample_iid_powerlaw(spec, index))
        return generate_cm(seq, index)
    params = PamParams(m=1 + index % 3, delta=-0.5)
    return generate_pam(params, n, seed=index).undirected_view()


@pytest.mark.parametrize("index", range(12))
def test_bfs_matches_floyd_warshall(index):
    g = random_small_graph(index)
    oracle = floyd_warshall(g)
    for source in range(0, g.n, max(1, g.n // 5)):
        rep = bfs(g, source)
        assert np.array_equal(rep.distances, oracle[source])


@pytest.mark.parametrize("index", range(12))
def test_diameter_matches_floyd_warshall(index):
    g = random_small_graph(index)
    oracle = floyd_warshall(g)
    labels, sizes = connected_components(g)
    # components are the classes of finite distance, numbered in the order
    # of their smallest vertex
    assert np.array_equal(labels[:, None] == labels[None, :], np.isfinite(oracle))
    seen, first = np.unique(labels, return_index=True)
    assert np.array_equal(seen, np.arange(sizes.size))
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(sizes, np.bincount(labels))
    lcc = int(np.argmax(sizes))
    inside = labels == lcc
    sub = oracle[np.ix_(inside, inside)]
    expect = int(sub[np.isfinite(sub)].max())
    for method in ("exact", "ifub"):
        res = diameter(g, method=method)
        assert res.diam == expect
        assert res.lcc_size == sizes[lcc]
        assert res.component_fraction == pytest.approx(sizes[lcc] / g.n)


def test_diameter_ignores_hubs_and_paths_outside_lcc():
    # component 0..30: a star on 0 with leaves 1..20 and a tail 21..30, so it
    # holds the highest degree (21) and a diameter of 11
    edges = [(0, v) for v in range(1, 21)] + [(0, 21)]
    edges += [(v, v + 1) for v in range(21, 30)]
    # the LCC 31..78: a 12-cycle whose vertices carry 3 leaves each,
    # degree at most 5 and diameter 8
    cycle = list(range(31, 43))
    edges += [(u, cycle[(i + 1) % 12]) for i, u in enumerate(cycle)]
    leaf = 43
    for u in cycle:
        for _ in range(3):
            edges.append((u, leaf))
            leaf += 1
    g = MultiGraph.from_edge_list(leaf, edges)
    oracle = floyd_warshall(g)
    lcc = np.arange(31, leaf)
    expect = int(oracle[np.ix_(lcc, lcc)].max())
    assert expect == 8
    for method in ("exact", "ifub"):
        res = diameter(g, method=method)
        assert res.diam == expect
        assert res.lcc_size == lcc.size


def test_diameter_methods_agree_medium():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=800)
    seq = fix_parity(sample_iid_powerlaw(spec, 77))
    g = generate_cm(seq, 77)
    assert diameter(g, "exact").diam == diameter(g, "ifub").diam


def test_diameter_auto_switches_method():
    small = MultiGraph.from_edge_list(3, [(0, 1), (1, 2)])
    assert diameter(small, "auto").method == "exact"
    spec = PowerLawSpec(tau=2.5, d_min=3, n=2000)
    seq = fix_parity(sample_iid_powerlaw(spec, 5))
    big = generate_cm(seq, 5)
    assert diameter(big, "auto").method == "ifub"


def test_connected_components_path_plus_isolated():
    g = MultiGraph.from_edge_list(4, [(0, 1), (1, 2)])
    labels, sizes = connected_components(g)
    assert sorted(sizes.tolist()) == [1, 3]
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] != labels[0]


def test_typical_distance_sample_values():
    g = MultiGraph.from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    oracle = floyd_warshall(g)
    rng_seed = 3
    dists = typical_distance_sample(g, 200, rng_seed)
    # re-draw the same pairs to validate each sampled distance
    rng = np.random.default_rng(rng_seed)
    for d in dists:
        a, b = int(rng.integers(g.n)), int(rng.integers(g.n))
        assert d == oracle[a, b]


def test_extract_core_cm_threshold():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=5000)
    seq = fix_parity(sample_iid_powerlaw(spec, 21))
    g = generate_cm(seq, 21)
    core = extract_core(g, spec, sigma=2.2)
    thr = math.log(g.n) ** 2.2
    assert core.threshold == pytest.approx(thr)
    assert np.all(g.degrees[core.members] >= thr)
    outside = np.setdiff1d(np.arange(g.n), core.members)
    assert np.all(g.degrees[outside] < thr)
    with pytest.raises(ValueError):
        extract_core(g, spec, sigma=1.0)  # below 1/(3 - tau) = 2


def test_extract_core_pam_uses_half_time_snapshot():
    params = PamParams(2, -1.0)  # tau = 2.5, so sigma > 2 required
    g = generate_pam(params, 4000, seed=8)
    core = extract_core(g, params, sigma=2.2)
    assert core.snapshot_time == g.t // 2
    snap = g.degree_snapshot(g.t // 2)
    assert np.all(snap[core.members] >= core.threshold)


def test_core_diameter_on_hand_graph():
    # path 0-1-2-3 with heavy endpoints marked as the core
    g = MultiGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    class FakeCore:
        members = np.array([0, 3])
    assert core_diameter(g, FakeCore()) == 3
    class Empty:
        members = np.array([], dtype=np.int64)
    with pytest.raises(ValueError):
        core_diameter(g, Empty())
    # disconnected core
    g2 = MultiGraph.from_edge_list(4, [(0, 1), (2, 3)])
    class Split:
        members = np.array([0, 3])
    assert core_diameter(g2, Split()) == math.inf
