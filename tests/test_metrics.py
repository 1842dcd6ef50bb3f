"""Distance measurement against an independent Floyd-Warshall oracle."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ultrasmall.degrees import DegreeSequence, PowerLawSpec, sample_iid_powerlaw, fix_parity
from ultrasmall.cm import generate_cm
from ultrasmall.pam import PamParams, generate_pam
from ultrasmall.multigraph import MultiGraph
from ultrasmall.metrics import (
    UNREACHED,
    _bfs_levels,
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
    # isolated vertex 1 has an empty slot range that starts at vertex 2's
    # first slot, whose neighbor is the source
    g = MultiGraph.from_edge_list(3, [(2, 0)])
    assert bfs(g, 0).distances.tolist() == [0.0, math.inf, 1.0]
    assert connected_components(g)[0].tolist() == [0, 1, 0]


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


def test_typical_distance_sample_matches_floyd_warshall():
    zeros = infinite = 0
    for index in range(12):
        g = random_small_graph(index)
        oracle = floyd_warshall(g)
        dists = typical_distance_sample(g, 100, index)
        rng = np.random.default_rng(index)
        for d in dists:
            a, b = int(rng.integers(g.n)), int(rng.integers(g.n))
            assert d == oracle[a, b]
        zeros += int(np.sum(dists == 0))
        infinite += int(np.sum(np.isinf(dists)))
    assert zeros > 0 and infinite > 0


def test_typical_distance_sample_matches_bfs_on_many_components():
    spec = PowerLawSpec(tau=2.5, d_min=1, n=3000)
    g = generate_cm(fix_parity(sample_iid_powerlaw(spec, 4)), 4)
    assert connected_components(g)[1].size > 100
    dists = typical_distance_sample(g, 200, 9)
    rng = np.random.default_rng(9)
    for d in dists:
        a, b = int(rng.integers(g.n)), int(rng.integers(g.n))
        level = _bfs_levels(g, [a])[b]
        assert d == (math.inf if level == UNREACHED else level)
    assert np.isinf(dists).any() and dists[np.isfinite(dists)].max() >= 5


def _scipy_levels(graph, sources):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    edges = graph.edges()
    adj = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(graph.n, graph.n)
    ).tocsr()
    dist = csgraph.shortest_path(
        adj, directed=False, unweighted=True, indices=sources
    ).min(axis=0)
    return np.where(np.isinf(dist), UNREACHED, dist).astype(np.int64)


def _cm_and_pam_view(kind):
    if kind == "cm":
        spec = PowerLawSpec(tau=2.5, d_min=3, n=5000)
        g = generate_cm(fix_parity(sample_iid_powerlaw(spec, 12)), 12)
        return g, extract_core(g, spec, sigma=2.2)
    pam = generate_pam(PamParams(2, -1.0), 5000, seed=12)
    return pam.undirected_view(), extract_core(pam, PamParams(2, -1.0), sigma=2.2)


@pytest.mark.parametrize("kind", ["cm", "pam"])
def test_bfs_levels_bottom_up_matches_scipy(kind):
    g, core = _cm_and_pam_view(kind)
    assert core.members.size >= 2
    hub = int(np.argmax(g.degrees))
    for sources in ([hub], [0], core.members):
        expect = _scipy_levels(g, np.asarray(sources))
        assert np.array_equal(_bfs_levels(g, sources), expect)
        capped = np.where(expect <= 2, expect, UNREACHED)
        assert np.array_equal(_bfs_levels(g, sources, level_cap=2), capped)
        # some level's frontier is large enough for the bottom-up step:
        # more than n/64 vertices holding more than 1/8 of the half-edges
        assert any(
            (expect == level).sum() * 64 > g.n
            and g.degrees[expect == level].sum() * 8 > g.num_half_edges
            for level in range(int(expect.max()))
        )


def test_shuffled_long_path():
    n = 20000
    order = np.random.default_rng(1).permutation(n)  # the path's vertices
    g = MultiGraph.from_edge_list(n, np.column_stack((order[:-1], order[1:])))
    assert connected_components(g)[1].tolist() == [n]
    assert diameter(g, "ifub").diam == n - 1
    position = np.argsort(order)
    dists = typical_distance_sample(g, 5, 2)
    rng = np.random.default_rng(2)
    for d in dists:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        assert d == abs(int(position[a]) - int(position[b]))


def test_diameter_sweep_counts():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=5000)
    cm = generate_cm(fix_parity(sample_iid_powerlaw(spec, 12)), 12)
    pam = generate_pam(PamParams(2, -1.0), 5000, seed=12).undirected_view()
    # a change of iFUB's references or candidate order moves these counts;
    # the sweep from the highest-degree reference serves both the
    # double sweep and the reference bounds
    cm_res, pam_res = diameter(cm, "ifub"), diameter(pam, "ifub")
    assert (cm_res.diam, cm_res.sweeps) == (6, 62)
    assert (pam_res.diam, pam_res.sweeps) == (7, 44)
    small = random_small_graph(4)
    res = diameter(small, "exact")
    assert res.sweeps == res.lcc_size
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.sweeps = 0


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


@pytest.mark.parametrize("index", range(12))
def test_core_diameter_matches_floyd_warshall(index):
    g = random_small_graph(index)
    oracle = floyd_warshall(g)
    labels, sizes = connected_components(g)
    rng = np.random.default_rng(100 + index)
    # the top-degree vertices of the LCC, random vertices, and (when the
    # graph has more than one component) a core split across two of them
    lcc = np.flatnonzero(labels == np.argmax(sizes))
    cores = [
        lcc[np.argsort(g.degrees[lcc])[-4:]],
        rng.choice(g.n, size=min(g.n, 5), replace=False),
    ]
    if sizes.size > 1:
        cores.append([lcc[0], np.flatnonzero(labels != labels[lcc[0]])[0]])
    for members in cores:
        members = np.sort(members)
        sub = oracle[np.ix_(members, members)]
        expect = math.inf if np.isinf(sub).any() else int(sub.max())
        assert core_diameter(g, SimpleNamespace(members=members)) == expect
