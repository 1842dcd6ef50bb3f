"""Distance measurement against an independent Floyd-Warshall oracle."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ultrasmall.degrees import DegreeSequence, PowerLawSpec, sample_iid_powerlaw, fix_parity
from ultrasmall.cm import generate_cm
from ultrasmall.pam import PamParams, generate_pam
from ultrasmall import metrics
from ultrasmall.multigraph import MultiGraph
from ultrasmall.metrics import (
    UNREACHED,
    _bfs_levels,
    _eccentricities,
    _sorted_unique,
    _upper_bounds,
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


def test_diameter_of_two_equal_halves_is_the_first_ones():
    # the path 0..9 (diameter 9) and, with the highest degree, a star on 19
    # with leaves 10..18: neither holds more than n/2 vertices, so the LCC is
    # the one with the smallest vertex, as `connected_components` numbers them
    edges = [(v, v + 1) for v in range(9)] + [(19, v) for v in range(10, 19)]
    g = MultiGraph.from_edge_list(20, edges)
    assert int(np.argmax(g.degrees)) == 19
    oracle = floyd_warshall(g)
    first = np.arange(10)
    expect = int(oracle[np.ix_(first, first)].max())
    assert expect == 9
    for method in ("exact", "ifub"):
        res = diameter(g, method=method)
        assert (res.diam, res.lcc_size) == (expect, 10)
        assert res.component_fraction == 0.5


@pytest.mark.parametrize("relabel_seed", [None, 2])
def test_diameter_when_another_vertex_ties_for_the_highest_degree(relabel_seed):
    # two hubs of degree 6 at the ends of the path 0-1-2-3, with 5 leaves
    # each, and a path of 4 vertices apart; ids as they are or shuffled, so
    # that iFUB's root is the vertex `np.argmax` picks or the other one
    edges = [(0, 1), (1, 2), (2, 3)] + [(0, v) for v in range(4, 9)]
    edges += [(3, v) for v in range(9, 14)] + [(14, 15), (15, 16), (16, 17)]
    relabel = np.arange(18)
    if relabel_seed is not None:
        relabel = np.random.default_rng(relabel_seed).permutation(18)
    g = MultiGraph.from_edge_list(18, relabel[np.array(edges)])
    assert np.sort(g.degrees)[-2:].tolist() == [6, 6]
    oracle = floyd_warshall(g)
    lcc = relabel[:14]
    expect = int(oracle[np.ix_(lcc, lcc)].max())
    assert expect == 5
    for method in ("exact", "ifub"):
        res = diameter(g, method=method)
        assert (res.diam, res.lcc_size) == (expect, 14)


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


def _components_test_graph(kind):
    """One graph per case `connected_components` must handle, by name."""
    if kind == "empty":
        return MultiGraph.from_edge_list(0, [])
    if kind == "edgeless":
        return MultiGraph.from_edge_list(5, [])
    if kind == "self-loop":
        # vertex 2's only edge is a self-loop; vertex 4 has no slots
        return MultiGraph.from_edge_list(6, [(0, 3), (2, 2), (3, 1), (5, 5), (5, 0)])
    if kind == "multi-edges":
        return MultiGraph.from_edge_list(
            7, [(4, 1), (1, 4), (4, 1), (6, 2), (2, 6), (3, 3), (6, 0)]
        )
    if kind == "star":
        # the hub 9 has the highest id, so the leaves find their label only
        # through it; 6 and 8 form a second component inside the first's range
        return MultiGraph.from_edge_list(
            10, [(9, v) for v in (0, 1, 2, 3, 4, 5, 7)] + [(8, 6)]
        )
    if kind == "cm":
        spec = PowerLawSpec(tau=2.5, d_min=1, n=3000)
        g = generate_cm(fix_parity(sample_iid_powerlaw(spec, 4)), 4)
        relabel = np.random.default_rng(4).permutation(g.n)  # shuffled ids
        return MultiGraph.from_edge_list(g.n, relabel[g.edges()])
    n = 20000  # a path through the vertices in shuffled order
    order = np.random.default_rng(1).permutation(n)
    return MultiGraph.from_edge_list(n, np.column_stack((order[:-1], order[1:])))


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize(
    "kind", ["empty", "edgeless", "self-loop", "multi-edges", "star", "cm", "path"]
)
def test_connected_components_match_scipy(kind, block, monkeypatch):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    if block is not None:  # many runs of owners; the hub spans several
        monkeypatch.setattr(metrics, "_BLOCK", block)
    g = _components_test_graph(kind)
    labels, sizes = connected_components(g)
    if g.n == 0:
        assert labels.size == sizes.size == 0
        return
    edges = g.edges()
    adj = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(g.n, g.n)
    ).tocsr()
    count, ref = csgraph.connected_components(adj, directed=False)
    # scipy's labels, renumbered in the order of each component's smallest
    # vertex
    _, first, inverse = np.unique(ref, return_index=True, return_inverse=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    assert np.array_equal(labels, rank[inverse])
    assert np.array_equal(sizes, np.bincount(ref)[np.argsort(first)])
    assert labels.dtype == sizes.dtype == np.int64
    if kind == "cm":
        assert count > 100


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


def _scipy_distances(graph, sources):
    """Hop distances from each source (one row each), inf when unreached."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    edges = graph.edges()
    adj = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(graph.n, graph.n)
    ).tocsr()
    return csgraph.shortest_path(
        adj, directed=False, unweighted=True, indices=sources
    ).reshape(len(sources), graph.n)


def _scipy_levels(graph, sources):
    dist = _scipy_distances(graph, sources).min(axis=0)
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


def _lane_test_graph(kind):
    """A CM graph of 300 vertices with 22 components, or a connected PAM
    tree of 300 vertices and diameter 12, and its LCC's members."""
    if kind == "cm":
        spec = PowerLawSpec(tau=2.5, d_min=1, n=300)
        g = generate_cm(fix_parity(sample_iid_powerlaw(spec, 3)), 3)
    else:
        g = generate_pam(PamParams(1, -0.5), 300, seed=1).undirected_view()
    labels, sizes = connected_components(g)
    return g, np.flatnonzero(labels == np.argmax(sizes))


def _in_batches(function, sources):
    """Concatenated results of `function` over batches of at most 64."""
    return np.concatenate(
        [function(sources[lo : lo + 64]) for lo in range(0, len(sources), 64)]
    )


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("kind", ["cm", "pam"])
def test_eccentricities_match_scipy(kind, block, monkeypatch):
    if block is not None:  # many blocks, sliced and gathered
        monkeypatch.setattr(metrics, "_BLOCK", block)
    g, members = _lane_test_graph(kind)
    assert members.size >= 150 and (kind == "pam") == (members.size == g.n)
    order = np.random.default_rng(5).permutation(members)
    dist = _scipy_distances(g, order[:65])
    expect = np.where(np.isinf(dist), -1, dist).max(axis=1)
    for k in (1, 63, 64, 65):  # 64 fills every lane; 65 spills into a second batch
        got = _in_batches(lambda batch: _eccentricities(g, members, batch), order[:k])
        assert np.array_equal(got, expect[:k])
    with pytest.raises(ValueError):
        _eccentricities(g, members, order[:65])


@pytest.mark.parametrize("kind", ["cm", "pam"])
def test_core_diameter_batches_match_scipy(kind):
    g, members = _lane_test_graph(kind)
    order = np.random.default_rng(6).permutation(members)
    for k in (1, 63, 64, 65, 130):
        core = np.sort(order[:k])
        dist = _scipy_distances(g, core)[:, core]
        assert core_diameter(g, SimpleNamespace(members=core)) == int(dist.max())
    if members.size < g.n:
        outside = np.setdiff1d(np.arange(g.n), members)[0]
        core = np.sort(np.append(order[:64], outside))
        assert core_diameter(g, SimpleNamespace(members=core)) == math.inf


@pytest.mark.parametrize("seed", range(3))
def test_ifub_matches_exact_with_isolated_vertices_and_self_loops(seed):
    # CM with d_min = 1, plus 40 self-loops and 50 isolated vertices, all
    # ids shuffled so that the LCC's members are scattered
    spec = PowerLawSpec(tau=2.5, d_min=1, n=1200)
    g = generate_cm(fix_parity(sample_iid_powerlaw(spec, seed)), seed)
    rng = np.random.default_rng(seed)
    loops = rng.choice(g.n, 40)
    edges = np.concatenate([g.edges(), np.column_stack((loops, loops))])
    relabel = rng.permutation(g.n + 50)
    h = MultiGraph.from_edge_list(g.n + 50, relabel[edges])
    labels, sizes = connected_components(h)
    assert np.count_nonzero(h.degrees == 0) == 50 and sizes.size > 100
    exact, ifub = diameter(h, "exact"), diameter(h, "ifub")
    assert exact.lcc_size == ifub.lcc_size > 130
    lcc = np.flatnonzero(labels == np.argmax(sizes))
    assert exact.diam == ifub.diam == int(_scipy_distances(h, lcc)[:, lcc].max())


def test_upper_bounds_of_a_batch_match_single_sweeps():
    # a path 0..9 with a star of leaves 10..14 on vertex 6 and a branch
    # 3-15-16-17, plus another component 18-19 and an isolated vertex 20
    edges = [(v, v + 1) for v in range(9)] + [(6, leaf) for leaf in range(10, 15)]
    edges += [(3, 15), (15, 16), (16, 17), (18, 19)]
    g = MultiGraph.from_edge_list(21, edges)
    members = np.arange(18)
    sources = np.array([0, 6, 4, 17, 12, 9])
    ecc = _eccentricities(g, members, sources)
    single = [_bfs_levels(g, [s]) for s in sources]
    assert ecc.tolist() == [int(d.max()) for d in single]
    assert len(set(ecc.tolist())) >= 4
    ub = _upper_bounds(g, sources, ecc)
    expect = np.min([d + e for d, e in zip(single, ecc.tolist())], axis=0)
    assert np.array_equal(ub[members], expect[members])
    assert np.all(ub[18:] == -1)
    assert ub.dtype == np.int32
    # sources whose eccentricities are all 9; then bounds in place of
    # eccentricities, where 1 (entry level 9) is reached from 0 at level 3,
    # before its entry, and 15 (entry level 6) from 0 at level 6
    ends = np.array([0, 9, 17])
    assert _eccentricities(g, members, ends).tolist() == [9, 9, 9]
    for sources, ecc in ((ends, np.array([9, 9, 9])),
                         (np.array([1, 0, 15, 9]), np.array([9, 2, 6, 12]))):
        ub = _upper_bounds(g, sources, ecc)
        single = [_bfs_levels(g, [s]) for s in sources]
        expect = np.min([d + e for d, e in zip(single, ecc.tolist())], axis=0)
        assert np.array_equal(ub[members], expect[members])
        assert np.all(ub[18:] == -1)
    assert ub[1] == 3 and ub[15] == 6


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_sorted_unique_matches_np_unique(dtype):
    n = 400  # more than n/4 = 100 ids take the mask, fewer the sort
    rng = np.random.default_rng(3)
    cases = [np.array([], dtype=dtype), np.array([7], dtype=dtype),
             np.full(50, 399, dtype=dtype), np.full(101, 0, dtype=dtype)]
    cases += [rng.integers(0, n, size, dtype=dtype) for size in (99, 100, 101, 102)]
    cases += [rng.integers(0, 30, 200, dtype=dtype), np.arange(n, dtype=dtype)]
    for ids in cases:
        got = _sorted_unique(ids, n)
        expect = np.unique(ids)
        assert np.array_equal(got, expect) and got.dtype == expect.dtype


def test_diameter_sweep_counts():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=5000)
    cm = generate_cm(fix_parity(sample_iid_powerlaw(spec, 12)), 12)
    pam = generate_pam(PamParams(2, -1.0), 5000, seed=12).undirected_view()
    # eccentricities computed: a change of iFUB's references or candidate
    # order moves these counts; the highest-degree reference's own sweep
    # gives both the double-sweep endpoint and that reference's eccentricity
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
