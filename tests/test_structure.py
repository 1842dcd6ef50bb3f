"""Structural censuses and explorations against naive re-implementations."""

import math

import numpy as np
import pytest

from ultrasmall.degrees import (
    CmParams,
    DegreeSequence,
    PowerLawSpec,
    sample_iid_powerlaw,
    fix_parity,
)
from ultrasmall.cm import generate_cm
from ultrasmall.pam import PamParams, generate_pam
from ultrasmall.multigraph import MultiGraph
from ultrasmall.metrics import extract_core, bfs
from ultrasmall.structure import (
    census_mkc,
    explore,
    boundary_lower_bound,
    find_connectors,
    distance_to_core,
)

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def test_census_cm_petersen():
    """3-regular girth-5 graph: every vertex is minimally-1- and
    minimally-2-connected (depth-2 exploration meets no old vertex; the
    girth-5 edges only join depth-2 boundary vertices), none is
    minimally-3-connected (10 < i_3 + 1 = 22)."""
    g = MultiGraph.from_edge_list(10, PETERSEN)
    spec = PowerLawSpec(tau=2.5, d_min=3, n=10)
    assert census_mkc(g, spec, 0).count == 10
    assert census_mkc(g, spec, 1).count == 10
    assert census_mkc(g, spec, 2).count == 10
    assert census_mkc(g, spec, 3).count == 0


def test_census_cm_excludes_high_degree_neighbors():
    # star center has degree 4; its neighbors all have degree 3
    edges = [(0, 1), (0, 2), (0, 3), (0, 4),
             (1, 2), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5),
             (5, 0)]
    g = MultiGraph.from_edge_list(6, edges)
    spec = PowerLawSpec(tau=2.5, d_min=3, n=6)
    cen = census_mkc(g, spec, 1)
    # every degree-3 vertex has the degree-5 center as a neighbor
    assert cen.count == 0
    assert census_mkc(g, spec, 0).count == 4


def naive_tree_members(graph, roots, k, admissible):
    """Independent re-implementation from the definition: the roots whose
    depth-k exploration is a tree of admissible vertices. A vertex's edges
    are its neighbor list less one copy of the vertex it was reached from;
    each must reach a fresh admissible vertex."""
    members = []
    for v0 in roots:
        seen = {v0}
        frontier = [(v0, None)]
        ok = True
        for _ in range(k):
            nxt = []
            for u, parent in frontier:
                nbrs = graph.neighbors(u).tolist()
                if parent is not None:
                    nbrs.remove(parent)
                for w in nbrs:
                    if w in seen or not admissible(w):
                        ok = False
                        break
                    seen.add(w)
                    nxt.append((w, u))
                if not ok:
                    break
            if not ok:
                break
            frontier = nxt
        if ok:
            members.append(v0)
    return members


def naive_cm_census(graph, d_min, k):
    """Root and the rest of the depth-k tree of degree d_min."""
    deg = graph.degrees.tolist()
    roots = [v for v in range(graph.n) if deg[v] == d_min]
    return naive_tree_members(graph, roots, k, lambda w: deg[w] == d_min)


@pytest.mark.parametrize("d_min", [1, 2, 3])
def test_census_cm_matches_naive(d_min):
    """Power-law graphs (n = 400) and near-regular ones (n = 60, 85 %
    of degrees d_min), whose balls often pass; between them they hold
    self-loops and multi-edges."""
    loops = multi = 0
    for seed in range(3):
        rng = np.random.default_rng(10 * d_min + seed)
        near = np.where(
            rng.random(60) < 0.85, d_min, d_min + 1 + rng.integers(3, size=60)
        )
        spec = PowerLawSpec(tau=2.5, d_min=d_min, n=400)
        for seq in (sample_iid_powerlaw(spec, seed), DegreeSequence(near)):
            g = generate_cm(fix_parity(seq), seed)
            u, v = np.sort(g.edges(), axis=1).T
            loops += int(np.count_nonzero(u == v))
            pair = u[u != v] * g.n + v[u != v]
            multi += int(np.count_nonzero(np.bincount(pair) > 1))
            for k in range(4):
                cen = census_mkc(g, CmParams(2.5, d_min), k)
                assert cen.members == naive_cm_census(g, d_min, k), (seed, k)
    assert loops > 0 and multi > 0


def naive_pam_census(graph, k):
    """Root aged in (t/2, t] with final degree m; the rest of the depth-k
    tree aged in (t/4, t/2] with final degree m+1."""
    t, m = graph.t, graph.m
    deg = graph.degrees().tolist()
    roots = [v for v in range(t // 2, t) if deg[v] == m]
    return naive_tree_members(
        graph.undirected_view(),
        roots,
        k,
        lambda w: t // 4 < w + 1 <= t // 2 and deg[w] == m + 1,
    )


@pytest.mark.parametrize("seed", range(8))
def test_census_pam_matches_naive(seed):
    params = PamParams(2, -0.5)
    g = generate_pam(params, 60, seed=seed)
    for k in (0, 1, 2):
        cen = census_mkc(g, params, k)
        assert sorted(cen.members) == naive_pam_census(g, k)


@pytest.mark.parametrize(
    "m, delta",
    [(2, -1.0), (2, -0.5), (2, 0.0), (2, 0.5), (1, -0.5), (1, 0.0), (1, 0.5)],
)
def test_census_pam_matches_naive_at_t_3000(m, delta):
    params = PamParams(m, delta)
    g = generate_pam(params, 3000, seed=1)
    for k in (1, 2, 3):
        assert census_mkc(g, params, k).members == naive_pam_census(g, k)


def test_explore_cm_hand_graph():
    g = MultiGraph.from_edge_list(10, PETERSEN)
    spec = PowerLawSpec(tau=2.5, d_min=3, n=10)
    eg = explore(g, 0, 2, spec)
    assert eg.levels[0] == [0]
    assert len(eg.levels[1]) == 3  # root expands d_min slots, all fresh
    # 6 fresh at depth 2; the girth-5 boundary edges surface as collisions
    assert len(eg.levels[2]) + len(eg.collisions) == 3 * 2
    assert eg.boundary == eg.levels[2]


@pytest.mark.parametrize("seed", range(6))
def test_explore_pam_level_recursion(seed):
    """N_i = m N_{i-1} - l_i exactly, collisions counted per level."""
    params = PamParams(2, -0.5)
    g = generate_pam(params, 200, seed=seed)
    eg = explore(g, 150, 4, params)
    for i in range(1, len(eg.levels)):
        li = sum(1 for lv, _ in eg.collisions if lv == i)
        assert len(eg.levels[i]) == params.m * len(eg.levels[i - 1]) - li


def test_explore_reports_core_entry():
    params = PamParams(2, -1.0)
    g = generate_pam(params, 2000, seed=1)
    core = extract_core(g, params, sigma=2.2)
    assert core.members.size > 0
    hit = 0
    for root in range(1900, 1950):
        eg = explore(g, root, 6, params, core=core)
        if eg.hit_core:
            hit += 1
            assert eg.core_entry_level <= eg.depth
            assert eg.collisions_before_core() <= len(eg.collisions)
    assert hit > 0


def test_boundary_lower_bound_values():
    # s(m, l) = m^(-1 - l/(m-1)); bound = ceil(s * m^k)
    assert boundary_lower_bound(2, 0, 3) == 4
    assert boundary_lower_bound(2, 1, 3) == 2
    assert boundary_lower_bound(2, 3, 3) == 1
    assert boundary_lower_bound(3, 2, 2) == math.ceil(3 ** (2 - 1 - 1.0))
    with pytest.raises(ValueError):
        boundary_lower_bound(1, 0, 2)
    with pytest.raises(ValueError):
        boundary_lower_bound(2, -1, 2)


def test_find_connectors_matches_bruteforce():
    params = PamParams(2, -0.5)
    g = generate_pam(params, 40, seed=13)
    A = {1, 2, 3}
    i = 5
    res = find_connectors(g, A, i)
    expect = []
    for j in range(g.t // 2 + 1, g.t + 1):
        ts = set(int(x) for x in g.xi[j - 1])
        if ts & A and i in ts:
            expect.append(j)
    assert res.connectors == expect
    big = generate_pam(params, 2000, seed=14)
    for A, i in (({1, 2, 3}, 5), ({1}, 2), (set(range(1, 500)), 700),
                 ({999, 1000}, 1), (set(), 4)):
        expect = []
        for j in range(big.t // 2 + 1, big.t + 1):
            ts = set(int(x) for x in big.xi[j - 1])
            if ts & A and i in ts:
                expect.append(j)
        assert find_connectors(big, A, i).connectors == expect
    with pytest.raises(ValueError):
        find_connectors(g, {1, 30}, 5)  # 30 > t/2
    with pytest.raises(ValueError):
        find_connectors(g, {1}, 1)  # i inside A


def test_distance_to_core_matches_per_vertex_bfs():
    params = PamParams(2, -1.0)
    g = generate_pam(params, 1500, seed=3)
    core = extract_core(g, params, sigma=2.2)
    und = g.undirected_view()
    dtc = distance_to_core(g, core)
    member_reports = [bfs(und, int(v)).distances for v in core.members]
    expect = np.min(member_reports, axis=0)
    assert np.array_equal(dtc.distances, expect)
    finite = dtc.distances[np.isfinite(dtc.distances)]
    assert dtc.max_finite == int(finite.max())
    assert dtc.unreachable == int(np.sum(~np.isfinite(dtc.distances)))
