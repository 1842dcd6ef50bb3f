"""Distances, diameters, typical-distance sampling and Core extraction."""

import math
from dataclasses import dataclass

import numpy as np

from .pam import PamGraph

UNREACHED = -1


@dataclass
class DistanceReport:
    source: int
    distances: np.ndarray  # float array, inf for unreachable
    eccentricity: int


def _frontier_neighbors(indptr, nbr, frontier):
    """Concatenated neighbor lists of all frontier vertices (vectorized
    CSR gather)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return nbr[:0]
    # offsets[i] = position where frontier[i]'s neighbors start in output
    out_idx = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return nbr[out_idx + np.arange(total, dtype=np.int64)]


def _bfs(graph, sources, dist):
    """Breadth-first search from `sources` through the vertices whose
    `dist` is UNREACHED. Marks `dist` in place and yields (level, vertices
    newly reached at that level), the sources first at level 0. A level's
    vertices may repeat; they are deduplicated only to build the next
    frontier, so a consumer that stops early never pays for it."""
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    yield 0, frontier
    indptr, nbr = graph.indptr, graph.nbr
    level = 0
    while True:
        cand = _frontier_neighbors(indptr, nbr, frontier)
        cand = cand[dist[cand] == UNREACHED]
        if cand.size == 0:
            return
        level += 1
        dist[cand] = level
        yield level, cand
        frontier = np.unique(cand)


def _bfs_levels(graph, sources, level_cap=None):
    """Integer distance array (UNREACHED for unseen) from a source set."""
    dist = np.full(graph.n, UNREACHED, dtype=np.int32)
    for level, _ in _bfs(graph, sources, dist):
        if level_cap is not None and level >= level_cap:
            break
    return dist


def bfs(graph, source):
    """Exact hop distances from `source`; multi-edges and self-loops act
    as simple adjacency."""
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    levels = _bfs_levels(graph, [source])
    reached = levels != UNREACHED
    distances = np.where(reached, levels, np.inf).astype(np.float64)
    ecc = int(levels[reached].max())
    return DistanceReport(source=source, distances=distances, eccentricity=ecc)


def connected_components(graph):
    """Label array and component sizes; components are numbered in the
    order of their smallest vertex."""
    label = np.full(graph.n, -1, dtype=np.int64)
    seen = np.full(graph.n, UNREACHED, dtype=np.int32)
    count = 0
    for v in range(graph.n):
        if seen[v] != UNREACHED:
            continue
        for _, reached in _bfs(graph, [v], seen):
            label[reached] = count
        count += 1
    return label, np.bincount(label)


@dataclass
class DiameterResult:
    diam: int
    component_fraction: float
    lcc_size: int
    method: str


def _diameter_all_sources(graph, members):
    return max(int(_bfs_levels(graph, [int(v)]).max()) for v in members)


def _diameter_ifub(graph, members):
    """Exact diameter of the component `members` (sorted vertex ids) by
    iterative eccentricity bounding: sweeps from high-degree reference
    vertices give every member the upper bound
    ub(v) = min_r d(v, r) + ecc(r); members with ub(v) > lb are resolved
    exactly, each resolution tightening the bounds, until every
    eccentricity is certified <= lb. Vertices outside the component keep
    ub = -1 and are never candidates."""
    if members.size == 1:
        return 0
    by_degree = members[np.argsort(graph.degrees[members])]
    refs = [int(v) for v in by_degree[-16:]]
    root_levels = _bfs_levels(graph, [refs[-1]])
    refs.append(int(np.argmax(root_levels)))  # double-sweep endpoint
    lb = 0
    ub = np.full(graph.n, -1, dtype=np.int64)
    ub[members] = np.iinfo(np.int32).max
    for r in dict.fromkeys(refs):
        dist = _bfs_levels(graph, [r])
        ecc = int(dist.max())
        lb = max(lb, ecc)
        np.minimum(ub, dist.astype(np.int64) + ecc, out=ub)
    while True:
        cand = np.nonzero(ub > lb)[0]
        if cand.size == 0:
            return lb
        v = int(cand[np.argmax(ub[cand])])
        dist = _bfs_levels(graph, [v])
        ecc = int(dist.max())
        lb = max(lb, ecc)
        np.minimum(ub, dist.astype(np.int64) + ecc, out=ub)
        ub[v] = ecc


def diameter(graph, method="auto"):
    """Exact diameter of the largest connected component."""
    if graph.n == 0:
        raise ValueError("empty graph")
    label, sizes = connected_components(graph)
    lcc = int(np.argmax(sizes))
    members = np.flatnonzero(label == lcc)
    if method == "auto":
        method = "ifub" if members.size > 1000 else "exact"
    if method == "exact":
        diam = _diameter_all_sources(graph, members)
    elif method == "ifub":
        diam = _diameter_ifub(graph, members)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DiameterResult(
        diam=diam,
        component_fraction=members.size / graph.n,
        lcc_size=members.size,
        method=method,
    )


def typical_distance_sample(graph, pairs, seed):
    """Distances between `pairs` i.i.d. uniform vertex pairs (inf when
    disconnected, 0 when the two draws coincide)."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.full(pairs, np.inf)
    dist = np.empty(graph.n, dtype=np.int32)
    for i in range(pairs):
        a = int(rng.integers(graph.n))
        b = int(rng.integers(graph.n))
        if a == b:
            out[i] = 0.0
            continue
        dist.fill(UNREACHED)
        for level, _ in _bfs(graph, [a], dist):
            if dist[b] != UNREACHED:  # early exit once b is reached
                out[i] = level
                break
    return out


@dataclass
class CoreSet:
    members: np.ndarray
    threshold: float
    sigma: float
    snapshot_time: int


def extract_core(graph, params, sigma):
    """Vertices of degree >= (log n)^sigma; PAM degrees are taken at the
    half-time snapshot, CM degrees are final."""
    tau = params.tau
    if not sigma > 1.0 / (3.0 - tau):
        raise ValueError(
            f"sigma={sigma} must exceed 1/(3-tau)={1.0 / (3.0 - tau):.4f}"
        )
    if isinstance(graph, PamGraph):
        n = graph.t
        snapshot = n // 2
        deg = graph.degree_snapshot(snapshot)
    else:
        n = graph.n
        snapshot = n
        deg = graph.degrees
    threshold = math.log(n) ** sigma
    members = np.nonzero(deg >= threshold)[0]
    return CoreSet(
        members=members, threshold=threshold, sigma=sigma, snapshot_time=snapshot
    )


def core_diameter(graph, core):
    """Max member-to-member distance measured through the whole graph.

    `graph` must be a MultiGraph (pass the undirected view for PAM);
    raises on an empty core, returns inf if the core is disconnected in
    the ambient graph.
    """
    if core.members.size == 0:
        raise ValueError("empty core: diameter undefined")
    best = 0.0
    member_mask = np.zeros(graph.n, dtype=bool)
    member_mask[core.members] = True
    for v in core.members:
        levels = _bfs_levels(graph, [int(v)])
        reached = levels != UNREACHED
        if not np.all(reached[member_mask]):
            return math.inf
        best = max(best, int(levels[member_mask].max()))
    return int(best)

