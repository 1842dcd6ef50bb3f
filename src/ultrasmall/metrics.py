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
    """Concatenated neighbor lists of the (non-empty) frontier's vertices
    (vectorized CSR gather)."""
    ends = indptr[frontier + 1]
    counts = ends - indptr[frontier]
    # output j, when it is one of frontier[i]'s, reads slot
    # j + ends[i] - csum[i]
    csum = np.cumsum(counts)
    return nbr[np.repeat(ends - csum, counts) + np.arange(csum[-1])]


def _step(graph, frontier, dist, level):
    """Mark the unreached neighbors of `frontier`, the vertices at
    `level`, with `level + 1` and return them, sorted and unique. Only
    `dist == UNREACHED` is read, so `dist` may hold any earlier search.

    Small frontiers gather their neighbor lists (top-down). A frontier
    whose half-edges pass 1/8 of the graph's instead has every vertex scan
    its own neighbor list for a frontier member (bottom-up; Beamer,
    Asanovic & Patterson, SC'12): on these graphs the frontier floods the
    graph within a few levels, and the scan then costs less than the
    gather."""
    indptr, nbr = graph.indptr, graph.nbr
    n = graph.n
    # the size test keeps the degree sum off the many tiny frontiers
    if frontier.size * 64 > n and (
        int((indptr[frontier + 1] - indptr[frontier]).sum()) * 8 > nbr.size
    ):
        infront = np.zeros(n, dtype=bool)
        infront[frontier] = True
        # reduceat misreads empty segments, so only vertices with slots
        owners = np.flatnonzero(indptr[1:] > indptr[:-1])
        hit = np.logical_or.reduceat(infront[nbr], indptr[owners])
        reached = owners[hit & (dist[owners] == UNREACHED)]
        dist[reached] = level + 1
        return reached
    cand = _frontier_neighbors(indptr, nbr, frontier)
    cand = cand[dist[cand] == UNREACHED]
    dist[cand] = level + 1
    if cand.size <= 1:
        return cand
    if cand.size * 4 <= n:
        return np.unique(cand)
    fresh = np.zeros(n, dtype=bool)
    fresh[cand] = True
    return np.flatnonzero(fresh)


def _bfs(graph, sources, dist):
    """Breadth-first search from `sources` through the vertices whose
    `dist` is UNREACHED. Marks `dist` in place and yields (level, vertices
    newly reached at that level), the sources first at level 0."""
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        yield level, frontier
        frontier = _step(graph, frontier, dist, level)
        level += 1


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


@dataclass(frozen=True)
class DiameterResult:
    diam: int
    component_fraction: float
    lcc_size: int
    method: str
    sweeps: int  # BFS sweeps the method ran


def _diameter_all_sources(graph, members):
    """(diameter, sweeps) of the component `members`."""
    diam = max(int(_bfs_levels(graph, [int(v)]).max()) for v in members)
    return diam, members.size


def _diameter_ifub(graph, members):
    """(diameter, sweeps) of the component `members` (sorted vertex ids) by
    iterative eccentricity bounding: sweeps from high-degree reference
    vertices give every member the upper bound
    ub(v) = min_r d(v, r) + ecc(r); members with ub(v) > lb are resolved
    exactly, each resolution tightening the bounds, until every
    eccentricity is certified <= lb. Vertices outside the component keep
    ub = -1 and are never candidates."""
    if members.size == 1:
        return 0, 0
    by_degree = members[np.argsort(graph.degrees[members])]
    refs = [int(v) for v in by_degree[-16:]]
    root_levels = _bfs_levels(graph, [refs[-1]])
    refs.append(int(np.argmax(root_levels)))  # double-sweep endpoint
    lb = 0
    ub = np.full(graph.n, -1, dtype=np.int64)
    ub[members] = np.iinfo(np.int32).max
    refs = dict.fromkeys(refs)
    sweeps = 1 + len(refs)
    for r in refs:
        dist = _bfs_levels(graph, [r])
        ecc = int(dist.max())
        lb = max(lb, ecc)
        np.minimum(ub, dist.astype(np.int64) + ecc, out=ub)
    while True:
        cand = np.nonzero(ub > lb)[0]
        if cand.size == 0:
            return lb, sweeps
        v = int(cand[np.argmax(ub[cand])])
        dist = _bfs_levels(graph, [v])
        sweeps += 1
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
        diam, sweeps = _diameter_all_sources(graph, members)
    elif method == "ifub":
        diam, sweeps = _diameter_ifub(graph, members)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DiameterResult(
        diam=diam,
        component_fraction=members.size / graph.n,
        lcc_size=members.size,
        method=method,
        sweeps=sweeps,
    )


def typical_distance_sample(graph, pairs, seed):
    """Distances between `pairs` i.i.d. uniform vertex pairs (inf when
    disconnected, 0 when the two draws coincide)."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.full(pairs, np.inf)
    da = np.empty(graph.n, dtype=np.int32)
    db = np.empty(graph.n, dtype=np.int32)
    for i in range(pairs):
        a = int(rng.integers(graph.n))
        b = int(rng.integers(graph.n))
        out[i] = _pair_distance(graph, a, b, da, db)
    return out


def _pair_distance(graph, a, b, da, db):
    """Hop distance from `a` to `b` (inf when disconnected) by balanced
    bidirectional BFS, which is sublinear on power-law graphs (Borassi,
    Crescenzi & Trevisan, SODA'17). `da` and `db` are scratch arrays.

    Each round expands the side whose frontier has fewer half-edges.
    Before a round the balls of radius la = level[0] around a and
    lb = level[1] around b are disjoint, so d(a, b) > la + lb - 1 (else a
    shortest path crosses both); the first new level that meets the other
    ball gives d(a, b) <= la + lb, hence equality."""
    if a == b:
        return 0
    indptr = graph.indptr
    dist = (da, db)
    front = [np.array([a]), np.array([b])]
    mass = [indptr[a + 1] - indptr[a], indptr[b + 1] - indptr[b]]
    level = [0, 0]
    da.fill(UNREACHED)
    db.fill(UNREACHED)
    da[a] = db[b] = 0
    while True:
        s = 0 if mass[0] <= mass[1] else 1
        f = front[s] = _step(graph, front[s], dist[s], level[s])
        level[s] += 1
        if f.size == 0:
            return math.inf
        if np.any(dist[1 - s][f] != UNREACHED):
            return level[0] + level[1]
        mass[s] = (indptr[f + 1] - indptr[f]).sum()


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

