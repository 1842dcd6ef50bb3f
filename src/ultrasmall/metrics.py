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
    `level`, with `level + 1` and return them, sorted and unique. `dist`
    holds the search's levels so far, UNREACHED where it has not been.

    Small frontiers gather their neighbor lists (top-down). A frontier
    whose half-edges pass 1/8 of the graph's instead has every vertex scan
    its own neighbor list for a frontier member (bottom-up; Beamer,
    Asanovic & Patterson, SC'12): on these graphs the frontier floods the
    graph within a few levels, and the scan then costs less than the
    gather."""
    indptr, nbr = graph.indptr, graph.nbr
    n = graph.n
    # the size test skips the degree sum on small frontiers, such as the
    # first levels of every search
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
    return _sorted_unique(cand, n)


def _sorted_unique(ids, n):
    """np.unique(ids) for ids in [0, n), without its hashing: a mask over
    the n ids when there are more than n/4 of them, else a sort that keeps
    the first of each run of equal ids."""
    if ids.size <= 1:
        return ids
    if ids.size * 4 > n:
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return np.flatnonzero(mask).astype(ids.dtype, copy=False)
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _bfs_levels(graph, sources, level_cap=None):
    """Integer distance array (UNREACHED for unseen) from a source set,
    searched to depth `level_cap` when one is given."""
    dist = np.full(graph.n, UNREACHED, dtype=np.int32)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size and (level_cap is None or level < level_cap):
        frontier = _step(graph, frontier, dist, level)
        level += 1
    return dist


_LANES = 64  # sources per bit-parallel search, one bit of a uint64 each
_BLOCK = 1 << 16  # half-edges per reduceat, to keep the temporaries small


def _lane_bfs(graph, members, sources):
    """Breadth-first search from up to 64 `sources` at once through the
    component `members` (sorted ids, holding the sources), one bit ("lane")
    of a uint64 word per source: MS-BFS (Then et al., VLDB'14), the
    bit-parallel BFS of Akiba, Iwata & Yoshida (SIGMOD'13).

    `seen[v]` holds the lanes that have reached v. A vertex missing a lane
    at level l has it at l + 1 exactly when a neighbor got it at l, so a
    level's candidates are the neighbors of the vertices whose word grew
    at l or, once those hold more than 1/8 of the component's half-edges,
    every member. Yields (level, seen, lanes) for every level that reached
    a vertex, level 0 first, with `lanes` the word of lanes that reached a
    new vertex."""
    n, indptr, nbr = graph.n, graph.indptr, graph.nbr
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size > _LANES:
        raise ValueError(f"at most {_LANES} sources per search")
    bits = np.left_shift(np.uint64(1), np.arange(sources.size, dtype=np.uint64))
    full = np.bitwise_or.reduce(bits)
    seen = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bits)
    limit = (int(indptr[members + 1].sum()) - int(indptr[members].sum())) // 8
    grown = _sorted_unique(sources, n)
    level, lanes = 0, full
    while lanes:
        yield level, seen, lanes
        level += 1
        # grown is None when the last level grew more than `limit` half-edges
        if grown is None:
            cand = members
        else:
            cand = _sorted_unique(_frontier_neighbors(indptr, nbr, grown), n)
        grown, lanes = _lane_step(graph, seen, cand, full, limit)


def _lane_step(graph, seen, cand, full, limit):
    """One level of `_lane_bfs`: every vertex of `cand` (sorted) that
    misses a lane ORs its neighbors' words into its own. Returns the
    vertices whose word grew (None when their half-edges pass `limit`)
    and the lanes that reached one.

    A block is the candidates whose slots start within `_BLOCK` of the
    first one's, and the words it gains are written to `seen` only once
    the whole level has read it."""
    indptr, nbr = graph.indptr, graph.nbr
    pieces, mass, lanes = [], 0, np.uint64(0)
    lo = 0
    while lo < cand.size:
        stop = np.searchsorted(indptr, indptr[cand[lo]] + _BLOCK)
        hi = max(lo + 1, int(np.searchsorted(cand, stop)))
        block = cand[lo:hi]
        lo = hi
        have = seen[block]
        # a vertex missing a lane is not alone in its component, so it
        # has slots, which reduceat needs
        missing = have != full
        block, have = block[missing], have[missing]
        if block.size == 0:
            continue
        first, last = int(block[0]), int(block[-1])
        counts = indptr[block + 1] - indptr[block]
        start, end = indptr[first], indptr[last + 1]
        if 2 * int(counts.sum()) >= end - start:
            # reduce over the block's whole id range; the words of the
            # vertices in its gaps (some without slots) are never read
            words = seen[nbr[start:end]]
            word = np.bitwise_or.reduceat(words, indptr[first : last + 1] - start)
            word = word[block - first]
        else:
            words = seen[_frontier_neighbors(indptr, nbr, block)]
            word = np.bitwise_or.reduceat(words, np.cumsum(counts) - counts)
        word &= ~have
        hit = word != 0
        pieces.append((block[hit], have[hit] | word[hit]))
        lanes |= np.bitwise_or.reduce(word)
        mass += int(counts[hit].sum())
    for vertices, words in pieces:
        seen[vertices] = words
    if mass > limit:
        return None, lanes
    return np.concatenate([v for v, _ in pieces] or [cand[:0]]), lanes


def _eccentricities(graph, members, sources):
    """Exact eccentricities of up to 64 `sources` within the component
    `members`, from one bit-parallel search: a lane's eccentricity is the
    last level at which it reached a new vertex."""
    ecc = np.zeros(len(sources), dtype=np.int64)
    lane = np.arange(len(sources), dtype=np.uint64)
    for level, _, lanes in _lane_bfs(graph, members, sources):
        ecc[(lanes >> lane) & np.uint64(1) != 0] = level
    return ecc


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
    order of their smallest vertex.

    Min-label hooking and pointer jumping over the whole graph (Shiloach &
    Vishkin, J. Algorithms 1982; FastSV, Zhang, Azad & Hu, SIAM PP 2020):
    between rounds `label[v]` is a root r <= v of v's component, with
    label[r] == r. A round hooks the root of every vertex to the least
    label among the vertex's neighbors, then jumps pointers back to roots;
    once a round lowers no label, each component's label is its smallest
    vertex."""
    n, indptr, nbr = graph.n, graph.indptr, graph.nbr
    # int32 while the ids fit, to halve the gathered labels
    label = np.arange(n, dtype=np.int32 if n <= 2**31 else np.int64)
    # reduceat misreads empty segments, so only vertices with slots; owner
    # i's slots are starts[i]:starts[i + 1]
    owners = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = np.append(indptr[owners], nbr.size)
    # runs of owners of about _BLOCK half-edges, to keep the gathered
    # labels small: each starts at the owner of a multiple of _BLOCK
    cuts = np.searchsorted(starts, np.arange(0, nbr.size, _BLOCK), "right") - 1
    cuts = _sorted_unique(cuts, owners.size).tolist()
    blocks = list(zip(cuts, cuts[1:] + [owners.size]))
    while True:
        # the least label among each owner's neighbors; with no slots at all
        # there are no runs, and the empty first piece is the result
        low = np.concatenate(
            [label[:0]]
            + [
                np.minimum.reduceat(
                    label[nbr[starts[a] : starts[b]]], starts[a:b] - starts[a]
                )
                for a, b in blocks
            ]
        )
        hook = low < label[owners]
        if not hook.any():
            break
        np.minimum.at(label, label[owners[hook]], low[hook])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    # the roots, in order, are the components' smallest vertices
    rank = np.cumsum(label == np.arange(n)) - 1
    label = rank[label]
    return label, np.bincount(label)


@dataclass(frozen=True)
class DiameterResult:
    diam: int
    component_fraction: float
    lcc_size: int
    method: str
    sweeps: int  # eccentricities the method computed


def _diameter_all_sources(graph, members):
    """(diameter, eccentricities computed) of the component `members`."""
    diam = 0
    for lo in range(0, members.size, _LANES):
        batch = members[lo : lo + _LANES]
        diam = max(diam, int(_eccentricities(graph, members, batch).max()))
    return diam, members.size


def _upper_bounds(graph, sources, ecc):
    """ub(v) = min_i d(v, sources[i]) + ecc[i] for every vertex v of the
    sources' component (they share one), and -1 outside it, from one
    staggered search: source i joins the frontier at level ecc[i] unless an
    earlier level has reached it."""
    ub = np.full(graph.n, UNREACHED, dtype=np.int32)
    frontier, level = sources[:0], int(ecc.min())
    while True:
        join = sources[(ecc == level) & (ub[sources] == UNREACHED)]
        if join.size:
            ub[join] = level
            frontier = _sorted_unique(np.concatenate((frontier, join)), graph.n)
        if frontier.size == 0:
            # the component is exhausted, so every source has been reached
            return ub
        frontier = _step(graph, frontier, ub, level)
        level += 1


def _diameter_ifub(graph, members, hub, hub_levels):
    """(diameter, eccentricities computed) of the component `members`
    (sorted vertex ids) by iterative eccentricity bounding. The 16
    highest-degree members and the far end of a sweep from the highest
    (the root) give every member the upper bound ub(v) = min_r d(v, r) +
    ecc(r); then the members with ub(v) > lb are resolved exactly, 64 at a
    time and highest bound first, until every eccentricity is certified
    <= lb. When the root is `hub`, its sweep is `hub_levels`."""
    if members.size == 1:
        return 0, 0
    *refs, root = members[np.argsort(graph.degrees[members])[-16:]].tolist()
    root_levels = hub_levels if root == hub else _bfs_levels(graph, [root])
    refs.append(int(np.argmax(root_levels)))  # double-sweep endpoint
    refs = np.array(list(dict.fromkeys(refs)), dtype=np.int64)
    ecc = _eccentricities(graph, members, refs)
    refs = np.append(refs, root)
    ecc = np.append(ecc, int(root_levels.max()))
    lb = int(ecc.max())
    ub = _upper_bounds(graph, refs, ecc)
    sweeps = refs.size
    while True:
        cand = np.flatnonzero(ub > lb)
        if cand.size == 0:
            return lb, sweeps
        batch = cand[np.argsort(-ub[cand], kind="stable")[:_LANES]]
        ecc = _eccentricities(graph, members, batch)
        sweeps += batch.size
        lb = max(lb, int(ecc.max()))
        ub[batch] = ecc


def diameter(graph, method="auto"):
    """Exact diameter of the largest connected component."""
    if graph.n == 0:
        raise ValueError("empty graph")
    if method not in ("auto", "exact", "ifub"):
        raise ValueError(f"unknown method {method!r}")
    # a component of more than n/2 vertices is the largest, so when the
    # highest-degree vertex's sweep reaches that many they are the LCC
    hub = int(np.argmax(graph.degrees))
    hub_levels = _bfs_levels(graph, [hub])
    members = np.flatnonzero(hub_levels != UNREACHED)
    if members.size * 2 <= graph.n:
        label, sizes = connected_components(graph)
        members = np.flatnonzero(label == np.argmax(sizes))
        del label  # the searches below need the memory more
    if method == "auto":
        method = "ifub" if members.size > 1000 else "exact"
    if method == "exact":
        diam, sweeps = _diameter_all_sources(graph, members)
    else:
        diam, sweeps = _diameter_ifub(graph, members, hub, hub_levels)
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
    the ambient graph. Members are searched from 64 at a time, and each
    search stops at the level where every lane has reached every member.
    """
    core_members = np.asarray(core.members, dtype=np.int64)
    if core_members.size == 0:
        raise ValueError("empty core: diameter undefined")
    component = _bfs_levels(graph, core_members[:1])
    if np.any(component[core_members] == UNREACHED):
        return math.inf
    members = np.flatnonzero(component != UNREACHED)
    best = 0
    for lo in range(0, core_members.size, _LANES):
        batch = core_members[lo : lo + _LANES]
        full = np.uint64((1 << batch.size) - 1)
        for level, seen, _ in _lane_bfs(graph, members, batch):
            if np.bitwise_and.reduce(seen[core_members]) == full:
                best = max(best, level)
                break
    return best
