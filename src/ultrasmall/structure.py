"""Structural censuses: minimally-k-connected vertices, truncated
k-exploration graphs with collisions, boundary bounds, t-connectors and
distance to the core."""

import math
from dataclasses import dataclass

import numpy as np

from .pam import PamGraph
from . import bounds as _bounds
from .metrics import UNREACHED, _bfs_levels


@dataclass
class MkcCensus:
    k: int
    members: list
    i_k: int  # CM: tree edge count; PAM: tree vertex count

    @property
    def count(self):
        return len(self.members)


def _is_tree_ball(graph, root, k, degree_ok):
    """Depth-k exploration-tree check shared by both models: every edge out
    of an interior vertex (depth < k) must reach a fresh vertex of
    admissible degree. Self-loops, multi-edges and cycles among explored
    edges fail; edges among depth-k boundary vertices are unconstrained
    (they are exactly what the moment formulas leave free)."""
    if not degree_ok(root):
        return None
    entry = {root: -1}  # vertex -> slot through which it was entered
    depth = {root: 0}
    queue = [root]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        if depth[u] >= k:
            continue
        for g in range(int(graph.indptr[u]), int(graph.indptr[u + 1])):
            if g == entry[u]:
                continue
            w = int(graph.nbr[g])
            if w in depth:  # self-loop, multi-edge or cycle
                return None
            if not degree_ok(w):
                return None
            depth[w] = depth[u] + 1
            entry[w] = int(graph.partner[g])
            queue.append(w)
    return set(depth)


def census_mkc(graph, model_params, k):
    """Exact minimally-k-connected census by ball inspection."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(graph, PamGraph):
        return _census_mkc_pam(graph, k)
    return _census_mkc_cm(graph, model_params, k)


def _census_mkc_cm(graph, params, k):
    d_min = params.d_min
    deg = graph.degrees
    members = []
    for v in np.nonzero(deg == d_min)[0]:
        ball = _is_tree_ball(graph, int(v), k, lambda u: deg[u] == d_min)
        if ball is None:
            continue
        ik = _bounds.i_k(d_min, k, "cm")
        assert len(ball) == ik + 1
        members.append(int(v))
    return MkcCensus(k=k, members=members, i_k=_bounds.i_k(d_min, k, "cm"))


def _census_mkc_pam(graph, k):
    t, m = graph.t, graph.m
    und = graph.undirected_view()
    deg = graph.degrees()
    half, quarter = t // 2, t // 4

    def degree_ok(u):
        # root is handled separately; others must be aged in
        # (t/4, t/2] with final degree m+1
        return quarter < u + 1 <= half and deg[u] == m + 1

    members = []
    claimed = {}
    for v0 in range(half, t):  # v in [t] \ [t/2], 0-based v0
        if deg[v0] != m:
            continue
        if k == 0:
            ball = {v0}
        else:
            ball = _is_tree_ball(
                und, v0, k, lambda u: u == v0 or degree_ok(u)
            )
            if ball is None:
                continue
        for u in ball:
            if u in claimed:  # provably impossible (disjoint balls)
                raise RuntimeError(
                    f"balls of members {claimed[u] + 1} and {v0 + 1} overlap"
                )
            claimed[u] = v0
        members.append(v0)
    return MkcCensus(k=k, members=members, i_k=_bounds.i_k(m, k, "pam"))


@dataclass
class ExplorationGraph:
    root: int
    depth: int
    levels: list  # levels[i] = vertices first reached at depth i
    collisions: list  # (level, vertex already included)
    hit_core: bool
    core_entry_level: int = None

    @property
    def boundary(self):
        return self.levels[-1] if len(self.levels) == self.depth + 1 else []

    def collisions_before_core(self):
        """Collisions at levels strictly before the core is first reached
        (the underlying exploration halts on core entry, so same-level or
        later collisions are never observed by it)."""
        if self.core_entry_level is None:
            return len(self.collisions)
        return sum(1 for lv, _ in self.collisions if lv < self.core_entry_level)


def explore(graph, root, k, model_params, core=None):
    """Deterministic truncated exploration of the realized graph.

    CM: the root follows its first d_min half-edge slots, every other
    vertex its first d_min-1 not-yet-consumed slots (slot-index order);
    following a slot consumes it and its partner. PAM: every vertex
    follows its m out-edges in label order. An edge into an
    already-included vertex is a collision and is not expanded.

    The model only lists the out-targets of a level's frontier, vertex by
    vertex; which slots CM consumes does not depend on which targets turn
    out to be new, so a whole level can be listed before it is checked.
    """
    if isinstance(graph, PamGraph):
        xi = graph.xi

        def out_targets(frontier):
            return [x - 1 for x in xi[frontier].ravel().tolist()]

    else:
        indptr, nbr, partner = graph.indptr, graph.nbr, graph.partner
        d_min = model_params.d_min
        consumed = set()  # globally consumed half-edge slots

        def out_targets(frontier):
            targets = []
            for u in frontier:
                budget = d_min if u == root else d_min - 1
                for g in range(int(indptr[u]), int(indptr[u + 1])):
                    if budget == 0:
                        break
                    if g in consumed:
                        continue
                    budget -= 1
                    consumed.add(g)
                    consumed.add(int(partner[g]))
                    targets.append(int(nbr[g]))
            return targets

    core_set = set(core.members.tolist()) if core is not None else set()
    included = {root}
    levels = [[root]]
    collisions = []
    core_entry = 0 if root in core_set else None
    frontier = [root]
    for level in range(1, k + 1):
        nxt = []
        for w in out_targets(frontier):
            if w in included:
                collisions.append((level, w))
                continue
            included.add(w)
            nxt.append(w)
            if core_entry is None and w in core_set:
                core_entry = level
        levels.append(nxt)
        frontier = nxt
        if not frontier:
            break
    return ExplorationGraph(
        root=root,
        depth=k,
        levels=levels,
        collisions=collisions,
        hit_core=core_entry is not None,
        core_entry_level=core_entry,
    )


def boundary_lower_bound(m, l, k):
    """Guaranteed exploration-boundary size ceil(s(m,l) m^k) with
    s(m,l) = m^(-1 - l/(m-1)), valid under l collisions and no
    all-self-loop vertices."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if l < 0 or k < 0:
        raise ValueError("l and k must be >= 0")
    return math.ceil(m ** (k - 1.0 - l / (m - 1.0)))


@dataclass
class ConnectorQuery:
    A: set
    i: int
    connectors: list  # young vertices with out-edges into both A and {i}


def find_connectors(graph, A, i):
    """Scan [t] \\ [t/2] for t-connectors between A and {i} (1-based
    vertex labels)."""
    t, half = graph.t, graph.t // 2
    A = set(int(a) for a in A)
    if any(not 1 <= a <= half for a in A):
        raise ValueError("A must be a subset of [t/2]")
    if not 1 <= i <= half or i in A:
        raise ValueError("i must lie in [t/2] \\ A")
    connectors = []
    for j in range(half + 1, t + 1):
        targets = graph.xi[j - 1]
        hit_a = any(int(x) in A for x in targets)
        hit_i = any(int(x) == i for x in targets)
        if hit_a and hit_i:
            connectors.append(j)
    return ConnectorQuery(A=A, i=i, connectors=connectors)


@dataclass
class DistanceToCore:
    distances: np.ndarray  # float, inf for vertices not reaching the core
    max_finite: int
    unreachable: int


def distance_to_core(graph, core):
    """Multi-source BFS from the core members."""
    if core.members.size == 0:
        raise ValueError("empty core")
    g = graph.undirected_view() if isinstance(graph, PamGraph) else graph
    levels = _bfs_levels(g, core.members)
    reached = levels != UNREACHED
    distances = np.where(reached, levels, np.inf).astype(np.float64)
    return DistanceToCore(
        distances=distances,
        max_finite=int(levels[reached].max()),
        unreachable=int(np.count_nonzero(~reached)),
    )
