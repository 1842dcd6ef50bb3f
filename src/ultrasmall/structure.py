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


def _tree_balls(roots, k, admissible, expand):
    """Depth-k exploration-tree check shared by both models, for every
    root at once, level by level. Every edge out of an interior vertex
    (depth < k) must reach a vertex of admissible degree that no edge of
    the same ball reached before: a self-loop, a multi-edge or a cycle
    among the explored edges repeats a (root, vertex) pair. Edges among
    depth-k boundary vertices are unconstrained (they are exactly what
    the moment formulas leave free). `expand(vertex, entry)` lists a
    level's edges other than the ones each vertex was entered by, as
    (row of the level, vertex reached, its entry) arrays; the roots'
    entry is -1. Returns the mask of roots whose ball passes and the
    (root index, vertex) pairs of those balls."""
    n = admissible.size
    owner = np.arange(roots.size)
    vertex, entry = roots, np.full(roots.size, -1)
    ok = np.ones(roots.size, dtype=bool)
    owners, vertices = [owner], [vertex]
    for _ in range(k):
        row, vertex, entry = expand(vertex, entry)
        owner = owner[row]
        ok[owner[~admissible[vertex]]] = False
        keep = ok[owner]
        owner, vertex = owner[keep], vertex[keep]
        entry = None if entry is None else entry[keep]
        owners.append(owner)
        vertices.append(vertex)
    owner, vertex = np.concatenate(owners), np.concatenate(vertices)
    key = np.sort(owner * n + vertex)
    ok[key[1:][key[1:] == key[:-1]] // n] = False
    keep = ok[owner]
    return ok, owner[keep], vertex[keep]


def census_mkc(graph, model_params, k):
    """Exact minimally-k-connected census by ball inspection."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(graph, PamGraph):
        return _census_mkc_pam(graph, k)
    return _census_mkc_cm(graph, model_params, k)


def _census_mkc_cm(graph, params, k):
    # roots and the rest of the ball alike have degree d_min
    d_min = params.d_min
    admissible = graph.degrees == d_min
    roots = np.flatnonzero(admissible)
    ik = _bounds.i_k(d_min, k, "cm")
    slots = np.arange(d_min)

    def expand(vertex, entry):
        # every vertex explored has exactly d_min slots
        slot = graph.indptr[vertex][:, None] + slots
        leave = slot != entry[:, None]
        slot = slot[leave]
        return np.nonzero(leave)[0], graph.nbr[slot], graph.partner[slot]

    ok, owner, _ = _tree_balls(roots, k, admissible, expand)
    # a ball that passes is the minimal depth-k tree: i_k edges
    assert np.all(np.bincount(owner, minlength=roots.size)[ok] == ik + 1)
    return MkcCensus(k=k, members=roots[ok].tolist(), i_k=ik)


def _census_mkc_pam(graph, k):
    # root: aged in (t/2, t] with final degree m, so in-degree 0; the rest
    # of the ball: aged in (t/4, t/2] with final degree m+1, so in-degree
    # 1 from the vertex it was reached from. The ball therefore follows
    # xi rows (out-edges) only
    t, m, xi = graph.t, graph.m, graph.xi
    deg = graph.degrees()
    half, quarter = t // 2, t // 4
    admissible = np.zeros(t, dtype=bool)
    admissible[quarter:half] = deg[quarter:half] == m + 1
    roots = half + np.flatnonzero(deg[half:] == m)
    ik = _bounds.i_k(m, k, "pam")

    def expand(vertex, entry):
        row = np.repeat(np.arange(vertex.size), m)
        return row, (xi[vertex] - 1).ravel(), None

    ok, owner, vertex = _tree_balls(roots, k, admissible, expand)
    assert np.all(np.bincount(owner, minlength=roots.size)[ok] == ik)
    # provably impossible (a shared vertex would have in-degree 2)
    shared = np.bincount(vertex, minlength=t) > 1
    if shared.any():
        a, b = roots[owner[vertex == np.argmax(shared)][:2]] + 1
        raise RuntimeError(f"balls of members {a} and {b} overlap")
    return MkcCensus(k=k, members=roots[ok].tolist(), i_k=ik)


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
    half = graph.t // 2
    A = set(int(a) for a in A)
    if any(not 1 <= a <= half for a in A):
        raise ValueError("A must be a subset of [t/2]")
    if not 1 <= i <= half or i in A:
        raise ValueError("i must lie in [t/2] \\ A")
    young = graph.xi[half:]
    hit = np.isin(young, list(A)).any(axis=1) & (young == i).any(axis=1)
    connectors = (half + 1 + np.flatnonzero(hit)).tolist()
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
