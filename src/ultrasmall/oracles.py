"""Exhaustive oracles for small instances.

The laws the samplers must realize, computed without them: the
incremental half-edge pairing of the configuration model and the exact
law of its final matching, every perfect matching, the chain-rule outcome
tree of PA_t, and every admissible minimal neighborhood. They are slow by
design and serve the tests; no module of the package imports this one.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .bounds import MkcTree
from .cm import OddTotalDegreeError, _check_even
from .multigraph import MultiGraph
from .pam import PamGraph


# -- configuration model: incremental pairing --------------------------


@dataclass(frozen=True)
class HalfEdge:
    vertex: int
    slot: int


class PairingState:
    """Mutable state of an incremental uniform pairing: an arbitrary
    unpaired half-edge is paired to a uniformly chosen remaining one.

    unpaired half-edges are kept in a compacted list with an index map so a
    partner draw plus removal is O(1) (swap-remove).
    """

    def __init__(self, seq, seed):
        self.seq = seq
        self.unpaired = [
            HalfEdge(v, s) for v in range(seq.n) for s in range(seq.degrees[v])
        ]
        self._pos = {he: i for i, he in enumerate(self.unpaired)}
        self.paired = []
        self.rng = np.random.default_rng(seed)

    def __contains__(self, half_edge):
        return half_edge in self._pos

    def _remove(self, half_edge):
        i = self._pos.pop(half_edge)
        last = self.unpaired.pop()
        if last != half_edge:
            self.unpaired[i] = last
            self._pos[last] = i


def pair_next(state, chosen):
    """Pair `chosen` to a uniform remaining half-edge; returns
    (partner, state). The state is updated in place."""
    if chosen not in state:
        raise ValueError(f"{chosen} is already paired or unknown")
    state._remove(chosen)
    idx = int(state.rng.integers(len(state.unpaired)))
    partner = state.unpaired[idx]
    state._remove(partner)
    state.paired.append((chosen, partner))
    return partner, state


def complete_pairing(state):
    """Consume the remaining half-edges in index order and return the
    resulting MultiGraph."""
    while state.unpaired:
        chosen = min(state.unpaired, key=lambda h: (h.vertex, h.slot))
        pair_next(state, chosen)
    return graph_from_paired(state)


def graph_from_paired(state):
    deg = state.seq.degrees
    indptr = np.concatenate(([0], np.cumsum(deg)))
    pairs = [
        (indptr[a.vertex] + a.slot, indptr[b.vertex] + b.slot)
        for a, b in state.paired
    ]
    return MultiGraph.from_pairs(deg, pairs)


# -- configuration model: exhaustive enumeration -----------------------


def enumerate_matchings(degrees):
    """Yield every perfect matching of the half-edges of `degrees` as a
    frozenset of (lo, hi) global-slot pairs. All (ell-1)!! matchings are
    produced exactly once; under uniform pairing each has equal probability.
    """
    ell = int(sum(degrees))
    if ell % 2 != 0:
        raise OddTotalDegreeError("odd total degree")

    def rec(free, acc):
        if not free:
            yield frozenset(acc)
            return
        first = free[0]
        for i in range(1, len(free)):
            other = free[i]
            rest = free[1:i] + free[i + 1 :]
            acc.append((first, other))
            yield from rec(rest, acc)
            acc.pop()

    yield from rec(list(range(ell)), [])


def matching_to_graph(degrees, matching):
    return MultiGraph.from_pairs(np.asarray(degrees), sorted(matching))


def enumerate_driver_distribution(seq, order="index"):
    """Exact law of the final matching under the incremental driver.

    At every step the next "arbitrary" half-edge is chosen by `order`
    ('index' or 'reverse' over (vertex, slot)), then all partner branches
    are explored with probability 1/(#remaining - 1) each. Returns a dict
    {frozenset of ((v,s),(v,s)) pairs: Fraction probability}. Used to check
    exchangeability: the distribution must not depend on `order`.
    """
    _check_even(seq)
    half_edges = [
        (v, s) for v in range(seq.n) for s in range(seq.degrees[v])
    ]
    pick = (
        (lambda free: min(free)) if order == "index" else (lambda free: max(free))
    )
    dist = {}

    def rec(free, acc, prob):
        if not free:
            key = frozenset(tuple(sorted(p)) for p in acc)
            dist[key] = dist.get(key, Fraction(0)) + prob
            return
        chosen = pick(free)
        rest = [h for h in free if h != chosen]
        p = prob / len(rest)
        for i, partner in enumerate(rest):
            acc.append((chosen, partner))
            rec(rest[:i] + rest[i + 1 :], acc, p)
            acc.pop()

    rec(half_edges, [], Fraction(1))
    return dist


# -- preferential attachment -------------------------------------------


def enumerate_pam_outcomes(params, t):
    """Exhaustive outcome tree of PA_t: yields (xi_tuple, probability)
    for every complete realization, probability by the chain rule of the
    attachment law. Oracle for small t (the tree has prod_{s=2}^t s^m
    leaves)."""
    m, delta = params.m, params.delta
    dm = delta / m
    steps = [(w, j) for w in range(2, t + 1) for j in range(1, m + 1)]
    deg = [0] * (t + 1)
    deg[1] = 2 * m

    def rec(i, acc, prob):
        if i == len(steps):
            yield tuple(acc), prob
            return
        w, j = steps[i]
        c = (m * (w - 1) + (j - 1)) * (2.0 + dm) + 1.0 + dm
        for target in range(1, w + 1):
            if target == w:
                p = (deg[w] + 1.0 + j * dm) / c
            else:
                p = (deg[target] + delta) / c
            deg[target] += 1
            deg[w] += 1
            acc.append(target)
            yield from rec(i + 1, acc, prob * p)
            acc.pop()
            deg[target] -= 1
            deg[w] -= 1

    first = tuple([1] * m)  # xi_{1,j} = 1 forced
    if t == 1:
        yield first, 1.0
        return
    for tail, prob in rec(0, [], 1.0):
        yield first + tail, prob


def xi_key(graph_or_xi):
    """Flat tuple of all xi values, for outcome-frequency bookkeeping."""
    xi = graph_or_xi.xi if isinstance(graph_or_xi, PamGraph) else graph_or_xi
    return tuple(int(x) for x in np.asarray(xi).ravel())


def admissible_trees(params, t, k):
    """Enumerate every admissible minimal neighborhood H (`MkcTree`) of
    depth k <= 1."""
    m = params.m
    half, quarter = t // 2, t // 4
    if k == 0:
        return [MkcTree(root=v, k=0, edges={}) for v in range(half + 1, t + 1)]
    if k == 1:
        window = range(quarter + 1, half + 1)
        return [
            MkcTree(root=v, k=1, edges={v: tuple(targets)})
            for v in range(half + 1, t + 1)
            for targets in permutations(window, m)
        ]
    raise NotImplementedError("admissible-tree enumeration implemented for k <= 1")
