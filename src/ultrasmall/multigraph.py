"""Undirected multigraph with CSR-style, slot-ordered adjacency.

Each vertex v owns deg(v) half-edge slots occupying the global index range
[indptr[v], indptr[v+1]). `nbr[g]` is the vertex at the other end of the
half-edge in global slot g, and `partner[g]` is the global slot it is paired
with. A self-loop pairs two slots of the same vertex and therefore
contributes 2 to its degree.
"""

import re

import numpy as np

from .textio import read_rows, write_rows

# a `# n <count>` comment; the search starts at the literal `#`
_N_HEADER = re.compile(r"#[^\S\n]*n[^\S\n]+(\S+)[^\S\n]*$", re.M)


class MultiGraph:
    __slots__ = ("n", "indptr", "nbr", "partner")

    def __init__(self, n, indptr, nbr, partner):
        self.n = int(n)
        self.indptr = indptr
        self.nbr = nbr
        self.partner = partner

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, degrees, pairs):
        """Build from per-vertex degrees and an array of paired global
        slot indices, shape (num_edges, 2)."""
        degrees = np.asarray(degrees, dtype=np.int64)
        n = degrees.size
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        ell = int(indptr[-1])
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size != ell:
            raise ValueError("pairs must cover every half-edge exactly once")
        partner = np.empty(ell, dtype=np.int64)
        partner[pairs[:, 0]] = pairs[:, 1]
        partner[pairs[:, 1]] = pairs[:, 0]
        owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
        return cls(n, indptr, owner[partner], partner)

    @classmethod
    def from_edge_list(cls, n, edges):
        """Build from 0-based (u, v) edge pairs; slots are assigned in
        edge order."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        flat = edges.reshape(-1)
        degrees = np.bincount(flat, minlength=n)
        # sort by (vertex, position): sorted position j is CSR slot j. The
        # keys are unique, so a non-stable sort gives the stable sort's
        # permutation, faster; they stay below n * flat.size, within int64
        # for any graph whose arrays fit in memory
        perm = np.argsort(flat * flat.size + np.arange(flat.size))
        slot = np.empty(flat.size, dtype=np.int64)
        slot[perm] = np.arange(flat.size, dtype=np.int64)
        return cls.from_pairs(degrees, slot.reshape(-1, 2))

    # -- basic accessors ----------------------------------------------

    @property
    def degrees(self):
        return np.diff(self.indptr)

    @property
    def num_half_edges(self):
        return int(self.indptr[-1])

    @property
    def num_edges(self):
        return self.num_half_edges // 2

    @property
    def slot_owner(self):
        """Vertex owning each global slot, built on each call: an int64
        per half-edge is too much to keep on every graph."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def neighbors(self, v):
        """Slot-ordered neighbor array of v (a self-loop appears twice)."""
        return self.nbr[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self):
        """Array of (u, v) per edge, one row per half-edge pair."""
        slots = np.nonzero(np.arange(self.num_half_edges) <= self.partner)[0]
        return np.column_stack((self.slot_owner[slots], self.nbr[slots]))

    def matching_key(self):
        """Canonical hashable identity of the half-edge matching."""
        slots = np.arange(self.num_half_edges)
        lo = np.minimum(slots, self.partner)
        hi = np.maximum(slots, self.partner)
        return frozenset(zip(lo.tolist(), hi.tolist()))

    def write_edge_list(self, path):
        """One `u v` pair per line, 1-based ids; `# n <count>` header
        keeps isolated vertices recoverable."""
        with open(path, "w") as fh:
            fh.write(f"# n {self.n}\n")
            write_rows(fh, "%d %d\n", self.edges() + 1)

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={self.num_edges})"


def write_edge_list(graph, path):
    graph.write_edge_list(path)


def read_edge_list(path):
    """Inverse of `write_edge_list`. n is the last `# n <count>` comment
    line's count, else 1 + the largest id; other comment lines and blank
    lines are skipped, and a line that is not two integers raises
    ValueError."""
    with open(path) as fh:
        text = fh.read()
    n = None
    for header in _N_HEADER.finditer(text):
        # only a `#` that opens its line starts a header
        if text[text.rfind("\n", 0, header.start()) + 1 : header.start()].strip():
            continue
        n = int(header.group(1))
    edges = read_rows(text, 2) - 1
    if n is None:
        n = 1 + int(edges.max()) if edges.size else 0
    return MultiGraph.from_edge_list(n, edges)
