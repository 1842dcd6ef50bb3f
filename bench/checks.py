"""Output checks made apart from the program.

Distances and components come from ``scipy.sparse.csgraph`` run on an
edge array the benchmark builds itself: parsed from an edge-list file, or
taken from a graph rebuilt through the public generators, or (for PAM)
read straight off the ``xi`` table. Each check returns a list of problems;
an empty list means the output is correct.
"""

import csv
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


def adjacency(n, edges):
    """Symmetric CSR matrix of a multigraph given as (u, v) rows; loops
    and parallel edges act as simple adjacency once BFS runs unweighted."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate((edges[:, 0], edges[:, 1]))
    cols = np.concatenate((edges[:, 1], edges[:, 0]))
    ones = np.ones(rows.size, dtype=np.int8)
    adj = coo_matrix((ones, (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1  # summed parallel edges may have wrapped around
    return adj


def bfs_distances(adj, sources):
    """Hop distances (inf when unreached), one row per source."""
    return shortest_path(
        adj, method="D", directed=False, unweighted=True, indices=sources
    )


def largest_component(adj):
    """Vertex ids of a largest connected component."""
    _, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    return np.flatnonzero(labels == np.argmax(sizes))


def diameter_problems(tag, n, edges, diam, lcc_fraction, exact):
    """`lcc_fraction` must equal scipy's largest-component fraction.
    With `exact`, `diam` must equal the all-sources maximum over the
    largest component; otherwise ecc(v) <= diam <= 2 ecc(v) must hold for
    the eccentricities of a fixed set of its vertices: the highest-degree
    one, the farthest vertex from it, and its lowest id."""
    adj = adjacency(n, edges)
    members = largest_component(adj)
    problems = []
    if lcc_fraction != members.size / n:
        problems.append(
            f"{tag}: lcc_fraction {lcc_fraction!r} != {members.size / n!r}"
        )
    if exact:
        sub = adj[members][:, members]
        true = int(bfs_distances(sub, np.arange(members.size)).max())
        if diam != true:
            problems.append(f"{tag}: diam {diam} != all-sources {true}")
        return problems
    degrees = np.bincount(np.asarray(edges).ravel(), minlength=n)
    hub = int(members[np.argmax(degrees[members])])
    from_hub = bfs_distances(adj, [hub])[0]
    far = int(np.argmax(np.where(np.isfinite(from_hub), from_hub, -1)))
    sources = [hub, far, int(members[0])]
    for v, row in zip(sources, bfs_distances(adj, sources)):
        ecc = int(row[np.isfinite(row)].max())
        if not ecc <= diam <= 2 * ecc:
            problems.append(
                f"{tag}: diam {diam} outside [ecc, 2 ecc] = [{ecc}, {2 * ecc}]"
                f" of vertex {v}"
            )
    return problems


def typical_problems(tag, mean, top, diam):
    if not 0 < mean <= top <= diam:
        return [f"{tag}: not 0 < typical_mean {mean} <= typical_max {top}"
                f" <= diam {diam}"]
    return []


def degree_problems(tag, n, edges, expected):
    """The edges realize `expected` degrees, which sum to twice the edge
    count (a loop counts 2)."""
    degrees = np.bincount(np.asarray(edges).ravel(), minlength=n)
    expected = np.asarray(expected)
    problems = []
    if degrees.shape != expected.shape or not np.array_equal(degrees, expected):
        problems.append(f"{tag}: degrees differ from the drawn sequence")
    if int(expected.sum()) != 2 * len(edges):
        problems.append(
            f"{tag}: degree sum {int(expected.sum())} != 2 x {len(edges)} edges"
        )
    return problems


def core_distances(n, edges, core):
    """Distance to the nearest core vertex, by one BFS from a super-source
    joined to every core vertex."""
    hub_edges = np.column_stack((np.full(len(core), n), core))
    adj = adjacency(n + 1, np.concatenate((np.reshape(edges, (-1, 2)), hub_edges)))
    return bfs_distances(adj, [n])[0, :n] - 1.0


def cm_core(degrees, sigma):
    """Vertices of final degree >= (log n)^sigma."""
    return np.flatnonzero(degrees >= math.log(degrees.size) ** sigma)


def pam_edges(xi):
    """One undirected (w, xi_{w,j}) row per attachment, 0-based."""
    t, m = xi.shape
    return np.column_stack(
        (np.repeat(np.arange(t), m), xi.ravel().astype(np.int64) - 1)
    )


def pam_problems(tag, xi, degrees, num_edges):
    """`xi` is a valid attachment table (xi_{w,j} in 1..w), and the
    program's undirected view of it, given by its `degrees` and
    `num_edges`, has one edge per attachment and the degrees those edges
    give: m t edges and a degree sum of 2 m t."""
    t, m = xi.shape
    problems = []
    born = np.arange(1, t + 1)[:, None]
    bad = np.argwhere((xi < 1) | (xi > born))
    if bad.size:
        w, j = (int(i) for i in bad[0])
        problems.append(
            f"{tag}: {len(bad)} xi values outside 1..w, first"
            f" xi[{w + 1}, {j + 1}] = {int(xi[w, j])}"
        )
        return problems
    if num_edges != m * t:
        problems.append(f"{tag}: {num_edges} edges != m t = {m * t}")
    degrees = np.asarray(degrees)
    expected = np.bincount(pam_edges(xi).ravel(), minlength=t)
    if degrees.shape != expected.shape or not np.array_equal(degrees, expected):
        problems.append(f"{tag}: degrees differ from the attachments in xi")
    if int(degrees.sum()) != 2 * m * t:
        problems.append(f"{tag}: degree sum {int(degrees.sum())} != 2 m t")
    return problems


def pam_core(xi, sigma):
    """Vertices whose degree after step t/2 is >= (log t)^sigma."""
    t, m = xi.shape
    s = t // 2
    degrees = np.zeros(t, dtype=np.int64)
    degrees[:s] = m
    degrees += np.bincount(xi[:s].ravel() - 1, minlength=t)
    return np.flatnonzero(degrees >= math.log(t) ** sigma)


def pam_mkc1(xi):
    """Minimally-1-connected census of PA_t(m, delta): vertices born after
    t/2 of final degree m whose m targets are distinct, born in
    (t/4, t/2] and of final degree m + 1."""
    t, m = xi.shape
    degrees = m + np.bincount(xi.ravel() - 1, minlength=t)
    targets = xi.astype(np.int64)  # 1-based labels
    label = np.arange(1, t + 1)
    young = (label > t // 2) & (degrees == m)
    aged = (targets > t // 4) & (targets <= t // 2)
    fit = aged & (degrees[targets - 1] == m + 1)
    ordered = np.sort(targets, axis=1)
    distinct = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    return int(np.count_nonzero(young & distinct & np.all(fit, axis=1)))


def read_edge_list(path):
    """(n, edges) of a `# n <count>` edge-list file, 0-based."""
    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] != ["#", "n"]:
            raise ValueError(f"{path}: no '# n' header")
        flat = np.array(fh.read().split(), dtype=np.int64)
    return int(header[2]), flat.reshape(-1, 2) - 1


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def core_dist_problems(tag, n, edges, core, csv_path):
    """The `analyze --what core-dist` CSV lists every vertex once with
    its distance to the core."""
    rows = read_rows(csv_path)
    expected = core_distances(n, edges, core)
    if [int(r["vertex"]) for r in rows] != list(range(1, n + 1)):
        return [f"{tag}: vertex column is not 1..{n}"]
    got = np.array([float(r["dist_to_core"]) for r in rows])
    wrong = np.flatnonzero(got != expected)
    if wrong.size:
        v = int(wrong[0])
        return [
            f"{tag}: {wrong.size} distances differ, first at vertex {v + 1}:"
            f" {got[v]} != {expected[v]}"
        ]
    return []
