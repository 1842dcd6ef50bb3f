"""Preferential attachment graphs PA_t(m, delta) via the xi-variable
construction.

Vertex w enters with m directed edges; the j-th edge attaches to
xi_{w,j} in [w] with

    P(xi_{w,j} = w) = (D_{w,j-1}(w) + 1 + j*delta/m) / c_{w,j}
    P(xi_{w,j} = v) = (D_{w,j-1}(v) + delta) / c_{w,j},   v < w

where c_{w,j} = [m(w-1) + (j-1)](2 + delta/m) + 1 + delta/m.  Sampling is
exact: the self term is drawn directly, and conditionally on "not self" the
target is drawn from the uniform-half-edge-endpoint proposal (weight
proportional to current degree) with acceptance (D_v + delta)/D_v, which
realizes the D_v + delta weights exactly for any delta > -m.
"""

from dataclasses import dataclass, field

import numpy as np

from .multigraph import MultiGraph
from .textio import read_rows, write_rows


@dataclass(frozen=True)
class PamParams:
    """(m, delta) with derived tail exponent tau = 3 + delta/m and
    gamma = m/(2m + delta)."""

    m: int
    delta: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.delta > -self.m:
            raise ValueError(f"delta must exceed -m, got {self.delta}")

    @property
    def tau(self):
        return 3.0 + self.delta / self.m

    @property
    def gamma(self):
        return self.m / (2.0 * self.m + self.delta)


def normalizer(params, t, j):
    """c_{t,j} of the attachment law."""
    m, delta = params.m, params.delta
    return (m * (t - 1) + (j - 1)) * (2.0 + delta / m) + 1.0 + delta / m


@dataclass
class PamGraph:
    """Realized PA_t(m, delta): xi[w-1, j-1] = xi_{w,j} with 1-based vertex
    labels in the array values."""

    params: PamParams
    t: int
    xi: np.ndarray
    _incoming: dict = field(default=None, repr=False, compare=False)

    @property
    def m(self):
        return self.params.m

    def degrees(self):
        """Final degrees D_t(v) as an array indexed by v-1."""
        m, t = self.m, self.t
        deg = np.full(t, m, dtype=np.int64)  # out-edge contributions
        deg += np.bincount(self.xi.ravel() - 1, minlength=t)
        return deg

    def degree_snapshot(self, s, j=None):
        """Degrees D_{s,j}(v) for all v (0 for v > s)."""
        if j is None:
            j = self.m
        if not 1 <= s <= self.t or not 0 <= j <= self.m:
            raise ValueError("snapshot index out of range")
        targets = np.concatenate(
            (self.xi[: s - 1].ravel(), self.xi[s - 1, :j])
        )
        deg = np.zeros(self.t, dtype=np.int64)
        deg[: s - 1] = self.m
        deg[s - 1] = j
        deg += np.bincount(targets - 1, minlength=self.t)
        return deg

    def degree_at(self, v, s, j=None):
        """Exact D_{s,j}(v); a self-loop at v counts 2."""
        if j is None:
            j = self.m
        if v > s:
            raise ValueError(f"vertex {v} does not exist at time {s}")
        if not 1 <= v or not s <= self.t or not 0 <= j <= self.m:
            raise ValueError("index out of range")
        own = self.m if v < s else j
        incoming = int(np.count_nonzero(self.xi[: s - 1] == v))
        incoming += int(np.count_nonzero(self.xi[s - 1, :j] == v))
        return own + incoming

    def undirected_view(self):
        """MultiGraph with one edge {w, xi_{w,j}} per (w, j)."""
        t, m = self.t, self.m
        sources = np.repeat(np.arange(t, dtype=np.int64), m)
        edges = np.column_stack((sources, self.xi.ravel().astype(np.int64) - 1))
        return MultiGraph.from_edge_list(t, edges)


def generate_pam(params, t, seed, check_normalization=False):
    """Sequential exact sampling of PA_t(m, delta); reproducible per seed
    (PCG64). `seed` may also be a numpy Generator to amortize setup cost
    across many small draws."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    m, delta = params.m, params.delta
    dm = delta / m
    xi = np.empty((t, m), dtype=np.int32)
    xi[0, :] = 1

    # endpoint multiset: one entry per half-edge endpoint, so vertex v
    # appears exactly D(v) times; used as the degree-proportional proposal
    endpoints = np.empty(2 * m * t, dtype=np.int32)
    endpoints[: 2 * m] = 1
    ne = 2 * m
    deg = [0] * (t + 1)
    deg[1] = 2 * m
    total = 2 * m  # running total degree, for the normalization assert

    rand = rng.random
    randint = rng.integers
    for w in range(2, t + 1):
        deg_w = 0
        base = (w - 1) * m
        row = xi[w - 1]
        for j in range(1, m + 1):
            c = (base + (j - 1)) * (2.0 + dm) + 1.0 + dm
            w_self = deg_w + 1.0 + j * dm
            if check_normalization:
                rest = (total - deg_w) + (w - 1) * delta
                assert abs((w_self + rest) / c - 1.0) < 1e-12
            if rand() < w_self / c:
                target = w
            elif delta <= 0:
                # proposal ~ degree, accept with (D_v + delta)/D_v
                while True:
                    v = int(endpoints[int(randint(ne))])
                    if v == w:
                        continue
                    dv = deg[v]
                    if delta == 0 or rand() * dv < dv + delta:
                        target = v
                        break
            else:
                # delta > 0: degree part plus uniform part as a mixture
                s_deg = total - deg_w
                if rand() * (s_deg + (w - 1) * delta) < (w - 1) * delta:
                    target = int(randint(1, w))
                else:
                    while True:
                        v = int(endpoints[int(randint(ne))])
                        if v != w:
                            target = v
                            break
            row[j - 1] = target
            endpoints[ne] = target
            endpoints[ne + 1] = w
            ne += 2
            deg[target] += 1
            deg[w] += 1
            total += 2
            deg_w = deg[w]
    return PamGraph(params=params, t=t, xi=xi)


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


def write_pam(path, graph):
    """Text table of (w, j, xi_{w,j}) triples, 1-based, under a
    `# t <t> m <m>` header."""
    t, m = graph.t, graph.m
    rows = np.column_stack(
        (
            np.repeat(np.arange(1, t + 1), m),
            np.tile(np.arange(1, m + 1), t),
            graph.xi.ravel(),
        )
    )
    with open(path, "w") as fh:
        fh.write(f"# t {t} m {m}\n")
        write_rows(fh, "%d %d %d\n", rows)


def read_pam(path, params):
    """Inverse of `write_pam`: t is the largest w; comment and blank lines
    are skipped, and a line that is not three integers raises ValueError."""
    with open(path) as fh:
        w, j, x = read_rows(fh.read(), 3).T
    t = int(w.max())
    xi = np.zeros((t, params.m), dtype=np.int32)
    xi[w - 1, j - 1] = x
    return PamGraph(params=params, t=t, xi=xi)
