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

The sampler's uniforms are the draws `Generator.random()` and
`Generator.integers(k)` of a PCG64 Generator would give, one by one, but it
reads the raw 64-bit words in blocks (`random_raw`) and decodes them inside
its attachment loop as numpy does: a double is the word's top 53 bits times
2^-53; `integers(k)` is Lemire's multiply-and-reject on 32-bit halves, the
low half of a word first and the high half kept for the next one;
`integers(1)` draws nothing.  On return a Generator it was given is left
where those calls would have left it, so a seed gives the same xi, and a
shared Generator the same later draws, as calling numpy once per draw.
"""

from array import array
from dataclasses import dataclass

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
        targets = self.xi.ravel()[: (s - 1) * self.m + j]
        return own + int(np.count_nonzero(targets == v))

    def undirected_view(self):
        """MultiGraph with one edge {w, xi_{w,j}} per (w, j)."""
        t, m = self.t, self.m
        sources = np.repeat(np.arange(t, dtype=np.int64), m)
        edges = np.column_stack((sources, self.xi.ravel().astype(np.int64) - 1))
        return MultiGraph.from_edge_list(t, edges)


# 2^-53: a double is the top 53 bits of a word times this
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFFFFFF
# largest block of words read at once; its list holds about 48 bytes a word
_BLOCK = 2**12


class _Pcg64Words:
    """The raw 64-bit words of a PCG64 Generator, read `block` at a time as
    a list of Python ints. `pending, half` is the Generator's pending high
    half-word when reading began. Until `close` runs, the Generator stands
    ahead of the words drawn; with `fresh` (a Generator nobody sees again)
    its state is neither read nor put back."""

    def __init__(self, rng, block, fresh=False):
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(f"need a PCG64 Generator, got {type(bg).__name__}")
        self._bg, self.block, self._read = bg, block, 0
        self._saved = None if fresh else bg.state
        self.pending = self.half = 0
        if not fresh:
            self.pending = self._saved["has_uint32"]
            self.half = self._saved["uinteger"]

    def next(self):
        """The next `block` words."""
        self._read += self.block
        return self._bg.random_raw(self.block).tolist()

    def close(self, unused, pending, half):
        """Put the Generator where numpy's own draws would have left it:
        `unused` words of the last block were not drawn, and `pending,
        half` is the pending half-word (`random_raw` keeps it, unlike
        `advance`). Earlier blocks are skipped without an array; the last
        block's words come as one small array, which costs less than a
        skip."""
        if self._saved is None:
            return
        self._saved["has_uint32"], self._saved["uinteger"] = pending, half
        self._bg.state = self._saved
        if self._read > self.block:
            self._bg.random_raw(self._read - self.block, output=False)
        self._bg.random_raw(self.block - unused)


def generate_pam(params, t, seed, check_normalization=False):
    """Sequential exact sampling of PA_t(m, delta); reproducible per seed
    (PCG64). `seed` may also be a PCG64 Generator, to amortize setup cost
    across many small draws; it is left as if every uniform had been drawn
    from it by its own `random()` or `integers()` call."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    shared = isinstance(seed, np.random.Generator)
    rng = seed if shared else np.random.default_rng(seed)
    m, delta = params.m, params.delta
    dm = delta / m
    # an attachment takes 1.5-3 words on average: the first block serves
    # most small calls whole, and stays cheap to read for t = 3
    size = min(_BLOCK, 2 * m * t + 8)
    words = _Pcg64Words(rng, size, fresh=not shared)
    pending, half = words.pending, words.half
    raw = words.next()
    pos = 0  # words drawn of this block
    unit, low32 = _DOUBLE_UNIT, _LOW32

    # endpoint multiset: one entry per half-edge endpoint, so vertex v
    # appears exactly D(v) times; used as the degree-proportional proposal.
    # Entry 2i is the target of attachment i (xi in row order, with
    # xi_{1,j} = 1) and entry 2i + 1 its source. A C-int array: as fast
    # to index as a list, which would also hold one Python int per vertex
    # (twice the peak memory at t = 10^6)
    endpoints = array("i", [1]) * (2 * m * t)
    ne = 2 * m
    deg = [0] * (t + 1)
    deg[1] = 2 * m
    total = 2 * m  # running total degree, for the normalization assert

    # The uniforms are numpy's, decoded inline from the words in numpy's
    # order: `random()` takes a whole word; `integers(k)` takes a pending
    # high half, else the low half of a new word, keeping its high half
    # pending, and applies Lemire's multiply-and-reject; `integers(1)`
    # draws nothing. Every word read first refills an exhausted block.
    try:
        for w in range(2, t + 1):
            deg_w = 0
            base = (w - 1) * m
            for j in range(1, m + 1):
                c = (base + (j - 1)) * (2.0 + dm) + 1.0 + dm
                w_self = deg_w + 1.0 + j * dm
                if check_normalization:
                    rest = (total - deg_w) + (w - 1) * delta
                    assert abs((w_self + rest) / c - 1.0) < 1e-12
                if pos == size:
                    raw, pos = words.next(), 0
                u = (raw[pos] >> 11) * unit
                pos += 1
                if u < w_self / c:
                    target = w
                else:
                    # proposal: a uniform endpoint, so v with weight D_v
                    k, uniform = ne, False
                    if delta > 0:
                        # mixture: a uniform vertex with weight (w-1) delta
                        if pos == size:
                            raw, pos = words.next(), 0
                        u = (raw[pos] >> 11) * unit
                        pos += 1
                        s_deg = total - deg_w
                        if u * (s_deg + (w - 1) * delta) < (w - 1) * delta:
                            k, uniform = w - 1, True
                    while True:
                        # integers(k)
                        if k == 1:
                            p = 0
                        elif pending:
                            pending = 0
                            p = half * k
                        else:
                            if pos == size:
                                raw, pos = words.next(), 0
                            word = raw[pos]
                            pos += 1
                            p = (word & low32) * k
                            pending, half = 1, word >> 32
                        # Lemire: redraw while the low half of x * k falls
                        # below 2^32 mod k (worked out only when it is below
                        # k, since 2^32 mod k < k)
                        p_low = p & low32
                        if p_low < k and p_low < (2**32 - k) % k:
                            continue
                        if uniform:
                            target = 1 + (p >> 32)
                            break
                        v = endpoints[p >> 32]
                        if v == w:
                            continue
                        if delta < 0:
                            # accept v with (D_v + delta)/D_v
                            if pos == size:
                                raw, pos = words.next(), 0
                            u = (raw[pos] >> 11) * unit
                            pos += 1
                            dv = deg[v]
                            if u * dv >= dv + delta:
                                continue
                        target = v
                        break
                endpoints[ne] = target
                endpoints[ne + 1] = w
                ne += 2
                deg[target] += 1
                deg[w] += 1
                total += 2
                deg_w = deg[w]
    finally:
        words.close(size - pos, pending, half)
    xi = np.frombuffer(endpoints[::2], dtype=np.intc).reshape(t, m)
    return PamGraph(params=params, t=t, xi=xi)


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
