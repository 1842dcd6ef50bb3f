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
reads the raw 64-bit words in blocks (`random_raw`) and decodes them as
numpy does: a double is the word's top 53 bits times 2^-53; `integers(k)`
is Lemire's multiply-and-reject on 32-bit halves, the low half of a word
first and the high half kept for the next one; `integers(1)` draws
nothing.  On return the Generator is left where those calls would have
left it, so a seed gives the same xi, and a shared Generator the same later
draws, as calling numpy once per draw.
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


def _pcg64_draws(rng, block):
    """Closures `random()`, `integers(k)` (1 <= k <= 2^32) and `close()`
    giving what `rng.random()` and `rng.integers(k)` would, decoded from raw
    words read `block` at a time. Until `close()` runs, `rng` stands ahead
    of the draws; `close()` puts it back where those numpy calls would have
    left it."""
    bg = rng.bit_generator
    if not isinstance(bg, np.random.PCG64):
        raise TypeError(f"need a PCG64 Generator, got {type(bg).__name__}")
    saved = bg.state
    pending, half = saved["has_uint32"], saved["uinteger"]
    words = bg.random_raw(block).tolist()
    pos = 0  # words used of this block
    done = 0  # words of earlier blocks

    def refill():
        nonlocal words, pos, done
        done += block
        words = bg.random_raw(block).tolist()
        pos = 0

    def random():
        nonlocal pos
        if pos == block:
            refill()
        pos += 1
        return (words[pos - 1] >> 11) * _DOUBLE_UNIT

    def integers(k):
        nonlocal pos, pending, half
        # numpy draws nothing for a range of one value
        if k == 1:
            return 0
        while True:
            # next_uint32: a pending high half, else the low half of a word
            if pending:
                pending = 0
                x = half
            else:
                if pos == block:
                    refill()
                word = words[pos]
                pos += 1
                pending, half = 1, word >> 32
                x = word & _LOW32
            # Lemire: the high half of x * k, with x redrawn while the low
            # half falls below 2^32 mod k (worked out only when it is below
            # k, since 2^32 mod k < k)
            p = x * k
            low = p & _LOW32
            if low >= k or low >= (2**32 - k) % k:
                return p >> 32

    def close():
        # step the saved state past the words used: unlike `advance`,
        # `random_raw` leaves the pending half-word as it is set here. The
        # full blocks are skipped without an array; the last block's words
        # come as one small array, which costs less than a skip
        saved["has_uint32"], saved["uinteger"] = pending, half
        bg.state = saved
        if done:
            bg.random_raw(done, output=False)
        bg.random_raw(pos)

    return random, integers, close


def generate_pam(params, t, seed, check_normalization=False):
    """Sequential exact sampling of PA_t(m, delta); reproducible per seed
    (PCG64). `seed` may also be a PCG64 Generator, to amortize setup cost
    across many small draws; it is left as if every uniform had been drawn
    from it by its own `random()` or `integers()` call."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    m, delta = params.m, params.delta
    dm = delta / m
    # an attachment takes 1.5-3 words on average: the first block serves
    # most small calls whole, and stays cheap to read for t = 3
    rand, randint, close = _pcg64_draws(rng, min(_BLOCK, 2 * m * t + 8))

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
                if rand() < w_self / c:
                    target = w
                elif delta <= 0:
                    # proposal ~ degree, accept with (D_v + delta)/D_v
                    while True:
                        v = endpoints[randint(ne)]
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
                        target = 1 + randint(w - 1)
                    else:
                        while True:
                            v = endpoints[randint(ne)]
                            if v != w:
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
        close()
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
