"""Closed-form quantities and bounds: limit constants and thresholds,
minimally-k-connected moments, size-biased tails, path-counting bounds,
the attachment-chain product probability, and the recursive growth
sequences used in the path analysis."""

import math
from dataclasses import dataclass

import numpy as np

from .pam import PamParams, normalizer


def round_half_up(x):
    """Rounding convention for all k-type thresholds."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class AsymptoticConstants:
    tau: float
    d_fwd: int
    c_dist: int

    def __post_init__(self):
        if not 2.0 < self.tau < 3.0:
            raise ValueError(f"tau must lie in (2,3), got {self.tau}")
        if self.d_fwd < 2:
            raise ValueError(f"d_fwd must be >= 2, got {self.d_fwd}")

    @property
    def diam_constant(self):
        return 2.0 / math.log(self.d_fwd) + self.typ_constant

    @property
    def typ_constant(self):
        return 2.0 * self.c_dist / abs(math.log(self.tau - 2.0))

    def k_minus(self, n, eps):
        return round_half_up(
            (1.0 - eps) * math.log(math.log(n)) / math.log(self.d_fwd)
        )

    def k_plus(self, n, eps):
        return round_half_up(
            (1.0 + eps) * math.log(math.log(n)) / math.log(self.d_fwd)
        )

    def k_bar(self, n, eps):
        return round_half_up(
            (1.0 - eps)
            * self.c_dist
            * math.log(math.log(n))
            / abs(math.log(self.tau - 2.0))
        )

    def h(self, n, B, C):
        return math.ceil(B * math.log(math.log(math.log(n))) + C)


def asymptotic_constants(model_params):
    """d_fwd, c_dist and the limit constants for either model."""
    if isinstance(model_params, PamParams):
        return AsymptoticConstants(
            tau=model_params.tau, d_fwd=model_params.m, c_dist=2
        )
    return AsymptoticConstants(
        tau=model_params.tau, d_fwd=model_params.d_min - 1, c_dist=1
    )


def i_k(d_min_or_m, k, model):
    """CM: edge count of the minimal depth-k tree. PAM: its vertex count."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if model == "cm":
        d = d_min_or_m
        if d < 1:
            raise ValueError("d_min must be >= 1")
        if d == 2:
            return d * k
        return d * ((d - 1) ** k - 1) // (d - 2)
    if model == "pam":
        m = d_min_or_m
        if m < 1:
            raise ValueError("m must be >= 1")
        return (m ** (k + 1) - 1) // (m - 1) if m > 1 else k + 1
    raise ValueError(f"unknown model {model!r}")


def cm_mk_first_moment(seq, k):
    """Exact expected number of minimally-k-connected vertices,
    n_dmin * prod_{i=1}^{i_k} d_min (n_dmin - i) / (ell_n - 2i + 1),
    accumulated in log space."""
    d_min = seq.d_min
    if d_min < 2:
        raise ValueError("d_min must be >= 2")
    ik = i_k(d_min, k, "cm")
    n_d = seq.n_dmin
    ell = seq.ell_n
    if ell <= 2 * ik:
        raise ValueError(f"ell_n={ell} <= 2 i_k={2 * ik}: formula undefined")
    if n_d <= ik:
        return 0.0
    log_sum = math.log(n_d)
    for i in range(1, ik + 1):
        log_sum += math.log(d_min) + math.log(n_d - i) - math.log(ell - 2 * i + 1)
    return math.exp(log_sum)


def cm_mk_second_moment_bound(seq, k):
    """Upper bound E[M_k^2] <= E[M_k]^2 + E[M_k]((i_k+1) +
    i_2k d_min n_dmin/(ell_n - 4 i_k)); requires ell_n > 4 i_k."""
    d_min = seq.d_min
    ik = i_k(d_min, k, "cm")
    ell = seq.ell_n
    if ell <= 4 * ik:
        raise ValueError(f"requires ell_n > 4 i_k, got {ell} <= {4 * ik}")
    em = cm_mk_first_moment(seq, k)
    i2k = i_k(d_min, 2 * k, "cm")
    return em * em + em * ((ik + 1) + i2k * d_min * seq.n_dmin / (ell - 4 * ik))


def size_biased_ccdf(seq, x):
    """1 - F*_n(x) = (1/ell_n) sum_v d_v 1{d_v > x}."""
    if seq.n == 0:
        raise ValueError("empty sequence")
    d = seq.degrees
    return float(d[d > x].sum() / seq.ell_n)


def truncated_mean_nu(seq, x):
    """nu_n(x) = (1/ell_n) sum_v d_v (d_v - 1) 1{d_v <= x}."""
    if seq.n == 0:
        raise ValueError("empty sequence")
    d = seq.degrees
    kept = d[d <= x]
    return float((kept * (kept - 1)).sum() / seq.ell_n)


def cm_growth_sequence(n, tau, eta=0.05):
    """Truncation schedule g_k = g_0^(p^k) with g_0 = (log n)^(loglog n)
    and p = 1/(tau - 2 - 2 eta); requires 2 eta < tau - 2."""
    if not 2 * eta < tau - 2.0:
        raise ValueError(f"requires 2 eta < tau - 2, got eta={eta}, tau={tau}")
    g0 = math.log(n) ** math.log(math.log(n))
    p = 1.0 / (tau - 2.0 - 2.0 * eta)

    def g(k):
        return g0 ** (p**k)

    return g


def cm_distance_bound(seq, d_a, d_b, k_bar, g):
    """Path-counting upper bound on P(dist(a,b) <= 2 k_bar) for vertices
    of degrees d_a, d_b; `g` maps l -> g_l (increasing, d_a, d_b <= g_0).
    """
    if k_bar < 0:
        raise ValueError("k_bar must be >= 0")
    ell = seq.ell_n
    if ell <= 4 * k_bar:
        raise ValueError("infeasible k_bar: requires ell_n > 4 k_bar")
    if d_a > g(0) or d_b > g(0):
        raise ValueError("requires d_a, d_b <= g_0")
    nu = {}

    def nu_at(l):
        if l not in nu:
            nu[l] = truncated_mean_nu(seq, g(l))
        return nu[l]

    first = 0.0
    for k in range(1, 2 * k_bar + 1):
        term = (1.0 - 2.0 * k / ell) ** (-k)
        for l in range(1, k):
            term *= nu_at(min(l, k - l))
        first += term
    first *= d_a * d_b / ell

    second = 0.0
    for k in range(1, k_bar + 1):
        term = (1.0 - 2.0 * k / ell) ** (-k)
        term *= size_biased_ccdf(seq, g(k))
        for l in range(1, k):
            term *= nu_at(l)
        second += term
    second *= d_a + d_b

    return first + second


def feasible_doubling_rate(tau, zeta=None, xi_min=0.01, grid_step=0.01):
    """Largest gamma_d on a coarse grid keeping
    xi = 1 - e^gamma (tau - 2 + zeta) >= xi_min; zeta defaults to gamma_d
    (the coupled feasible choice)."""
    best = None
    gamma = grid_step
    while gamma < 2.0:
        z = gamma if zeta is None else zeta
        xi = 1.0 - math.exp(gamma) * (tau - 2.0 + z)
        if xi >= xi_min:
            best = (gamma, xi)
        gamma = round(gamma + grid_step, 10)
    if best is None:
        raise ValueError(f"no feasible doubling rate for tau={tau}")
    return best


def doubling_sequence(gamma_d):
    """g_l = 2^(e^(gamma_d l))."""

    def g(l):
        return 2.0 ** math.exp(gamma_d * l)

    return g


def pam_path_weight(path, C, m, gamma):
    """prod_i C m / ((pi_i ^ pi_{i+1})^gamma (pi_i v pi_{i+1})^(1-gamma))
    over a sequence of distinct vertices."""
    path = list(path)
    if len(path) < 2:
        raise ValueError("path must have length >= 2")
    if len(set(path)) != len(path):
        raise ValueError("path vertices must be distinct")
    log_w = 0.0
    for a, b in zip(path, path[1:]):
        lo, hi = (a, b) if a < b else (b, a)
        log_w += (
            math.log(C * m) - gamma * math.log(lo) - (1.0 - gamma) * math.log(hi)
        )
    return math.exp(log_w)


# -- recursive sequences of the path analysis (Appendix-style) ---------

#: numerically fitted value of the existential recursion constant: the
#: exhaustive f_exact <= f_bound check at t = 10^4, gamma = 2/3, R = 2,
#: k <= 4 holds from c ~ 2.6 on; pinned with margin
FITTED_RECURSION_C = 3.0


@dataclass
class AppendixASequences:
    t: int
    R: float
    gamma: float
    c: float
    g: list  # g[k], k = 0..k_max
    alpha: list  # alpha[k], k = 1..k_max+1 (alpha[0] unused)
    beta: list

    def eta(self, k):
        return self.t / self.g[k]

    def f_bound(self, k, l):
        """alpha_k l^-gamma + 1{l > g_{k-1}} beta_k l^(gamma-1)."""
        if not 1 <= k < len(self.alpha):
            raise ValueError(f"k={k} outside computed range")
        out = self.alpha[k] * l ** (-self.gamma)
        if l > self.g[k - 1]:
            out += self.beta[k] * l ** (self.gamma - 1.0)
        return out


def appendixA_sequences(t, R, gamma, k_max, c=FITTED_RECURSION_C, strict=False):
    """g_0 = ceil(t/(log t)^2), alpha_1 = R g_0^(gamma-1),
    beta_1 = R g_0^(-gamma); then g_k is the smallest integer with
    alpha_k g_k^(1-gamma)/(1-gamma) >= 6/(pi^2 k^2 (log t)^2) and
    alpha/beta follow the two-term recursion with constant c.

    With `strict` the asymptotic regime g_k >= 2 is enforced; at desk-scale
    t the search may hit the floor g_k = 1, which is still a valid schedule
    for the recursion.
    """
    if t < 4:
        raise ValueError("t must be >= 4")
    if not 0.5 < gamma < 1.0:
        raise ValueError("gamma must lie in (1/2, 1)")
    if R <= 0:
        raise ValueError("R must be positive")
    log_t = math.log(t)
    g = [math.ceil(t / log_t**2)]
    alpha = [None, R * g[0] ** (gamma - 1.0)]
    beta = [None, R * g[0] ** (-gamma)]
    for k in range(1, k_max + 1):
        rhs = 6.0 / (math.pi**2 * k**2 * log_t**2)
        thr = ((1.0 - gamma) * rhs / alpha[k]) ** (1.0 / (1.0 - gamma))
        gk = max(1, math.ceil(thr - 1e-12))
        if strict and gk < 2:
            raise ValueError(f"g_{k} < 2: k={k} beyond the strict regime")
        g.append(gk)
        alpha.append(c * (alpha[k] * math.log(t / gk) + beta[k] * t ** (2 * gamma - 1)))
        beta.append(c * (alpha[k] * gk ** (1.0 - 2.0 * gamma) + beta[k] * math.log(t / gk)))
    return AppendixASequences(t=t, R=R, gamma=gamma, c=c, g=g, alpha=alpha, beta=beta)


def path_kernel(z, w, R, gamma):
    """p(z, w) = R (z^w min)^-gamma (max)^(gamma-1)."""
    lo, hi = (z, w) if z < w else (w, z)
    return R * lo ** (-gamma) * hi ** (gamma - 1.0)


def f_exact(seqs, x, k):
    """Exact truncated path sums f_{k,t}(x, l) for all l in [t], by the
    recursion f_{k+1}(x, w) = sum_{z=g_k}^t f_k(x, z) p(z, w), evaluated
    with prefix sums in O(k t)."""
    t, R, gamma = seqs.t, seqs.R, seqs.gamma
    if x < seqs.g[0]:
        return np.zeros(t)
    ls = np.arange(1, t + 1, dtype=np.float64)
    lo = np.minimum(ls, x)
    hi = np.maximum(ls, x)
    f = R * lo ** (-gamma) * hi ** (gamma - 1.0)  # f_1(x, l)
    for step in range(1, k):
        gk = seqs.g[step]
        # f_{step+1}(w) = R w^(gamma-1) sum_{z=gk}^{w} f(z) z^-gamma
        #              + R w^-gamma sum_{z=w+1}^{t} f(z) z^(gamma-1)
        fz = f.copy()
        fz[: gk - 1] = 0.0  # truncate z < g_k
        a = np.cumsum(fz * ls ** (-gamma))
        b_total = (fz * ls ** (gamma - 1.0)).sum()
        b = b_total - np.cumsum(fz * ls ** (gamma - 1.0))
        f = R * ls ** (gamma - 1.0) * a + R * ls ** (-gamma) * b
    return f


def eta_growth_check(t, kappa, B, k_max, R=2.0, c=FITTED_RECURSION_C):
    """Check eta_k = t/g_k <= exp(B loglog t kappa^(k/2)) for k <= k_max."""
    if not kappa > 1.0:
        raise ValueError("kappa must exceed 1")
    gamma = kappa / (1.0 + kappa)
    seqs = appendixA_sequences(t, R, gamma, k_max, c=c)
    loglog_t = math.log(math.log(t))
    for k in range(k_max + 1):
        if seqs.eta(k) > math.exp(B * loglog_t * kappa ** (k / 2.0)):
            return False
    return True


# -- exact product probability of a fixed minimal neighborhood (PAM) ---


class InadmissibleTreeError(ValueError):
    pass


@dataclass(frozen=True)
class MkcTree:
    """Labeled directed depth-k tree H around root v: `edges[u]` gives the
    ordered out-edge targets (length m) of each non-boundary vertex u.
    Vertices are 1-based ages."""

    root: int
    k: int
    edges: dict

    def vertices(self):
        vs = {self.root}
        for u, targets in self.edges.items():
            vs.add(u)
            vs.update(targets)
        return vs


def _validate_tree(params, t, H):
    """Admissibility per the model's minimal-neighborhood rules; returns
    (vertex set, interior set, depth map, parent map)."""
    m = params.m
    half, quarter = t // 2, t // 4
    v = H.root
    if not half < v <= t:
        raise InadmissibleTreeError(f"root {v} not in ({half}, {t}]")
    depth = {v: 0}
    parent = {}
    frontier = [v]
    seen = {v}
    for d in range(H.k):
        nxt = []
        for u in frontier:
            if u not in H.edges:
                raise InadmissibleTreeError(f"interior vertex {u} has no edges")
            targets = H.edges[u]
            if len(targets) != m:
                raise InadmissibleTreeError(f"vertex {u} must have {m} edges")
            for w in targets:
                if w >= u:
                    raise InadmissibleTreeError(
                        f"edge {u}->{w} does not point to an older vertex"
                    )
                if w in seen:
                    raise InadmissibleTreeError(
                        f"{w} repeats: multi-edge or cycle in H"
                    )
                if not quarter < w <= half:
                    raise InadmissibleTreeError(
                        f"vertex {w} not in ({quarter}, {half}]"
                    )
                seen.add(w)
                depth[w] = d + 1
                parent[w] = u
                nxt.append(w)
        frontier = nxt
    interior = {u for u, d in depth.items() if d < H.k}
    if set(H.edges) != interior:
        raise InadmissibleTreeError("edge specs must cover exactly the interior")
    return seen, interior, depth, parent


def pam_mkc_probability(params, t, H):
    """Exact probability that the root is minimally-k-connected with
    neighborhood exactly H: product over all attachment steps of the
    (deterministic) conditional probability that the step complies.

    Interior steps are forced onto their targets (factor (m+delta)/c);
    every other step must avoid H, including the in-construction vertex's
    own self-weight when it belongs to H.
    """
    m, delta = params.m, params.delta
    S, interior, depth, parent = _validate_tree(params, t, H)
    min_s = min(S)
    log_p = 0.0
    for u in range(1, t + 1):
        if u < min_s and u not in S:
            continue  # factor is identically 1
        in_S = u in S
        if u in interior:
            for j in range(1, m + 1):
                # target has degree exactly m when its in-edge arrives
                log_p += math.log(m + delta) - math.log(normalizer(params, u, j))
            continue
        # degree of H-members older than u: m out-edges plus the one
        # tree in-edge if the member's parent was already placed
        older = [w for w in S if w < u]
        if not older and not in_S:
            continue
        w_old = sum(
            m + (1 if w in parent and parent[w] < u else 0) + delta for w in older
        )
        for j in range(1, m + 1):
            weight = w_old
            if in_S:
                # u's own self-loop weight: no in-edges have arrived yet
                # (its parent is younger), its j-1 own edges are placed
                weight += (j - 1) + 1 + j * delta / m
            c = normalizer(params, u, j)
            factor = 1.0 - weight / c
            if factor <= 0.0:
                return 0.0
            log_p += math.log(factor)
    return math.exp(log_p)
