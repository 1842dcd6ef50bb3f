"""Power-law degree sequences and regularity diagnostics.

The degree law used throughout is the discrete Pareto-type distribution with
CCDF P(D > x) = (d_min/(x+1))^(tau-1) for integer x >= d_min, so that
P(D = d_min) > 0 and the polynomial tail conditions hold by construction.
All logarithms in this package are natural logarithms.
"""

from dataclasses import dataclass

import numpy as np

from .textio import read_rows, write_rows


@dataclass(frozen=True)
class PowerLawSpec:
    """Parameters of the power-law degree law: exponent tau in (2,3),
    minimum degree d_min >= 1, target size n."""

    tau: float
    d_min: int
    n: int

    def __post_init__(self):
        if not 2.0 < self.tau < 3.0:
            raise ValueError(f"tau must lie in (2,3), got {self.tau}")
        if self.d_min < 1:
            raise ValueError(f"d_min must be >= 1, got {self.d_min}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")


class DegreeSequence:
    """Prescribed degrees d_1..d_n with cached totals and histogram."""

    def __init__(self, degrees):
        arr = np.asarray(degrees, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if arr.size and arr.min() < 1:
            raise ValueError("all degrees must be >= 1")
        self.degrees = arr

    @property
    def n(self):
        return int(self.degrees.size)

    @property
    def ell_n(self):
        """Total degree sum."""
        return int(self.degrees.sum())

    @property
    def d_min(self):
        if self.n == 0:
            raise ValueError("empty sequence has no minimum degree")
        return int(self.degrees.min())

    def n_k(self, k):
        """Number of vertices of degree exactly k."""
        return int(np.count_nonzero(self.degrees == k))

    @property
    def n_dmin(self):
        return self.n_k(self.d_min)

    def histogram(self):
        """Return dict {degree: count} for occurring degrees."""
        vals, counts = np.unique(self.degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, DegreeSequence) and np.array_equal(
            self.degrees, other.degrees
        )

    def __repr__(self):
        return f"DegreeSequence(n={self.n}, ell_n={self.ell_n})"


def power_law_cdf(x, tau, d_min):
    """F(x) = 1 - (d_min/(x+1))^(tau-1) for x >= d_min, else 0."""
    x = np.asarray(x, dtype=np.float64)
    out = 1.0 - (d_min / (x + 1.0)) ** (tau - 1.0)
    return np.where(x >= d_min, out, 0.0)


def power_law_ccdf(x, tau, d_min):
    """P(D > x) under the package degree law (1 for x < d_min)."""
    return 1.0 - power_law_cdf(x, tau, d_min)


def sample_iid_powerlaw(spec, rng_seed):
    """Draw n i.i.d. degrees with P(D > x) = (d_min/(x+1))^(tau-1).

    Inverse-transform sampling; bit-identical for equal seeds.
    """
    rng = np.random.default_rng(rng_seed)
    u = rng.random(spec.n)
    # P(D > x) = P(1-U < (d_min/(x+1))^(tau-1)) with D = ceil(y - 1),
    # y = d_min (1-U)^(-1/(tau-1)).
    y = spec.d_min * (1.0 - u) ** (-1.0 / (spec.tau - 1.0))
    d = np.maximum(np.ceil(y - 1.0).astype(np.int64), spec.d_min)
    return DegreeSequence(d)


def quantile_sequence(spec):
    """Deterministic sequence with n_k = ceil(n F(k)) - ceil(n F(k-1)),
    degrees emitted in nondecreasing order."""
    if spec.n == 0:
        return DegreeSequence([])
    n, tau, d_min = spec.n, spec.tau, spec.d_min
    # ceil(n F(k)) = n once (d_min/(k+1))^(tau-1) < 1/n.
    k_max = int(d_min * n ** (1.0 / (tau - 1.0))) + 2
    ks = np.arange(d_min, k_max + 1, dtype=np.int64)
    cum = np.ceil(n * power_law_cdf(ks, tau, d_min) - 1e-12).astype(np.int64)
    cum = np.minimum(cum, n)
    while cum[-1] < n:  # guard against float truncation at the tail
        k_max *= 2
        ks = np.arange(d_min, k_max + 1, dtype=np.int64)
        cum = np.ceil(n * power_law_cdf(ks, tau, d_min) - 1e-12).astype(np.int64)
        cum = np.minimum(cum, n)
    counts = np.diff(cum, prepend=0)
    return DegreeSequence(np.repeat(ks, counts))


@dataclass(frozen=True)
class PolynomialConditionReport:
    """Finite-n diagnostic of the polynomial distribution condition."""

    c1_hat: float
    c2_hat: float
    holds_lower: bool
    holds_upper: bool
    alpha: float


def check_polynomial_condition(seq, tau, delta):
    """Scan the empirical distribution for the two polynomial tail bounds.

    Reports the largest c1 with 1-F(x) >= c1 x^-(tau-1+delta) for all
    x <= n^alpha, alpha = min(0.6, 1/(tau-1+delta)), and the smallest c2
    with 1-F(x) <= c2 x^-(tau-1-delta) for all x >= 1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if seq.n == 0:
        raise ValueError("empty sequence")
    alpha = min(0.6, 1.0 / (tau - 1.0 + delta))
    degrees = np.sort(seq.degrees)
    d_max = int(degrees[-1])
    x_hi = max(1, int(seq.n**alpha))
    xs = np.arange(1, max(x_hi, d_max) + 1, dtype=np.int64)
    # empirical 1 - F(x) = fraction of degrees strictly above x
    ccdf = 1.0 - np.searchsorted(degrees, xs, side="right") / seq.n
    low = xs <= x_hi
    c1_hat = float(np.min(ccdf[low] * xs[low] ** (tau - 1.0 + delta)))
    c2_hat = float(np.max(ccdf * xs ** (tau - 1.0 - delta)))
    return PolynomialConditionReport(
        c1_hat=c1_hat,
        c2_hat=c2_hat,
        holds_lower=c1_hat > 0.0,
        holds_upper=True,
        alpha=alpha,
    )


def fix_parity(seq):
    """Return a sequence with even total degree, incrementing the last
    degree if needed (the `fix-parity` CLI helper)."""
    if seq.ell_n % 2 == 0:
        return seq
    degrees = seq.degrees.copy()
    degrees[-1] += 1
    return DegreeSequence(degrees)


def write_degrees(path, seq):
    """Serialize as newline-delimited integers."""
    with open(path, "w") as fh:
        write_rows(fh, "%d\n", seq.degrees)


def read_degrees(path):
    """One integer per line; comment and blank lines are skipped, any
    other line raises ValueError."""
    with open(path) as fh:
        return DegreeSequence(read_rows(fh.read(), 1)[:, 0])
