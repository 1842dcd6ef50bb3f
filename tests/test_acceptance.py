"""Acceptance gate: exact formulas vs enumeration, samplers vs their laws,
bounds vs exhaustive checks, and finite-size scaling behavior.

Every oracle here is independent of the code under test: matchings and
attachment outcomes are enumerated directly, distances come from a dense
Floyd-Warshall, and event probabilities are accumulated leaf by leaf.
"""

import math
import os
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ultrasmall.degrees import (
    PowerLawSpec,
    DegreeSequence,
    sample_iid_powerlaw,
    quantile_sequence,
    fix_parity,
)
from ultrasmall.cm import generate_cm
from ultrasmall.pam import PamParams, PamGraph, generate_pam
from ultrasmall.oracles import (
    admissible_trees,
    enumerate_matchings,
    enumerate_driver_distribution,
    enumerate_pam_outcomes,
    xi_key,
)
from ultrasmall.metrics import (
    bfs,
    diameter,
    connected_components,
    extract_core,
    _bfs_levels,
    UNREACHED,
)
from ultrasmall.structure import explore, distance_to_core
from ultrasmall import bounds as B
from ultrasmall.harness import loglog_slope


# -- 1: exact first moment vs complete pairing enumeration -------------


def test_cm_first_moment_matches_full_pairing_enumeration():
    """All 10395 pairings of degrees (3,3,3,3): the empirical expected
    number of minimally-1-connected vertices equals the closed form
    (= 648/693) to 1e-12, in under a second."""
    degrees = [3, 3, 3, 3]
    seq = DegreeSequence(degrees)
    t0 = time.perf_counter()
    total = 0
    n_matchings = 0
    # slot g belongs to vertex g // 3; vertex v is minimally-1-connected
    # iff its three slots pair to slots of three distinct other vertices
    for matching in enumerate_matchings(degrees):
        partner = {}
        for a, b in matching:
            partner[a] = b
            partner[b] = a
        for v in range(4):
            owners = {partner[3 * v + s] // 3 for s in range(3)}
            if v not in owners and len(owners) == 3:
                total += 1
        n_matchings += 1
    elapsed = time.perf_counter() - t0
    assert n_matchings == 10395
    empirical = Fraction(total, n_matchings)
    assert abs(float(empirical) - B.cm_mk_first_moment(seq, 1)) < 1e-12
    assert abs(float(empirical) - 648 / 693) < 1e-12
    assert elapsed < 1.0


# -- 2: exact neighborhood probability vs outcome-tree oracles ---------

PAM_ENUM = PamParams(m=2, delta=-0.5)


def _full_enum_event_probs(t, trees):
    """One pass over the complete attachment outcome tree, accumulating
    the probability of each tree's neighborhood event at every leaf."""
    m, delta = PAM_ENUM.m, PAM_ENUM.delta
    dm = delta / m
    acc = [0.0] * len(trees)
    steps = [(w, j) for w in range(2, t + 1) for j in range(1, m + 1)]
    deg = [0] * (t + 1)
    deg[1] = 2 * m
    xi = {}

    def rec(i, prob):
        if i == len(steps):
            for idx, H in enumerate(trees):
                v = H.root
                if deg[v] != m:
                    continue
                if H.k == 1:
                    if (xi[(v, 1)], xi[(v, 2)]) != H.edges[v]:
                        continue
                    if any(deg[w] != m + 1 for w in H.edges[v]):
                        continue
                acc[idx] += prob
            return
        w, j = steps[i]
        c = (m * (w - 1) + (j - 1)) * (2.0 + dm) + 1.0 + dm
        for v in range(1, w + 1):
            p = (deg[w] + 1.0 + j * dm) / c if v == w else (deg[v] + delta) / c
            deg[v] += 1
            deg[w] += 1
            xi[(w, j)] = v
            rec(i + 1, prob * p)
            deg[v] -= 1
            deg[w] -= 1

    rec(0, 1.0)
    return acc


def _pruned_event_prob_k1(t, H):
    """Event probability for a depth-1 neighborhood by pruned enumeration:
    branches that already break the event (an edge into the root, an extra
    edge into a leaf, a leaf self-loop) contribute zero and are skipped;
    every surviving leaf is re-verified against the realized degrees."""
    m, delta = PAM_ENUM.m, PAM_ENUM.delta
    dm = delta / m
    root = H.root
    targets = H.edges[root]
    tset = set(targets)
    steps = [(w, j) for w in range(2, t + 1) for j in range(1, m + 1)]
    deg = [0] * (t + 1)
    deg[1] = 2 * m

    def rec(i, prob):
        if i == len(steps):
            assert deg[root] == m and all(deg[w] == m + 1 for w in targets)
            return prob
        w, j = steps[i]
        c = (m * (w - 1) + (j - 1)) * (2.0 + dm) + 1.0 + dm
        if w == root:
            v = targets[j - 1]
            p = (deg[v] + delta) / c
            deg[v] += 1
            deg[w] += 1
            out = rec(i + 1, prob * p)
            deg[v] -= 1
            deg[w] -= 1
            return out
        total = 0.0
        for v in range(1, w + 1):
            if v == root:
                continue
            if v in tset:
                continue  # covers both extra in-edges and leaf self-loops
            p = (deg[w] + 1.0 + j * dm) / c if v == w else (deg[v] + delta) / c
            deg[v] += 1
            deg[w] += 1
            total += rec(i + 1, prob * p)
            deg[v] -= 1
            deg[w] -= 1
        return total

    return rec(0, 1.0)


def _dp_event_prob_k0(t, root):
    """P(root never receives an edge) by exact forward dynamic programming
    over the full degree vector of the attachment chain."""
    m, delta = PAM_ENUM.m, PAM_ENUM.delta
    dm = delta / m
    init = [0] * (t + 1)
    init[1] = 2 * m
    states = {tuple(init): 1.0}
    for w in range(2, t + 1):
        for j in range(1, m + 1):
            c = (m * (w - 1) + (j - 1)) * (2.0 + dm) + 1.0 + dm
            nxt = {}
            for deg, prob in states.items():
                for v in range(1, w + 1):
                    if v == root:
                        continue
                    p = (deg[w] + 1.0 + j * dm) / c if v == w else (deg[v] + delta) / c
                    nd = list(deg)
                    nd[v] += 1
                    nd[w] += 1
                    key = tuple(nd)
                    nxt[key] = nxt.get(key, 0.0) + prob * p
            states = nxt
    return sum(states.values())


def test_pam_neighborhood_probability_matches_enumeration():
    """Every admissible depth-0/1 neighborhood up to t=8 at m=2,
    delta=-0.5, product formula vs enumeration to 1e-10, under 30 s."""
    t0 = time.perf_counter()
    for t in (4, 5, 6):
        trees = admissible_trees(PAM_ENUM, t, 0) + admissible_trees(
            PAM_ENUM, t, 1
        )
        enum = _full_enum_event_probs(t, trees)
        for H, expect in zip(trees, enum):
            assert abs(B.pam_mkc_probability(PAM_ENUM, t, H) - expect) < 1e-10
    for t in (7, 8):
        for H in admissible_trees(PAM_ENUM, t, 0):
            expect = _dp_event_prob_k0(t, H.root)
            assert abs(B.pam_mkc_probability(PAM_ENUM, t, H) - expect) < 1e-10
        for H in admissible_trees(PAM_ENUM, t, 1):
            expect = _pruned_event_prob_k1(t, H)
            assert abs(B.pam_mkc_probability(PAM_ENUM, t, H) - expect) < 1e-10
    assert time.perf_counter() - t0 < 30.0


# -- 3: pairing uniformity and exchangeability -------------------------


def test_pairing_uniform_and_order_exchangeable():
    seq = DegreeSequence([2, 2, 2])
    n_seeds = 10**5
    keys = Counter(generate_cm(seq, s).matching_key() for s in range(n_seeds))
    assert len(keys) == 15
    expected = n_seeds / 15
    chi2 = sum((c - expected) ** 2 / expected for c in keys.values())
    assert chi2 < stats.chi2.ppf(0.99, df=14)
    # exact law of the incremental driver is order-independent
    assert enumerate_driver_distribution(seq, "index") == (
        enumerate_driver_distribution(seq, "reverse")
    )


# -- 4: attachment sampler vs chain-rule law ---------------------------


def test_pam_sampler_matches_chain_rule_to_three_sigma():
    params = PamParams(m=2, delta=-0.5)
    n_seeds = 10**6
    exact = dict(enumerate_pam_outcomes(params, 3))
    rng = np.random.default_rng(0)
    counts = Counter(
        xi_key(generate_pam(params, 3, rng)) for _ in range(n_seeds)
    )
    assert set(counts) <= set(exact)
    for outcome, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / n_seeds)
        assert abs(counts[outcome] / n_seeds - p) <= 3 * sigma


# -- 5: truncated path sums stay below the recursion bound -------------


def test_path_sum_recursion_bound_exhaustive():
    t, R, gamma = 10**4, 2.0, 2.0 / 3.0
    seqs = B.appendixA_sequences(t, R, gamma, 4)
    ls = np.arange(1, t + 1)
    for k in (1, 2, 3, 4):
        fb = np.array([seqs.f_bound(k, int(l)) for l in ls])
        # f is pointwise decreasing in x, so x = g_0 dominates; a few
        # larger x are checked anyway
        for x in (seqs.g[0], seqs.g[0] + 137, t // 2):
            fe = B.f_exact(seqs, x, k)
            assert int((fe > fb).sum()) == 0


# -- 6: moment growth and Monte Carlo agreement ------------------------


def test_first_moment_growth_and_monte_carlo():
    from ultrasmall.structure import census_mkc

    spec0 = PowerLawSpec(2.5, 3, 0)
    consts = B.asymptotic_constants(spec0)
    sizes = (10**3, 10**4, 10**5)
    seqs = {
        n: fix_parity(quantile_sequence(PowerLawSpec(2.5, 3, n))) for n in sizes
    }
    ks = {n: consts.k_minus(n, 0.2) for n in sizes}
    # growth in n: strict increase whenever consecutive thresholds agree,
    # and across the whole range at the largest threshold depth (the
    # threshold jump 2 -> 3 at n=10^4 shrinks the value by construction;
    # see the repo notes on finite-size rounding)
    for a, b in zip(sizes, sizes[1:]):
        if ks[a] == ks[b]:
            assert B.cm_mk_first_moment(seqs[a], ks[a]) < B.cm_mk_first_moment(
                seqs[b], ks[b]
            )
    k_top = ks[sizes[-1]]
    fixed = [B.cm_mk_first_moment(seqs[n], k_top) for n in sizes]
    assert fixed[0] < fixed[1] < fixed[2]

    # Monte Carlo at n=10^4: mean census count within 3 sigma of exact
    n = 10**4
    spec = PowerLawSpec(2.5, 3, n)
    seq = seqs[n]
    reps = 10**3
    counts = {1: np.empty(reps), 2: np.empty(reps)}
    for r in range(reps):
        g = generate_cm(seq, 5000 + r)
        for k in (1, 2):
            counts[k][r] = census_mkc(g, spec, k).count
    for k in (1, 2):
        mean = counts[k].mean()
        exact = B.cm_mk_first_moment(seq, k)
        # Poisson floor keeps the tolerance meaningful when every
        # replica of a rare census comes back empty
        stderr = max(
            counts[k].std(ddof=1) / math.sqrt(reps),
            math.sqrt(exact / reps),
        )
        assert abs(mean - exact) <= 3 * stderr


# -- 7: diameter scale in loglog n ------------------------------------


def _a7_replicas():
    env = os.environ.get("ULTRASMALL_A7_REPLICAS")
    if env:
        return tuple(int(x) for x in env.split(","))
    return (20, 20, 10, 3)


def _diameter_scaling(build, sizes, replicas, pairs=30):
    means = []
    for n, reps in zip(sizes, replicas):
        diams = []
        for r in range(reps):
            und = build(n, 7000 + r)
            res = diameter(und, "ifub" if und.n > 1000 else "exact")
            labels, comp_sizes = connected_components(und)
            lcc = np.nonzero(labels == np.argmax(comp_sizes))[0]
            rng = np.random.default_rng(7000 + r)
            h_max = 0
            for _ in range(pairs):
                a, b = rng.choice(lcc, size=2, replace=False)
                dist = _bfs_levels(und, [int(a)])
                h_max = max(h_max, int(dist[int(b)]))
            assert res.diam >= h_max  # sampled distances never exceed it
            diams.append(res.diam)
        means.append(float(np.mean(diams)))
    return loglog_slope(sizes, means)


def test_diameter_grows_like_loglog_cm():
    sizes = (10**3, 10**4, 10**5, 10**6)

    def build(n, seed):
        seq = fix_parity(sample_iid_powerlaw(PowerLawSpec(2.5, 3, n), seed))
        return generate_cm(seq, seed)

    slope = _diameter_scaling(build, sizes, _a7_replicas())
    # bracket around the limit constant 4/log 2 = 5.77
    assert 2.0 <= slope <= 12.0


def test_diameter_grows_like_loglog_pam():
    sizes = (10**3, 10**4, 10**5, 10**6)
    params = PamParams(m=2, delta=-1.0)

    def build(n, seed):
        return generate_pam(params, n, seed).undirected_view()

    slope = _diameter_scaling(build, sizes, _a7_replicas())
    # bracket around the limit constant 6/log 2 = 8.66
    assert 2.0 <= slope <= 14.0


# -- 8: collisions are scarce and the core is near ---------------------


def test_explorations_rarely_collide_before_core():
    n = 10**5
    eps, sigma = 0.1, 2.2
    spec = PowerLawSpec(2.5, 3, n)
    seq = fix_parity(sample_iid_powerlaw(spec, 2024))
    g = generate_cm(seq, 2024)
    consts = B.asymptotic_constants(spec)
    k_plus = consts.k_plus(n, eps)
    gamma_d, _ = B.feasible_doubling_rate(spec.tau)
    h_n = consts.h(n, 1.0 / gamma_d, math.log(sigma / math.log(2.0)))
    core = extract_core(g, spec, sigma)
    assert core.members.size > 0
    multi = sum(
        1
        for v in range(n)
        if explore(g, v, k_plus, spec, core=core).collisions_before_core() >= 2
    )
    assert multi / n < 0.01
    dtc = distance_to_core(g, core)
    within = np.mean(dtc.distances <= k_plus + h_n)
    assert within >= 0.99


# -- 9: closed-form distance bound dominates simulation ----------------


def test_distance_bound_dominates_simulated_probability():
    n = 2 * 10**4
    reps = 10**4
    spec = PowerLawSpec(2.5, 3, n)
    seq = fix_parity(quantile_sequence(spec))
    consts = B.asymptotic_constants(spec)
    k_bar = consts.k_bar(n, 0.1)
    log_n = math.log(n)
    eligible = np.nonzero(seq.degrees <= log_n)[0]
    # the bound is increasing in the endpoint degrees, so evaluating it at
    # the largest eligible degree dominates every sampled pair
    d_cap = int(log_n)
    bound = B.cm_distance_bound(
        seq, d_cap, d_cap, k_bar, B.cm_growth_sequence(n, spec.tau)
    )
    rng = np.random.default_rng(424242)
    hits = 0
    for r in range(reps):
        g = generate_cm(seq, 80_000 + r)
        a, b = rng.choice(eligible, size=2, replace=False)
        dist = _bfs_levels(g, [int(a)], level_cap=2 * k_bar)
        hits += dist[int(b)] != UNREACHED
    p_hat = hits / reps
    sigma_hat = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / reps)
    assert p_hat <= bound + 3 * sigma_hat


# -- 10: BFS and diameter vs dense all-pairs oracle --------------------


def _floyd_warshall(graph):
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in graph.edges():
        if u != v:
            dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def test_distances_match_floyd_warshall_on_200_graphs():
    for index in range(200):
        rng = np.random.default_rng(index)
        n = int(rng.integers(2, 51))
        if index % 2 == 0:
            spec = PowerLawSpec(2.5, 2 + index % 2, n)
            seq = fix_parity(sample_iid_powerlaw(spec, index))
            g = generate_cm(seq, index)
        else:
            params = PamParams(m=1 + index % 3, delta=-0.5)
            g = generate_pam(params, n, seed=index).undirected_view()
        oracle = _floyd_warshall(g)
        for source in range(g.n):
            assert np.array_equal(bfs(g, source).distances, oracle[source])
        labels, sizes = connected_components(g)
        inside = labels == np.argmax(sizes)
        sub = oracle[np.ix_(inside, inside)]
        expect = int(sub[np.isfinite(sub)].max())
        assert diameter(g, "exact").diam == expect
        assert diameter(g, "ifub").diam == expect


# -- 11: degrees below the core threshold stay controlled --------------


def test_moderate_degrees_do_not_explode_after_half_time():
    params = PamParams(m=2, delta=-1.0)
    t = 10**5
    sigma = 2.2
    thr = math.log(t) ** sigma
    b_hat = 5.0
    for r in range(20):
        g = generate_pam(params, t, seed=90_000 + r)
        half = g.degree_snapshot(t // 2)[: t // 2]
        final = g.degrees()[: t // 2]
        violations = int(
            np.count_nonzero((half < thr) & (final >= (1 + b_hat) * thr))
        )
        assert violations == 0
