"""Closed-form quantities against hand values and naive recursions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ultrasmall.degrees import CmParams, DegreeSequence, PowerLawSpec
from ultrasmall.pam import PamParams, PamGraph
from ultrasmall.oracles import admissible_trees, enumerate_pam_outcomes
from ultrasmall import bounds as B


def test_round_half_up():
    assert B.round_half_up(2.5) == 3
    assert B.round_half_up(2.4) == 2
    assert B.round_half_up(-0.5) == 0
    assert B.round_half_up(3.0) == 3


def test_cm_params_validation():
    with pytest.raises(ValueError):
        CmParams(tau=3.2, d_min=3)
    with pytest.raises(ValueError):
        B.asymptotic_constants(CmParams(tau=2.5, d_min=2))
    B.asymptotic_constants(CmParams(tau=2.5, d_min=3))


def test_asymptotic_constants_cm():
    c = B.asymptotic_constants(PowerLawSpec(tau=2.5, d_min=3, n=0))
    assert c.d_fwd == 2 and c.c_dist == 1
    assert c.typ_constant == pytest.approx(2.0 / abs(math.log(0.5)))
    assert c.diam_constant == pytest.approx(
        2.0 / math.log(2) + 2.0 / abs(math.log(0.5))
    )
    # 4/log 2 = 5.77...
    assert c.diam_constant == pytest.approx(5.7708, abs=1e-4)


def test_asymptotic_constants_pam():
    c = B.asymptotic_constants(PamParams(m=2, delta=-1.0))
    assert c.d_fwd == 2 and c.c_dist == 2
    assert c.tau == pytest.approx(2.5)
    assert c.diam_constant == pytest.approx(6.0 / math.log(2))
    assert c.diam_constant == pytest.approx(8.6562, abs=1e-4)


def test_threshold_indices():
    c = B.asymptotic_constants(PowerLawSpec(tau=2.5, d_min=3, n=0))
    n, eps = 10**5, 0.2
    loglog = math.log(math.log(n))
    assert c.k_minus(n, eps) == B.round_half_up(0.8 * loglog / math.log(2))
    assert c.k_plus(n, eps) == B.round_half_up(1.2 * loglog / math.log(2))
    assert c.k_bar(n, eps) == B.round_half_up(0.8 * loglog / abs(math.log(0.5)))
    assert c.k_minus(n, eps) <= c.k_plus(n, eps)
    assert c.h(n, B=2.0, C=1.0) == math.ceil(
        2.0 * math.log(math.log(math.log(n))) + 1.0
    )


def test_i_k_values():
    assert [B.i_k(3, k, "cm") for k in range(4)] == [0, 3, 9, 21]
    assert [B.i_k(2, k, "cm") for k in range(4)] == [0, 2, 4, 6]
    # d_min = 1: the root's one edge to a degree-1 vertex ends the tree
    assert [B.i_k(1, k, "cm") for k in range(4)] == [0, 1, 1, 1]
    assert [B.i_k(2, k, "pam") for k in range(4)] == [1, 3, 7, 15]
    assert [B.i_k(1, k, "pam") for k in range(4)] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        B.i_k(3, -1, "cm")
    with pytest.raises(ValueError):
        B.i_k(0, 1, "cm")
    with pytest.raises(ValueError):
        B.i_k(3, 1, "other")


def test_cm_mk_first_moment_hand_values():
    seq = DegreeSequence([3, 3, 3, 3])
    # 4 * (3*3/11) * (3*2/9) * (3*1/7) = 648/693
    assert B.cm_mk_first_moment(seq, 1) == pytest.approx(648 / 693, abs=1e-12)
    assert B.cm_mk_first_moment(seq, 0) == 4.0
    # n_dmin <= i_k -> zero
    assert B.cm_mk_first_moment(DegreeSequence([3, 3, 3, 9]), 1) == 0.0
    # ell_n <= 2 i_k -> undefined
    with pytest.raises(ValueError):
        B.cm_mk_first_moment(DegreeSequence([3, 3]), 1)


def test_cm_mk_first_moment_log_domain_stability():
    seq = DegreeSequence(np.full(200_000, 3, dtype=np.int64))
    val = B.cm_mk_first_moment(seq, 4)
    assert math.isfinite(val) and val > 0


def test_cm_mk_second_moment_bound_formula():
    seq = DegreeSequence([3] * 8)
    em = B.cm_mk_first_moment(seq, 1)
    ik, i2k = B.i_k(3, 1, "cm"), B.i_k(3, 2, "cm")
    expect = em * em + em * (
        (ik + 1) + i2k * 3 * seq.n_dmin / (seq.ell_n - 4 * ik)
    )
    assert B.cm_mk_second_moment_bound(seq, 1) == pytest.approx(expect)
    with pytest.raises(ValueError):
        B.cm_mk_second_moment_bound(DegreeSequence([3, 3, 3, 3]), 1)


def test_size_biased_quantities_match_direct_sums():
    seq = DegreeSequence([3, 4, 5, 7, 3])
    ell = seq.ell_n
    for x in (2, 3, 4, 6, 10):
        expect_ccdf = sum(d for d in seq.degrees if d > x) / ell
        expect_nu = sum(d * (d - 1) for d in seq.degrees if d <= x) / ell
        assert B.size_biased_ccdf(seq, x) == pytest.approx(expect_ccdf)
        assert B.truncated_mean_nu(seq, x) == pytest.approx(expect_nu)


def test_cm_growth_sequence():
    g = B.cm_growth_sequence(10**4, 2.5, eta=0.05)
    g0 = math.log(10**4) ** math.log(math.log(10**4))
    assert g(0) == pytest.approx(g0)
    p = 1.0 / (2.5 - 2.0 - 0.1)
    assert g(1) == pytest.approx(g0**p)
    assert g(2) > g(1) > g(0)
    with pytest.raises(ValueError):
        B.cm_growth_sequence(10**4, 2.05, eta=0.05)  # 2 eta >= tau - 2


def test_cm_distance_bound_basic_properties():
    seq = DegreeSequence(np.repeat([3, 4, 5, 8, 20], 200))
    g = B.cm_growth_sequence(seq.n, 2.5)
    vals = [B.cm_distance_bound(seq, 3, 4, kb, g) for kb in range(4)]
    assert vals[0] == 0.0
    assert all(v >= 0 for v in vals)
    assert vals == sorted(vals)  # more allowed path lengths, larger bound
    with pytest.raises(ValueError):
        B.cm_distance_bound(seq, 10**9, 3, 1, g)  # d_a > g_0


def test_feasible_doubling_rate():
    gamma_d, xi = B.feasible_doubling_rate(2.5)
    assert xi >= 0.01
    assert 1.0 - math.exp(gamma_d) * (2.5 - 2.0 + gamma_d) == pytest.approx(xi)
    # a larger grid point must be infeasible
    worse = 1.0 - math.exp(gamma_d + 0.01) * (2.5 - 2.0 + gamma_d + 0.01)
    assert worse < 0.01
    seq = B.doubling_sequence(gamma_d)
    assert seq(0) == 2.0
    assert seq(1) > seq(0)


def test_pam_path_weight():
    C, m, gamma = 1.5, 2, 2.0 / 3.0
    val = B.pam_path_weight([10, 4], C, m, gamma)
    assert val == pytest.approx(C * m * 4 ** (-gamma) * 10 ** (gamma - 1.0))
    two_step = B.pam_path_weight([10, 4, 20], C, m, gamma)
    assert two_step == pytest.approx(
        val * C * m * 4 ** (-gamma) * 20 ** (gamma - 1.0)
    )
    with pytest.raises(ValueError):
        B.pam_path_weight([3, 3], C, m, gamma)
    with pytest.raises(ValueError):
        B.pam_path_weight([3], C, m, gamma)


def test_appendixA_initial_values():
    t, R, gamma = 10**4, 2.0, 2.0 / 3.0
    seqs = B.appendixA_sequences(t, R, gamma, 2)
    g0 = math.ceil(t / math.log(t) ** 2)
    assert seqs.g[0] == g0
    assert seqs.alpha[1] == pytest.approx(R * g0 ** (gamma - 1.0))
    assert seqs.beta[1] == pytest.approx(R * g0 ** (-gamma))
    # recursion step
    g1 = seqs.g[1]
    assert seqs.alpha[2] == pytest.approx(
        seqs.c * (seqs.alpha[1] * math.log(t / g1) + seqs.beta[1] * t ** (2 * gamma - 1))
    )
    # at this scale the g_k threshold search hits the floor
    assert g1 == 1
    with pytest.raises(ValueError):
        B.appendixA_sequences(t, R, gamma, 2, strict=True)


def naive_f(seqs, x, k):
    """O(t^2) reference for the truncated path-sum recursion."""
    t, R, gamma = seqs.t, seqs.R, seqs.gamma
    ls = np.arange(1, t + 1, dtype=np.float64)
    if x < seqs.g[0]:
        return np.zeros(t)
    f = np.array([B.path_kernel(x, l, R, gamma) for l in ls])
    for step in range(1, k):
        gk = seqs.g[step]
        nf = np.zeros(t)
        for wi, w in enumerate(ls):
            acc = 0.0
            for zi in range(gk - 1, t):
                acc += f[zi] * B.path_kernel(zi + 1.0, w, R, gamma)
            nf[wi] = acc
        f = nf
    return f


def test_f_exact_matches_naive_recursion():
    seqs = B.appendixA_sequences(300, 2.0, 2.0 / 3.0, 3)
    x = seqs.g[0]
    for k in (1, 2, 3):
        fast = B.f_exact(seqs, x, k)
        slow = naive_f(seqs, x, k)
        assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_f_exact_decreasing_in_x():
    seqs = B.appendixA_sequences(500, 2.0, 2.0 / 3.0, 3)
    lo = B.f_exact(seqs, seqs.g[0], 3)
    hi = B.f_exact(seqs, seqs.g[0] + 40, 3)
    assert np.all(hi <= lo + 1e-12)
    # below the g_0 truncation the whole chain vanishes
    assert np.all(B.f_exact(seqs, seqs.g[0] - 1, 2) == 0.0)


def test_eta_growth_check():
    assert B.eta_growth_check(10**4, kappa=2.0, B=8.0, k_max=4)
    assert not B.eta_growth_check(10**4, kappa=2.0, B=0.05, k_max=0)


# -- exact minimal-neighborhood probability (PAM) ----------------------


def test_pam_mkc_probability_hand_value():
    # m=1, delta=0, t=2: root 2 keeps degree 1 iff its edge avoids itself,
    # P = D(1)/c_{2,1} = 2/3
    params = PamParams(1, 0.0)
    H = B.MkcTree(root=2, k=0, edges={})
    assert B.pam_mkc_probability(params, 2, H) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("t", [4, 5])
def test_pam_mkc_probability_vs_enumeration_k0(t):
    params = PamParams(2, -0.5)
    for H in admissible_trees(params, t, 0):
        expect = 0.0
        for xi, p in enumerate_pam_outcomes(params, t):
            g = PamGraph(
                params=params, t=t,
                xi=np.array(xi, dtype=np.int32).reshape(t, params.m),
            )
            if g.degrees()[H.root - 1] == params.m:
                expect += p
        assert B.pam_mkc_probability(params, t, H) == pytest.approx(
            expect, abs=1e-12
        )


def test_admissible_trees_counts():
    params = PamParams(2, -0.5)
    assert len(admissible_trees(params, 4, 0)) == 2  # roots 3, 4
    assert len(admissible_trees(params, 4, 1)) == 0  # window (1,2] too small
    assert len(admissible_trees(params, 6, 1)) == 6  # 3 roots x 2 orders
    assert len(admissible_trees(params, 8, 1)) == 8  # 4 roots x perms of {3,4}
    with pytest.raises(NotImplementedError):
        admissible_trees(params, 8, 2)


def test_inadmissible_trees_raise():
    params = PamParams(2, -0.5)
    with pytest.raises(B.InadmissibleTreeError):
        B.pam_mkc_probability(params, 8, B.MkcTree(root=3, k=0, edges={}))
    with pytest.raises(B.InadmissibleTreeError):
        # target outside (t/4, t/2]
        B.pam_mkc_probability(
            params, 8, B.MkcTree(root=7, k=1, edges={7: (2, 3)})
        )
    with pytest.raises(B.InadmissibleTreeError):
        # repeated target = multi-edge
        B.pam_mkc_probability(
            params, 8, B.MkcTree(root=7, k=1, edges={7: (3, 3)})
        )
