"""Preferential attachment: law exactness, snapshots, serialization."""

import math
from collections import Counter

import numpy as np
import pytest

from ultrasmall.pam import (
    PamParams,
    PamGraph,
    normalizer,
    generate_pam,
    enumerate_pam_outcomes,
    xi_key,
    write_pam,
    read_pam,
)


def test_params_validation_and_derived():
    with pytest.raises(ValueError):
        PamParams(m=0, delta=0.0)
    with pytest.raises(ValueError):
        PamParams(m=2, delta=-2.0)
    p = PamParams(m=2, delta=-0.5)
    assert p.tau == pytest.approx(3.0 - 0.25)
    assert p.gamma == pytest.approx(2.0 / 3.5)


def test_normalizer_equals_total_attachment_weight():
    """c_{t,j} must equal the self weight plus sum of D_v + delta."""
    params = PamParams(m=3, delta=0.7)
    g = generate_pam(params, 30, seed=1)
    for t in (5, 17, 30):
        for j in (1, params.m):
            deg = g.degree_snapshot(t, j - 1)
            self_w = deg[t - 1] + 1 + j * params.delta / params.m
            rest = float(deg[: t - 1].sum()) + (t - 1) * params.delta
            assert normalizer(params, t, j) == pytest.approx(self_w + rest)


def test_enumeration_probabilities_sum_to_one():
    for params in (PamParams(2, -0.5), PamParams(1, 0.0), PamParams(2, 1.0)):
        total = sum(p for _, p in enumerate_pam_outcomes(params, 4))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "params", [PamParams(2, -0.5), PamParams(2, 0.0), PamParams(2, 0.8)]
)
def test_sampler_matches_chain_rule(params):
    """Empirical outcome frequencies at t=3 within 4 sigma of the exact
    chain-rule probabilities, for negative, zero and positive delta."""
    t, reps = 3, 40_000
    exact = dict(enumerate_pam_outcomes(params, t))
    rng = np.random.default_rng(12345)
    counts = Counter(xi_key(generate_pam(params, t, rng)) for _ in range(reps))
    assert set(counts) <= set(exact)
    for outcome, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / reps)
        assert abs(counts[outcome] / reps - p) < 4 * sigma + 1e-9


def test_generate_deterministic_per_seed():
    params = PamParams(2, -0.5)
    a = generate_pam(params, 50, seed=3)
    b = generate_pam(params, 50, seed=3)
    assert np.array_equal(a.xi, b.xi)


def test_normalization_assertion_path():
    params = PamParams(2, -0.9)
    generate_pam(params, 40, seed=0, check_normalization=True)


def test_targets_in_range():
    params = PamParams(3, 0.5)
    g = generate_pam(params, 200, seed=9)
    for w in range(1, g.t + 1):
        row = g.xi[w - 1]
        assert row.min() >= 1 and row.max() <= w


def test_degree_accessors_consistent():
    params = PamParams(2, -0.5)
    g = generate_pam(params, 25, seed=4)
    deg = g.degrees()
    assert int(deg.sum()) == 2 * params.m * g.t
    snap = g.degree_snapshot(g.t)
    assert np.array_equal(snap, deg)
    for v in (1, 10, 25):
        assert g.degree_at(v, g.t) == deg[v - 1]
    with pytest.raises(ValueError):
        g.degree_at(10, 5)


def test_undirected_view_degrees_match():
    params = PamParams(2, 0.3)
    g = generate_pam(params, 40, seed=11)
    und = g.undirected_view()
    assert np.array_equal(und.degrees, g.degrees())
    assert und.num_edges == params.m * g.t


def test_pam_io_roundtrip(tmp_path):
    params = PamParams(2, -0.5)
    g = generate_pam(params, 20, seed=5)
    path = tmp_path / "pam.txt"
    write_pam(path, g)
    back = read_pam(path, params)
    assert back.t == g.t
    assert np.array_equal(back.xi, g.xi)


def test_first_vertex_forced_self_loops():
    for params in (PamParams(1, 0.0), PamParams(3, -1.0)):
        g = generate_pam(params, 10, seed=2)
        assert np.all(g.xi[0] == 1)
        for outcome, _ in enumerate_pam_outcomes(params, 2):
            assert outcome[: params.m] == (1,) * params.m


@pytest.mark.parametrize("body", ["1 1\n", "1 1 1 1\n", "1 1 x\n", "1 1 1\n2 1\n"])
def test_read_pam_rejects_malformed_lines(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("# t 2 m 1\n" + body)
    with pytest.raises(ValueError):
        read_pam(path, PamParams(1, 0.0))


def test_read_pam_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pam.txt"
    path.write_text(
        "# t 3 m 2\n1 1 1\n1 2 1\n\n# a comment\n2 1 1\n   \n2 2 2\n"
        "  # indented\n3 2 3\n3 1 2\n"
    )
    g = read_pam(path, PamParams(2, 0.0))
    assert g.t == 3
    assert g.xi.tolist() == [[1, 1], [1, 2], [2, 3]]


def test_read_pam_header_only_is_an_error(tmp_path):
    path = tmp_path / "pam.txt"
    path.write_text("# t 0 m 2\n")
    with pytest.raises(ValueError):
        read_pam(path, PamParams(2, 0.0))
