"""Preferential attachment: law exactness, snapshots, serialization."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from ultrasmall.pam import (
    _pcg64_draws,
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


# SHA-256 of xi (little-endian int32) at seed t, computed with the sampler
# that called `Generator.random` and `Generator.integers` once per draw
PINNED_XI = {
    (1, -0.5, 1): "67abdd721024f0ff4e0b3f4c2fc13bc5bad42d0b7851d456d88d203d15aaa450",
    (1, -0.5, 2): "64ed86b909d6d0502b64b28db0ea1272ffb358e20e9b1d88b63ccb07fa900cf5",
    (1, -0.5, 2000): "db386f33c21921c27d2385d3e9a5a9a9ab7b61545a9f6f6034f323022730fe46",
    (2, -1.0, 1): "64ed86b909d6d0502b64b28db0ea1272ffb358e20e9b1d88b63ccb07fa900cf5",
    (2, -1.0, 2): "1b897dddd4c151e2a2e6e3e91b7ea0f7fc4fd5ed00ef1c9669e8566393a02586",
    (2, -1.0, 2000): "cfd2a85f87c45336ca644bbdd138dc6a89f198e9eee8b635e9054cc8f6d10e2c",
    (2, 0.0, 1): "64ed86b909d6d0502b64b28db0ea1272ffb358e20e9b1d88b63ccb07fa900cf5",
    (2, 0.0, 2): "1b897dddd4c151e2a2e6e3e91b7ea0f7fc4fd5ed00ef1c9669e8566393a02586",
    (2, 0.0, 2000): "4c450758eb3f5b0563dfb892039ab8a83a7488fa4167f90392e7466efcce3a57",
    (3, 0.7, 1): "11047585fe102fbb5cadb42446612a578d88c6ef5ed076bb7ac360c4f9e4373d",
    (3, 0.7, 2): "858478782d68a19528aab2edb9ca86c79372b706d16569579a9be589f5b25dbf",
    (3, 0.7, 2000): "9bf63d2754c03d55752ec90e1c778195c7ebdf35a9da4d8a170a647d97bd16e6",
    (2, 1.5, 1): "64ed86b909d6d0502b64b28db0ea1272ffb358e20e9b1d88b63ccb07fa900cf5",
    (2, 1.5, 2): "9882ec2abaafa22264b143c3b6ff77932cc74eb5c754d4f8c955c52963713866",
    (2, 1.5, 2000): "e5c00e742de119312dd648cf46ea6d043172f1bb14ddf8e7cf1932398bc42c55",
}
# 30 calls at t = 7 on one Generator, cycling through the five laws above,
# then that Generator's next `random()` and `integers(1000)`
PINNED_STREAM = "4bec34a8a02a99c18b6c7a8b0ce67206804c30a334e78f3698d2ac9ec55eab00"


def test_sampler_bytes_are_pinned():
    """The seed -> xi map, and what a shared Generator draws after the
    sampler, for delta < 0, delta = 0 and delta > 0 (at w = 2 the uniform
    part of delta > 0 draws nothing)."""

    def digest(xi):
        return hashlib.sha256(xi.astype("<i4").tobytes()).hexdigest()

    laws = []
    for m, delta, t in PINNED_XI:
        if (m, delta) not in laws:
            laws.append((m, delta))
        got = digest(generate_pam(PamParams(m, delta), t, seed=t).xi)
        assert got == PINNED_XI[m, delta, t], (m, delta, t)
    rng = np.random.default_rng(2024)
    rng.integers(5)  # leaves half a word pending
    stream = hashlib.sha256()
    for i in range(30):
        xi = generate_pam(PamParams(*laws[i % len(laws)]), 7, rng).xi
        stream.update(xi.astype("<i4").tobytes())
    stream.update(np.float64(rng.random()).tobytes())
    stream.update(np.int64(rng.integers(1000)).tobytes())
    assert stream.hexdigest() == PINNED_STREAM


@pytest.mark.parametrize("pending", [False, True])
def test_word_decoding_matches_generator(pending):
    """`random()` and `integers(k)` decoded from raw words equal the
    Generator's own draws, starting with and without a pending half-word,
    for small k and for k where Lemire's rejection fires often (2^31 + 1
    rejects about half its draws, 3 * 2^30 a quarter); blocks of 5 words
    make it refill. After `close()` the Generator's state is numpy's."""
    bounds = [1, 2, 3, 10, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
    ref, rng = np.random.default_rng(77), np.random.default_rng(77)
    if pending:
        ref.integers(5)
        rng.integers(5)
    random, integers, close = _pcg64_draws(rng, 5)
    picks = np.random.default_rng(1).integers(len(bounds) + 1, size=3000)
    for pick in picks.tolist():
        if pick == len(bounds):
            assert random() == ref.random()
        else:
            assert integers(bounds[pick]) == ref.integers(bounds[pick])
    close()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()
    assert rng.integers(1000) == ref.integers(1000)


def test_generate_needs_pcg64():
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError):
        generate_pam(PamParams(2, -0.5), 5, rng)


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


def test_degree_at_matches_snapshots():
    """D_{s,j}(v) for every v <= s, s and j, self-loops included."""
    g = generate_pam(PamParams(3, -1.5), 12, seed=6)
    assert any(g.xi[w - 1, j] == w for w in range(2, 13) for j in range(3))
    for s in range(1, g.t + 1):
        for j in range(g.m + 1):
            snap = g.degree_snapshot(s, j)
            for v in range(1, s + 1):
                assert g.degree_at(v, s, j) == snap[v - 1], (v, s, j)


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
