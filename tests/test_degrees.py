"""Degree-sequence sampling, quantile construction and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrasmall.degrees import (
    PowerLawSpec,
    DegreeSequence,
    power_law_cdf,
    power_law_ccdf,
    sample_iid_powerlaw,
    quantile_sequence,
    check_polynomial_condition,
    fix_parity,
    read_degrees,
    write_degrees,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        PowerLawSpec(tau=2.0, d_min=3, n=10)
    with pytest.raises(ValueError):
        PowerLawSpec(tau=3.0, d_min=3, n=10)
    with pytest.raises(ValueError):
        PowerLawSpec(tau=2.5, d_min=0, n=10)
    PowerLawSpec(tau=2.5, d_min=3, n=0)  # n=0 allowed for parameter-only use


def test_ccdf_matches_definition():
    tau, d_min = 2.5, 3
    # P(D > x) = (d_min/(x+1))^(tau-1) for x >= d_min, 1 below
    for x in range(0, 10):
        expect = 1.0 if x < d_min else (d_min / (x + 1)) ** (tau - 1)
        assert power_law_ccdf(x, tau, d_min) == pytest.approx(expect, abs=1e-15)
        assert power_law_cdf(x, tau, d_min) == pytest.approx(
            1 - expect, abs=1e-15
        )


def test_inverse_transform_matches_ccdf():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=200_000)
    seq = sample_iid_powerlaw(spec, 7)
    assert seq.n == spec.n
    assert seq.degrees.min() >= spec.d_min
    # empirical CCDF within 4 sigma of the law at several points
    for x in (3, 5, 10, 30, 100):
        p = power_law_ccdf(x, spec.tau, spec.d_min)
        emp = np.mean(seq.degrees > x)
        sigma = math.sqrt(p * (1 - p) / spec.n)
        assert abs(emp - p) < 4 * sigma + 1e-12


@given(
    tau=st.floats(2.05, 2.95),
    d_min=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_sample_support_property(tau, d_min, seed):
    spec = PowerLawSpec(tau=tau, d_min=d_min, n=500)
    seq = sample_iid_powerlaw(spec, seed)
    assert np.all(seq.degrees >= d_min)
    assert seq.ell_n == int(seq.degrees.sum())


def test_quantile_sequence_counts():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=10_000)
    seq = quantile_sequence(spec)
    assert seq.n == spec.n
    assert seq.degrees.min() >= spec.d_min
    # n_k = ceil(n F(k)) - ceil(n F(k-1)) by direct comparison
    for k in range(spec.d_min, 50):
        expect = math.ceil(spec.n * power_law_cdf(k, spec.tau, spec.d_min)) - math.ceil(
            spec.n * power_law_cdf(k - 1, spec.tau, spec.d_min)
        )
        assert seq.n_k(k) == expect
    # determinism
    assert seq == quantile_sequence(spec)


def test_polynomial_condition_on_quantile_sequence():
    spec = PowerLawSpec(tau=2.5, d_min=3, n=50_000)
    seq = quantile_sequence(spec)
    report = check_polynomial_condition(seq, spec.tau, delta=0.2)
    assert report.holds_upper
    assert report.c2_hat < math.inf


def test_polynomial_condition_rejects_a_heavier_tail():
    """A tau = 2.1 sequence has 1-F(x) ~ x^-1.1, heavier than the
    x^-(2.9-1-0.1) = x^-1.8 the upper bound allows for tau = 2.9."""
    seq = quantile_sequence(PowerLawSpec(tau=2.1, d_min=3, n=50_000))
    report = check_polynomial_condition(seq, 2.9, delta=0.1)
    assert not report.holds_upper
    assert report.holds_lower


def test_fix_parity():
    seq = DegreeSequence(np.array([3, 3, 3], dtype=np.int64))
    assert seq.ell_n % 2 == 1
    fixed = fix_parity(seq)
    assert fixed.ell_n % 2 == 0
    assert fixed.degrees[-1] == seq.degrees[-1] + 1
    # even sequences pass through unchanged
    assert fix_parity(fixed) == fixed


def test_degrees_io_roundtrip(tmp_path):
    seq = DegreeSequence(np.array([3, 4, 5, 3], dtype=np.int64))
    path = tmp_path / "deg.txt"
    write_degrees(path, seq)
    assert read_degrees(path) == seq


@pytest.mark.parametrize("body", ["3 4\n", "3 4 5\n", "x\n", "3.0\n", "3\n4 5\n"])
def test_read_degrees_rejects_malformed_lines(tmp_path, body):
    path = tmp_path / "deg.txt"
    path.write_text("3\n" + body)
    with pytest.raises(ValueError):
        read_degrees(path)


def test_read_degrees_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "deg.txt"
    path.write_text("# degrees\n3\n\n# a comment\n  4\n   \n5\n")
    assert read_degrees(path) == DegreeSequence([3, 4, 5])
    path.write_text("# no degrees\n")
    assert read_degrees(path).n == 0
