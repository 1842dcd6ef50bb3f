"""Configuration-model pairing: uniformity, exchangeability, enumeration."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ultrasmall.degrees import DegreeSequence
from ultrasmall.cm import OddTotalDegreeError, generate_cm
from ultrasmall.oracles import (
    HalfEdge,
    PairingState,
    pair_next,
    complete_pairing,
    enumerate_matchings,
    matching_to_graph,
    enumerate_driver_distribution,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_odd_total_degree_raises():
    seq = DegreeSequence([3, 3, 3])
    with pytest.raises(OddTotalDegreeError):
        generate_cm(seq, 0)


def test_generate_cm_preserves_degrees():
    seq = DegreeSequence([3, 5, 2, 4, 2])
    g = generate_cm(seq, 42)
    assert np.array_equal(g.degrees, seq.degrees)
    assert g.num_edges == seq.ell_n // 2


def test_generate_cm_deterministic_per_seed():
    seq = DegreeSequence([3, 3, 2, 2])
    assert generate_cm(seq, 7).matching_key() == generate_cm(seq, 7).matching_key()
    keys = {generate_cm(seq, s).matching_key() for s in range(40)}
    assert len(keys) > 1


def test_enumerate_matchings_count():
    for deg in ([2, 2], [2, 2, 2], [3, 3, 2]):
        ell = sum(deg)
        got = sum(1 for _ in enumerate_matchings(deg))
        assert got == double_factorial(ell - 1)


def test_enumerate_matchings_distinct():
    ms = list(enumerate_matchings([2, 2, 2]))
    assert len(set(ms)) == len(ms)


def test_generate_cm_uniform_over_matchings():
    """Chi-square against uniformity over the 15 matchings of (2,2,2)."""
    seq = DegreeSequence([2, 2, 2])
    keys = Counter(
        generate_cm(seq, 100_000 + s).matching_key() for s in range(30_000)
    )
    assert len(keys) == 15
    expected = 30_000 / 15
    chi2 = sum((c - expected) ** 2 / expected for c in keys.values())
    # chi-square with 14 dof: 1% critical value
    assert chi2 < 29.141


def test_incremental_pairing_matches_direct_law():
    """complete_pairing realizes uniform matchings too."""
    seq = DegreeSequence([2, 2, 2])
    keys = Counter(
        complete_pairing(PairingState(seq, s)).matching_key()
        for s in range(15_000)
    )
    assert len(keys) == 15
    expected = 15_000 / 15
    chi2 = sum((c - expected) ** 2 / expected for c in keys.values())
    assert chi2 < 29.141


def test_pair_next_errors_on_consumed_half_edge():
    seq = DegreeSequence([2, 2])
    state = PairingState(seq, 0)
    he = HalfEdge(0, 0)
    pair_next(state, he)
    with pytest.raises(ValueError):
        pair_next(state, he)


def test_driver_distribution_is_exchangeable():
    """The exact matching law is identical for two consumption orders."""
    seq = DegreeSequence([2, 2, 2])
    by_index = enumerate_driver_distribution(seq, order="index")
    by_reverse = enumerate_driver_distribution(seq, order="reverse")
    assert by_index == by_reverse
    assert sum(by_index.values()) == Fraction(1)
    # and the law is uniform over all matchings
    assert set(by_index.values()) == {Fraction(1, 15)}


def test_matching_to_graph_self_loop():
    g = matching_to_graph([2], [(0, 1)])
    assert g.degree(0) == 2
    assert g.num_edges == 1
