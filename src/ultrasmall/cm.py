"""Configuration model: uniform half-edge pairing.

`generate_cm` draws the whole uniform matching at once: a seeded
permutation of the half-edge array, paired consecutively, which realizes
the sequential uniform partner draws in one shot. The incremental pairing
that exploration arguments use, and the exhaustive enumerations it is
checked against, live in `ultrasmall.oracles`.
"""

import numpy as np

from .multigraph import MultiGraph


class OddTotalDegreeError(ValueError):
    pass


def _check_even(seq):
    if seq.ell_n % 2 != 0:
        raise OddTotalDegreeError(
            f"total degree {seq.ell_n} is odd; run fix-parity on the sequence"
        )


def generate_cm(seq, seed):
    """Uniformly paired configuration model multigraph; reproducible per
    seed (PCG64)."""
    _check_even(seq)
    ell = seq.ell_n
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ell)
    return MultiGraph.from_pairs(seq.degrees, perm.reshape(-1, 2))
