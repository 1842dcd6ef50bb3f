"""Random graphs with ultra-small distances.

Configuration-model and preferential-attachment generators with power-law
degrees (tail exponent in (2,3)), exact distance/diameter measurement,
structural censuses, and the closed-form bounds they are validated against.
"""

from .degrees import (
    CmParams,
    PowerLawSpec,
    DegreeSequence,
    sample_iid_powerlaw,
    quantile_sequence,
    check_polynomial_condition,
    fix_parity,
)
from .multigraph import MultiGraph
from .cm import generate_cm
from .pam import PamParams, PamGraph, generate_pam
from .metrics import (
    bfs,
    diameter,
    typical_distance_sample,
    extract_core,
    core_diameter,
)
from .structure import census_mkc, explore, find_connectors, distance_to_core
from .bounds import (
    asymptotic_constants,
    i_k,
    cm_mk_first_moment,
    cm_mk_second_moment_bound,
    cm_distance_bound,
    pam_mkc_probability,
    appendixA_sequences,
)
from .harness import ExperimentConfig, ExperimentResult, run

__version__ = "0.1.0"
