"""Exact invariants of cyclic resolutions of n-th root covers of 3-folds.

From an arrangement of branch divisors on a smooth projective 3-fold the
package computes, entirely with arbitrary-precision rationals: the
Hirzebruch-Jung chain data and Dedekind sums of the cyclic singularities,
Girstmair sets and asymptotic partitions, local toric cyclic resolutions of
the triple-point cones, the global invariants (chi, K^3, e) of the resolved
cover, the logarithmic Chern numbers they track, and their Chern slopes.
"""

from .asympt import (
    ONSet,
    Partition,
    SplitMix64,
    find_asymptotic_partition,
    girstmair_member,
    girstmair_set,
    partition_density,
    q_of_pair,
)
from .dedekind import barkan_residual, dedekind_fast, dedekind_sum, power_sums
from .errors import (
    BadInput,
    BadParams,
    CertificationError,
    ConfigError,
    Degenerate,
    DegenerateCone,
    Exhausted,
    IncompatiblePartition,
    NotCoprime,
    NotInterior,
    RootcoverError,
)
from .exact import mod_inverse
from .hj import (
    HJExpansion,
    chain_record,
    hj_dual,
    hj_evaluate,
    hj_expand,
    hj_length,
)
from .invariants import (
    ChiValue,
    ClosedFormsP4,
    InvariantReport,
    chi_eigenspace_oracle,
    chi_error_bound,
    chi_root_cover,
    closed_forms_p4,
    euler_root_cover,
    invariant_report,
    k3_root_cover,
    report_to_json_dict,
)
from .logchern import (
    BasePair,
    LogChernNumbers,
    TripleTable,
    base_pair_from_json,
    base_pair_to_json,
    log_chern_numbers,
    make_preset,
)
from .toric import (
    CyclicResolution,
    LocalConeSpec,
    LocalIntersections,
    cyclic_resolution,
    local_cone,
    local_intersection_table,
    max_slope,
    parallelepiped_points,
    resolution_to_json,
    select_v,
)

__version__ = "0.1.0"
