"""Scaling limits of birth-death chains against a reference random walk.

The package covers the pipeline end to end: exact-event simulation of
the chain and the walk, rescaled paths and their L1 geometry, the log
change-of-measure weight between the two laws, closed-form terminal-law
computations, the regime-dependent rate functionals, and an experiment
harness with a CLI driver.
"""

from .errors import ConfigError, PreconditionError
from .harness import (
    ExperimentConfig,
    ResultRow,
    Table,
    emit_results,
    parse_results,
    profile_from_dict,
    profile_to_dict,
    run_consistency_check,
    run_level_cross_scan,
    run_marginal_ldp_scan,
    run_poisson_check,
    run_rate_eval,
    run_simulate,
    write_results,
)
from .paths import (
    JordanPair,
    PiecewiseFunction,
    integral,
    jordan_decompose,
    l1_distance,
    left_limit_at_one,
    neighborhood_contains,
    scale_path,
    total_variation,
)
from .process import (
    RateModel,
    RngStream,
    Trajectory,
    birth_rate,
    death_rate,
    in_path_space,
    simulate_xi,
    simulate_zeta,
    total_rate,
)
from .rates import (
    ScalingFamily,
    level_crossing_rate,
    log_phi,
    marginal_log_prob,
    marginal_normalized_log_prob,
    normalizer,
    phi,
    poisson_exact_log_pmf,
    poisson_exact_log_tail,
    poisson_mean,
    rate_exp,
    rate_sub,
    rate_super,
    tilted_poisson_argmax,
)
from .weights import (
    Estimate,
    EventSpec,
    agreement_z,
    count_jumps,
    direct_estimate,
    functional_A,
    functional_B,
    importance_estimate,
    log_density,
)

__version__ = "0.1.0"
