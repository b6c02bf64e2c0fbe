"""Replicable disagreement-based active learning on finite hypothesis classes.

The package is organized bottom-up: exact problem geometry (`core`), the
shared random string (`randomness`), replicable statistical queries
(`rstat`), reference learners (`baselines`), the replicable learners
(`replicable`), threshold-grid analysis (`diagnostics`), the experiment
engine (`harness`), and a CLI (`cli`).
"""
from .baselines import (
    Constants,
    RoundRecord,
    RunResult,
    run_a2,
    run_cal,
    run_passive_erm,
)
from .core import (
    PROB_TOL,
    DataModel,
    EmptyVersionSpaceError,
    HypothesisClass,
    ParameterError,
    Problem,
    RoundCapExceededError,
    SampleCounters,
    VersionSpace,
    WrongSettingError,
    ZeroMassRegionError,
    conditional_true_errors,
    conditional_weights,
    disagreement_coefficient,
    disagreement_mask,
    disagreement_mass,
    distances_from,
    empirical_errors_from_counts,
    explicit,
    intervals,
    noise_rate,
    region_hit_count,
    sample_labeled_counts,
    thresholds,
    true_errors,
    uniform_weights,
    worst_case,
)
from .diagnostics import (
    IntervalProfile,
    bad_fraction,
    classify_thresholds,
    interval_profile,
    set_divergence,
)
from .harness import (
    ExperimentConfig,
    PairOutcome,
    ReplicabilityReport,
    SweepRow,
    SweepTable,
    TrialRow,
    build_problem,
    halving_fraction,
    iter_paired_runs,
    label_complexity_sweep,
    problem_stats,
    run_paired_trials,
    summarize_pairs,
    wilson_interval,
)
from .randomness import RandomString
from .replicable import (
    ScheduleParams,
    ThresholdGrid,
    build_grid,
    grid_interval_count,
    grid_range_top,
    run_replica2,
    run_replical,
    size_schedule,
)
from .rstat import (
    SQParams,
    concentration_radius,
    exact_agreement_probability,
    grid_spacing,
    pair_agreement_exact,
    replicability_failure_bound,
    required_sample_size,
    rstat_answer_from_mean,
    snap_to_grid,
)

__version__ = "0.1.0"
