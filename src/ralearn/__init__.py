"""Replicable disagreement-based active learning on finite hypothesis classes.

The package is organized bottom-up: exact problem geometry (`core`), the
shared random string (`randomness`), replicable statistical queries
(`rstat`), reference learners (`baselines`), the replicable learners
(`replicable`), threshold-grid analysis (`diagnostics`), the experiment
engine (`harness`), and a CLI (`cli`).

Each public name is imported from its module on first read, so ``import
ralearn`` loads none of those modules, nor numpy, until a name is read.
"""
import importlib

# each module with the public names it defines
_EXPORTS = {
    "baselines": """Constants Plan RoundRecord RunResult a2_plan cal_plan erm_plan run_a2
        run_cal run_passive_erm""",
    "core": """PROB_TOL DataModel EmptyVersionSpaceError HypothesisClass ParameterError
        Problem RoundCapExceededError SampleCounters VersionSpace WrongSettingError
        ZeroMassRegionError conditional_true_errors conditional_weights
        disagreement_coefficient disagreement_mask disagreement_mass
        empirical_errors_from_counts explicit intervals noise_rate region_hit_count
        sample_labeled_counts thresholds true_errors uniform_weights worst_case""",
    "diagnostics": "IntervalProfile classify_thresholds interval_profile set_divergence",
    "harness": """ExperimentConfig PairOutcome ReplicabilityReport SweepRow SweepTable
        TrialRow build_problem halving_fraction iter_paired_runs label_complexity_sweep
        problem_stats run_paired_trials summarize_pairs wilson_interval""",
    "randomness": "RandomString",
    "replicable": """ScheduleParams ThresholdGrid build_grid replica2_plan replical_plan
        run_replica2 run_replical size_schedule""",
    "rstat": """SQParams concentration_radius exact_agreement_probability grid_spacing
        pair_agreement_exact replicability_failure_bound required_sample_size
        rstat_answer_from_mean snap_to_grid""",
}
# public name -> the module that defines it
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULES))
