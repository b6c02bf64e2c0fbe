#!/usr/bin/env python3
"""
Paired runs of the replicable noiseless learner.

Each pair shares one random string but draws its labeled data from two
independent streams.  The string fixes the error threshold (drawn between
the grid lines, so sampling noise rarely flips a hypothesis across it) and
the keyed-hash ranks that break the final tie.  The headline number is how
often the two sides return the exact same hypothesis.
"""

from ralearn.harness import ExperimentConfig, report_csv, run_paired_trials

cfg = ExperimentConfig(
    domain_size=64,
    algo="replical",
    eps=0.05,
    delta=0.05,
    rho=0.3,
    trials=100,
    b_seed="41",
    data_seed="14",
)

report = run_paired_trials(cfg)

print(f"pairs:               {report.pairs}")
print(f"exact agreement:     {report.agreements}/{report.pairs} = {report.agreement_rate:.3f}")
print(f"wilson 95% interval: [{report.wilson_low:.3f}, {report.wilson_high:.3f}]")
print(f"guaranteed at least: {1 - cfg.rho:.3f} minus sampling slack")
print()
print(f"error    mean {report.error_mean:.4f}   max {report.error_max:.4f}   target {cfg.eps}")
print(f"labels   mean {report.labels_mean:.0f}   max {report.labels_max}")
print(f"unlabeled mean {report.unlabeled_mean:.0f}")
print(f"disagreement halved between rounds in {report.halving_frequency:.2f} of transitions")

# the CSV is bit-stable: same config, same bytes
digest_lines = report_csv(report).splitlines()
print()
print("first two rows of the trial log:")
for line in digest_lines[:3]:
    print(" ", line[:100])
