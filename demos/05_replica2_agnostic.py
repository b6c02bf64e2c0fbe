#!/usr/bin/env python3
"""
Replicable learning when labels are noisy.

With a 5% label flip rate no hypothesis can beat the noise floor, so the
agnostic learner eliminates against a shared threshold plus a slack that
depends on the current disagreement mass. The final cut then keeps every
hypothesis whose empirical error is within a shared threshold of the best
one, and a shared order picks among the survivors. The demo prints both
sides of the trade: how often the two runs agree, and how far the survivors
sit above the noise floor.
"""

import ralearn as ra
from ralearn.harness import (
    ExperimentConfig,
    build_problem,
    iter_paired_runs,
    problem_stats,
    summarize_pairs,
)

cfg = ExperimentConfig(
    domain_size=128,
    target=128,
    eta=0.05,
    algo="replica2",
    eps=0.1,
    delta=0.1,
    rho=0.3,
    trials=60,
    b_seed="51",
    data_seed="15",
)

hclass, model = build_problem(cfg)
theta, nu, best = problem_stats(hclass, model, cfg)
print(f"noise floor nu={nu:.3f}, disagreement coefficient {theta:g}, best index {best}")

outcomes = list(iter_paired_runs(cfg, hclass, model))
report = summarize_pairs(cfg, outcomes, theta, nu)

best_sig = hclass.signature(best)
errors = ra.true_errors(hclass, model)
sides = survived = 0
survivor_sizes = []
worst_survivor = 0.0
for o in outcomes:
    for res in (o.result_first, o.result_second):
        if res is None:
            continue
        sides += 1
        survived += best_sig in {hclass.signature(i) for i in res.survivors}
        survivor_sizes.append(len(res.survivors))
        worst_survivor = max(worst_survivor, float(errors[list(res.survivors)].max()))
within = sum(1 for row in report.rows if row.err_final <= nu + cfg.eps + 1e-9)

print()
print(f"exact agreement:      {report.agreements}/{report.pairs} = {report.agreement_rate:.3f}")
print(f"best hypothesis survived to the end in {survived}/{sides} sides")
print(f"survivor count at return: min {min(survivor_sizes)}, max {max(survivor_sizes)}")
print()
print(f"error mean {report.error_mean:.4f}, max {report.error_max:.4f}")
print(f"floor plus target is {nu + cfg.eps:.3f}; returned error within it on {within}/{len(report.rows)} sides")
print(f"worst survivor on any side has error {worst_survivor:.4f}: the final cut is")
print("measured from the best empirical error, so it bounds each survivor's excess")
print("over the floor, and the shared threshold keeps the two sides' cuts aligned.")
