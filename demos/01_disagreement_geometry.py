#!/usr/bin/env python3
"""
Where active learning gets its leverage: the region of disagreement.

Builds two hypothesis classes on a 16-point domain and prints how much
probability mass the disagreement region holds as hypotheses get eliminated,
plus the disagreement coefficient that summarizes the worst ratio.  The
threshold class keeps the coefficient at 2 no matter how large the class
gets; the single-flip class drives it to the domain size, which is as bad
as a finite class can be.
"""

import numpy as np

import ralearn as ra

N = 16


def shrink_report(name, hclass, model, center):
    print(f"{name}: {hclass.n_hypotheses} hypotheses on {hclass.domain_size} points")
    theta = ra.disagreement_coefficient(hclass, model, center)
    print(f"  disagreement coefficient at the best hypothesis: {theta:g}")
    space = ra.VersionSpace.full(hclass.n_hypotheses)
    while space.size > 1:
        mask = ra.disagreement_mask(hclass, space)
        mass = float(model.weights[mask].sum())
        print(f"  {space.size:3d} hypotheses left, disagreement mass {mass:.4f}")
        # drop the worst half by true error, as an idealized learner would
        errs = ra.true_errors(hclass, model)[list(space.indices())]
        order = sorted(zip(errs, space.indices()))
        members = np.zeros(hclass.n_hypotheses, dtype=bool)
        members[[i for _, i in order[: max(1, space.size // 2)]]] = True
        space = ra.VersionSpace(members)
    print(f"  final survivor: index {next(iter(space.indices()))}")
    print()


def main():
    thr = ra.thresholds(N)
    shrink_report("thresholds", thr, ra.DataModel.realizable(thr, N // 2), N // 2)

    flip = ra.worst_case(N)
    shrink_report("single-flip", flip, ra.DataModel.realizable(flip, 0), 0)

    print("coefficient growth for the single-flip family:")
    for n in (4, 8, 16, 32, 64):
        hclass = ra.worst_case(n)
        model = ra.DataModel.realizable(hclass, 0)
        print(f"  n={n:3d}  coefficient={ra.disagreement_coefficient(hclass, model, 0):g}")


if __name__ == "__main__":
    main()
