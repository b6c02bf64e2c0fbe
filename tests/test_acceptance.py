"""Acceptance gate: thirteen exactness and statistical criteria.

Every test prints one CRITERION NN PASS/FAIL line through the shared
reporter and then asserts its verdict, so a plain ``pytest -v`` run both
documents and enforces the gate.  Tolerances are pinned inline; statistical
bounds carry a three-sigma slack on top of the guaranteed rate.
"""

import itertools
import math
import time

import numpy as np
import pytest

import ralearn as ra
from ralearn.baselines import cal_round_bound
from ralearn.harness import (
    ExperimentConfig,
    build_problem,
    data_stream,
    halving_fraction,
    iter_paired_runs,
    label_complexity_sweep,
    problem_stats,
    summarize_pairs,
)

A2_TUNED = ra.Constants().updated({"c_a2": 24.0, "c_a2_final": 200.0})


# ---------------------------------------------------------------------------
# geometry


def test_criterion_01_theta_exactness(criterion):
    """The single-flip class family realizes every integer coefficient."""
    t0 = time.perf_counter()
    got = {}
    for n in (4, 16, 64):
        hclass = ra.worst_case(n)
        model = ra.DataModel.realizable(hclass, 0)
        got[n] = ra.disagreement_coefficient(hclass, model, 0)
    elapsed = time.perf_counter() - t0
    exact = all(got[n] == float(n) for n in got)
    assert criterion(
        1,
        exact and elapsed < 1.0,
        f"single-flip classes give coefficient exactly n for n in (4, 16, 64): "
        f"{tuple(got.values())}, {elapsed:.3f}s of 1s budget",
    )


# ---------------------------------------------------------------------------
# replicable statistical queries


def test_criterion_02_query_tolerance(criterion):
    t0 = time.perf_counter()
    params = ra.SQParams(0.2, 0.1, 0.01)
    need = ra.required_sample_size(params)
    gen = np.random.default_rng(0x02)
    means = gen.binomial(need, 0.37, size=2000) / need
    hits = 0
    for i, mean in enumerate(means):
        shared = ra.RandomString(f"{0xb000 + i:04x}")
        answer = ra.rstat_answer_from_mean(params, float(mean), shared, "tolerance")
        hits += abs(answer - 0.37) <= 0.1 + 1e-12
    elapsed = time.perf_counter() - t0
    rate = hits / 2000
    assert criterion(
        2,
        rate >= 0.99 and elapsed < 30.0,
        f"query answers within tolerance 0.1 of the true mean in {rate:.4f} "
        f"of 2000 trials (need 0.99), {elapsed:.1f}s of 30s budget",
    )


def test_criterion_03_query_replicability(criterion):
    """Two answers from one shared string and independent samples rarely split."""
    t0 = time.perf_counter()
    params = ra.SQParams(0.2, 0.1, 0.01)
    need = ra.required_sample_size(params)
    gen = np.random.default_rng(0x03)
    first = gen.binomial(need, 0.37, size=2000) / need
    second = gen.binomial(need, 0.37, size=2000) / need
    splits = 0
    for i in range(2000):
        shared = ra.RandomString(f"{0xc000 + i:04x}")
        a = ra.rstat_answer_from_mean(params, float(first[i]), shared.clone(), "pair")
        b = ra.rstat_answer_from_mean(params, float(second[i]), shared.clone(), "pair")
        splits += a != b
    elapsed = time.perf_counter() - t0
    rate = splits / 2000
    bound = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / 2000)
    assert criterion(
        3,
        rate <= bound and elapsed < 60.0,
        f"shared-string disagreement rate {rate:.4f} <= {bound:.4f} over 2000 pairs, "
        f"{elapsed:.1f}s of 60s budget",
    )


def test_criterion_04_micro_oracle(criterion):
    """The exhaustive tiny-sample agreement probability matches simulation."""
    k, p, s = 4, 0.5, 0.25
    exact = ra.exact_agreement_probability(k, p, s)
    gen = np.random.default_rng(0x04)
    reps = 200_000
    offsets = gen.uniform(0.0, s, size=reps)
    a = gen.binomial(k, p, size=reps) / k
    b = gen.binomial(k, p, size=reps) / k
    snap_a = np.clip(offsets + s * np.floor((a - offsets) / s + 0.5), 0.0, 1.0)
    snap_b = np.clip(offsets + s * np.floor((b - offsets) / s + 0.5), 0.0, 1.0)
    mc = float(np.mean(snap_a == snap_b))
    gap = abs(exact - mc)
    assert criterion(
        4,
        gap <= 0.01,
        f"enumerated agreement probability {exact:.4f} vs Monte Carlo {mc:.4f}, "
        f"gap {gap:.4f} <= 0.01",
    )


# ---------------------------------------------------------------------------
# baseline active learner


def test_criterion_05_cal_correctness_and_rounds(criterion):
    hclass = ra.thresholds(128)
    problem = ra.Problem(hclass, ra.DataModel.realizable(hclass, 65))
    cap = cal_round_bound(0.05)
    within = rounds_ok = 0
    traces = []
    for t in range(200):
        result = ra.run_cal(problem, 0.05, 0.05, data_stream("05", t))
        within += result.error <= 0.05 + 1e-12
        rounds_ok += result.rounds <= cap
        traces.append(result.trace)
    halving = halving_fraction(traces)
    ok = within >= 190 and rounds_ok == 200 and cap == 6 and halving >= 0.9
    assert criterion(
        5,
        ok,
        f"error within target in {within}/200 trials (need 190), rounds <= {cap} in "
        f"{rounds_ok}/200, disagreement halved in {halving:.3f} of transitions (need 0.9)",
    )


def test_criterion_06_active_versus_passive_scaling(criterion):
    """Tightening the target must barely move CAL while passive ERM balloons."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        domain_size=128,
        algos=("cal", "erm"),
        delta=0.05,
        trials=100,
        b_seed="06",
        data_seed="6606",
    )
    table = label_complexity_sweep(cfg, [0.08, 0.01])
    labels = {(r.algo, r.epsilon): r.labels_mean for r in table.rows}
    cal_ratio = labels[("cal", 0.01)] / labels[("cal", 0.08)]
    erm_ratio = labels[("erm", 0.01)] / labels[("erm", 0.08)]
    elapsed = time.perf_counter() - t0
    assert criterion(
        6,
        cal_ratio <= 2.5 and erm_ratio >= 4.0 and elapsed < 120.0,
        f"label growth from target 0.08 to 0.01: active x{cal_ratio:.2f} (need <= 2.5), "
        f"passive x{erm_ratio:.2f} (need >= 4), {elapsed:.1f}s of 120s budget",
    )


# ---------------------------------------------------------------------------
# replicable noiseless learner, one 500-pair batch shared by three criteria


REPLICAL_CFG = ExperimentConfig(
    domain_size=128,
    target=65,
    algo="replical",
    eps=0.05,
    delta=0.05,
    rho=0.3,
    trials=500,
    b_seed="08",
    data_seed="8808",
)


@pytest.fixture(scope="session")
def replical_batch():
    hclass, model = build_problem(REPLICAL_CFG)
    theta, nu, _ = problem_stats(hclass, model, REPLICAL_CFG)
    t0 = time.perf_counter()
    outcomes = list(iter_paired_runs(REPLICAL_CFG, hclass, model))
    elapsed = time.perf_counter() - t0
    report = summarize_pairs(REPLICAL_CFG, outcomes, theta, nu)
    return hclass, outcomes, report, elapsed


def test_criterion_07_target_survival(criterion, replical_batch):
    hclass, outcomes, _, _ = replical_batch
    target_sig = hclass.signature(65)
    sides = hits = 0
    for outcome in outcomes:
        for result in (outcome.result_first, outcome.result_second):
            if result is None:
                continue
            sides += 1
            hits += target_sig in {hclass.signature(i) for i in result.survivors}
    assert criterion(
        7,
        sides == 1000 and hits == sides,
        f"label-source hypothesis survived to the final pick in {hits}/{sides} sides "
        f"(need all 1000)",
    )


def test_criterion_08_replical_replicability(criterion, replical_batch):
    _, _, report, elapsed = replical_batch
    bound = 1.0 - 0.3 - 3.0 * math.sqrt(0.3 * 0.7 / 500)
    err_ok = sum(1 for row in report.rows if row.err_final <= 0.05 + 1e-12)
    correctness = err_ok / len(report.rows)
    ok = (
        report.pairs == 500
        and report.agreement_rate >= bound
        and correctness >= 0.95
        and elapsed < 600.0
    )
    assert criterion(
        8,
        ok,
        f"paired agreement {report.agreement_rate:.4f} >= {bound:.4f}, error within "
        f"target on {correctness:.4f} of sides (need 0.95), {elapsed:.1f}s of 600s budget",
    )


def test_criterion_13_divergence_link(criterion, replical_batch):
    """Pairs whose survivor sets nearly coincide must pick the same output."""
    hclass, outcomes, _, _ = replical_batch
    qualifying = agree = 0
    for outcome in outcomes:
        if outcome.result_first is None or outcome.result_second is None:
            continue
        divergence = ra.set_divergence(
            (hclass.signature(i) for i in outcome.result_first.survivors),
            (hclass.signature(i) for i in outcome.result_second.survivors),
        )
        if divergence <= 0.075:
            qualifying += 1
            agree += outcome.agreed
    rate = agree / qualifying if qualifying else 0.0
    bound = 1.0 - 0.075 - 3.0 * math.sqrt(0.075 * 0.925 / max(qualifying, 1))
    assert criterion(
        13,
        qualifying > 0 and rate >= bound,
        f"among {qualifying} pairs with survivor-set divergence <= 0.075 the outputs "
        f"agree at rate {rate:.4f} (need {bound:.4f})",
    )


# ---------------------------------------------------------------------------
# determinism


def test_criterion_09_replay(criterion):
    real_h = ra.thresholds(16)
    real = ra.Problem(real_h, ra.DataModel.realizable(real_h, 8))
    agn_h = ra.thresholds(128)
    agn = ra.Problem(agn_h, ra.DataModel.agnostic(agn_h, 128, 0.05))

    def once(algo, seed):
        if algo == "erm":
            return ra.run_passive_erm(real, 0.1, 0.1, data_stream(seed, 0))
        if algo == "cal":
            return ra.run_cal(real, 0.1, 0.1, data_stream(seed, 1))
        if algo == "a2":
            return ra.run_a2(agn, 0.1, 0.1, data_stream(seed, 2), constants=A2_TUNED)
        if algo == "replical":
            return ra.run_replical(
                real, 0.1, 0.1, 0.3, ra.RandomString(seed), data_stream(seed, 3)
            )
        return ra.run_replica2(
            agn, 0.1, 0.1, 0.3, ra.RandomString(seed), data_stream(seed, 4),
            constants=A2_TUNED,
        )

    checks = mismatches = 0
    for t in range(20):
        seed = f"{0x9000 + t:04x}"
        for algo in ("erm", "cal", "a2", "replical", "replica2"):
            checks += 1
            mismatches += once(algo, seed) != once(algo, seed)
    assert criterion(
        9,
        checks == 100 and mismatches == 0,
        f"identical seeds and config reproduced the full run result in "
        f"{checks - mismatches}/{checks} replays across five algorithms",
    )


# ---------------------------------------------------------------------------
# threshold-grid diagnostics


def _literal_flags(counts, rho):
    """Direct float re-evaluation of both badness conditions, cell by cell."""
    n = len(counts)
    total = sum(counts)
    flags = []
    for i in range(1, n):
        below = float(sum(counts[:i]))
        crowded = counts[i] > (rho / 30.0) * below
        if below == 0.0:
            runaway = i < n - 1
        else:
            # exp(j) overflows past j ~ 709; by then the bound dwarfs any count.
            # No cell holds more than the total and the bound grows with j, so
            # the scan stops once the bound passes the total: no later j matches
            reachable = itertools.takewhile(
                lambda j: math.exp(j) * below <= total + 1e-9 * max(total, 1),
                range(1, n - i),
            )
            runaway = any(
                j < 700
                and counts[i + j] >= math.exp(j) * below - 1e-9 * max(counts[i + j], 1)
                for j in reachable
            )
        flags.append(bool(crowded or runaway))
    return tuple(flags)


def test_criterion_10_bad_threshold_fraction(criterion):
    gen = np.random.default_rng(0x10)
    classes = mismatches = 0
    worst = 0.0
    frac_ok = True
    while classes < 50:
        n_hyp = int(gen.integers(4, 513))
        n_dom = int(gen.integers(4, 65))
        matrix = gen.integers(0, 2, size=(n_hyp, n_dom), dtype=np.uint8)
        hclass = ra.explicit(matrix)
        base = int(gen.integers(0, hclass.n_hypotheses))
        model = ra.DataModel.realizable(hclass, base)
        nu, center = ra.noise_rate(hclass, model)
        theta = ra.disagreement_coefficient(hclass, model, center)
        sizing = theta if theta > 0.0 else 1.0
        mask = ra.disagreement_mask(hclass, ra.VersionSpace.full(hclass.n_hypotheses))
        if mask.any():
            errs = ra.conditional_true_errors(hclass, model, mask)
        else:
            errs = ra.true_errors(hclass, model)
        classes += 1
        for rho in (0.05, 0.1, 0.3):
            shared = ra.RandomString(f"{0xa000 + classes:04x}")
            grid = ra.build_grid(
                sizing, rho, hclass.n_hypotheses, "realizable", shared, 0.1, nu
            )
            profile = ra.interval_profile(grid, errs)
            flags = ra.classify_thresholds(profile, rho)
            mismatches += flags != _literal_flags(profile.counts, rho)
            frac = ra.bad_fraction(profile, rho)
            worst = max(worst, frac)
            frac_ok = frac_ok and frac <= min(1.0, 40.0 * rho) + 1e-12
    assert criterion(
        10,
        classes == 50 and mismatches == 0 and frac_ok,
        f"flag vectors matched a literal re-evaluation on {classes * 3 - mismatches}"
        f"/{classes * 3} random-class grids; worst bad fraction {worst:.3f} stayed "
        f"under min(1, 40 rho) at every budget",
    )


# ---------------------------------------------------------------------------
# agnostic learners


@pytest.fixture(scope="session")
def agnostic_problem():
    hclass = ra.thresholds(128)
    model = ra.DataModel.agnostic(hclass, 128, 0.05)
    nu, _ = ra.noise_rate(hclass, model)
    return hclass, model, nu


def test_criterion_11_a2_agnostic_correctness(criterion, agnostic_problem):
    hclass, model, nu = agnostic_problem
    problem = ra.Problem(hclass, model)
    hits = 0
    for t in range(200):
        result = ra.run_a2(problem, 0.1, 0.1, data_stream("11", t), constants=A2_TUNED)
        hits += result.error <= nu + 0.1 + 1e-9
    rate = hits / 200
    assert criterion(
        11,
        rate >= 0.9,
        f"noise-tolerant elimination landed within noise floor + target on "
        f"{rate:.3f} of 200 trials (need 0.9) at noise floor {nu:.3f}",
    )


def test_criterion_12_replica2(criterion, agnostic_problem):
    """Agreement, survival and the agnostic guarantee at noise floor 0.05.

    The final cut is measured from the best empirical error in the final
    region, so each survivor's excess over the floor is at most the region
    mass times (v_final + 2r); with theta * nu = 0.05 >= 3/64 the final grid
    keeps v_final below 0.094, leaving room for 2r under the 0.1 target."""
    hclass, model, nu = agnostic_problem
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        domain_size=128,
        target=128,
        eta=0.05,
        algo="replica2",
        eps=0.1,
        delta=0.1,
        rho=0.3,
        trials=300,
        b_seed="12",
        data_seed="2112",
        constants=A2_TUNED,
    )
    theta, nu_cfg, _ = problem_stats(hclass, model, cfg)
    outcomes = list(iter_paired_runs(cfg, hclass, model))
    report = summarize_pairs(cfg, outcomes, theta, nu_cfg)
    elapsed = time.perf_counter() - t0

    correct = sum(1 for row in report.rows if row.err_final <= nu + 0.1 + 1e-9)
    correctness = correct / len(report.rows)
    target_sig = hclass.signature(128)
    sides = survived = 0
    for outcome in outcomes:
        for result in (outcome.result_first, outcome.result_second):
            if result is None:
                continue
            sides += 1
            survived += target_sig in {hclass.signature(i) for i in result.survivors}
    survival = survived / sides
    bound = 1.0 - 0.3 - 3.0 * math.sqrt(0.3 * 0.7 / 300)
    ok = (
        correctness >= 0.9
        and report.agreement_rate >= bound
        and survival >= 0.9
        and elapsed < 900.0
    )
    assert criterion(
        12,
        ok,
        f"agreement {report.agreement_rate:.4f} >= {bound:.4f}; best-hypothesis "
        f"survival {survival:.4f} (need 0.9); error within noise floor + target on "
        f"{correctness:.4f} of sides (need 0.9); {elapsed:.1f}s of 900s budget",
    )
