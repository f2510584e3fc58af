"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -v -s``)."""

import itertools
import math
import time

import numpy as np

from conftest import (
    convex_table,
    dyadic_beta,
    random_affine_instance,
    random_table_instance,
)
from rightsizing import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AdversaryConfig,
    AlgorithmB,
    ProblemInstance,
    backward_optimal,
    dp_optimal,
    eval_cost,
    extend_continuous,
    fractional_grid_optimum,
    lcp_init,
    lcp_run,
    lcp_step,
    pull_cost,
    rounding_ensemble,
    run_duel,
    run_scripted_workload,
    scale_psi,
    restrict_phi,
    solve_poly,
    stretch_prediction,
)

REL = 1e-9


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_criterion_1_offline_optimality():
    rng = np.random.default_rng(10_001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 51))
        m = int(2 ** rng.integers(2, 9))  # 4 .. 256
        beta = float(rng.uniform(1e-6, 5.0))
        inst = random_table_instance(rng, T, m, beta=beta)
        a = solve_poly(inst).cost
        b = dp_optimal(inst).cost
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        assert close(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: window solver = oracle on 200 instances "
          f"(worst rel dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_exhaustive_ground_truth():
    rng = np.random.default_rng(10_002)
    t0 = time.perf_counter()
    checked = 0
    for T in range(1, 6):
        for m in range(1, 4):
            for _ in range(3):
                inst = random_table_instance(rng, T, m, beta=dyadic_beta(rng),
                                             integer=True)
                best = min(eval_cost(inst, s).total
                           for s in itertools.product(range(m + 1), repeat=T))
                assert dp_optimal(inst).cost == best
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 2: DP equals exhaustive minimum exactly on "
          f"{checked} instances ({elapsed:.2f}s)")


def test_criterion_3_polynomial_scaling():
    rng = np.random.default_rng(10_003)
    T = 10_000

    def timed(m):
        inst = random_affine_instance(rng, T, m, beta=1.5)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            solve_poly(inst)
            best = min(best, time.perf_counter() - t0)
        return best

    big = timed(1 << 20)
    small = timed(1 << 10)
    assert big < 5.0
    assert big < 2.0 * small
    print(f"PASS criterion 3: T=1e4 solve at m=2^20 in {big * 1e3:.0f} ms, "
          f"{big / small:.2f}x the m=2^10 time (< 2x)")


def test_criterion_4_lcp_sandwich_and_structure():
    rng = np.random.default_rng(10_004)
    violations = 0
    for _ in range(100):
        T = int(rng.integers(1, 31))
        m = int(rng.integers(1, 17))
        inst = random_table_instance(rng, T, m)
        state = lcp_init(m, inst.beta)
        for f in inst.functions:
            d = lcp_step(state, f)
            cl = state.reach_costs
            second = cl[2:] - 2 * cl[1:-1] + cl[:-2]
            if np.any(second < -1e-9 * np.maximum(1.0, np.abs(cl[1:-1]))):
                violations += 1
            if d.upper >= 1 and cl[d.upper] - cl[d.upper - 1] > inst.beta + 1e-9:
                violations += 1
            if d.upper + 1 <= m and cl[d.upper + 1] - cl[d.upper] < inst.beta - 1e-9:
                violations += 1
            if d.lower > d.upper:
                violations += 1
        ref = backward_optimal(state.history, T=T)
        for d, x in zip(state.history, ref):
            if not (d.lower <= x <= d.upper):
                violations += 1
        if not close(eval_cost(inst, ref).total, dp_optimal(inst).cost):
            violations += 1
    assert violations == 0
    print("PASS criterion 4: band sandwich, convexity, and slope conditions "
          "hold with zero violations on 100 instances")


def test_criterion_5_lcp_competitiveness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10_005)
    worst = 0.0
    for _ in range(60):
        inst = random_table_instance(rng, int(rng.integers(1, 31)),
                                     int(rng.integers(1, 17)))
        trace = lcp_run(inst)
        opt = dp_optimal(inst).cost
        assert trace.cost.total <= 3.0 * opt + 1e-9
        if opt > 0:
            worst = max(worst, trace.cost.total / opt)
    for eps in (0.1, 0.01):
        rep = run_duel("lcp", AdversaryConfig(eps=eps, variant="discrete"))
        assert rep.ratio <= 3.0 + 1e-9
        worst = max(worst, rep.ratio)
    rep = run_duel("lcp", AdversaryConfig(eps=0.01, variant="discrete", T=10_000))
    assert 2.9 <= rep.ratio <= 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 5: lazy policy ratio <= 3 everywhere; adversarial "
          f"ratio {rep.ratio:.4f} in [2.9, 3.0] ({elapsed:.2f}s)")


def test_criterion_6_rounding_marginals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10_006)
    T, m, n = 50, 3, 100_000
    inst = random_affine_instance(rng, T, m, beta=1.0)
    walk = np.clip(np.cumsum(rng.uniform(-0.7, 0.7, T)) + 1.5, 0.03, m - 0.03)
    xbar = np.where(np.abs(walk - np.round(walk)) < 1e-9, walk + 0.21, walk)
    ens = rounding_ensemble(xbar, inst, n, seed=606)
    frac = np.mod(xbar, 1.0)
    sigma = np.sqrt(frac * (1.0 - frac) / n)
    dev = np.abs(ens.upper_frequency - frac)
    assert np.all(dev <= 3.0 * sigma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 6: upper-state frequency within 3 sigma of the "
          f"fractional part at all {T} slots over {n} runs "
          f"(max dev/3sigma {(dev / (3 * sigma)).max():.2f}, {elapsed:.2f}s)")


def test_criterion_7_expected_cost_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10_007)
    cases = {}

    # two-level stepping policy output on a random label workload
    eps, T = 0.1, 400
    labels = [TOWARD_ONE if rng.random() < 0.6 else TOWARD_ZERO for _ in range(T)]
    policy = AlgorithmB(eps)
    fns = tuple(pull_cost(lab, eps) for lab in labels)
    inst_b = ProblemInstance(T, 1, 2.0, fns)
    cases["stepping-policy"] = (inst_b, np.array([policy.step(f) for f in fns]))

    # hindsight fractional optimum on a random instance
    inst_h = random_table_instance(rng, 40, 6, beta=1.0)
    cases["hindsight-optimum"] = (inst_h, fractional_grid_optimum(inst_h, 2))

    # random fractional walk
    inst_w = random_affine_instance(rng, 60, 4, beta=1.0)
    walk = np.clip(np.cumsum(rng.uniform(-0.9, 0.9, 60)) + 2.0, 0.0, 4.0)
    cases["random-walk"] = (inst_w, walk)

    for name, (inst, xbar) in cases.items():
        target = extend_continuous(inst).cost(xbar).total
        ens = rounding_ensemble(xbar, inst, 60_000, seed=707)
        mean = float(ens.costs.mean())
        assert abs(mean - target) <= 0.01 * max(1.0, abs(target)), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 7: Monte-Carlo mean cost within 1% of the "
          f"fractional cost on {len(cases)} inputs ({elapsed:.2f}s)")


def test_criterion_8_randomized_competitiveness():
    eps = 0.01
    rep = run_duel("random-round", AdversaryConfig(eps=eps, variant="randomized",
                                                   T=10_000, n_runs=400, seed=808))
    assert 1.9 <= rep.ratio <= 2.0
    case2 = run_duel("algorithm-b", AdversaryConfig(eps=eps, variant="continuous"))
    assert case2.termination == "hit1"
    assert abs(case2.ratio - (2.0 - eps / 2.0)) <= 1e-9
    p = 150
    case1 = run_scripted_workload(AlgorithmB(eps),
                                  [TOWARD_ONE] * p + [TOWARD_ZERO] * p, eps)
    assert case1.termination == "hit0"
    assert abs(case1.ratio - (2.0 - eps / 2.0)) <= 1e-9
    print(f"PASS criterion 8: rounding duel mean ratio {rep.ratio:.4f} in "
          f"[1.9, 2.0]; boundary terminations both hit 2 - eps/2 exactly")


def test_criterion_9_restricted_embeddings():
    for eps in (0.1, 0.01):
        disc = run_duel("lcp", AdversaryConfig(eps=eps, variant="restricted"))
        assert disc.embedding_max_dev <= 1e-12
        corrected = (disc.policy_cost - disc.beta) / (disc.opt_cost - disc.beta)
        assert abs(corrected - disc.general_ratio) <= 1e-6
        cont = run_duel("algorithm-b", AdversaryConfig(eps=eps, variant="restricted"))
        assert cont.embedding_max_dev <= 1e-12
        assert abs(cont.ratio - cont.general_ratio) <= 1e-6
    print("PASS criterion 9: load-model costs match the two-level model to "
          "1e-12 per slot and duel ratios match to 1e-6")


def test_criterion_10_instance_transform_identities():
    rng = np.random.default_rng(10_010)
    for _ in range(50):
        T = int(rng.integers(1, 12))
        l = int(rng.integers(1, 3))
        m = (1 << l) * int(rng.integers(1, 5))
        inst = random_table_instance(rng, T, m, beta=dyadic_beta(rng))
        # conventions agree exactly on closed trajectories
        x = rng.integers(0, m + 1, size=T)
        assert eval_cost(inst, x).total == \
            eval_cost(inst.replace(convention="symmetric"), x).total
        # state-space scaling preserves cost exactly
        coarse = restrict_phi(inst, l)
        scaled = scale_psi(coarse, l)
        xc = (x // (1 << l)) * (1 << l)
        assert eval_cost(coarse, xc).total == \
            eval_cost(scaled, xc // (1 << l)).total
        # stretched copies sum back exactly and cannot raise the optimum
        st = stretch_prediction(inst, w=1, m_factor=int(rng.choice([1, 2, 4])))
        copies = st.T // inst.T
        t = int(rng.integers(0, T))
        xv = int(rng.integers(0, m + 1))
        assert math.fsum(st.functions[copies * t + i](xv)
                         for i in range(copies)) == inst.functions[t](xv)
        assert dp_optimal(st).cost <= dp_optimal(inst).cost + REL
    print("PASS criterion 10: convention equivalence, scaling isometry, and "
          "stretch identities exact on 50 instances")
