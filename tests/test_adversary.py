import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_table_instance
from rightsizing import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AdversaryConfig,
    AlgorithmB,
    AlgorithmBState,
    ConfigError,
    ProblemInstance,
    TableCost,
    adv_continuous_step,
    adv_discrete_step,
    algorithm_b_step,
    build_restricted,
    dp_optimal,
    eval_cost,
    pull_cost,
    run_duel,
    run_scripted_workload,
    stretch_prediction,
)
from rightsizing.model import slot_costs


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------


def test_discrete_rule_targets_other_level():
    assert adv_discrete_step(0, 0.1).center == 1.0
    assert adv_discrete_step(1, 0.1).center == 0.0
    seq = [adv_discrete_step(s, 0.1).center for s in (0, 0, 1)]
    assert seq == [1.0, 1.0, 0.0]


def test_continuous_rule_comparison_and_boundary():
    assert adv_continuous_step(0.3, 0.5, 0.1).center == 1.0
    assert adv_continuous_step(1.0, 0.2, 0.1).center == 0.0
    assert adv_continuous_step(0.6, 0.5, 0.1).center == 0.0
    assert adv_continuous_step(0.0, 0.9, 0.1).center == 1.0
    # tie pulls up
    assert adv_continuous_step(0.5, 0.5, 0.1).center == 1.0


# ---------------------------------------------------------------------------
# restricted embeddings
# ---------------------------------------------------------------------------


def test_restricted_discrete_identity():
    eps = 0.1
    inst = build_restricted([TOWARD_ZERO, TOWARD_ONE], "discrete", eps)
    # toward0 slot, x=2: operating eps*|2-1| = eps = pull0(1)
    assert inst.functions[0](2) == pytest.approx(eps, abs=1e-15)
    # toward1 slot, x=2: operating 0 = pull1(1)
    assert inst.functions[1](2) == pytest.approx(0.0, abs=1e-15)
    for x in (1, 2):
        for t, lab in enumerate((TOWARD_ZERO, TOWARD_ONE)):
            lhs = inst.functions[t](x)
            rhs = pull_cost(lab, eps)(x - 1)
            assert abs(lhs - rhs) <= 1e-12


def test_restricted_continuous_identity():
    eps = 0.1
    inst = build_restricted([TOWARD_ONE, TOWARD_ZERO], "continuous", eps, k=100.0)
    assert inst.functions[0](1) == pytest.approx(0.0, abs=1e-15)
    for x in (0.25, 0.5, 1.0):
        lhs = inst.functions[0](x)
        assert abs(lhs - pull_cost(TOWARD_ONE, eps)(x)) <= 1e-12
        lhs0 = inst.functions[1](x)
        assert abs(lhs0 - pull_cost(TOWARD_ZERO, eps)(x)) <= 1e-12


def test_restricted_costs_through_eval():
    eps = 0.01
    labels = [TOWARD_ONE, TOWARD_ZERO, TOWARD_ONE]
    inst = build_restricted(labels, "discrete", eps, convention="symmetric")
    x = [2, 1, 2]
    cb = eval_cost(inst, x)
    shadow = [v - 1 for v in x]
    expected_ops = sum(pull_cost(lab, eps)(s) for lab, s in zip(labels, shadow))
    assert cb.operating == pytest.approx(expected_ops, abs=1e-12)


def test_build_restricted_validates():
    with pytest.raises(ConfigError):
        build_restricted([], "discrete", 0.1)
    with pytest.raises(ConfigError):
        build_restricted([TOWARD_ONE], "continuous", 0.1, k=0.5)
    with pytest.raises(ConfigError):
        build_restricted([TOWARD_ONE], "nope", 0.1)


# ---------------------------------------------------------------------------
# prediction-window stretch
# ---------------------------------------------------------------------------


def test_stretch_doubles_horizon_and_halves_weight():
    rng = np.random.default_rng(1)
    inst = random_table_instance(rng, 4, 6)
    st = stretch_prediction(inst, w=1, m_factor=2)
    assert st.T == 8
    for t in range(4):
        for x in range(7):
            assert st.functions[2 * t](x) + st.functions[2 * t + 1](x) \
                == inst.functions[t](x)


def test_stretch_identity_factor():
    rng = np.random.default_rng(2)
    inst = random_table_instance(rng, 3, 4)
    st = stretch_prediction(inst, w=1, m_factor=1)
    assert st.T == 3
    for t in range(3):
        for x in range(5):
            assert st.functions[t](x) == inst.functions[t](x)


def test_stretch_never_raises_optimum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_table_instance(rng, int(rng.integers(1, 6)),
                                     int(rng.integers(1, 6)))
        w = int(rng.integers(1, 3))
        mf = int(rng.choice([1, 2, 4]))
        st = stretch_prediction(inst, w=w, m_factor=mf)
        assert dp_optimal(st).cost <= dp_optimal(inst).cost + 1e-9


# ---------------------------------------------------------------------------
# duels
# ---------------------------------------------------------------------------


def test_discrete_duel_report_invariants():
    rep = run_duel("lcp", AdversaryConfig(eps=0.1, variant="discrete"))
    assert rep.T == 100
    assert rep.opt_cost <= rep.opt_bound + 1e-9
    assert rep.ratio <= 3.0 + 1e-9
    assert rep.policy_cost == pytest.approx(rep.policy_cost_up_only, rel=1e-12)
    assert rep.label_counts["toward0"] + rep.label_counts["toward1"] == rep.T


def test_discrete_duel_ratio_tightens_with_eps():
    # measured ratio approaches 3 from below as the per-slot charge shrinks
    # and the horizon grows; 5*eps + 3/(T*eps) bounds the shortfall
    loose = run_duel("lcp", AdversaryConfig(eps=0.1, variant="discrete")).ratio
    tight = run_duel("lcp", AdversaryConfig(eps=0.02, variant="discrete")).ratio
    assert tight > loose
    assert tight <= 3.0 + 1e-9
    assert loose >= 3.0 - 5 * 0.1 - 3 / (100 * 0.1)
    assert tight >= 3.0 - 5 * 0.02 - 3 / (2500 * 0.02)


def test_continuous_duel_exact_ratio_case2():
    for eps in (0.1, 0.01):
        rep = run_duel("algorithm-b", AdversaryConfig(eps=eps, variant="continuous"))
        assert rep.termination == "hit1"
        assert rep.T == round(2 / eps)
        assert abs(rep.ratio - (2 - eps / 2)) <= 1e-9


def test_scripted_case1_exact_ratio():
    eps = 0.01
    p = 150  # below 2/eps, so the trajectory peaks strictly inside (0, 1)
    labels = [TOWARD_ONE] * p + [TOWARD_ZERO] * p
    rep = run_scripted_workload(AlgorithmB(eps), labels, eps)
    assert rep.termination == "hit0"
    assert abs(rep.ratio - (2 - eps / 2)) <= 1e-9


def test_randomized_duel_report():
    rep = run_duel("random-round", AdversaryConfig(eps=0.1, variant="randomized",
                                                   n_runs=300, seed=5))
    assert rep.n_runs == 300
    assert rep.fractional_cost is not None
    assert 1.0 <= rep.ratio <= 2.0 + 1e-6
    # expected cost of rounding equals the fractional cost up to noise
    assert rep.policy_cost == pytest.approx(rep.fractional_cost, rel=0.05)


def test_randomized_duel_classifies_each_cost_object_once(monkeypatch):
    from rightsizing import adversary, randomized

    classify = randomized.classify_pull
    calls = Counter()

    def counting(f):
        calls[id(f)] += 1
        return classify(f)

    seen = {}

    def ensemble(xbar, instance, n_runs, seed):
        seen.update(xbar=list(xbar), fns=instance.functions)
        return randomized.rounding_ensemble(xbar, instance, n_runs, seed)

    monkeypatch.setattr(randomized, "classify_pull", counting)
    monkeypatch.setattr(adversary, "rounding_ensemble", ensemble)
    run_duel("random-round", AdversaryConfig(eps=0.1, variant="randomized", T=500,
                                             n_runs=10, seed=3))
    assert len(seen["fns"]) == 500
    assert sorted(calls) == sorted({id(f) for f in seen["fns"]})
    assert set(calls.values()) == {1}
    state = AlgorithmBState(0.1)
    assert seen["xbar"] == [algorithm_b_step(state, classify(f)) for f in seen["fns"]]


@pytest.mark.parametrize("policy", ["lcp", "algorithm-b", "bogus", AlgorithmB(0.1)])
def test_randomized_duel_rejects_other_policies(policy):
    with pytest.raises(ConfigError):
        run_duel(policy, AdversaryConfig(eps=0.1, variant="randomized", n_runs=10))


def test_restricted_duel_trajectory_shifts_exactly():
    # fed the embedded workload, the lazy policy on two servers walks in
    # lockstep exactly one server above its two-level twin
    from rightsizing import RestrictedLoadCost
    from rightsizing.adversary import LcpPolicy

    eps, T = 0.01, 3000
    two_level = LcpPolicy(1, 2.0)
    load_model = LcpPolicy(2, 2.0)
    state = 0
    for _ in range(T):
        lab = TOWARD_ONE if state == 0 else TOWARD_ZERO
        load = 1.0 if lab == TOWARD_ONE else 0.5
        state = two_level.step(pull_cost(lab, eps))
        shifted = load_model.step(RestrictedLoadCost(load, eps=eps,
                                                     slope_k=2.0))
        assert shifted == state + 1


def test_restricted_duel_matches_general_twin():
    rep = run_duel("lcp", AdversaryConfig(eps=0.1, variant="restricted"))
    assert rep.embedding_max_dev <= 1e-12
    corrected = (rep.policy_cost - rep.beta) / (rep.opt_cost - rep.beta)
    assert corrected == pytest.approx(rep.general_ratio, abs=1e-6)


def test_restricted_continuous_duel_matches_general_twin():
    rep = run_duel("algorithm-b", AdversaryConfig(eps=0.1, variant="restricted"))
    assert rep.embedding_max_dev <= 1e-12
    assert rep.ratio == pytest.approx(rep.general_ratio, abs=1e-6)
    assert rep.policy_cost == pytest.approx(rep.general_policy_cost, abs=1e-9)


def test_invalid_policy_variant_combinations():
    with pytest.raises(ConfigError):
        run_duel("lcp", AdversaryConfig(eps=0.1, variant="continuous"))
    with pytest.raises(ConfigError):
        run_duel("algorithm-b", AdversaryConfig(eps=0.1, variant="discrete"))
    with pytest.raises(ConfigError):
        run_duel("random-round", AdversaryConfig(eps=0.1, variant="discrete"))
    with pytest.raises(ConfigError):
        AdversaryConfig(eps=0.3, variant="discrete")
    with pytest.raises(ConfigError):
        AdversaryConfig(eps=0.1, variant="nope")


def test_duel_report_serializes():
    rep = run_duel("lcp", AdversaryConfig(eps=0.5, variant="discrete", T=20, seed=7))
    doc = rep.to_json()
    assert doc["seed"] == 7
    assert "instance" not in doc
    assert set(doc["label_counts"]) == {"toward0", "toward1"}


def test_duel_opt_below_analytic_bound_many_eps():
    for eps, T in ((0.5, 40), (0.25, 80), (0.1, 150)):
        rep = run_duel("lcp", AdversaryConfig(eps=eps, variant="discrete", T=T))
        assert rep.opt_cost <= rep.opt_bound + 1e-9


def test_general_duel_symmetric_equals_up_only():
    rep = run_duel("lcp", AdversaryConfig(eps=0.25, variant="discrete", T=60))
    inst = rep.instance
    assert inst is not None
    opt_sym = dp_optimal(inst).cost
    opt_up = dp_optimal(inst.replace(convention="up_only")).cost
    assert opt_sym == opt_up


def _dense_open_opt(rep, k: int) -> float:
    """The grid DP's open-ended optimum of a duel over the states ``j / k``:
    up-only switching at ``beta / k`` per step, and the power-down that an
    open trajectory never pays credited on the last slot."""
    grid = np.arange(k + 1) / k
    rows = [[f(float(s)) for s in grid] for f in rep.instance.functions]
    rows[-1] = [c - rep.beta / 2 * s for c, s in zip(rows[-1], grid)]
    dense = ProblemInstance(len(rows), k, rep.beta / k,
                            tuple(TableCost(row) for row in rows), convention="up_only")
    return dp_optimal(dense).cost


def test_continuous_duel_opt_matches_dense_grid():
    # the duel scores against an optimum restricted to the cost kinks
    # {0, 1}; a dense fractional grid must not find anything cheaper
    rep = run_duel("algorithm-b", AdversaryConfig(eps=0.1, variant="continuous"))
    assert abs(_dense_open_opt(rep, 40) - rep.opt_cost) <= 1e-12


def test_restricted_continuous_duel_opt_matches_dense_grid():
    # multiples of 1/40 and the load 1/32 of the default slope for eps = 0.1
    rep = run_duel("algorithm-b", AdversaryConfig(eps=0.1, variant="restricted"))
    assert rep.instance.functions[0].slope_k == 32
    assert abs(_dense_open_opt(rep, 160) - rep.opt_cost) <= 1e-12


def test_open_optimum_credits_the_unpaid_power_down():
    # Rising at once costs 1 open-ended; staying idle costs 8 * 0.25 = 2.
    rep = run_scripted_workload(AlgorithmB(0.25), [TOWARD_ONE] * 8, 0.25)
    assert rep.opt_cost == 1.0


def _exact_open_opt(fns, states, beta: float) -> Fraction:
    """The open-ended optimum over ``states``, each slot's evaluated cost
    taken as the rational it is and half of beta charged per unit moved."""
    rows = [slot_costs(fns, np.full(len(fns), float(s))).tolist() for s in states]
    half = Fraction(beta) / 2
    cur = {Fraction(0): Fraction(0)}
    for costs in zip(*rows):
        cur = {s: min(v + half * abs(s - p) for p, v in cur.items()) + Fraction(c)
               for s, c in zip(states, costs) if math.isfinite(c)}
    return min(cur.values())


@pytest.mark.parametrize("variant", ["continuous", "restricted"])
@pytest.mark.parametrize("eps", [0.02, 0.01])
def test_open_optimum_is_correctly_rounded(variant, eps):
    # Non-dyadic duels that end at the horizon: their slot costs round, so
    # only a sum taken once over the optimum's slots is correctly rounded.
    rep = run_duel("algorithm-b", AdversaryConfig(eps=eps, variant=variant, T=37))
    assert rep.termination == "horizon"
    fns = rep.instance.functions
    states = [Fraction(0), Fraction(1)]
    if variant == "restricted":
        states.insert(1, Fraction(1, int(fns[0].slope_k)))
    exact = _exact_open_opt(fns, states, rep.beta)
    assert abs(Fraction(rep.opt_cost) - exact) <= Fraction(math.ulp(float(exact))) / 2


@pytest.mark.parametrize("n_runs", [0, -3])
def test_config_needs_a_run(n_runs):
    with pytest.raises(ConfigError):
        AdversaryConfig(eps=0.1, variant="randomized", n_runs=n_runs)


def test_zero_optimum_gives_ratio_one():
    # Pulled toward 0 from the start, the policy never moves: both costs are 0.
    rep = run_scripted_workload(AlgorithmB(0.25), [TOWARD_ZERO] * 4, 0.25)
    assert (rep.policy_cost, rep.opt_cost, rep.ratio) == (0.0, 0.0, 1.0)
