import math

import numpy as np
import pytest

from conftest import random_affine_instance
from rightsizing import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AffineAbsCost,
    AlgorithmB,
    AlgorithmBState,
    ConfigError,
    DomainError,
    ProblemInstance,
    ReplayPolicy,
    ShapeError,
    TableCost,
    algorithm_b_step,
    classify_pull,
    eval_cost,
    extend_continuous,
    marginal_upper,
    randomized,
    round_step,
    rounding_ensemble,
    rounding_run,
)
from rightsizing.model import ContractError


# ---------------------------------------------------------------------------
# two-level stepping policy
# ---------------------------------------------------------------------------


def test_step_moves_half_eps():
    state = AlgorithmBState(0.5)
    assert algorithm_b_step(state, TOWARD_ONE) == 0.25


def test_step_clamps():
    state = AlgorithmBState(0.5)
    state.units = state.max_units
    assert algorithm_b_step(state, TOWARD_ONE) == 1.0
    state.units = 0
    assert algorithm_b_step(state, TOWARD_ZERO) == 0.0


def test_step_rejects_non_integer_inverse_eps():
    with pytest.raises(ConfigError):
        AlgorithmBState(0.3)


def test_state_stays_on_half_eps_grid():
    rng = np.random.default_rng(0)
    state = AlgorithmBState(0.1)
    for _ in range(500):
        lab = TOWARD_ONE if rng.random() < 0.5 else TOWARD_ZERO
        b = algorithm_b_step(state, lab)
        assert 0.0 <= b <= 1.0
        assert state.units == round(b / 0.05)


def test_classify_pull():
    assert classify_pull(AffineAbsCost(0.1, 0.0)) == TOWARD_ZERO
    assert classify_pull(AffineAbsCost(0.1, 1.0)) == TOWARD_ONE
    with pytest.raises(ConfigError):
        classify_pull(TableCost([1.0, 1.0]))


# ---------------------------------------------------------------------------
# marginals and single-step rounding
# ---------------------------------------------------------------------------


def test_marginal_upper_values():
    assert marginal_upper(0.5) == 0.5
    assert marginal_upper(3.0) == 0.0
    assert marginal_upper(1.75) == 0.75


def test_round_step_first_slot_quarter():
    rng = np.random.default_rng(1)
    hits = sum(round_step(0, 0.0, 0.25, rng) for _ in range(40_000))
    p = hits / 40_000
    assert abs(p - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 40_000)


def test_round_step_keeps_upper_state():
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert round_step(1, 0.5, 0.5, rng) == 1


def test_round_step_integral_is_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert round_step(1, 1.5, 2.0, rng) == 2


def test_round_step_validates_previous_state():
    rng = np.random.default_rng(4)
    with pytest.raises(DomainError):
        round_step(3, 1.5, 1.7, rng)


def test_round_step_descent_from_integer_projection():
    # previous fractional state above the ceiling: the projection is the
    # ceiling itself and the drop probability must equal 1 - frac
    rng = np.random.default_rng(5)
    hits = sum(round_step(2, 2.0, 1.25, rng) == 2 for _ in range(40_000))
    p = hits / 40_000
    assert abs(p - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 40_000)


# ---------------------------------------------------------------------------
# whole-run rounding
# ---------------------------------------------------------------------------


def _fractional_walk(rng, T, m):
    walk = np.clip(np.cumsum(rng.uniform(-0.7, 0.7, size=T)) + m / 2, 0.03, m - 0.03)
    return np.where(np.abs(walk - np.round(walk)) < 1e-9, walk + 0.21, walk)


def test_two_slot_exact_expectation():
    inst = ProblemInstance(2, 1, 1.0, (TableCost([0.3, 0.9]), TableCost([0.1, 0.4])))
    xbar = [0.5, 0.5]
    frac = extend_continuous(inst).cost(xbar).total
    low = eval_cost(inst, [0, 0]).total
    high = eval_cost(inst, [1, 1]).total
    assert 0.5 * (low + high) == pytest.approx(frac, rel=1e-12)
    # runs only ever realize those two outcomes
    for seed in range(30):
        res = rounding_run(xbar, inst, seed)
        assert list(res.schedule) in ([0, 0], [1, 1])


def test_rounding_run_is_deterministic_per_seed():
    rng = np.random.default_rng(6)
    inst = random_affine_instance(rng, 12, 3)
    xbar = _fractional_walk(rng, 12, 3)
    a = rounding_run(xbar, inst, seed=99)
    b = rounding_run(xbar, inst, seed=99)
    assert np.array_equal(a.schedule, b.schedule)
    assert a.cost.total == b.cost.total


def test_rounding_run_integral_schedule_is_identity():
    rng = np.random.default_rng(7)
    inst = random_affine_instance(rng, 5, 3)
    xbar = [0.0, 1.0, 3.0, 2.0, 2.0]
    res = rounding_run(xbar, inst, seed=0)
    assert list(res.schedule) == [0, 1, 3, 2, 2]
    assert res.cost.total == res.fractional_cost.total


def test_support_law():
    rng = np.random.default_rng(8)
    inst = random_affine_instance(rng, 20, 4)
    xbar = _fractional_walk(rng, 20, 4)
    for seed in range(25):
        res = rounding_run(xbar, inst, seed)
        assert np.all((res.schedule == np.floor(xbar)) | (res.schedule == np.ceil(xbar)))


def test_ensemble_matches_scalar_path():
    rng = np.random.default_rng(9)
    inst = random_affine_instance(rng, 15, 3)
    inst = inst.replace(beta=1.25)
    xbar = _fractional_walk(rng, 15, 3)
    for seed in (0, 1, 2):
        scalar = rounding_run(xbar, inst, seed)
        ens = rounding_ensemble(xbar, inst, 1, seed)
        assert ens.costs[0] == pytest.approx(scalar.cost.total, rel=1e-12)


def test_ensemble_marginals_and_preservation():
    rng = np.random.default_rng(10)
    inst = random_affine_instance(rng, 30, 3)
    xbar = _fractional_walk(rng, 30, 3)
    n = 30_000
    ens = rounding_ensemble(xbar, inst, n, seed=11)
    frac = np.mod(xbar, 1.0)
    sigma = np.sqrt(frac * (1 - frac) / n)
    assert np.all(np.abs(ens.upper_frequency - frac) <= 3 * sigma + 1e-12)
    target = extend_continuous(inst).cost(xbar).total
    assert ens.costs.mean() == pytest.approx(target, rel=0.01)


def test_ensemble_marginals_with_large_jumps():
    # slots that hop across several integers exercise the projection of
    # the previous state onto the new floor/ceiling interval
    rng = np.random.default_rng(11)
    T, m, n = 25, 5, 40_000
    inst = random_affine_instance(rng, T, m, beta=1.0)
    walk = np.clip(np.cumsum(rng.uniform(-2.5, 2.5, T)) + 2.5, 0.05, m - 0.05)
    walk = np.where(np.abs(walk - np.round(walk)) < 1e-9, walk + 0.31, walk)
    ens = rounding_ensemble(walk, inst, n, seed=12)
    frac = np.mod(walk, 1.0)
    sigma = np.sqrt(frac * (1 - frac) / n)
    assert np.all(np.abs(ens.upper_frequency - frac) <= 3 * sigma + 1e-12)
    target = extend_continuous(inst).cost(walk).total
    assert ens.costs.mean() == pytest.approx(target, rel=0.01)


def _scalar_transitions(xbar):
    """The per-slot loop over ``_transition`` that ``_transitions`` replaced."""
    p = np.empty(xbar.size)
    direction = np.empty(xbar.size, dtype=np.int8)
    prev = 0.0
    for t, cur in enumerate(xbar.tolist()):
        _, _, p[t], direction[t] = randomized._transition(prev, cur)
        prev = cur
    return p, direction


def _transition_walk(rng, i):
    T, m = int(rng.integers(1, 60)), int(rng.integers(1, 9))
    step = (0.3, 1.6, 5.0)[i % 3]  # the widest jumps cross several integers
    walk = np.clip(np.cumsum(rng.uniform(-step, step, T)) + m / 2, 0.0, m)
    kind = rng.integers(0, 5, T)
    walk = np.where(kind == 0, np.round(walk), walk)
    walk = np.where(kind == 1, np.round(walk * 8) / 8, walk)
    walk = np.where(kind == 2, np.nextafter(np.round(walk), walk), walk)
    for t in np.flatnonzero(kind[1:] == 3) + 1:
        walk[t] = walk[t - 1]
    return walk


def test_transitions_match_the_scalar_transition_bit_for_bit():
    rng = np.random.default_rng(16)
    for i in range(1000):
        xbar = _transition_walk(rng, i)
        p, direction = randomized._transitions(xbar)
        ref_p, ref_direction = _scalar_transitions(xbar)
        assert np.array_equal(p.view(np.uint64), ref_p.view(np.uint64))
        assert np.array_equal(direction, ref_direction)


def test_transitions_name_the_first_slot_past_the_slack(monkeypatch):
    # No schedule in [0, m] takes a probability past the slack by more than
    # rounding, so a negative slack stands in for one: only probabilities in
    # [0.3, 0.7] pass.  Slots 0 and 1 move up with 0.5, slot 2 down with 11/12.
    monkeypatch.setattr(randomized, "_PROB_SLACK", -0.3)
    xbar = np.array([0.5, 0.75, 0.0625, 0.5])
    with pytest.raises(ContractError, match="slot 2"):
        randomized._transitions(xbar)
    with pytest.raises(ContractError):
        _scalar_transitions(xbar)


def test_replay_policy_feeds_schedule_through():
    rng = np.random.default_rng(12)
    inst = random_affine_instance(rng, 6, 2)
    xbar = _fractional_walk(rng, 6, 2)
    res = rounding_run(ReplayPolicy(xbar), inst, seed=3)
    assert np.allclose(res.xbar, xbar)


def test_policy_emitting_out_of_range_is_caught():
    rng = np.random.default_rng(13)
    inst = random_affine_instance(rng, 2, 1)
    with pytest.raises(ContractError):
        rounding_run(ReplayPolicy([0.5, 4.0]), inst, seed=0)


@pytest.mark.parametrize("xbar", [[0.5], [0.5, 0.5, 0.5, 0.5]])
def test_rounding_run_rejects_a_schedule_of_the_wrong_length(xbar):
    inst = random_affine_instance(np.random.default_rng(14), 3, 1)
    with pytest.raises(ShapeError):
        rounding_run(xbar, inst, seed=0)


def test_rounding_run_under_the_symmetric_convention():
    rng = np.random.default_rng(15)
    inst = random_affine_instance(rng, 8, 2).replace(convention="symmetric")
    xbar = _fractional_walk(rng, 8, 2)
    res = rounding_run(xbar, inst, seed=4)
    assert res.cost == eval_cost(inst, res.schedule)
    assert res.fractional_cost == extend_continuous(inst).cost(xbar)


def test_algorithm_b_policy_against_pull_functions():
    policy = AlgorithmB(0.5)
    assert policy.step(AffineAbsCost(1.0, 1.0)) == 0.25
    assert policy.step(AffineAbsCost(1.0, 1.0)) == 0.5
    assert policy.step(AffineAbsCost(1.0, 0.0)) == 0.25
    assert policy.fractional_state == 0.25


@pytest.mark.parametrize("kind,xbar", [("affine_abs", [5.5, -1.5]),
                                       ("table", [-0.5, 1.0]),
                                       ("table", [5.5, 1.0]),
                                       ("table", [math.nan, 1.0])])
def test_ensemble_rejects_states_outside_the_fleet(kind, xbar):
    # A negative floor would read a table from its end, one past m fails to
    # index it, and the closed forms would extrapolate past the fleet.
    if kind == "table":
        fns = (TableCost([4.0, 2.0, 1.0, 2.0, 4.0]),) * 2
    else:
        fns = (AffineAbsCost(1.0, 0.0), AffineAbsCost(2.0, 3.0))
    inst = ProblemInstance(2, 4, 1.0, fns)
    with pytest.raises(DomainError):
        rounding_ensemble(xbar, inst, 4, seed=0)


@pytest.mark.parametrize("n_runs", [0, -3])
def test_ensemble_needs_a_run(n_runs):
    inst = ProblemInstance(2, 1, 1.0, (AffineAbsCost(1.0, 0.0),) * 2)
    with pytest.raises(ConfigError):
        rounding_ensemble([0.5, 0.5], inst, n_runs, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_rounding_rejects_a_negative_seed(seed):
    inst = ProblemInstance(2, 1, 1.0, (AffineAbsCost(1.0, 0.0),) * 2)
    with pytest.raises(ConfigError, match="seed"):
        rounding_ensemble([0.5, 0.5], inst, 4, seed)
    with pytest.raises(ConfigError, match="seed"):
        rounding_run([0.5, 0.5], inst, seed)
