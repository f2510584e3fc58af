import numpy as np
import pytest

from conftest import random_affine_instance, random_table_instance
from rightsizing import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AffineAbsCost,
    ConfigError,
    LcpPolicy,
    ProblemInstance,
    RestrictedLoadCost,
    ShapeError,
    TableCost,
    backward_optimal,
    dp_optimal,
    eval_cost,
    lcp_init,
    lcp_run,
    lcp_step,
    pull_cost,
)

REL = 1e-9


def _table_twin(f, m):
    return TableCost(f.eval_grid(np.arange(m + 1)))


def _twin_decisions(inst):
    """The decisions on the slots' table twins, which keep dense reach costs."""
    state = lcp_init(inst.m, inst.beta)
    return [lcp_step(state, _table_twin(f, inst.m)) for f in inst.functions]


def test_init_ramp():
    # A fresh state holds the ramp beta * x as slopes alone; a zero-cost
    # table turns them into the dense ramp, which the climb step keeps.
    for m, beta, ramp in ((1, 1.0, [0.0, 1.0]), (3, 2.0, [0.0, 2.0, 4.0, 6.0])):
        state = lcp_init(m, beta)
        assert (state.base, state.total, state.reach_costs) == (beta, beta, None)
        lcp_step(state, TableCost([0.0] * (m + 1)))
        assert list(state.reach_costs) == ramp
    assert lcp_init(4, 1.0).x_lcp == 0


def test_init_rejects_bad_params():
    with pytest.raises(ConfigError):
        lcp_init(0, 1.0)
    with pytest.raises(ConfigError):
        lcp_init(2, 0.0)
    # The fleet limit guards the dense array, so it applies at its first
    # step, not to slope-form steps.
    m = 1 << 21
    state = lcp_init(m, 1.0)
    d = lcp_step(state, AffineAbsCost(1.0, m - 0.5))
    assert (d.lower, d.upper, d.chosen) == (0, m, 0)
    with pytest.raises(ConfigError):
        lcp_step(state, RestrictedLoadCost(1.0, eps=1.0, slope_k=2.0))


def test_two_step_hand_trace():
    affine = lcp_init(1, 1.0)
    table = lcp_init(1, 1.0)
    f = AffineAbsCost(1.0, 1.0)
    expected = [([1.0, 1.0], (0, 1, 0)), ([2.0, 1.0], (1, 1, 1))]
    for reach, band in expected:
        d = lcp_step(affine, f)
        assert (d.lower, d.upper, d.chosen) == band
        d = lcp_step(table, _table_twin(f, 1))
        assert list(table.reach_costs) == reach
        assert (d.lower, d.upper, d.chosen) == band
    assert affine.reach_costs is None


def test_idle_workload_stays_down():
    state = lcp_init(3, 1.0)
    for _ in range(5):
        d = lcp_step(state, TableCost([0, 0, 0, 0]))
        assert d.lower == 0
        assert d.chosen == 0


def test_backward_optimal_hand_case():
    x = backward_optimal([(0, 1), (1, 1)])
    assert list(x) == [1, 1]


def test_backward_optimal_requires_history():
    with pytest.raises(ShapeError):
        backward_optimal([])
    with pytest.raises(ShapeError):
        backward_optimal([(0, 1)], T=2)


def test_run_example_costs():
    inst = ProblemInstance(2, 1, 1.0, (AffineAbsCost(1.0, 1.0), AffineAbsCost(1.0, 1.0)))
    trace = lcp_run(inst)
    assert list(trace.schedule) == [0, 1]
    assert trace.cost.total == 2.0
    opt = dp_optimal(inst).cost
    assert opt == 1.0
    assert trace.cost.total <= 3.0 * opt


def test_run_requires_up_only():
    inst = ProblemInstance(1, 1, 1.0, (TableCost([0, 0]),), convention="symmetric")
    with pytest.raises(ConfigError):
        lcp_run(inst)


def test_converges_to_fixed_minimizer():
    target = 5
    fns = tuple(TableCost([10.0 * abs(x - target) for x in range(9)]) for _ in range(20))
    inst = ProblemInstance(20, 8, 1.0, fns)
    trace = lcp_run(inst)
    assert trace.schedule[-1] == target
    assert trace.cost.total <= 3.0 * dp_optimal(inst).cost + REL


def _independent_upper_costs(m, beta, functions):
    """Power-down-charged costs via their own recurrence (test oracle)."""
    cu = np.zeros(m + 1)
    out = []
    for f in functions:
        new = np.empty(m + 1)
        for x in range(m + 1):
            best = min(cu[xp] + beta * max(xp - x, 0) for xp in range(m + 1))
            new[x] = best + f(x)
        cu = new
        out.append(cu.copy())
    return out


def test_upper_costs_match_shifted_reach_costs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        T = int(rng.integers(1, 12))
        m = int(rng.integers(1, 8))
        inst = random_table_instance(rng, T, m)
        state = lcp_init(m, inst.beta)
        uppers = _independent_upper_costs(m, inst.beta, inst.functions)
        xs = np.arange(m + 1)
        for f, cu in zip(inst.functions, uppers):
            lcp_step(state, f)
            assert np.allclose(state.reach_costs - inst.beta * xs, cu,
                               rtol=1e-9, atol=1e-9)


def test_band_and_structure_invariants():
    rng = np.random.default_rng(22)
    for _ in range(60):
        T = int(rng.integers(1, 31))
        m = int(rng.integers(1, 17))
        inst = random_table_instance(rng, T, m)
        state = lcp_init(m, inst.beta)
        for f in inst.functions:
            d = lcp_step(state, f)
            assert d.lower <= d.chosen <= d.upper
            cl = state.reach_costs
            second = cl[2:] - 2 * cl[1:-1] + cl[:-2]
            assert np.all(second >= -1e-9 * np.maximum(1.0, np.abs(cl[1:-1])))
            if d.upper >= 1:
                assert cl[d.upper] - cl[d.upper - 1] <= inst.beta + 1e-9
            if d.upper + 1 <= m:
                assert cl[d.upper + 1] - cl[d.upper] >= inst.beta - 1e-9


def test_reference_schedule_is_sandwiched_and_optimal():
    rng = np.random.default_rng(23)
    for _ in range(40):
        T = int(rng.integers(1, 31))
        m = int(rng.integers(1, 17))
        inst = random_table_instance(rng, T, m)
        trace = lcp_run(inst)
        ref = backward_optimal(trace.decisions, T=T)
        for d, xs in zip(trace.decisions, ref):
            assert d.lower <= xs <= d.upper
        opt = dp_optimal(inst).cost
        ref_cost = eval_cost(inst, ref).total
        assert abs(ref_cost - opt) <= REL * max(1.0, opt)


def test_monotone_segments_and_switching_dominance():
    rng = np.random.default_rng(24)
    for _ in range(40):
        T = int(rng.integers(2, 31))
        m = int(rng.integers(1, 12))
        inst = random_table_instance(rng, T, m)
        trace = lcp_run(inst)
        ref = backward_optimal(trace.decisions, T=T)
        lcp = trace.schedule
        # between meetings, both trajectories drift the same way
        full_l = np.concatenate(([0], lcp))
        full_r = np.concatenate(([0], ref))
        meet = [t for t in range(T + 1) if full_l[t] == full_r[t]]
        for a, b in zip(meet, meet[1:]):
            seg_l = full_l[a:b + 1]
            seg_r = full_r[a:b + 1]
            inner_l = full_l[a + 1:b]
            inner_r = full_r[a + 1:b]
            if inner_l.size == 0:
                continue
            if np.all(inner_l > inner_r):
                assert np.all(np.diff(seg_l[1:]) <= 0)
                assert np.all(np.diff(seg_r[1:]) <= 0)
            elif np.all(inner_l < inner_r):
                assert np.all(np.diff(seg_l[1:]) >= 0)
                assert np.all(np.diff(seg_r[1:]) >= 0)
        ups = lambda x: float(np.maximum(np.diff(np.concatenate(([0], x))), 0).sum())  # noqa: E731
        assert inst.beta * ups(lcp) <= inst.beta * ups(ref) + REL


def test_three_competitive_on_random_suite():
    rng = np.random.default_rng(25)
    for _ in range(60):
        T = int(rng.integers(1, 40))
        m = int(rng.integers(1, 20))
        inst = random_table_instance(rng, T, m)
        trace = lcp_run(inst)
        opt = dp_optimal(inst).cost
        assert trace.cost.total <= 3.0 * opt + 1e-9


def test_nan_cost_counts_as_infinite():
    inst = ProblemInstance(3, 2, 1.0, (TableCost([0, np.nan, 1]), TableCost([2, 0, 2]),
                                       TableCost([2, 0, 2])))
    trace = lcp_run(inst)
    assert list(trace.schedule) == [0, 1, 1]
    assert trace.cost.total == 1.0
    assert list(dp_optimal(inst).schedule) == [0, 1, 1]


def test_breakpoint_path_only_for_slope_forms():
    # The state keeps slopes while every slot has a slope form, and turns
    # dense for good at the first slot without one.
    affine = AffineAbsCost(1.0, 1.5)
    state = lcp_init(3, 1.0)
    lcp_step(state, affine)
    lcp_step(state, affine)
    assert state.reach_costs is None
    for other in (TableCost([1, 0, 0, 1]), RestrictedLoadCost(1.0, eps=1.0, slope_k=2.0)):
        state = lcp_init(3, 1.0)
        lcp_step(state, affine)
        lcp_step(state, other)
        assert state.reach_costs is not None
        lcp_step(state, affine)
        assert state.reach_costs is not None


def test_lcp_policy_never_builds_the_dense_array():
    policy = LcpPolicy(1, 2.0)
    for t in range(200):
        policy.step(pull_cost(TOWARD_ONE if t % 3 else TOWARD_ZERO, 0.25))
    assert policy._state.reach_costs is None
    assert len(policy._state.history) == 200


def test_breakpoint_bands_match_dense_on_real_valued_instances():
    rng = np.random.default_rng(26)
    for m in (1, 2, 7, 64, 300):
        for _ in range(8):
            T = int(rng.integers(1, 120))
            inst = random_affine_instance(rng, T, m)
            # centres beyond [0, m] fold into the slope at 0 or drop out
            fns = tuple(AffineAbsCost(f.eps, f.center * 1.4 - 0.2 * m) for f in inst.functions)
            inst = inst.replace(functions=fns)
            fast = lcp_run(inst).decisions
            assert fast == _twin_decisions(inst)
            opt = dp_optimal(inst).cost
            rebuilt = eval_cost(inst, backward_optimal(fast)).total
            assert abs(rebuilt - opt) <= REL * max(1.0, opt)


def test_breakpoint_path_has_no_fleet_cap():
    m = (1 << 22) + 5
    inst = ProblemInstance(3, m, 1.0, (AffineAbsCost(1.0, m - 0.5),) * 3)
    trace = lcp_run(inst)
    assert [(d.lower, d.upper) for d in trace.decisions] == [(0, m), (m - 1, m), (m - 1, m)]
    assert list(trace.schedule) == [0, m - 1, m - 1]


def _bands(decisions):
    return [(d.lower, d.upper) for d in decisions]


def test_bands_do_not_depend_on_the_cost_scale():
    # Integer data ties exactly; scaled by 1e9/3 those ties are off by
    # rounding, far below the tolerance relative to beta.
    rng = np.random.default_rng(27)
    scale = 1e9 / 3
    for _ in range(200):
        T, m = int(rng.integers(5, 41)), int(rng.integers(2, 21))
        fns = tuple(AffineAbsCost(float(rng.integers(1, 6)), float(rng.integers(0, m + 1)))
                    for _ in range(T))
        inst = ProblemInstance(T, m, float(rng.integers(1, 11)), fns)
        big = inst.replace(beta=inst.beta * scale, functions=tuple(
            AffineAbsCost(f.eps * scale, f.center) for f in fns))
        bands = _bands(lcp_run(inst).decisions)
        assert _bands(lcp_run(big).decisions) == bands
        assert _bands(_twin_decisions(big)) == bands


def _check_slope_state(state):
    keys, weight = state.keys, state.weight
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(0 < x < state.m for x in keys)
    assert keys == sorted(weight)
    assert all(np.isfinite(w) and w > 0.0 for w in weight.values())


def _shared_position_instance(rng, T, m):
    # Integer and half-integer centres put several breakpoints on one state.
    fns = tuple(AffineAbsCost(float(rng.integers(1, 4)) / 2, float(rng.integers(-2, 2 * m + 3)) / 2)
                for _ in range(T))
    return ProblemInstance(T, m, float(rng.integers(1, 9)) / 2, fns)


def test_slope_state_invariants_after_every_step():
    rng = np.random.default_rng(28)
    for i in range(120):
        T, m = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        if i % 2:
            inst = _shared_position_instance(rng, T, m)
        else:
            inst = random_affine_instance(rng, T, m)
        state = lcp_init(m, inst.beta)
        for f in inst.functions:
            lcp_step(state, f)
            _check_slope_state(state)


def test_merged_weights_match_dense_on_shared_positions():
    rng = np.random.default_rng(29)
    for _ in range(150):
        T, m = int(rng.integers(1, 60)), int(rng.integers(1, 24))
        inst = _shared_position_instance(rng, T, m)
        assert lcp_run(inst).decisions == _twin_decisions(inst)


def test_bands_match_dense_with_thousands_of_live_breakpoints():
    # eps far below beta: the climb step caps almost no slope, so nearly
    # every breakpoint stays live.
    rng = np.random.default_rng(30)
    T, m = 3000, 4096
    fns = tuple(AffineAbsCost(float(e), float(c))
                for e, c in zip(rng.uniform(1e-3, 2e-3, T), rng.uniform(0, m, T)))
    inst = ProblemInstance(T, m, 4.0, fns)
    state = lcp_init(m, inst.beta)
    decisions, most = [], 0
    for f in fns:
        decisions.append(lcp_step(state, f))
        most = max(most, len(state.keys))
    assert most > 1000
    _check_slope_state(state)
    assert decisions == _twin_decisions(inst)


def test_state_turns_dense_after_shared_positions():
    # A table slot mid-run builds the dense reach costs from the merged
    # weights; the bands and moves then match the all-table run.
    rng = np.random.default_rng(31)
    for _ in range(150):
        T, m = int(rng.integers(3, 50)), int(rng.integers(1, 24))
        inst = _shared_position_instance(rng, T, m)
        t = int(rng.integers(1, T))
        fns = list(inst.functions)
        fns[t] = _table_twin(fns[t], m)
        inst = inst.replace(functions=tuple(fns))
        assert lcp_run(inst).decisions == _twin_decisions(inst)
