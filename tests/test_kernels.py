"""The compiled full-grid DP and rounding-ensemble kernels against their
numpy twins and against the per-slot reference loops they replaced.

Each test runs the public entry point twice, once as installed (the C
kernels when a compiler works) and once with ``kernels.load`` patched to
report no library, so both paths are checked on every machine.
"""

import itertools

import numpy as np
import pytest

from conftest import convex_table, random_affine_instance, random_table_instance
from rightsizing import (
    DomainError,
    InfeasibleError,
    ProblemInstance,
    RestrictedLoadCost,
    TableCost,
    dp_optimal,
    kernels,
    lcp_run,
    offline,
    randomized,
    rounding_ensemble,
    solve_poly,
)
from rightsizing.model import ContractError, switching_cost


@pytest.fixture
def paths(monkeypatch):
    """Runs a callable on the installed kernels and on the numpy twins."""

    def run(fn, *args):
        out = fn(*args)
        with monkeypatch.context() as m:
            m.setattr(kernels, "load", lambda: None)
            return out, fn(*args)

    return run


# ---------------------------------------------------------------------------
# full-grid DP
# ---------------------------------------------------------------------------


def _grid_passes(instance):
    """The backward value table and the schedule of ``offline._dp_grid``,
    from the same block kernels, so the tables can be compared bit for bit."""
    states = instance.allowed_states()
    sf = states.astype(np.float64)
    ramp = instance.beta * sf
    T, n = instance.T, states.size
    F = offline.evaluate_rows(instance.functions, np.broadcast_to(states, (T, n)))
    H = np.empty((T, n))
    H[T - 1] = 0.0
    # Uneven blocks, one slot at the end, exercise the block bookkeeping.
    sizes = itertools.cycle([3, 1, 2])
    t = T - 1
    while t > 0:
        b = min(next(sizes), t)
        offline._grid_backward(F[t - b + 1:t + 1][::-1], H, t, ramp)
        t -= b
    x = np.empty(T, dtype=np.int64)
    finite = [offline._grid_forward(F[t:t + 2], H, t, states, sf, instance.beta, x)
              for t in range(0, T, 2)]
    return H, x, finite[0]


def _grid_instances():
    rng = np.random.default_rng(41)
    out = []
    for T, m in [(1, 1), (1, 6), (2, 1), (7, 2), (40, 1), (33, 9), (17, 30)]:
        out.append(random_affine_instance(rng, T, m))
        out.append(random_table_instance(rng, T, m))
    # integer data, rich in ties that the first argmin must break alike
    out.append(random_table_instance(rng, 25, 4, beta=1.0, integer=True))
    out.append(random_table_instance(rng, 30, 2, beta=2.0, integer=True))
    # a coarser grid of allowed states
    out.append(random_table_instance(rng, 12, 12).replace(allowed_step=3))
    out.append(random_affine_instance(rng, 9, 20).replace(allowed_step=4))
    # restricted slots, whose states below the load cost +inf
    loads = rng.uniform(0.0, 5.0, size=20)
    out.append(ProblemInstance(20, 6, 0.75, tuple(
        RestrictedLoadCost(float(v), eps=0.5, slope_k=2.0) for v in loads)))
    # NaN entries, built in code, count as +inf; -0.0 entries
    tables = [convex_table(rng, 4).values.copy() for _ in range(15)]
    for i, v in enumerate(tables):
        if i % 3 == 0:
            v[i % 5] = np.nan
        elif i % 3 == 1:
            v[0] = -0.0
    out.append(ProblemInstance(15, 4, 1.5, tuple(TableCost(v) for v in tables)))
    return out


def test_minus_inf_cost_is_a_domain_error(monkeypatch):
    # -inf next to +inf would make inf - inf sums; every solver rejects it
    # before a kernel runs, compiled or numpy.
    inf = np.inf
    inst = ProblemInstance(4, 3, 1.0, (TableCost([1.0, 0.0, 2.0, 3.0]),
                                       TableCost([inf, -inf, 1.0, inf]),
                                       TableCost([0.0, inf, 1.0, 2.0]),
                                       TableCost([2.0, 1.0, -inf, 0.0])))
    for load in (kernels.load, lambda: None):
        monkeypatch.setattr(kernels, "load", load)
        for solve in (dp_optimal, solve_poly, lcp_run):
            with pytest.raises(DomainError):
                solve(inst)


def test_kernel_costs_maps_nan_and_rejects_minus_inf():
    inf = np.inf
    clean = np.array([[0.0, 1.5, inf], [-0.0, 2.0, 3.0]])
    assert offline._kernel_costs(clean) is clean
    F = np.array([[np.nan, 1.5, inf], [2.0, np.nan, 0.0]])
    assert offline._kernel_costs(F).tolist() == [[inf, 1.5, inf], [2.0, inf, 0.0]]
    with pytest.raises(DomainError):
        offline._kernel_costs(np.array([1.0, np.nan, -inf]))


@pytest.mark.parametrize("instance", _grid_instances())
def test_grid_kernels_match_numpy_twin_bit_for_bit(paths, instance):
    (H, x, ok), (H_np, x_np, ok_np) = paths(_grid_passes, instance)
    assert np.array_equal(H.view(np.int64), H_np.view(np.int64))
    assert np.array_equal(x, x_np)
    assert ok == ok_np
    # A -0.0 cost always meets the +0.0 of the last value row or of a ramp,
    # so every zero in the table is +0.0 and the zero np.minimum picks on a
    # tie never shows.
    assert not np.signbit(H[H == 0]).any()
    if ok:
        a, b = paths(dp_optimal, instance)
        assert np.array_equal(a.schedule, x) and np.array_equal(b.schedule, x)
        assert a.cost == b.cost


def test_grid_dp_matches_window_kernel_across_uneven_blocks(paths):
    # n = 1000 states give 65 slots per block, so both passes end on a short
    # block; the window kernel over every state is the reference.
    rng = np.random.default_rng(42)
    n_states = 1000
    assert offline._DP_BLOCK_CELLS // n_states == 65
    for make in (random_affine_instance, random_table_instance):
        inst = make(rng, 150, n_states - 1)
        a, b = paths(dp_optimal, inst)
        ref = dp_optimal(inst, columns=np.tile(np.arange(n_states), (inst.T, 1)))
        assert np.array_equal(a.schedule, ref.schedule)
        assert np.array_equal(b.schedule, ref.schedule)


def test_grid_dp_reports_an_infeasible_first_slot(monkeypatch):
    inst = ProblemInstance(2, 1, 1.0, (TableCost([np.inf, np.nan]), TableCost([0.0, 1.0])))
    with pytest.raises(InfeasibleError):
        dp_optimal(inst)
    monkeypatch.setattr(kernels, "load", lambda: None)
    with pytest.raises(InfeasibleError):
        dp_optimal(inst)


# ---------------------------------------------------------------------------
# rounding ensemble
# ---------------------------------------------------------------------------


def _ensemble_reference(xbar, instance, n_runs, seed):
    """The per-slot loop the kernel replaced: one ``rng.random(n_runs)`` per
    slot, deterministic slots included."""
    arr = np.asarray(xbar, dtype=np.float64)
    S = np.stack([np.floor(arr), np.ceil(arr)], axis=1).astype(np.int64)
    F = offline.evaluate_rows(instance.functions, S)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs)
    ups = np.zeros(n_runs, dtype=np.int64)
    downs = np.zeros(n_runs, dtype=np.int64)
    upper = np.empty(instance.T)
    prev = 0.0
    for t, ((lo, hi), (f_lo, f_hi)) in enumerate(zip(S, F)):
        u = rng.random(n_runs)
        x_new = randomized._advance(x, *randomized._transition(prev, float(arr[t])), u)
        operating += np.where(x_new == hi, f_hi, f_lo)
        d = x_new - x
        ups += np.maximum(d, 0)
        downs += np.maximum(-d, 0)
        upper[t] = float(np.mean(x_new > lo))
        x = x_new
        prev = float(arr[t])
    downs += x
    switching = switching_cost(instance.beta, instance.convention, ups, ups + downs)
    return operating + switching, upper


def _ensemble_cases():
    rng = np.random.default_rng(43)
    cases = []
    # Blocks of 23 and 4 slots at 700 and 4000 runs leave a short last block;
    # 20 000 and 70 000 runs take one slot per block.
    for T, m, n_runs in [(1, 1, 5), (9, 1, 1), (50, 3, 700), (41, 2, 4000),
                         (6, 4, 20_000), (3, 2, 70_000)]:
        inst = random_affine_instance(rng, T, m)
        # clipping to the fleet's ends and rounding every fourth slot give
        # integral slots, whose moves are deterministic
        walk = np.clip(np.cumsum(rng.uniform(-1.6, 1.6, T)) + m / 2, 0.0, m)
        walk[::4] = np.round(walk[::4])
        cases.append((walk, inst, n_runs))
    tables = random_table_instance(rng, 30, 5)
    cases.append((rng.uniform(0.0, 5.0, 30), tables, 333))
    return cases


@pytest.mark.parametrize("xbar,instance,n_runs", _ensemble_cases())
def test_ensemble_kernel_matches_per_slot_reference(paths, xbar, instance, n_runs):
    costs, upper = _ensemble_reference(xbar, instance, n_runs, seed=17)
    a, b = paths(rounding_ensemble, xbar, instance, n_runs, 17)
    for ens in (a, b):
        assert np.array_equal(ens.costs, costs)
        assert np.array_equal(ens.upper_frequency, upper)


def test_ensemble_cases_cover_each_move_and_one_slot_blocks():
    cases = _ensemble_cases()
    moves = {d for xbar, _, _ in cases for d in randomized._transitions(xbar)[1].tolist()}
    assert moves == {-1, 0, 1}
    assert max(n for _, _, n in cases) > offline._DP_BLOCK_CELLS > randomized._DRAW_BLOCK_CELLS


def test_out_of_range_probability_raises_contract_error():
    with pytest.raises(ContractError):
        randomized._checked_prob(1.5)
    with pytest.raises(ContractError):
        randomized._checked_prob(-1e-6)
    assert randomized._checked_prob(1.0 + 1e-12) == 1.0
    assert randomized._checked_prob(-1e-12) == 0.0
