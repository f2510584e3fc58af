"""Property tests: the exact solvers agree with each other and with the
offline schedule rebuilt from the lazy policy's bands, and the lazy policy
stays within three times the optimum.  Rounding puts each slot on the
ceiling of a fractional schedule with probability equal to its fractional
part.

Dyadic instances (every cost and the switching constant a multiple of a
small power of two) make every sum exact, so equality is claimed there;
load-model slots bring in non-dyadic values and a relative tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rightsizing import (
    AffineAbsCost,
    ProblemInstance,
    RestrictedLoadCost,
    TableCost,
    backward_optimal,
    dp_optimal,
    eval_cost,
    lcp_init,
    lcp_run,
    lcp_step,
    rounding_ensemble,
    solve_poly,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
REL = 1e-9


def dyadic_affine(m):
    return st.builds(lambda e, c: AffineAbsCost(e / 8.0, c / 4.0),
                     st.integers(1, 16), st.integers(0, 4 * m))


@st.composite
def dyadic_slot(draw, m):
    if draw(st.booleans()):
        # convex table: cumulative sums of sorted slopes, in eighths
        slopes = sorted(draw(st.lists(st.integers(-16, 16), min_size=m, max_size=m)))
        vals = np.concatenate(([0], np.cumsum(slopes)))
        return TableCost((vals - vals.min() + draw(st.integers(0, 8))) / 8.0)
    return draw(dyadic_affine(m))


@st.composite
def instances(draw, restricted=False):
    T = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    beta = draw(st.integers(1, 32)) / 8.0
    fns = []
    for _ in range(T):
        if restricted and draw(st.booleans()):
            fns.append(RestrictedLoadCost(draw(st.floats(0.0, float(m))),
                                          eps=draw(st.floats(0.1, 2.0)),
                                          slope_k=draw(st.floats(0.5, 3.0))))
        else:
            fns.append(draw(dyadic_slot(m)))
    return ProblemInstance(T, m, beta, tuple(fns))


def solver_costs(inst):
    """Cost of the window solver, the full-grid DP, and the schedule that
    ``backward_optimal`` rebuilds from the lazy policy's bands."""
    bands = backward_optimal(lcp_run(inst).decisions)
    return solve_poly(inst).cost, dp_optimal(inst).cost, eval_cost(inst, bands).total


@PROPERTY
@given(instances())
def test_exact_solvers_and_bands_agree_exactly_on_dyadic_data(inst):
    poly, grid, bands = solver_costs(inst)
    assert poly == grid == bands


@PROPERTY
@given(instances(restricted=True))
def test_exact_solvers_and_bands_agree_with_load_slots(inst):
    poly, grid, bands = solver_costs(inst)
    assert abs(poly - grid) <= REL * max(1.0, grid)
    assert abs(bands - grid) <= REL * max(1.0, grid)


@st.composite
def affine_instances(draw):
    T = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    beta = draw(st.integers(1, 32)) / 8.0
    return ProblemInstance(T, m, beta, tuple(draw(dyadic_affine(m)) for _ in range(T)))


def twin_decisions(inst):
    """Decisions on the slots' table twins, whose reach costs stay dense."""
    state = lcp_init(inst.m, inst.beta)
    xs = np.arange(inst.m + 1)
    return [lcp_step(state, TableCost(f.eval_grid(xs))) for f in inst.functions]


@PROPERTY
@given(affine_instances())
def test_breakpoint_and_dense_lcp_agree_exactly_on_dyadic_data(inst):
    fast = lcp_run(inst).decisions
    assert fast == twin_decisions(inst)
    assert eval_cost(inst, backward_optimal(fast)).total == dp_optimal(inst).cost


@st.composite
def mixed_instances(draw):
    """Dyadic ``affine_abs``, ``table`` and ``restricted`` slots in any order."""
    T = draw(st.integers(1, 16))
    m = draw(st.integers(1, 12))
    beta = draw(st.integers(1, 32)) / 8.0
    restricted = st.builds(lambda load, e, k: RestrictedLoadCost(load / 4.0, eps=e / 8.0,
                                                                 slope_k=k / 4.0),
                           st.integers(0, 4 * m), st.integers(1, 16), st.integers(2, 12))
    fns = draw(st.lists(st.one_of(dyadic_affine(m), dyadic_slot(m), restricted),
                        min_size=T, max_size=T))
    return ProblemInstance(T, m, beta, tuple(fns))


@PROPERTY
@given(mixed_instances())
def test_one_step_switches_to_dense_without_changing_a_decision(inst):
    state = lcp_init(inst.m, inst.beta)
    decisions, slopes_so_far = [], True
    for f in inst.functions:
        decisions.append(lcp_step(state, f))
        slopes_so_far = slopes_so_far and f.slope_breakpoints() is not None
        assert (state.reach_costs is None) == slopes_so_far
    assert decisions == twin_decisions(inst)


@PROPERTY
@given(affine_instances(), st.integers(-30, 30))
def test_bands_unchanged_under_a_power_of_two_scaling(inst, k):
    scale = 2.0 ** k
    big = inst.replace(beta=inst.beta * scale, functions=tuple(
        AffineAbsCost(f.eps * scale, f.center) for f in inst.functions))
    for decide in (lambda i: lcp_run(i).decisions, twin_decisions):
        assert [(d.lower, d.upper) for d in decide(big)] == \
            [(d.lower, d.upper) for d in decide(inst)]


@PROPERTY
@given(instances(restricted=True))
def test_lcp_within_three_times_opt(inst):
    assert lcp_run(inst).cost.total <= 3.0 * dp_optimal(inst).cost


@st.composite
def dyadic_fractional_schedules(draw):
    """A fractional schedule on the multiples of 1/8 in [0, m], with T <= 12
    and m <= 4; integral slots come up about one time in eight."""
    T = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    xbar = np.array(draw(st.lists(st.integers(0, 8 * m), min_size=T, max_size=T))) / 8.0
    return ProblemInstance(T, m, 1.0, (AffineAbsCost(1.0, 0.0),) * T), xbar


@PROPERTY
@given(dyadic_fractional_schedules(), st.integers(0, 2**32 - 1))
def test_rounding_marginals_match_fractional_parts(case, seed):
    inst, xbar = case
    n = 4000
    ens = rounding_ensemble(xbar, inst, n, seed)
    frac = np.mod(xbar, 1.0)
    integral = frac == 0.0
    assert np.all(ens.upper_frequency[integral] == 0.0)
    sigma = np.sqrt(frac * (1.0 - frac) / n)
    dev = np.abs(ens.upper_frequency - frac)
    assert np.all(dev[~integral] <= 5.0 * sigma[~integral])
