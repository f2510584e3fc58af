"""Lazy Capacity Provisioning: an online policy that tracks the band of
states an offline optimum could currently occupy and moves only when the
previous state falls outside it.

The band comes from the reach costs: the minimal cost of ending the
truncated workload in each state when power-ups are charged.  Its lower
edge is the smallest minimizer of that cost; the upper edge is the largest
minimizer after crediting the pending power-up cost ``beta * x``
(equivalently, the bound obtained by charging power-downs instead).

Two paths compute it.  The streaming step ``lcp_step`` keeps the reach
costs as a dense array, O(m) per slot for any cost kind.  When every slot
has a slope form (``CostFunction.slope_breakpoints``; ``affine_abs`` for
now), ``lcp_breakpoints`` keeps only the slopes of the reach costs as
weighted breakpoints, O(log T) per slot with no fleet cap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConfigError,
    CostBreakdown,
    CostFunction,
    ProblemInstance,
    ShapeError,
    eval_cost,
)
from .offline import _climb_min

#: Dense cost arrays make each step O(m); refuse silently huge fleets.
DEFAULT_STATE_LIMIT = 1 << 20

#: Cost values this close are treated as ties before applying the
#: smallest/largest tie-breaks (two-level adversaries create exact ties).
TIE_TOL = 1e-12


@dataclass(frozen=True)
class LcpDecision:
    lower: int
    upper: int
    chosen: int


@dataclass
class LcpState:
    m: int
    beta: float
    tau: int = 0
    x_lcp: int = 0
    reach_costs: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    history: list[LcpDecision] = field(default_factory=list)
    # beta * x, and the same read from x = m down and negated
    ramp: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    mirrored_ramp: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]


def lcp_init(m: int, beta: float) -> LcpState:
    """Fresh state: all servers asleep, reach costs seeded with the
    power-up ramp ``beta * x`` so the first step already charges
    switching from the all-asleep start."""
    if m < 1:
        raise ConfigError("m must be a positive integer")
    if not (beta > 0):
        raise ConfigError("beta must be positive")
    if m > DEFAULT_STATE_LIMIT:
        raise ConfigError(f"m = {m} exceeds the dense-state limit {DEFAULT_STATE_LIMIT}")
    ramp = beta * np.arange(m + 1, dtype=np.float64)
    return LcpState(m=m, beta=beta, reach_costs=ramp, ramp=ramp, mirrored_ramp=-ramp[::-1])


def _first_within(values: np.ndarray) -> int:
    return int(np.argmax(values <= values.min() + TIE_TOL))


def _last_within(values: np.ndarray) -> int:
    mask = values <= values.min() + TIE_TOL
    return int(len(values) - 1 - np.argmax(mask[::-1]))


def lcp_step(state: LcpState, f: CostFunction) -> LcpDecision:
    """Consume the next cost function and move lazily into the new band."""
    # NaN counts as +inf, as in the offline solvers.
    fvals = np.fmin(f.eval_grid(np.arange(state.m + 1, dtype=np.int64)), np.inf)
    # min over x' of prev(x') + beta * (x - x')^+ is the offline climb step
    # on the mirrored grid, where powering up runs downhill.
    reach = _climb_min(state.reach_costs[::-1], state.mirrored_ramp)[::-1] + fvals
    lower = _first_within(reach)
    upper = _last_within(reach - state.ramp)
    chosen = min(max(state.x_lcp, lower), upper)
    state.reach_costs = reach
    state.x_lcp = chosen
    state.tau += 1
    decision = LcpDecision(lower=lower, upper=upper, chosen=chosen)
    state.history.append(decision)
    return decision


def _pop_group(heap: list, weight: dict) -> tuple[int, float]:
    """Pop every breakpoint at the heap's first live key; the key and their
    summed weight.  Entries whose id left ``weight`` are dead and add 0."""
    while weight and heap[0][1] not in weight:
        heapq.heappop(heap)
    key, w = heap[0][0], 0.0
    while heap and heap[0][0] == key:
        w += weight.pop(heapq.heappop(heap)[1], 0.0)
    return key, w


def lcp_breakpoints(instance: ProblemInstance) -> list[LcpDecision] | None:
    """The policy's decisions on a whole instance from the slopes
    ``d(x) = V(x+1) - V(x)`` of its reach costs, or None when some slot has
    no slope form.  On dyadic data the decisions equal those of
    ``lcp_step``; elsewhere an edge whose slope lies within rounding of a
    tie threshold may resolve differently.

    ``d`` is its slope at 0 plus the weights of breakpoints in (0, m), kept
    in a min-heap and a max-heap with lazy deletion, so a slot costs
    O(log T) and the heaps hold O(T) entries.  Per slot the cost's
    breakpoints are added, a walk from the left finds the lower edge (the
    first ``x`` with ``d(x) >= -TIE_TOL``) and lifts negative slopes to 0,
    and a walk from the right finds the upper edge (the first ``x`` with
    ``d(x) > beta + TIE_TOL``) and caps slopes at ``beta``: the clipped
    slopes are those of the next slot's climb step.
    """
    forms = [f.slope_breakpoints() for f in instance.functions]
    if any(form is None for form in forms):
        return None
    m, beta = instance.m, instance.beta
    left: list[tuple[int, int]] = []       # (x, id)
    right: list[tuple[int, int]] = []      # (-x, id)
    weight: dict[int, float] = {}          # live breakpoints
    ids = itertools.count()
    base = total = beta                    # d(0) and d(m - 1); the ramp
    x_lcp = 0
    decisions = []

    def push(x: int, w: float) -> None:
        i = next(ids)
        weight[i] = w
        heapq.heappush(left, (x, i))
        heapq.heappush(right, (-x, i))

    for s0, points in forms:
        base += s0
        total += s0
        for x, w in points:
            if x >= m or w == 0.0:
                continue
            total += w
            if x <= 0:
                base += w
            else:
                push(x, w)
        lower = 0 if base >= -TIE_TOL else m
        if base < 0.0:
            s = base
            while s < 0.0 and weight:
                x, w = _pop_group(left, weight)
                s = s + w if weight else total
                if lower == m and s >= -TIE_TOL:
                    lower = x
            base = 0.0
            if s < 0.0:
                total = 0.0
            elif s > 0.0:
                push(x, s)
        upper = m
        if total > beta:
            s = total
            while s > beta:
                if not weight:
                    if s > beta + TIE_TOL:
                        upper = 0
                    base = beta
                    break
                key, w = _pop_group(right, weight)
                before = s - w if weight else base
                if s > beta + TIE_TOL:
                    upper = -key
                if before <= beta:
                    if before < beta:
                        push(-key, beta - before)
                    break
                s = before
            total = beta
        x_lcp = min(max(x_lcp, lower), upper)
        decisions.append(LcpDecision(lower=lower, upper=upper, chosen=x_lcp))
    return decisions


def backward_optimal(bounds, T: int | None = None) -> np.ndarray:
    """Offline-optimal schedule reconstructed from the per-step bands:
    walk backwards from the all-asleep end state, clamping into each band.
    """
    pairs = [(int(d.lower), int(d.upper)) if isinstance(d, LcpDecision) else (int(d[0]), int(d[1]))
             for d in bounds]
    if T is not None and len(pairs) != T:
        raise ShapeError(f"history has {len(pairs)} steps, expected {T}")
    if not pairs:
        raise ShapeError("history is empty")
    x = np.empty(len(pairs), dtype=np.int64)
    nxt = 0
    for t in range(len(pairs) - 1, -1, -1):
        lo, hi = pairs[t]
        x[t] = min(max(nxt, lo), hi)
        nxt = x[t]
    return x


@dataclass(frozen=True)
class LcpTrace:
    decisions: list[LcpDecision]
    schedule: np.ndarray
    cost: CostBreakdown


def lcp_run(instance: ProblemInstance) -> LcpTrace:
    """Run the policy over the whole instance (power-up charging): on the
    breakpoint path when every slot has a slope form, else step by step."""
    if instance.convention != "up_only":
        raise ConfigError("the lazy policy is defined for the up_only convention")
    decisions = lcp_breakpoints(instance)
    if decisions is None:
        state = lcp_init(instance.m, instance.beta)
        decisions = [lcp_step(state, f) for f in instance.functions]
    schedule = np.array([d.chosen for d in decisions], dtype=np.int64)
    return LcpTrace(decisions=decisions, schedule=schedule,
                    cost=eval_cost(instance, schedule))
