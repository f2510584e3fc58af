"""Lazy Capacity Provisioning: an online policy that tracks the band of
states an offline optimum could currently occupy and moves only when the
previous state falls outside it.

The band comes from the reach costs: the minimal cost of ending the
truncated workload in each state when power-ups are charged.  Its lower
edge is the smallest minimizer of that cost; the upper edge is the largest
minimizer after crediting the pending power-up cost ``beta * x``
(equivalently, the bound obtained by charging power-downs instead).

``lcp_step`` keeps only the slopes of the reach costs, with no fleet cap,
while every slot has a slope form (``CostFunction.slope_breakpoints``;
``affine_abs`` for now): the sorted positions where the slope steps up,
each with its merged weight.  A new position costs O(L) moves for L live
positions, and memory is O(L); the walks pop from the ends.  The first
slot without a slope form turns them into a dense array for good: O(m)
per slot.
Costs within ``TIE_TOL * beta`` tie, so no band depends on the cost scale.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    ConfigError,
    CostBreakdown,
    CostFunction,
    ProblemInstance,
    ShapeError,
    eval_cost,
)
from .offline import _climb_min, _kernel_costs

#: Dense cost arrays make each step O(m); refuse silently huge fleets.
DEFAULT_STATE_LIMIT = 1 << 20

#: Costs closer than this times ``beta`` are treated as ties before applying
#: the smallest/largest tie-breaks (two-level adversaries create exact ties).
TIE_TOL = 1e-12


class LcpDecision(NamedTuple):
    lower: int
    upper: int
    chosen: int


@dataclass
class LcpState:
    """The reach costs ``V`` as slopes ``d(x) = V(x+1) - V(x)``: ``d(0)`` is
    ``base``, ``d(m - 1)`` is ``total``, and ``d`` steps up at each live
    breakpoint: ``keys`` are their distinct positions in (0, m), ascending,
    and ``weight`` maps each position to its merged step (every step pushed
    there, summed in push order).  Or, once set, as the dense
    ``reach_costs``."""

    m: int
    beta: float
    tol: float
    x_lcp: int = 0
    history: list[LcpDecision] = field(default_factory=list)
    base: float = 0.0
    total: float = 0.0
    keys: list[int] = field(default_factory=list, repr=False)
    weight: dict[int, float] = field(default_factory=dict, repr=False)
    reach_costs: np.ndarray | None = field(default=None, repr=False)
    # beta * x, and the same read from x = m down and negated
    ramp: np.ndarray | None = field(default=None, repr=False)
    mirrored_ramp: np.ndarray | None = field(default=None, repr=False)


def lcp_init(m: int, beta: float) -> LcpState:
    """Fresh state: all servers asleep, reach costs seeded with the
    power-up ramp ``beta * x`` (every slope ``beta``) so the first step
    already charges switching from the all-asleep start."""
    if m < 1:
        raise ConfigError("m must be a positive integer")
    if not (beta > 0):
        raise ConfigError("beta must be positive")
    return LcpState(m=m, beta=beta, tol=TIE_TOL * beta, base=beta, total=beta)


def lcp_step(state: LcpState, f: CostFunction) -> LcpDecision:
    """Consume the next cost function and move lazily into the new band."""
    form = f.slope_breakpoints() if state.reach_costs is None else None
    lower, upper = _dense_band(state, f) if form is None else _slope_band(state, *form)
    state.x_lcp = chosen = min(max(state.x_lcp, lower), upper)
    decision = LcpDecision(lower, upper, chosen)
    state.history.append(decision)
    return decision


def _dense_band(state: LcpState, f: CostFunction) -> tuple[int, int]:
    m = state.m
    if state.reach_costs is None:
        # V(0) = 0 and the cumulative sum of the slopes: exact, because the
        # slopes lie in [0, beta], a fixed point of the climb step below.
        if m > DEFAULT_STATE_LIMIT:
            raise ConfigError(f"m = {m} exceeds the dense-state limit {DEFAULT_STATE_LIMIT}")
        jumps = np.zeros(m, dtype=np.float64)
        jumps[0] = state.base
        for x, w in state.weight.items():
            jumps[x] = w
        state.reach_costs = np.concatenate(([0.0], np.cumsum(np.cumsum(jumps))))
        state.ramp = state.beta * np.arange(m + 1, dtype=np.float64)
        state.mirrored_ramp = -state.ramp[::-1]
    fvals = _kernel_costs(f.eval_grid(np.arange(m + 1, dtype=np.int64)))
    # min over x' of prev(x') + beta * (x - x')^+ is the offline climb step
    # on the mirrored grid, where powering up runs downhill.
    reach = _climb_min(state.reach_costs[::-1], state.mirrored_ramp)[::-1] + fvals
    state.reach_costs = reach
    # the smallest minimizer, and the largest one after crediting beta * x
    credited = reach - state.ramp
    lower = np.argmax(reach <= reach.min() + state.tol)
    upper = m - np.argmax((credited <= credited.min() + state.tol)[::-1])
    return int(lower), int(upper)


def _slope_band(state: LcpState, s0: float, points) -> tuple[int, int]:
    """Add the cost's slopes; walk from the left to the lower edge (the first
    ``x`` with ``d(x) >= -tol``), lifting negative slopes to 0, and from the
    right to the upper edge (the first ``x`` with ``d(x) > beta + tol``),
    capping slopes at ``beta``, as the next slot's climb step would."""
    m, beta, tol, keys, weight = state.m, state.beta, state.tol, state.keys, state.weight
    base = state.base + s0
    total = state.total + s0
    for x, w in points:
        if x >= m or w == 0.0:
            continue
        total += w
        if x <= 0:
            base += w
        elif x in weight:
            weight[x] += w
        else:
            weight[x] = w
            insort(keys, x)
    lower = 0 if base >= -tol else m
    if base < 0.0:
        s, i = base, 0
        while s < 0.0 and weight:
            x = keys[i]
            i += 1
            w = weight.pop(x)
            s = s + w if weight else total
            if lower == m and s >= -tol:
                lower = x
        base = 0.0
        if s < 0.0:
            total = 0.0
        elif s > 0.0:
            i -= 1  # x stays live with the whole slope s
            weight[x] = s
        del keys[:i]
    upper = m
    if total > beta:
        s = total
        while s > beta:
            if not weight:
                if s > beta + tol:
                    upper = 0
                base = beta
                break
            x = keys.pop()
            w = weight.pop(x)
            before = s - w if weight else base
            if s > beta + tol:
                upper = x
            if before <= beta:
                if before < beta:
                    keys.append(x)
                    weight[x] = beta - before
                break
            s = before
        total = beta
    state.base, state.total = base, total
    return lower, upper


def backward_optimal(bounds, T: int | None = None) -> np.ndarray:
    """Offline-optimal schedule reconstructed from the per-step bands:
    walk backwards from the all-asleep end state, clamping into each band.
    """
    pairs = [(int(d[0]), int(d[1])) for d in bounds]
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
    """Run the policy over the whole instance (power-up charging)."""
    if instance.convention != "up_only":
        raise ConfigError("the lazy policy is defined for the up_only convention")
    state = lcp_init(instance.m, instance.beta)
    decisions = [lcp_step(state, f) for f in instance.functions]
    schedule = np.array([d.chosen for d in decisions], dtype=np.int64)
    return LcpTrace(decisions=decisions, schedule=schedule,
                    cost=eval_cost(instance, schedule))
