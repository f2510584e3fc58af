"""Lazy Capacity Provisioning: an online policy that tracks the band of
states an offline optimum could currently occupy and moves only when the
previous state falls outside it.

Per step the policy maintains, in O(m), the minimal cost of ending the
truncated workload in each state when power-ups are charged.  The band's
lower edge is the smallest minimizer of that cost; the upper edge is the
largest minimizer after crediting the pending power-up cost ``beta * x``
(equivalently, the bound obtained by charging power-downs instead).
"""

from __future__ import annotations

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
    fvals = np.asarray(f.eval_grid(np.arange(state.m + 1, dtype=np.int64)), dtype=np.float64)
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
    """Stream the whole instance through the policy (power-up charging)."""
    if instance.convention != "up_only":
        raise ConfigError("the lazy policy is defined for the up_only convention")
    state = lcp_init(instance.m, instance.beta)
    for f in instance.functions:
        lcp_step(state, f)
    schedule = np.array([d.chosen for d in state.history], dtype=np.int64)
    return LcpTrace(decisions=list(state.history), schedule=schedule,
                    cost=eval_cost(instance, schedule))
