"""Randomized rounding of fractional schedules, and the two-level
fractional policy it is usually composed with.

Rounding keeps each slot's integer state on the floor or ceiling of the
fractional state, choosing transition probabilities so that the chance of
sitting on the ceiling always equals the fractional part.  This preserves
both expected operating cost and expected switching cost exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .model import (
    ConfigError,
    ContractError,
    CostBreakdown,
    CostFunction,
    DomainError,
    ProblemInstance,
    eval_cost,
    extend_continuous,
    switching_cost,
)

#: Workload labels for two-level instances: costs pulling toward state 0
#: (cheap to idle) or toward state 1 (cheap to run one server).
TOWARD_ZERO = "toward0"
TOWARD_ONE = "toward1"

_PROB_SLACK = 1e-9


class FractionalPolicy(Protocol):
    """Online policy emitting fractional states in [0, m]."""

    def step(self, f: CostFunction) -> float: ...

    @property
    def fractional_state(self) -> float: ...


# ---------------------------------------------------------------------------
# two-level fractional policy
# ---------------------------------------------------------------------------


def classify_pull(f: CostFunction) -> str:
    """Which of the two levels a V-shaped cost function pulls toward."""
    lo, hi = f(0), f(1)
    if lo < hi:
        return TOWARD_ZERO
    if lo > hi:
        return TOWARD_ONE
    raise ConfigError("cost function does not separate states 0 and 1")


@dataclass
class AlgorithmBState:
    """Fractional state on one server, quantized to multiples of eps/2.

    The state is held as an integer count of eps/2 units so that repeated
    steps cannot drift off the grid.
    """

    eps: float
    units: int = 0

    def __post_init__(self):
        if not (self.eps > 0):
            raise ConfigError("eps must be positive")
        inv = 1.0 / self.eps
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigError("1/eps must be a positive integer")
        self.max_units = int(round(2.0 / self.eps))

    @property
    def b(self) -> float:
        return self.units * (self.eps / 2.0)


def algorithm_b_step(state: AlgorithmBState, label: str) -> float:
    """Move half an eps toward the indicated level, clamped to [0, 1]."""
    if label == TOWARD_ZERO:
        state.units = max(state.units - 1, 0)
    elif label == TOWARD_ONE:
        state.units = min(state.units + 1, state.max_units)
    else:
        raise ConfigError(f"unknown workload label {label!r}")
    return state.b


class AlgorithmB:
    """The +/- eps/2 stepping policy for two-level workloads."""

    name = "algorithm-b"

    def __init__(self, eps: float):
        self._state = AlgorithmBState(eps)

    def step(self, f: CostFunction) -> float:
        return algorithm_b_step(self._state, classify_pull(f))

    @property
    def fractional_state(self) -> float:
        return self._state.b


class ReplayPolicy:
    """Plays back a precomputed fractional schedule (e.g. the hindsight
    optimum of the continuous relaxation)."""

    name = "replay"

    def __init__(self, xbar: Sequence[float]):
        self._xbar = [float(v) for v in xbar]
        self._i = 0

    def step(self, f: CostFunction) -> float:
        v = self._xbar[self._i]
        self._i += 1
        return v

    @property
    def fractional_state(self) -> float:
        return self._xbar[self._i - 1] if self._i else 0.0


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def marginal_upper(xbar_t: float) -> float:
    """Probability mass the rounded schedule puts on ceil(xbar_t)."""
    return xbar_t - math.floor(xbar_t)


def _checked_prob(p: float) -> float:
    if p < -_PROB_SLACK or p > 1.0 + _PROB_SLACK:
        raise ContractError(f"transition probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def _advance(x_prev: np.ndarray, xbar_prev: float, xbar_t: float,
             u: np.ndarray) -> np.ndarray:
    """Vectorized one-slot transition for many independent runs.

    ``u`` holds one uniform draw per run; it is ignored on slots where the
    transition is deterministic.
    """
    lo = math.floor(xbar_t)
    hi = math.ceil(xbar_t)
    if lo == hi:
        return np.full_like(x_prev, lo)
    proj = min(max(xbar_prev, float(lo)), float(hi))
    frac_proj = proj - math.floor(proj)
    if xbar_prev <= xbar_t:
        p_up = _checked_prob((xbar_t - proj) / (1.0 - frac_proj))
        moved = np.where(u < p_up, hi, lo)
        return np.where(x_prev == hi, hi, moved)
    den = frac_proj if frac_proj > 0.0 else 1.0  # projection sits on the ceiling
    p_down = _checked_prob((proj - xbar_t) / den)
    moved = np.where(u < p_down, lo, hi)
    return np.where(x_prev == lo, lo, moved)


def round_step(x_prev: int, xbar_prev: float, xbar_t: float,
               rng: np.random.Generator) -> int:
    """Round one slot, keeping the state on the current floor/ceiling pair."""
    if x_prev not in (math.floor(xbar_prev), math.ceil(xbar_prev)):
        raise DomainError(f"state {x_prev} is not a rounding of {xbar_prev}")
    if math.floor(xbar_t) == math.ceil(xbar_t):
        return int(xbar_t)
    u = np.array([rng.random()])
    out = _advance(np.array([x_prev], dtype=np.int64), xbar_prev, xbar_t, u)
    return int(out[0])


@dataclass(frozen=True)
class RoundingResult:
    schedule: np.ndarray
    xbar: np.ndarray
    cost: CostBreakdown
    fractional_cost: CostBreakdown
    seed: int


def rounding_run(source, instance: ProblemInstance, seed: int) -> RoundingResult:
    """Run rounding over a fractional policy or a precomputed schedule.

    Returns the realized integer schedule with its cost, plus the
    fractional schedule's cost under the continuous relaxation so callers
    can report ratios.
    """
    if instance.convention != "up_only":
        raise ConfigError("rounding runs are defined for the up_only convention")
    rng = np.random.default_rng(seed)
    policy = ReplayPolicy(source) if not hasattr(source, "step") else source
    xbar = np.empty(instance.T, dtype=np.float64)
    x = np.empty(instance.T, dtype=np.int64)
    prev_x, prev_xbar = 0, 0.0
    for t, f in enumerate(instance.functions):
        xbar[t] = policy.step(f)
        if not (0.0 <= xbar[t] <= instance.m):
            raise ContractError(f"policy emitted state {xbar[t]} outside [0, m]")
        x[t] = round_step(prev_x, prev_xbar, float(xbar[t]), rng)
        prev_x, prev_xbar = int(x[t]), float(xbar[t])
    return RoundingResult(
        schedule=x,
        xbar=xbar,
        cost=eval_cost(instance, x),
        fractional_cost=extend_continuous(instance).cost(xbar),
        seed=seed,
    )


@dataclass(frozen=True)
class EnsembleResult:
    costs: np.ndarray          # total cost per run
    upper_frequency: np.ndarray  # per slot, fraction of runs above floor(xbar_t)
    seed: int


def rounding_ensemble(xbar: Sequence[float], instance: ProblemInstance,
                      n_runs: int, seed: int) -> EnsembleResult:
    """Many independent rounding runs of one fractional schedule at once.

    All runs share the per-slot transition probabilities, so the whole
    ensemble advances with vectorized draws; used for marginal and
    expected-cost estimates.
    """
    arr = np.asarray(xbar, dtype=np.float64)
    if arr.size != instance.T:
        raise ConfigError(f"fractional schedule length {arr.size} != T = {instance.T}")
    rng = np.random.default_rng(seed)
    x = np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs, dtype=np.float64)
    ups = np.zeros(n_runs, dtype=np.int64)
    downs = np.zeros(n_runs, dtype=np.int64)
    upper = np.empty(instance.T, dtype=np.float64)
    prev_xbar = 0.0
    for t, f in enumerate(instance.functions):
        u = rng.random(n_runs)
        x_new = _advance(x, prev_xbar, float(arr[t]), u)
        lo = math.floor(arr[t])
        hi = math.ceil(arr[t])
        f_lo, f_hi = f(lo), f(hi)
        operating += np.where(x_new == hi, f_hi, f_lo)
        d = x_new - x
        ups += np.maximum(d, 0)
        downs += np.maximum(-d, 0)
        # Estimates marginal_upper: 0 on integral slots, where hi == lo.
        upper[t] = float(np.mean(x_new > lo))
        x = x_new
        prev_xbar = float(arr[t])
    downs += x  # closing power-down to the all-asleep end state
    switching = switching_cost(instance.beta, instance.convention, ups, ups + downs)
    return EnsembleResult(costs=operating + switching, upper_frequency=upper,
                          seed=seed)
