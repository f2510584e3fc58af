"""Randomized rounding of fractional schedules, and the two-level
fractional policy it is usually composed with.

Rounding keeps each slot's integer state on the floor or ceiling of the
fractional state, choosing transition probabilities so that the chance of
sitting on the ceiling always equals the fractional part.  This preserves
both expected operating cost and expected switching cost exactly.

An ensemble of runs advances a block of slots per call of a C kernel
(``kernels.c``, compiled on first use by ``kernels.load``, never at
import); its numpy twin gives the same results bit for bit where no C
compiler works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import kernels
from .model import (
    ConfigError,
    ContractError,
    CostBreakdown,
    CostFunction,
    DomainError,
    ProblemInstance,
    eval_cost,
    extend_continuous,
    row_evaluator,
    switching_cost,
)

#: Workload labels for two-level instances: costs pulling toward state 0
#: (cheap to idle) or toward state 1 (cheap to run one server).
TOWARD_ZERO = "toward0"
TOWARD_ONE = "toward1"

_PROB_SLACK = 1e-9

#: Uniform draws per block of ``rounding_ensemble``: 128 KiB, about what the
#: numpy twin's temporaries take for one slot of 4000 runs, so the buffer
#: does not raise the peak memory of a duel.
_DRAW_BLOCK_CELLS = 1 << 14


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
    lo, hi = f.eval_grid(np.array([0, 1])).tolist()
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


def _transition(xbar_prev: float, xbar_t: float) -> tuple[int, int, float, int]:
    """One slot's rounding step: the floor and ceiling of ``xbar_t``, the
    probability of moving, and the direction of the move (1 up to the
    ceiling, -1 down to the floor, 0 when ``xbar_t`` is integral)."""
    lo = math.floor(xbar_t)
    hi = math.ceil(xbar_t)
    if lo == hi:
        return lo, hi, 0.0, 0
    proj = min(max(xbar_prev, float(lo)), float(hi))
    frac_proj = proj - math.floor(proj)
    if xbar_prev <= xbar_t:
        return lo, hi, _checked_prob((xbar_t - proj) / (1.0 - frac_proj)), 1
    den = frac_proj if frac_proj > 0.0 else 1.0  # projection sits on the ceiling
    return lo, hi, _checked_prob((proj - xbar_t) / den), -1


def _advance(x_prev: np.ndarray, lo: int, hi: int, p: float, direction: int,
             u: np.ndarray) -> np.ndarray:
    """Vectorized one-slot transition for many independent runs.

    ``u`` holds one uniform draw per run; it is ignored on slots where the
    transition is deterministic.  A run already at the target stays there.
    """
    if direction == 0:
        return np.full_like(x_prev, lo)
    if direction > 0:
        return np.where(x_prev == hi, hi, np.where(u < p, hi, lo))
    return np.where(x_prev == lo, lo, np.where(u < p, lo, hi))


def round_step(x_prev: int, xbar_prev: float, xbar_t: float,
               rng: np.random.Generator) -> int:
    """Round one slot, keeping the state on the current floor/ceiling pair."""
    if x_prev not in (math.floor(xbar_prev), math.ceil(xbar_prev)):
        raise DomainError(f"state {x_prev} is not a rounding of {xbar_prev}")
    if math.floor(xbar_t) == math.ceil(xbar_t):
        return int(xbar_t)
    u = np.array([rng.random()])
    out = _advance(np.array([x_prev], dtype=np.int64), *_transition(xbar_prev, xbar_t), u)
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
    ensemble advances a block of slots per kernel call, on one uniform draw
    per run and slot; used for marginal and expected-cost estimates.
    """
    arr = np.asarray(xbar, dtype=np.float64)
    if arr.size != instance.T:
        raise ConfigError(f"fractional schedule length {arr.size} != T = {instance.T}")
    if not np.all((arr >= 0) & (arr <= instance.m)):
        raise DomainError("fractional state outside [0, m]")
    S = np.stack([np.floor(arr), np.ceil(arr)], axis=1).astype(np.int64)
    F = np.ascontiguousarray(row_evaluator(instance.functions)(S), dtype=np.float64)
    # Every probability is checked before the first draw.
    p, direction = _transitions(arr)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs, dtype=np.float64)
    ups = np.zeros(n_runs, dtype=np.int64)
    downs = np.zeros(n_runs, dtype=np.int64)
    upper = np.empty(instance.T, dtype=np.float64)  # runs above the floor, then their share
    # A block of draws, at most _DRAW_BLOCK_CELLS of them unless one slot
    # needs more, takes the same numbers from the generator as one call per slot.
    U = np.empty((max(1, _DRAW_BLOCK_CELLS // max(n_runs, 1)), n_runs), dtype=np.float64)
    for t in range(0, instance.T, len(U)):
        block = U[:instance.T - t]
        rng.random(out=block)
        _ensemble_block(t, block, S, p, direction, F, x, operating, ups, downs, upper)
    downs += x  # closing power-down to the all-asleep end state
    switching = switching_cost(instance.beta, instance.convention, ups, ups + downs)
    # Estimates marginal_upper: 0 on integral slots, where hi == lo.
    upper /= n_runs
    return EnsembleResult(costs=operating + switching, upper_frequency=upper, seed=seed)


def _transitions(xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per slot, the move probability and direction of ``_transition``,
    starting from 0 before the first slot."""
    p = np.empty(xbar.size, dtype=np.float64)
    direction = np.empty(xbar.size, dtype=np.int8)
    prev = 0.0
    for t in range(xbar.size):
        cur = float(xbar[t])
        _, _, p[t], direction[t] = _transition(prev, cur)
        prev = cur
    return p, direction


def _ensemble_block(t, U, S, p, direction, F, x, operating, ups, downs, upper):
    """Advances the runs over the slots t, t+1, ..., one row of draws ``U``
    per slot: the state ``x``, the operating cost and the up and down moves
    of each run, and per slot ``upper``, the number of runs above the floor
    ``S[t, 0]``.  Every array is C-ordered with the dtype
    ``rounding_ensemble`` gives it.  Runs the compiled kernel when there is
    one, else the numpy twin."""
    lib = kernels.load()
    if lib is None:
        return _ensemble_block_numpy(t, U, S, p, direction, F, x, operating,
                                     ups, downs, upper)
    lib.ensemble_block(t, U.shape[0], U.shape[1],
                       *(a.ctypes.data for a in (S, p, direction, F, U, x, operating,
                                                 ups, downs, upper)))


def _ensemble_block_numpy(t, U, S, p, direction, F, x, operating, ups, downs, upper):
    for t, u in enumerate(U, start=t):
        lo, hi = S[t]
        x_new = _advance(x, lo, hi, p[t], direction[t], u)
        operating += np.where(x_new == hi, F[t, 1], F[t, 0])
        d = x_new - x
        ups += np.maximum(d, 0)
        downs += np.maximum(-d, 0)
        upper[t] = np.count_nonzero(x_new > lo)
        x[:] = x_new
