"""Randomized rounding of fractional schedules, and the two-level
fractional policy it is usually composed with.

Rounding keeps each slot's integer state on the floor or ceiling of the
fractional state, choosing transition probabilities so that the chance of
sitting on the ceiling always equals the fractional part.  This preserves
both expected operating cost and expected switching cost exactly.  One
run (``rounding_run``) and an ensemble of runs share that one rule,
``_transitions``, and one move, ``_advance``.

An ensemble of runs advances over every slot in calls of a C kernel
(``kernels.c``, compiled on first use by ``kernels.load``, never at
import) that draws numpy's ``PCG64`` stream itself and jumps it over the
draws of integral slots, which send every run to the floor.  A large
ensemble splits its runs into contiguous ranges, each one kernel call that
jumps the stream over the other ranges' draws, and advances them on one
thread per core in the process's affinity mask; every result is the same
bit for bit whatever the number of cores.  The kernel's numpy twin, which
takes the same ranges, gives the same results where no C compiler works.
"""

from __future__ import annotations

import collections
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .model import (
    ConfigError,
    ContractError,
    CostBreakdown,
    CostFunction,
    DomainError,
    ProblemInstance,
    ShapeError,
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

#: Stream positions (runs times slots) per run range of a rounding ensemble
#: split across cores, about 5 ms of kernel time.  An ensemble with fewer
#: than twice as many stays in one range on the calling thread.
_DRAWS_PER_PART = 1 << 21


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
        # Each cost object is classified once; they hash by identity, and a
        # duel plays the same two objects slot after slot.
        self._pulls: dict[CostFunction, str] = {}

    def step(self, f: CostFunction) -> float:
        label = self._pulls.get(f)
        if label is None:
            label = self._pulls[f] = classify_pull(f)
        return algorithm_b_step(self._state, label)

    @property
    def fractional_state(self) -> float:
        return self._state.b


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def _advance(x_prev: np.ndarray, lo: int, hi: int, p: float, direction: int,
             u: np.ndarray) -> np.ndarray:
    """Vectorized one-slot transition for many independent runs.

    ``u`` holds one draw per run, and a run moves when its draw is below
    ``p``: uniforms against the move probability, or 53-bit integers against
    its threshold.  ``u`` is ignored on slots where the transition is
    deterministic.  A run already at the target stays there.
    """
    if direction == 0:
        return np.full_like(x_prev, lo)
    if direction > 0:
        return np.where(x_prev == hi, hi, np.where(u < p, hi, lo))
    return np.where(x_prev == lo, lo, np.where(u < p, lo, hi))


@dataclass(frozen=True)
class RoundingResult:
    schedule: np.ndarray
    xbar: np.ndarray
    cost: CostBreakdown
    fractional_cost: CostBreakdown
    seed: int


def rounding_run(source, instance: ProblemInstance, seed: int) -> RoundingResult:
    """Run rounding over a fractional policy or a precomputed schedule.

    A policy is stepped online through ``step(f)``, slot by slot, and its
    states are then rounded with the ensemble's rule on the stream of
    ``default_rng(seed)``, one draw per non-integral slot.  Returns the
    realized integer schedule with its cost, plus the fractional schedule's
    cost under the continuous relaxation so callers can report ratios.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if hasattr(source, "step"):
        xbar = np.array([source.step(f) for f in instance.functions], dtype=np.float64)
    else:
        xbar = np.array(source, dtype=np.float64)
        if xbar.ndim != 1 or xbar.size != instance.T:
            raise ShapeError(f"fractional schedule length {xbar.size} != T = {instance.T}")
    bad = np.flatnonzero(~((xbar >= 0.0) & (xbar <= instance.m)))
    if bad.size:
        raise ContractError(f"slot {bad[0]}: fractional state {xbar[bad[0]]} outside [0, m]")
    S = np.stack([np.floor(xbar), np.ceil(xbar)], axis=1).astype(np.int64)
    p, direction = _transitions(xbar)
    u = np.zeros(instance.T)
    u[direction != 0] = np.random.default_rng(seed).random(np.count_nonzero(direction))
    x = np.zeros(instance.T + 1, dtype=np.int64)  # x[0] is the idle start
    for t, (lo, hi) in enumerate(S):
        x[t + 1:t + 2] = _advance(x[t:t + 1], lo, hi, p[t], direction[t], u[t])
    return RoundingResult(
        schedule=x[1:],
        xbar=xbar,
        cost=eval_cost(instance, x[1:]),
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

    All runs share the per-slot transition probabilities, so the ensemble
    advances on the stream of ``PCG64(seed)``, one draw per run and slot,
    slot by slot, run ``r`` reading position ``r`` of its slot's draws; an
    integral slot moves every run to its floor and jumps the stream over its
    draws unread.  A large ensemble is split into contiguous ranges of runs
    that advance at once on one thread per core in the affinity mask, each
    jumping the stream over the others' draws; the results do not depend on
    the number of cores.  Each run starts and
    closes at 0, so it powers down as much as it powers up.  Used for
    marginal and expected-cost estimates.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be positive")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    arr = np.asarray(xbar, dtype=np.float64)
    if arr.size != instance.T:
        raise ConfigError(f"fractional schedule length {arr.size} != T = {instance.T}")
    if not np.all((arr >= 0) & (arr <= instance.m)):
        raise DomainError("fractional state outside [0, m]")
    S = np.stack([np.floor(arr), np.ceil(arr)], axis=1).astype(np.int64)
    F = np.ascontiguousarray(row_evaluator(instance.functions)(S), dtype=np.float64)
    # Every probability is checked before the first draw.  A draw k * 2^-53
    # is below p exactly when k < ceil(p * 2^53), which the scaling keeps exact.
    p, direction = _transitions(arr)
    thr = np.ceil(p * 2.0**53).astype(np.uint64)
    pcg = np.random.PCG64(seed).state  # the stream of default_rng(seed)
    x = np.zeros(n_runs, dtype=np.int64)
    operating = np.zeros(n_runs, dtype=np.float64)
    ups = np.zeros(n_runs, dtype=np.int64)
    above = _ensemble(pcg, S, thr, direction, F, x, operating, ups)
    switching = switching_cost(instance.beta, instance.convention, ups, 2 * ups)
    # Estimates the fractional part: 0 on integral slots, where hi == lo.
    return EnsembleResult(costs=operating + switching, upper_frequency=above / n_runs, seed=seed)


def _transitions(xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rounding rule: per slot, the probability that a run moves and
    the direction of the move (1 up to the ceiling, -1 down to the floor, 0
    on an integral slot, which sends every run to its floor), starting from
    0 before the first slot.  The previous fractional state is projected
    onto the slot's floor and ceiling; a rising state moves a run up with
    ``(xbar - proj) / (1 - frac(proj))``, a falling one moves it down with
    ``(proj - xbar) / frac(proj)``, over 1 where the projection is the
    ceiling, so the chance of sitting on the ceiling
    stays the fractional part.  A probability within ``_PROB_SLACK`` of
    ``[0, 1]`` is clipped to it; any other raises ``ContractError`` naming
    the first such slot."""
    lo, hi = np.floor(xbar), np.ceil(xbar)
    prev = np.concatenate(([0.0], xbar))[:-1]
    proj = np.minimum(np.maximum(prev, lo), hi)
    frac_proj = proj - np.floor(proj)
    up = prev <= xbar
    # No denominator is 0: below the ceiling frac_proj < 1, and on an
    # integral slot the projection is integral.
    den = np.where(up, 1.0 - frac_proj, np.where(frac_proj > 0.0, frac_proj, 1.0))
    integral = lo == hi
    p = np.where(integral, 0.0, np.where(up, xbar - proj, proj - xbar) / den)
    bad = np.flatnonzero((p < -_PROB_SLACK) | (p > 1.0 + _PROB_SLACK))
    if bad.size:
        raise ContractError(f"slot {bad[0]}: transition probability {p[bad[0]]} outside [0, 1]")
    direction = np.where(integral, 0, np.where(up, 1, -1)).astype(np.int8)
    return np.clip(p, 0.0, 1.0), direction


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _split(n_runs: int, T: int) -> tuple[int, list[int]]:
    """How an ensemble of ``n_runs`` runs over ``T`` slots is split: the
    number of threads, one per core and at most one per range, and the
    bounds ``0 = c_0 < c_1 < ... < c_k = n_runs`` of its contiguous run
    ranges, one per ``_DRAWS_PER_PART`` stream positions and at most one per
    run.  On one thread the ensemble is one range."""
    parts = max(1, min(n_runs, n_runs * T // _DRAWS_PER_PART))
    threads = min(_cores(), parts)
    if threads == 1:
        parts = 1
    return threads, [n_runs * i // parts for i in range(parts + 1)]


def _ensemble(pcg, S, thr, direction, F, x, operating, ups) -> np.ndarray:
    """Advances the runs over every slot on ``len(x)`` draws per slot of
    the ``PCG64`` stream whose state is ``pcg``: the state ``x``, the
    operating cost and the power-ups of each run.  Returns per slot the
    number of runs above the floor ``S[t, 0]``.  A run's draw ``k * 2^-53``
    is below the slot's move probability when ``k < thr[t]``.  Every array
    is C-ordered with the dtype ``rounding_ensemble`` gives it.

    Each range of ``_split`` is one call of the compiled kernel, when there
    is one, else of its numpy twin, which adds its counts to the calling
    thread's row.  The
    calling thread and the other threads of ``_split`` (ctypes releases the
    GIL) each own a contiguous block of ranges and take them from its front;
    a thread out of ranges takes the last range of the fullest other block.
    So a thread whose core the host stalls holds up at most the range it is
    on, and two threads seldom advance adjacent ranges at once, whose runs
    share cache lines.  All threads are joined before the return.  Each
    run's sums are taken in slot order, whichever range it is in, and the
    integer counts sum exactly, so the split changes no result."""
    T, n = S.shape[0], x.size
    threads, cuts = _split(n, T)
    above = np.zeros((threads, T), dtype=np.int64)
    lib = kernels.load()
    if lib is None:
        parts = [(_ensemble_numpy, (pcg, S, thr, direction, F, x, operating, ups, r0, r1))
                 for r0, r1 in zip(cuts, cuts[1:])]
        rows = list(above)
    else:
        words = np.array(divmod(pcg["state"]["state"], 1 << 64)
                         + divmod(pcg["state"]["inc"], 1 << 64), dtype=np.uint64)
        arrays = [a.ctypes.data for a in (S, thr, direction, F, words, x, operating, ups)]
        parts = [(lib.ensemble, (T, n, r0, r1, *arrays)) for r0, r1 in zip(cuts, cuts[1:])]
        rows = [row.ctypes.data for row in above]
    # A deque's pops are atomic.
    blocks = [collections.deque(parts[len(parts) * i // threads:len(parts) * (i + 1) // threads])
              for i in range(threads)]
    errors = []

    def work(own, row):
        try:
            while (part := _take(own, blocks)) is not None:
                fn, args = part
                fn(*args, row)
        except BaseException as e:  # re-raised on the calling thread
            errors.append(e)

    helpers = [threading.Thread(target=work, args=(block, row))
               for block, row in zip(blocks[1:], rows[1:])]
    for thread in helpers:
        thread.start()
    work(blocks[0], rows[0])
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return above.sum(axis=0)


def _take(own, blocks):
    """The next range for the thread that owns the block ``own``: its front
    range, else the back range of the fullest block; None when every block
    is empty."""
    while True:
        try:
            return own.popleft()
        except IndexError:
            pass
        others = [block for block in blocks if block]
        if not others:
            return None
        try:
            return max(others, key=len).pop()
        except IndexError:  # another thread took it first
            pass


def _ensemble_numpy(pcg, S, thr, direction, F, x, operating, ups, r0, r1, above):
    """The kernel's twin on runs ``r0 <= r < r1``: on a slot with moves it
    jumps the stream over the ``r0`` draws before the range and the
    ``n - r1`` after it, on an integral slot over all ``n``, and it adds the
    range's counts to ``above``."""
    bits = np.random.PCG64()
    bits.state = pcg
    n = x.size
    xs, op, up = x[r0:r1], operating[r0:r1], ups[r0:r1]
    for t, (lo, hi) in enumerate(S):
        if direction[t] == 0:
            bits.advance(n)
            k = None
        else:
            bits.advance(r0)
            k = bits.random_raw(r1 - r0) >> np.uint64(11)
            bits.advance(n - r1)
        x_new = _advance(xs, lo, hi, thr[t], direction[t], k)
        op += np.where(x_new == hi, F[t, 1], F[t, 0])
        up += np.maximum(x_new - xs, 0)
        above[t] += np.count_nonzero(x_new > lo)
        xs[:] = x_new
