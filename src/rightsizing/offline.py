"""Exact offline optimization.

Two solvers are provided: a plain dynamic program over a per-slot layered
state graph (the oracle, linear in m), and a binary-search solver that
repeatedly optimizes over five-state windows and runs in O(T log m).
Both return the lexicographically smallest minimum-cost schedule. The
window kernel and the full DP's backward and forward passes are C
(``kernels.c``, compiled on first use by ``kernels.load``, never at import),
each with a numpy twin that gives the same schedules bit for bit where no C
compiler works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .model import (
    AffineAbsCost,
    AlignmentError,
    ConfigError,
    ContractError,
    CostFunction,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    ShapeError,
    TableCost,
    eval_cost,
)
from .model import row_evaluator as _row_evaluator

_REFINE_OFFSETS = np.array([-2, -1, 0, 1, 2], dtype=np.int64)


@dataclass(frozen=True)
class SolveResult:
    schedule: np.ndarray
    cost: float
    iterations: int
    states_probed: int


# ---------------------------------------------------------------------------
# cost-matrix evaluation
# ---------------------------------------------------------------------------


def evaluate_rows(functions: Sequence[CostFunction], states: np.ndarray) -> np.ndarray:
    """Operating costs for one candidate row of states per slot, as the DP
    kernels take them (see ``_kernel_costs``)."""
    return _kernel_costs(_row_evaluator(functions)(states))


def _kernel_costs(F: np.ndarray) -> np.ndarray:
    """``F`` itself when it holds no NaN and no -inf, else a copy in which a
    NaN, which forbids its state, is +inf; ``DomainError`` on a -inf cost."""
    if F.min(initial=np.inf) > -np.inf:
        return F
    if np.isneginf(F).any():
        raise DomainError("an operating cost is -inf")
    return np.where(np.isnan(F), np.inf, F)


# ---------------------------------------------------------------------------
# windowed DP kernel (few states per column)
# ---------------------------------------------------------------------------


def _window_dp(S, F, beta):
    """Lexicographically smallest minimum-cost schedule over candidate
    states ``S[t, i]`` (ascending per slot, duplicates allowed) with
    operating costs ``F[t, i]``; returns ``(x, feasible)``.

    Runs the compiled kernel when a C compiler is at hand, else the numpy
    one; both give the same schedule bit for bit."""
    lib = kernels.load()
    # The numpy kernel also raises the errors for empty or mismatched arrays.
    if lib is None or np.size(S) == 0 or np.shape(S) != np.shape(F):
        return _window_dp_numpy(S, F, beta)
    S, F = (a if a.flags.forc else np.ascontiguousarray(a)
            for a in (np.asarray(S, dtype=np.int64), np.asarray(F, dtype=np.float64)))
    T, W = S.shape
    x = np.empty(T, dtype=np.int64)
    P = np.empty(max(T - 1, 0) * W, dtype=np.int64)
    work = np.empty(2 * W, dtype=np.float64)
    ok = lib.window_dp(T, W, S.ctypes.data, *(n // 8 for n in S.strides),
                       F.ctypes.data, *(n // 8 for n in F.strides), float(beta),
                       work.ctypes.data, P.ctypes.data, x.ctypes.data)
    return x, bool(ok)


def _window_dp_numpy(S, F, beta):
    """The numpy window kernel.

    The backward pass stores, for every state of slot t, the first argmin
    over the next slot of reach cost plus suffix value.  That is the choice
    the forward greedy makes from that state, so the schedule is a walk
    along the pointer table."""
    T, W = S.shape
    d = S[1:, None, :] - S[:-1, :, None]
    climb = np.where(d > 0, beta * d, 0.0)
    H = np.zeros((T, W), dtype=np.float64)
    P = np.empty((T - 1, W), dtype=np.int64)
    for t in range(T - 2, -1, -1):
        M = (F[t + 1] + H[t + 1]) + climb[t]
        H[t] = M.min(1)
        P[t] = M.argmin(1)
    v = beta * S[0] + F[0] + H[0]
    i = int(np.argmin(v))
    if not np.isfinite(v[i]):
        return np.empty(T, dtype=np.int64), False
    path = [i]
    for row in P.tolist():
        i = row[i]
        path.append(i)
    return S[np.arange(T), path], True


# ---------------------------------------------------------------------------
# full-grid DP (oracle)
# ---------------------------------------------------------------------------


def _climb_min(c: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """``min over y of c[y] + (ramp[y] - ramp[x])^+`` for a non-decreasing
    ramp: the prefix minimum of ``c`` against the suffix minimum of the
    climb costs ``c + ramp``, less the ramp.  It works in place: with more
    O(m) temporaries per call the allocator gave pages back to the system
    and faulted them in again on every slot."""
    climb = np.add(c, ramp)[::-1]
    np.minimum.accumulate(climb, out=climb)
    climb = climb[::-1]
    climb -= ramp
    return np.minimum(np.minimum.accumulate(c), climb, out=climb)


#: Cells per block of slots whose costs ``_dp_grid`` evaluates at once: a
#: full T x (m+1) cost table would double the memory of the DP.
_DP_BLOCK_CELLS = 1 << 16


def _dp_grid(instance: ProblemInstance) -> tuple[np.ndarray, int]:
    """O(m)-per-column DP over the full allowed grid, one climb step per
    column; each pass evaluates the costs a block of slots at a time and
    hands the block to its kernel."""
    states = instance.allowed_states()
    sf = states.astype(np.float64)
    beta = instance.beta
    ramp = beta * sf
    fns = instance.functions
    T, n = instance.T, states.size
    step = max(1, _DP_BLOCK_CELLS // n)

    def blocks(ts):
        for i in range(0, len(ts), step):
            block = ts[i:i + step]
            yield block[0], evaluate_rows([fns[t] for t in block],
                                          np.broadcast_to(states, (len(block), n)))

    H = np.empty((T, n), dtype=np.float64)
    H[T - 1] = 0.0
    for t, F in blocks(range(T - 1, 0, -1)):
        _grid_backward(F, H, t, ramp)
    x = np.empty(T, dtype=np.int64)
    for t, F in blocks(range(T)):
        if not _grid_forward(F, H, t, states, sf, beta, x) and t == 0:
            raise InfeasibleError("no feasible schedule exists")
    return x, T * n


def _grid_backward(F, H, t, ramp):
    """Backward pass over the slots t, t-1, ... whose costs are the rows of
    ``F``: ``H[t-1-r]`` becomes the climb minimum of ``F[r] + H[t-r]``.
    ``H`` is a C-ordered float64 table with a row per slot, and t >= len(F).
    Runs the compiled kernel when there is one, else the numpy twin."""
    lib = kernels.load()
    if lib is None:
        return _grid_backward_numpy(F, H, t, ramp)
    F = np.ascontiguousarray(F, dtype=np.float64)
    work = np.empty(H.shape[1], dtype=np.float64)
    lib.grid_backward(len(F), H.shape[1], F.ctypes.data, ramp.ctypes.data,
                      H[t].ctypes.data, work.ctypes.data)


def _grid_backward_numpy(F, H, t, ramp):
    for r, f in enumerate(F):
        H[t - 1 - r] = _climb_min(f + H[t - r], ramp)


def _grid_forward(F, H, t, states, sf, beta, x) -> bool:
    """Forward pass over the slots t, t+1, ... whose costs are the rows of
    ``F``: each slot's first cheapest state, reached from the state chosen
    before it (0 before slot 0), goes into ``x``.  Returns whether slot t's
    minimum is finite.  Runs the compiled kernel when there is one, else the
    numpy twin."""
    lib = kernels.load()
    if lib is None:
        return _grid_forward_numpy(F, H, t, states, sf, beta, x)
    F = np.ascontiguousarray(F, dtype=np.float64)
    return bool(lib.grid_forward(len(F), len(states), F.ctypes.data, H[t].ctypes.data,
                                 states.ctypes.data, sf.ctypes.data, float(beta),
                                 int(x[t - 1]) if t else 0, x[t:].ctypes.data))


def _grid_forward_numpy(F, H, t, states, sf, beta, x) -> bool:
    prev = x[t - 1] if t else 0
    finite = True
    for r, f in enumerate(F):
        v = beta * np.maximum(sf - prev, 0.0) + f + H[t + r]
        i = int(np.argmin(v))
        finite = finite if r else bool(np.isfinite(v[i]))
        x[t + r] = prev = states[i]
    return finite


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _window_schedule(S, F, beta) -> np.ndarray:
    """The window kernel's schedule; ``InfeasibleError`` if it has none."""
    x, feasible = _window_dp(S, F, beta)
    if not feasible:
        raise InfeasibleError("no feasible schedule exists")
    return x


def dp_optimal(instance: ProblemInstance, columns: np.ndarray | None = None) -> SolveResult:
    """Minimum-cost schedule over the given candidate states per slot.

    With ``columns=None`` the full allowed grid is used in every slot;
    otherwise row t of the ``(T, W)`` array ``columns`` holds slot t's
    candidates, repeats allowed, as ``refine_candidates`` builds them.
    Among equal-cost optima the lexicographically smallest schedule is
    returned, and the reported cost is re-evaluated from the schedule.
    """
    _check_fleet(instance)
    if columns is None:
        x, probed = _dp_grid(instance)
    else:
        S = np.asarray(columns, dtype=np.int64)
        if S.ndim != 2 or len(S) != instance.T or S.size == 0:
            raise ShapeError(f"expected a non-empty ({instance.T}, W) array of candidate "
                             f"states, got shape {S.shape}")
        S = np.sort(S, axis=1)
        bad = ~instance.is_allowed(S)
        if bad.any():
            t, i = np.argwhere(bad)[0]
            raise DomainError(f"candidate state {S[t, i]} in column {t + 1} is not allowed")
        x = _window_schedule(S, evaluate_rows(instance.functions, S), instance.beta)
        probed = S.size
    cost = eval_cost(instance, x).total
    return SolveResult(schedule=x, cost=cost, iterations=1, states_probed=probed)


class PaddedCost(CostFunction):
    """Original cost below the true fleet size, a steep linear penalty
    ``x * (f(m) + eps_pad)`` above it."""

    kind = "padded"

    def __init__(self, inner: CostFunction, m_orig: int, eps_pad: float):
        self.inner = inner
        self.m_orig = int(m_orig)
        self.eps_pad = eps_pad

    @classmethod
    def rows(cls, fns):
        inner = _row_evaluator([f.inner for f in fns])
        m0 = np.array([f.m_orig for f in fns])[:, None]
        slope = inner(m0) + np.array([f.eps_pad for f in fns])[:, None]
        # Lanes at or below m0 never read the slope, whose 0 * inf is NaN.
        return lambda S: np.where(S <= m0, inner(np.minimum(S, m0)),
                                  np.maximum(S, m0 + 1) * slope)


def pad_to_power_of_two(instance: ProblemInstance, eps_pad: float = 1.0) -> ProblemInstance:
    """Grow the fleet to the next power of two; the identity if it already
    is one. Padded states are strictly dominated whenever eps_pad > 0."""
    if eps_pad <= 0:
        raise ConfigError("eps_pad must be positive")
    m = instance.m
    if m & (m - 1) == 0:
        return instance
    m2 = 1 << m.bit_length()
    fns = tuple(PaddedCost(f, m, eps_pad) for f in instance.functions)
    return instance.replace(m=m2, functions=fns)


#: The largest fleet whose states, padded to a power of two, fit int64.
_MAX_FLEET = 1 << 62


def _check_fleet(instance: ProblemInstance) -> None:
    if instance.m > _MAX_FLEET:
        raise ConfigError(f"m = {instance.m} exceeds the exact solvers' limit 2^62")


def _has_finite_state(f: CostFunction, m: int) -> bool:
    """Whether ``f`` is finite somewhere on 0..m, read a block of states at
    a time, so that a slot with no feasible state costs no O(m) memory."""
    return any((f.eval_grid(np.arange(lo, min(lo + _DP_BLOCK_CELLS, m + 1))) < np.inf).any()
               for lo in range(0, m + 1, _DP_BLOCK_CELLS))


def refine_candidates(schedule: Sequence[int], k: int, m: int) -> np.ndarray:
    """The windows of a grid twice as fine around an optimum on multiples of
    2^k: per slot, the five states x + {-2, -1, 0, 1, 2} * 2^(k-1), clipped
    to [0, m], as a ``(T, 5)`` array that repeats the edge state where the
    window is clipped.  Column-major storage keeps numpy's loops T long."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    x = np.asarray(schedule, dtype=np.int64)
    misaligned = x % (1 << k) != 0
    if misaligned.any():
        t = int(np.argmax(misaligned))
        raise AlignmentError(f"state {x[t]} in slot {t + 1} is not a multiple of {1 << k}")
    S = np.add.outer(_REFINE_OFFSETS << (k - 1), x).T
    return np.clip(S, 0, m, out=S)


def solve_poly(instance: ProblemInstance) -> SolveResult:
    """Optimal schedule by binary search over nested five-state windows.

    After padding the fleet to a power of two, each pass optimizes over
    the windows that ``refine_candidates`` builds around the last optimum,
    on a grid twice as fine as the last one: the first pass, around m/2,
    probes the rows {0, m/4, m/2, 3m/4, m}.  Fleets below four states, and
    instances with a slot that is infinite at both 0 and m, fall back to the
    full DP: such a slot's finite states may all miss the first window.
    """
    if instance.allowed_step != 1:
        raise ConfigError("the window solver requires the full state grid")
    _check_fleet(instance)
    padded = pad_to_power_of_two(instance)
    mp = padded.m
    if mp < 4:
        return dp_optimal(instance)
    K = mp.bit_length() - 3  # mp = 2^(K+2)
    rows = _row_evaluator(padded.functions)
    ends = rows(np.broadcast_to(np.array([0, mp], dtype=np.int64), (instance.T, 2)))
    dead = np.flatnonzero(~(ends < np.inf).any(axis=1))
    if dead.size:
        if not all(_has_finite_state(instance.functions[t], instance.m) for t in dead):
            raise InfeasibleError("no feasible schedule exists")
        return dp_optimal(instance)
    x = np.full(instance.T, mp // 2, dtype=np.int64)
    probed = 0
    for k in range(K + 1, 0, -1):
        S = refine_candidates(x, k, mp)
        # F stays bound until the next level's rows replace it: passing
        # rows(S) straight to the kernel made the solve about 30 % slower at
        # T = 1e4, m = 2^20 (2-core x86 host, numpy 2.4).
        F = _kernel_costs(rows(S))
        x = _window_schedule(S, F, instance.beta)
        probed += S.size
    if int(x.max()) > instance.m:
        raise ContractError("padded state survived into the final schedule")
    cost = eval_cost(instance, x).total
    return SolveResult(schedule=x, cost=cost, iterations=K + 1, states_probed=probed)


# ---------------------------------------------------------------------------
# instance transforms
# ---------------------------------------------------------------------------


class _DomainScaledCost(CostFunction):
    """Evaluates the wrapped function at ``x * factor`` (exact values)."""

    kind = "domain_scaled"

    def __init__(self, inner: CostFunction, factor: int):
        self.inner = inner
        self.factor = int(factor)

    @classmethod
    def rows(cls, fns):
        inner = _row_evaluator([f.inner for f in fns])
        factor = np.array([[f.factor] for f in fns])
        return lambda S: inner(S * factor)


def restrict_phi(instance: ProblemInstance, k: int) -> ProblemInstance:
    """Keep only states that are multiples of 2^k (grid coarsening)."""
    if k < 0:
        raise ConfigError("k must be >= 0")
    step = math.lcm(instance.allowed_step, 1 << k)
    if step > instance.m:
        raise ConfigError(f"grid step {step} leaves only the idle state")
    return instance.replace(allowed_step=step)


def scale_psi(instance: ProblemInstance, l: int) -> ProblemInstance:
    """Shrink the state space by 2^l and scale the switching constant up by
    2^l; schedules map by division and keep exactly the same cost."""
    if l < 0:
        raise ConfigError("l must be >= 0")
    if l == 0:
        return instance
    fac = 1 << l
    if instance.m % fac != 0:
        raise AlignmentError(f"m = {instance.m} is not divisible by {fac}")
    if instance.allowed_step % fac != 0:
        raise AlignmentError(f"allowed states are not all divisible by {fac}")
    fns = []
    for f in instance.functions:
        if isinstance(f, TableCost):
            fns.append(TableCost(f.values[::fac]))
        elif isinstance(f, AffineAbsCost):
            fns.append(AffineAbsCost(f.eps * fac, f.center / fac))
        else:
            fns.append(_DomainScaledCost(f, fac))
    return instance.replace(m=instance.m // fac, beta=instance.beta * fac,
                            functions=tuple(fns),
                            allowed_step=instance.allowed_step // fac)


def round_fractional(xbar: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise floor and ceiling of a fractional schedule."""
    arr = np.asarray(xbar, dtype=np.float64)
    return np.floor(arr).astype(np.int64), np.ceil(arr).astype(np.int64)


class _FractionalGridCost(CostFunction):
    """Interpolated operating cost sampled on a grid of spacing 1/denom."""

    kind = "fractional_grid"

    def __init__(self, inner: CostFunction, denom: int):
        self.inner = inner
        self.denom = int(denom)

    @classmethod
    def rows(cls, fns):
        inner = _row_evaluator([f.inner for f in fns])
        denom = np.array([[f.denom] for f in fns])

        def rows(J):
            q, r = np.divmod(J.astype(np.int64, copy=False), denom)
            # On-grid lanes read q twice, never past m, and keep f(q): 0 * inf is NaN.
            lo = inner(q)
            hi = inner(np.where(r == 0, q, q + 1))
            frac = r / denom
            with np.errstate(invalid="ignore"):
                mixed = (1.0 - frac) * lo + frac * hi
            return np.where(r == 0, lo, mixed)

        return rows


def fractional_grid_optimum(instance: ProblemInstance, denom: int = 2) -> np.ndarray:
    """Optimal fractional schedule over the grid of multiples of 1/denom,
    using interpolated operating costs.  denom should be a power of two so
    the grid costs match the continuous extension exactly."""
    if denom < 1:
        raise ConfigError("denom must be a positive integer")
    fns = tuple(_FractionalGridCost(f, denom) for f in instance.functions)
    grid = ProblemInstance(instance.T, instance.m * denom, instance.beta / denom,
                           fns, convention=instance.convention)
    res = dp_optimal(grid)
    return res.schedule.astype(np.float64) / denom
