"""Exact offline optimization.

Two solvers are provided: a plain dynamic program over a per-slot layered
state graph (the oracle, linear in m), and a binary-search solver that
repeatedly optimizes over five-state windows and runs in O(T log m).
Both return the lexicographically smallest minimum-cost schedule. The
window kernel is C (``window_dp.c``, compiled on first use) with a numpy
twin that gives the same schedules where no C compiler works.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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

_REFINE_OFFSETS = np.array([-2, -1, 0, 1, 2], dtype=np.int64)

ColumnCandidates = list  # list of sorted integer tuples, one per slot


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
    """Operating costs for one candidate row of states per slot."""
    return _row_evaluator(functions)(states)


def _row_evaluator(functions: Sequence[CostFunction]):
    """Reusable row evaluator ``S -> F`` with ``F[t, i] = f_t(S[t, i])``.

    Slots are grouped by cost kind and each kind's ``rows`` gathers its
    parameters once, so repeated refinement passes pay only vectorized work.
    """
    kinds = [type(f) for f in functions]
    if len(set(kinds)) == 1:
        return kinds[0].rows(functions)
    groups: dict[type, list[int]] = {}
    for t, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(t)
    parts = [(np.array(ts), kind.rows([functions[t] for t in ts]))
             for kind, ts in groups.items()]

    def rows(S):
        F = np.empty(S.shape, dtype=np.float64)
        for ts, kind_rows in parts:
            F[ts] = kind_rows(S[ts])
        return F

    return rows


# ---------------------------------------------------------------------------
# windowed DP kernel (few states per column)
# ---------------------------------------------------------------------------


def _window_dp(S, F, beta):
    """Lexicographically smallest minimum-cost schedule over candidate
    states ``S[t, i]`` (ascending per slot, duplicates allowed) with
    operating costs ``F[t, i]``; returns ``(x, feasible)``.

    Runs the compiled kernel when a C compiler is at hand, else the numpy
    one; both give the same schedule bit for bit."""
    kernel = _compiled_kernel()
    # The numpy kernel also raises the errors for empty or mismatched arrays.
    if kernel is None or np.size(S) == 0 or np.shape(S) != np.shape(F):
        return _window_dp_numpy(S, F, beta)
    S, F = (a if a.flags.forc else np.ascontiguousarray(a)
            for a in (np.asarray(S, dtype=np.int64), np.asarray(F, dtype=np.float64)))
    T, W = S.shape
    x = np.empty(T, dtype=np.int64)
    P = np.empty(max(T - 1, 0) * W, dtype=np.int64)
    work = np.empty(2 * W, dtype=np.float64)
    ok = kernel(T, W, S.ctypes.data, *(n // 8 for n in S.strides),
                F.ctypes.data, *(n // 8 for n in F.strides), float(beta),
                work.ctypes.data, P.ctypes.data, x.ctypes.data)
    return x, bool(ok)


@functools.cache
def _compiled_kernel():
    """``window_dp`` from ``window_dp.c``, built on first use into the
    package's ``__pycache__`` under a name keyed by the source hash; None
    when no C compiler works or the directory is not writable."""
    src = Path(__file__).with_name("window_dp.c")
    try:
        tag = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
        lib = src.parent / "__pycache__" / f"window_dp-{tag}.so"
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
            subprocess.run(["cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC",
                            "-o", str(tmp), str(src)], check=True, capture_output=True)
            os.replace(tmp, lib)
        fn = ctypes.CDLL(str(lib)).window_dp
    except (OSError, subprocess.CalledProcessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, i64, ptr, i64, i64, ptr, i64, i64, ctypes.c_double, ptr, ptr, ptr]
    fn.restype = ctypes.c_int
    return fn


def _window_dp_numpy(S, F, beta):
    """The numpy window kernel.

    The backward pass stores, for every state of slot t, the first argmin
    over the next slot of reach cost plus suffix value.  That is the choice
    the forward greedy makes from that state, so the schedule is a walk
    along the pointer table."""
    T, W = S.shape
    # A NaN cost never wins a strict comparison, so it marks a forbidden
    # state exactly as +inf does; min/argmin would propagate it instead.
    F = np.where(np.isnan(F), np.inf, F)
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


def _dp_grid(instance: ProblemInstance) -> tuple[np.ndarray, int]:
    """O(m)-per-column DP over the full allowed grid, one climb step per
    column.  NaN costs count as +inf, as in the window kernel."""
    states = instance.allowed_states()
    sf = states.astype(np.float64)
    beta = instance.beta
    ramp = beta * sf
    fns = instance.functions
    T = instance.T
    H = np.empty((T, states.size), dtype=np.float64)
    H[T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        H[t] = _climb_min(np.fmin(fns[t + 1].eval_grid(states), np.inf) + H[t + 1], ramp)
    x = np.empty(T, dtype=np.int64)
    v = ramp + np.fmin(fns[0].eval_grid(states), np.inf) + H[0]
    if not np.isfinite(v.min()):
        raise InfeasibleError("no feasible schedule exists")
    x[0] = states[int(np.argmin(v))]
    for t in range(1, T):
        climb = beta * np.maximum(sf - x[t - 1], 0.0)
        v = climb + np.fmin(fns[t].eval_grid(states), np.inf) + H[t]
        x[t] = states[int(np.argmin(v))]
    return x, T * states.size


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _columns_to_matrix(instance: ProblemInstance,
                       columns: Sequence[Sequence[int]]) -> np.ndarray:
    if len(columns) != instance.T:
        raise ShapeError(f"expected {instance.T} candidate columns, got {len(columns)}")
    width = 0
    for t, col in enumerate(columns, start=1):
        if len(col) == 0:
            raise ShapeError(f"empty candidate set in column {t}")
        width = max(width, len(col))
    S = np.empty((instance.T, width), dtype=np.int64)
    for t, col in enumerate(columns):
        states = sorted(col)
        for s in states:
            if not instance.is_allowed(int(s)):
                raise DomainError(f"candidate state {s} in column {t + 1} is not allowed")
        row = states + [states[-1]] * (width - len(states))
        S[t] = row
    return S


def dp_optimal(instance: ProblemInstance,
               columns: Sequence[Sequence[int]] | None = None) -> SolveResult:
    """Minimum-cost schedule over the given candidate states per slot.

    With ``columns=None`` the full allowed grid is used in every slot.
    Among equal-cost optima the lexicographically smallest schedule is
    returned, and the reported cost is re-evaluated from the schedule.
    """
    if columns is None:
        x, probed = _dp_grid(instance)
    else:
        S = _columns_to_matrix(instance, columns)
        F = evaluate_rows(instance.functions, S)
        x, feasible = _window_dp(S, F, instance.beta)
        if not feasible:
            raise InfeasibleError("no feasible schedule exists")
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
        self.slope = inner(m_orig) + eps_pad

    def __call__(self, x: float) -> float:
        if x <= self.m_orig:
            return self.inner(x)
        return x * self.slope

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        inside = self.inner.eval_grid(np.minimum(xs, self.m_orig))
        return np.where(xs <= self.m_orig, inside, xs * self.slope)

    @classmethod
    def rows(cls, fns):
        inner = _row_evaluator([f.inner for f in fns])
        m0 = np.array([f.m_orig for f in fns])[:, None]
        slope = np.array([f.slope for f in fns])[:, None]
        return lambda S: np.where(S <= m0, inner(np.minimum(S, m0)), S * slope)


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


def refine_candidates(schedule: Sequence[int], k: int, m: int) -> ColumnCandidates:
    """Candidate columns for a grid twice as fine around a coarse optimum:
    per slot, the five states x +/- {0, 1, 2} * 2^(k-1), clipped to [0, m]."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    step = 1 << k
    half = step >> 1
    cols: ColumnCandidates = []
    for t, x in enumerate(np.asarray(schedule, dtype=np.int64), start=1):
        if x % step != 0:
            raise AlignmentError(f"state {int(x)} in slot {t} is not a multiple of {step}")
        vals = x + _REFINE_OFFSETS * half
        vals = vals[(vals >= 0) & (vals <= m)]
        cols.append(tuple(int(v) for v in vals))
    return cols


def solve_poly(instance: ProblemInstance) -> SolveResult:
    """Optimal schedule by binary search over nested five-state windows.

    After padding the fleet to a power of two, iteration k restricts the
    states to multiples of 2^k: the first pass uses the five rows
    {0, m/4, m/2, 3m/4, m}, and each later pass re-centers a five-state
    window on the previous optimum.  Fleets below four states fall back
    to the full DP.
    """
    if instance.allowed_step != 1:
        raise ConfigError("the window solver requires the full state grid")
    padded = pad_to_power_of_two(instance)
    mp = padded.m
    if mp < 4:
        return dp_optimal(instance)
    K = mp.bit_length() - 3  # mp = 2^(K+2)
    T = instance.T
    beta = instance.beta
    rows = _row_evaluator(padded.functions)
    S = np.tile(np.arange(5, dtype=np.int64) * (1 << K), (T, 1))
    probed = 0
    x = None
    for k in range(K, -1, -1):
        F = rows(S)
        x, feasible = _window_dp(S, F, beta)
        if not feasible:
            raise InfeasibleError("no feasible schedule exists")
        probed += S.size
        if k > 0:
            half = 1 << (k - 1)
            # Column-major storage keeps numpy's inner loops T long.
            S = np.add.outer(_REFINE_OFFSETS * half, x).T
            np.clip(S, 0, mp, out=S)
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

    def __call__(self, x: float) -> float:
        return self.inner(x * self.factor)

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        return self.inner.eval_grid(np.asarray(xs) * self.factor)


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

    def __call__(self, j: float) -> float:
        num, denom = int(j), self.denom
        q, r = divmod(num, denom)
        if r == 0:
            return self.inner(q)
        frac = r / denom
        return (1.0 - frac) * self.inner(q) + frac * self.inner(q + 1)

    def eval_grid(self, js: np.ndarray) -> np.ndarray:
        q, r = np.divmod(np.asarray(js, dtype=np.int64), self.denom)
        # On-grid lanes read q twice, never past m, and keep f(q): 0 * inf is NaN.
        lo = self.inner.eval_grid(q)
        hi = self.inner.eval_grid(np.where(r == 0, q, q + 1))
        frac = r / self.denom
        with np.errstate(invalid="ignore"):
            mixed = (1.0 - frac) * lo + frac * hi
        return np.where(r == 0, lo, mixed)


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
