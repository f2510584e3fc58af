"""Problem instances, cost functions, and schedule cost evaluation.

A problem instance couples a horizon of convex per-slot operating-cost
functions with a switching cost charged when servers are powered up
(`up_only` convention) or split evenly between power-ups and power-downs
(`symmetric` convention).  Schedules are integer server counts per slot,
implicitly starting and ending with every server asleep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

CONVENTIONS = ("up_only", "symmetric")


class DomainError(ValueError):
    """A state is outside [0, m] or not in the allowed-state set."""


class ShapeError(ValueError):
    """A schedule or candidate structure has the wrong length."""


class InfeasibleError(ValueError):
    """A schedule violates a per-slot feasibility constraint."""


class AlignmentError(ValueError):
    """A state is not aligned to the required grid."""


class ConfigError(ValueError):
    """An algorithm parameter is outside its admissible set."""


class ContractError(RuntimeError):
    """A numerical post-condition was violated beyond tolerance."""


class SchemaError(ValueError):
    """An instance document does not match the JSON schema."""


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------


class CostFunction:
    """Evaluable operating-cost function on integer server counts.

    Subclasses state their formula once, in the batched ``rows``; one state
    (``__call__``) and one row of states (``eval_grid``) are evaluated
    through it.  They may override ``violations`` and ``slope_breakpoints``.
    Values must be non-negative and convex; ``math.inf`` marks states that
    are infeasible for the slot.
    """

    kind = "abstract"

    def __call__(self, x: float) -> float:
        return float(self.eval_grid(np.array([x]))[0])

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        return type(self).rows([self])(np.asarray(xs)[None])[0]

    def violations(self, m: int) -> list[str]:
        """Why this is not a valid slot cost on the states 0..m (empty if it is)."""
        return _grid_violations(self.eval_grid(np.arange(m + 1, dtype=np.int64)))

    def slope_breakpoints(self) -> tuple[float, Sequence[tuple[int, float]]] | None:
        """``(s0, [(x_i, w_i), ...])`` with ``f(x + 1) - f(x) = s0 + sum of
        w_i over x_i <= x`` on every integer x, or None for kinds without
        such a closed form."""
        return None

    @classmethod
    def rows(cls, fns: Sequence["CostFunction"]) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator ``S -> F`` with ``F[r, i] = fns[r](S[r, i])`` for slots of
        this kind, gathering the slots' parameters once up front."""
        raise NotImplementedError


def row_evaluator(functions: Sequence[CostFunction]) -> Callable[[np.ndarray], np.ndarray]:
    """Reusable row evaluator ``S -> F`` with ``F[t, i] = f_t(S[t, i])``.

    Slots are grouped by cost kind and each kind's ``rows`` gathers its
    parameters once, so repeated evaluations pay only vectorized work.
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
        F = np.empty(np.shape(S), dtype=np.float64)
        for ts, kind_rows in parts:
            F[ts] = kind_rows(S[ts])
        return F

    return rows


def slot_costs(functions: Sequence[CostFunction], states) -> np.ndarray:
    """``f_t(x_t)`` for every slot t, in one batched evaluation."""
    return row_evaluator(functions)(np.asarray(states)[:, None])[:, 0]


class TableCost(CostFunction):
    """Cost function materialized as a table over 0..m."""

    kind = "table"

    def __init__(self, values: Sequence[float]):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ShapeError("table must be a non-empty 1-d sequence")

    @classmethod
    def rows(cls, fns):
        if len({f.values.size for f in fns}) > 1:
            return lambda S: np.array([f.values[s] for f, s in
                                       zip(fns, S.astype(np.int64, copy=False))])
        V = np.stack([f.values for f in fns])
        r = np.arange(len(fns))[:, None]
        return lambda S: V[r, S.astype(np.int64, copy=False)]

    def violations(self, m: int) -> list[str]:
        if self.values.size != m + 1:
            return [f"table has {self.values.size} entries, expected {m + 1}"]
        return _grid_violations(self.values)


class AffineAbsCost(CostFunction):
    """V-shaped cost ``eps * |x - center|``."""

    kind = "affine_abs"

    def __init__(self, eps: float, center: float):
        if eps <= 0:
            raise ConfigError("eps must be positive")
        self.eps = float(eps)
        self.center = float(center)

    @classmethod
    def rows(cls, fns):
        eps = np.array([f.eps for f in fns])[:, None]
        cen = np.array([f.center for f in fns])[:, None]

        def rows(S):
            F = np.subtract(S, cen)
            np.abs(F, out=F)
            return np.multiply(eps, F, out=F)

        return rows

    def violations(self, m: int) -> list[str]:
        # Convex and non-negative for any finite parameters.
        return _parameter_violations(eps=self.eps, center=self.center)

    def slope_breakpoints(self):
        # Slope -eps left of the centre and +eps right of it; a centre
        # between two states splits the jump over its floor and ceiling.
        k = math.floor(self.center)
        frac = self.center - k
        return -self.eps, ((k, 2.0 * self.eps * (1.0 - frac)), (k + 1, 2.0 * self.eps * frac))


class RestrictedLoadCost(CostFunction):
    """Cost of spreading a load over x servers: ``x * unit(load / x)`` with
    the unit-server cost ``unit(z) = eps * |1 - slope_k * z|`` at
    utilisation z in [0, 1] (the restricted model of Lin et al.).

    States below the load are infeasible and evaluate to ``inf``; an idle
    slot (x = 0, load = 0) costs nothing.
    """

    kind = "restricted"

    def __init__(self, load: float, *, eps: float, slope_k: float):
        if load < 0:
            raise ConfigError("load must be non-negative")
        self.load = float(load)
        self.eps = eps
        self.slope_k = slope_k

    @classmethod
    def rows(cls, fns):
        load, eps, k = (np.array([[getattr(f, a)] for f in fns], dtype=np.float64)
                        for a in ("load", "eps", "slope_k"))

        def rows(S):
            x = np.asarray(S, dtype=np.float64)
            # x = 0 divides by zero; those lanes are replaced below.
            with np.errstate(divide="ignore", invalid="ignore"):
                F = x * (eps * np.abs(1.0 - k * (load / x)))
            return np.where(x < load, math.inf, np.where(x == 0, 0.0, F))

        return rows

    def violations(self, m: int) -> list[str]:
        # eps * |x - slope_k * load| on x >= load: convex and non-negative.
        # A load above m is valid input with no feasible schedule.
        return _parameter_violations(eps=self.eps, slope_k=self.slope_k, load=self.load)


class StretchedCopyCost(CostFunction):
    """One of ``divisor`` equal-weight copies of a cost function.

    The copies of one slot sum back to the original function; with a
    power-of-two divisor the identity is exact in floating point.
    """

    kind = "stretched_copy"

    def __init__(self, inner: CostFunction, divisor: int):
        if divisor < 1:
            raise ConfigError("divisor must be a positive integer")
        self.inner = inner
        self.divisor = int(divisor)

    @classmethod
    def rows(cls, fns):
        inner = row_evaluator([f.inner for f in fns])
        divisor = np.array([[f.divisor] for f in fns])
        return lambda S: inner(S) / divisor


# ---------------------------------------------------------------------------
# instances and schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    """Right-sizing instance: horizon, fleet size, switching constant,
    per-slot cost functions, allowed-state grid, and cost convention.

    ``allowed_step`` restricts schedules to multiples of that step
    (1 means every integer in [0, m] is allowed; 0 is always allowed).
    """

    T: int
    m: int
    beta: float
    functions: tuple[CostFunction, ...]
    allowed_step: int = 1
    convention: str = "up_only"

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError("T must be a positive integer")
        if self.m < 1:
            raise ConfigError("m must be a positive integer")
        if not (0 < self.beta < math.inf):
            raise ConfigError("beta must be finite and positive")
        if len(self.functions) != self.T:
            raise ShapeError(f"expected {self.T} cost functions, got {len(self.functions)}")
        if self.allowed_step < 1 or self.allowed_step > self.m:
            raise ConfigError("allowed_step must lie in [1, m]")
        if self.convention not in CONVENTIONS:
            raise ConfigError(f"convention must be one of {CONVENTIONS}")
        object.__setattr__(self, "functions", tuple(self.functions))

    def is_allowed(self, x):
        """Whether the state, or each state of an integer array, is allowed."""
        return (0 <= x) & (x <= self.m) & (x % self.allowed_step == 0)

    def allowed_states(self) -> np.ndarray:
        return np.arange(0, self.m + 1, self.allowed_step, dtype=np.int64)

    def replace(self, **kw) -> "ProblemInstance":
        base = dict(T=self.T, m=self.m, beta=self.beta, functions=self.functions,
                    allowed_step=self.allowed_step, convention=self.convention)
        base.update(kw)
        return ProblemInstance(**base)


@dataclass(frozen=True)
class CostBreakdown:
    operating: float
    switching: float
    total: float

    @classmethod
    def of(cls, operating: float, switching: float) -> "CostBreakdown":
        return cls(operating, switching, operating + switching)


def as_schedule(x: Iterable[int]) -> np.ndarray:
    arr = np.asarray(list(x) if not isinstance(x, (np.ndarray, list, tuple)) else x)
    if arr.ndim != 1:
        raise ShapeError("schedule must be one-dimensional")
    # Integer arrays need no check; a non-finite float is rejected before
    # the cast to int64 would mangle it.
    if arr.dtype.kind not in "iub" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise DomainError("schedule states must be finite integers")
    return arr.astype(np.int64)


def switching_cost(beta, convention: str, up, moved):
    """Switching cost of a trajectory that powers up ``up`` units and moves
    ``moved`` units in either direction: ``beta`` per power-up, or half of
    ``beta`` per unit moved under the symmetric convention.  Works on
    scalars and on arrays alike."""
    # Single multiply of an integer move count keeps the two conventions
    # bit-identical on closed trajectories.
    if convention == "up_only":
        return beta * up
    return (beta / 2.0) * moved


def eval_cost(instance: ProblemInstance, schedule: Iterable[int]) -> CostBreakdown:
    """Total cost of an integer schedule under the instance's convention.

    The trajectory is closed: x_0 = 0 always, and under the symmetric
    convention the final power-down to x_{T+1} = 0 is charged as well.
    Raises ``InfeasibleError`` naming the first slot whose cost is not finite.
    """
    x = as_schedule(schedule)
    if x.size != instance.T:
        raise ShapeError(f"schedule length {x.size} != T = {instance.T}")
    if np.any(x < 0) or np.any(x > instance.m):
        raise DomainError("schedule state outside [0, m]")
    if instance.allowed_step > 1 and np.any(x % instance.allowed_step != 0):
        raise DomainError(f"schedule state not a multiple of {instance.allowed_step}")
    costs = slot_costs(instance.functions, x)
    operating = math.fsum(costs.tolist())
    if not math.isfinite(operating):
        t = int(np.argmin(np.isfinite(costs)))
        raise InfeasibleError(f"x_{t + 1} = {int(x[t])} is infeasible (cost {costs[t]})")
    closed = np.concatenate(([0], x, [0]))
    d = np.diff(closed)
    up = int(np.maximum(d[:-1], 0).sum())          # power-ups over t = 1..T
    total_abs = int(np.abs(d).sum())               # both directions, t = 1..T+1
    switching = switching_cost(instance.beta, instance.convention, up, total_abs)
    return CostBreakdown.of(operating, switching)


def cost_ratio(cost: float, opt: float) -> float:
    """``cost / opt``; a zero optimum gives 1 for a zero cost, else inf."""
    return cost / opt if opt > 0 else (1.0 if cost == 0 else math.inf)


class ContinuousEvaluator:
    """Fractional relaxation of an instance.

    Operating costs are interpolated linearly between consecutive integer
    states; switching uses the same formulas with real-valued moves.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance

    def operating(self, t: int, x: float) -> float:
        """Interpolated cost of x in (0-based) slot t."""
        if not (0 <= x <= self.instance.m):
            raise DomainError(f"state {x} outside [0, {self.instance.m}]")
        return float(interpolated_costs(self.instance.functions[t:t + 1], np.array([x]))[0])

    def cost(self, xbar: Iterable[float]) -> CostBreakdown:
        arr = np.asarray(list(xbar), dtype=np.float64)
        inst = self.instance
        if arr.size != inst.T:
            raise ShapeError(f"fractional schedule length {arr.size} != T = {inst.T}")
        if not np.all((arr >= 0) & (arr <= inst.m)):
            raise DomainError("fractional state outside [0, m]")
        operating = math.fsum(interpolated_costs(inst.functions, arr).tolist())
        d = np.diff(np.concatenate(([0.0], arr, [0.0])))
        switching = switching_cost(inst.beta, inst.convention,
                                   float(np.maximum(d[:-1], 0).sum()),
                                   float(np.abs(d).sum()))
        return CostBreakdown.of(operating, switching)


def interpolated_costs(functions: Sequence[CostFunction], xbar: np.ndarray) -> np.ndarray:
    """Per slot, ``f_t`` interpolated linearly between the integers around
    ``xbar_t``; exactly ``f_t(xbar_t)`` at integers."""
    lo, hi = np.floor(xbar), np.ceil(xbar)
    F = row_evaluator(functions)(np.stack([lo, hi], axis=1).astype(np.int64))
    # Integer lanes would weigh f by 0, and 0 * inf is NaN; they keep f(lo).
    with np.errstate(invalid="ignore"):
        mixed = (hi - xbar) * F[:, 0] + (xbar - lo) * F[:, 1]
    return np.where(lo == hi, F[:, 0], mixed)


def extend_continuous(instance: ProblemInstance) -> ContinuousEvaluator:
    return ContinuousEvaluator(instance)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _parameter_violations(*, eps: float, **params: float) -> list[str]:
    """Closed-form kinds: ``eps`` finite and positive, the rest finite."""
    out = [] if math.isfinite(eps) and eps > 0 else [f"eps = {eps} is not finite and positive"]
    return out + [f"{name} = {v} is not finite" for name, v in params.items()
                  if not math.isfinite(v)]


def _grid_violations(vals: np.ndarray) -> list[str]:
    """A slot's values at 0..m: NaN, else the first negative value, inf
    between finite values, and the first convexity break on finite triples."""
    if np.isnan(vals).any():
        return ["NaN value"]
    out = []
    negative = vals < 0
    if negative.any():
        out.append(f"negative value at x={int(np.argmax(negative))}")
    finite = np.isfinite(vals)
    idx = np.flatnonzero(finite)
    if idx.size and not finite[idx[0]:idx[-1] + 1].all():
        out.append("infeasible states interleave feasible ones")
    v = np.where(finite, vals, 0.0)
    a, b, c = v[:-2], v[1:-1], v[2:]
    second = a - 2.0 * b + c
    tol = -1e-9 * np.maximum(np.maximum(1.0, np.abs(a)), np.maximum(np.abs(b), np.abs(c)))
    broken = finite[:-2] & finite[1:-1] & finite[2:] & (second < tol)
    if broken.any():
        i = int(np.argmax(broken))
        out.append(f"not convex at x={i + 1} (second difference {second[i]:g} < 0)")
    return out


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Human-readable violations of the switching constant, the number of
    cost functions, and each slot's ``violations(m)``; empty if well formed.
    """
    violations: list[str] = []
    if not (0 < instance.beta < math.inf):
        violations.append("beta must be finite and positive")
    if len(instance.functions) != instance.T:
        violations.append(f"expected {instance.T} cost functions, got {len(instance.functions)}")
    for t, f in enumerate(instance.functions, start=1):
        violations += [f"f_{t}: {p}" for p in f.violations(instance.m)]
    return violations


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------


def function_to_json(f: CostFunction) -> dict:
    if isinstance(f, TableCost):
        return {"kind": "table", "values": [float(v) for v in f.values]}
    if isinstance(f, AffineAbsCost):
        return {"kind": "affine_abs", "eps": f.eps, "center": f.center}
    if isinstance(f, RestrictedLoadCost):
        return {"kind": "restricted", "eps": f.eps, "slope_k": f.slope_k,
                "lambda": f.load}
    raise SchemaError(f"cost kind {f.kind!r} has no JSON form")


def _json_number(doc: dict, field: str) -> float:
    """``doc[field]`` as a float; only a JSON number is one."""
    v = doc[field]
    # type() rather than isinstance: true and false are not numbers.
    if type(v) not in (int, float):
        raise SchemaError(f"{field!r} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise SchemaError(f"{field!r}: {exc}") from exc


def function_from_json(doc: dict) -> CostFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("function entry must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "table":
            return TableCost(doc["values"])
        if kind == "affine_abs":
            return AffineAbsCost(_json_number(doc, "eps"), _json_number(doc, "center"))
        if kind == "restricted":
            return RestrictedLoadCost(_json_number(doc, "lambda"), eps=_json_number(doc, "eps"),
                                      slope_k=_json_number(doc, "slope_k"))
    except KeyError as exc:
        raise SchemaError(f"function kind {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"function kind {kind!r}: {exc}") from exc
    raise SchemaError(f"unknown function kind {kind!r}")


def instance_to_json(instance: ProblemInstance) -> dict:
    return {
        "T": instance.T,
        "m": instance.m,
        "beta": instance.beta,
        "convention": instance.convention,
        "functions": [function_to_json(f) for f in instance.functions],
    }


def instance_from_json(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    for field in ("T", "m", "beta", "convention", "functions"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
    conv = doc["convention"]
    if conv not in CONVENTIONS:
        raise SchemaError(f"convention must be {' or '.join(map(repr, CONVENTIONS))}, "
                          f"got {conv!r}")
    if not isinstance(doc["functions"], list):
        raise SchemaError("'functions' must be an array")
    for field in ("T", "m"):
        v = doc[field]
        # type() rather than isinstance: true and false are not counts.
        if not (type(v) is int or type(v) is float and v.is_integer()):
            raise SchemaError(f"{field!r} must be an integer, got {v!r}")
    beta = _json_number(doc, "beta")
    T, m = int(doc["T"]), int(doc["m"])
    fns = tuple(function_from_json(d) for d in doc["functions"])
    try:
        instance = ProblemInstance(T, m, beta, fns, convention=conv)
    except (ConfigError, ShapeError) as exc:
        raise SchemaError(str(exc)) from exc
    for t, f in enumerate(fns, start=1):
        for problem in f.violations(m):
            raise SchemaError(f"f_{t}: {problem}")
    return instance


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read instance file: {exc}") from exc
    return instance_from_json(doc)
