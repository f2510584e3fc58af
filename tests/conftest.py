"""Shared instance generators for the test suite."""

from __future__ import annotations

import math

import numpy as np

from rightsizing import AffineAbsCost, ProblemInstance, TableCost, randomized
from rightsizing.model import ContractError


def convex_table(rng: np.random.Generator, m: int, integer: bool = False) -> TableCost:
    """Random convex table on [0, m]: cumulative sums of sorted slopes,
    shifted to stay non-negative."""
    if integer:
        slopes = np.sort(rng.integers(-5, 6, size=m)).astype(np.float64)
        v0 = float(rng.integers(0, 8))
    else:
        slopes = np.sort(rng.uniform(-4.0, 4.0, size=m))
        v0 = float(rng.uniform(0.0, 5.0))
    vals = np.concatenate(([v0], v0 + np.cumsum(slopes)))
    vals = vals - min(float(vals.min()), 0.0)
    return TableCost(vals)


def random_table_instance(rng: np.random.Generator, T: int, m: int,
                          beta: float | None = None,
                          convention: str = "up_only",
                          integer: bool = False) -> ProblemInstance:
    if beta is None:
        beta = float(rng.uniform(0.1, 5.0))
    fns = tuple(convex_table(rng, m, integer=integer) for _ in range(T))
    return ProblemInstance(T, m, beta, fns, convention=convention)


def random_affine_instance(rng: np.random.Generator, T: int, m: int,
                           beta: float | None = None) -> ProblemInstance:
    if beta is None:
        beta = float(rng.uniform(0.1, 5.0))
    eps = rng.uniform(0.1, 2.0, size=T)
    centers = rng.uniform(0.0, m, size=T)
    fns = tuple(AffineAbsCost(float(e), float(c)) for e, c in zip(eps, centers))
    return ProblemInstance(T, m, beta, fns)


def dyadic_beta(rng: np.random.Generator) -> float:
    """A switching constant expressible exactly in binary, for exactness
    tests that compare costs across summation orders."""
    return float(rng.integers(1, 33)) / 8.0


def scalar_transition(xbar_prev: float, xbar_t: float) -> tuple[int, int, float, int]:
    """One slot of the rounding rule in scalar arithmetic, the reference for
    ``randomized._transitions``: the floor and ceiling of ``xbar_t``, the
    probability of moving, and the direction of the move (1 up to the
    ceiling, -1 down to the floor, 0 when ``xbar_t`` is integral).  Reads
    ``randomized._PROB_SLACK`` when called, so patching it reaches both."""
    lo = math.floor(xbar_t)
    hi = math.ceil(xbar_t)
    if lo == hi:
        return lo, hi, 0.0, 0
    proj = min(max(xbar_prev, float(lo)), float(hi))
    frac_proj = proj - math.floor(proj)
    if xbar_prev <= xbar_t:
        p, direction = (xbar_t - proj) / (1.0 - frac_proj), 1
    else:
        den = frac_proj if frac_proj > 0.0 else 1.0  # projection sits on the ceiling
        p, direction = (proj - xbar_t) / den, -1
    if p < -randomized._PROB_SLACK or p > 1.0 + randomized._PROB_SLACK:
        raise ContractError(f"transition probability {p} outside [0, 1]")
    return lo, hi, min(max(p, 0.0), 1.0), direction
