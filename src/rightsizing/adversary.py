"""Adversarial workload generators and duel orchestration.

The generators emit two-level V-shaped cost functions that punish
whatever the online policy just did; duels alternate adversary and policy
steps, score the realized workload against the offline optimum, and
report the empirical competitive ratio.  All duels charge switching
symmetrically (half the constant per direction) with the constant fixed
at 2, so one state change costs exactly 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lcp import lcp_init, lcp_step
from .model import (
    AffineAbsCost,
    ConfigError,
    CostFunction,
    ProblemInstance,
    RestrictedLoadCost,
    StretchedCopyCost,
    eval_cost,
    switching_cost,
)
from .offline import dp_optimal
from .randomized import (
    TOWARD_ONE,
    TOWARD_ZERO,
    AlgorithmB,
    AlgorithmBState,
    algorithm_b_step,
    rounding_ensemble,
)

DUEL_BETA = 2.0
_BOUNDARY_TOL = 1e-12

VARIANTS = ("discrete", "continuous", "randomized", "restricted")


def pull_cost(label: str, eps: float) -> AffineAbsCost:
    """The V-shaped cost whose minimum sits at the labelled level."""
    if label == TOWARD_ZERO:
        return AffineAbsCost(eps, 0.0)
    if label == TOWARD_ONE:
        return AffineAbsCost(eps, 1.0)
    raise ConfigError(f"unknown workload label {label!r}")


def adv_discrete_step(alg_state: int, eps: float) -> CostFunction:
    """Binary-state rule: always charge the level the policy occupies."""
    if alg_state not in (0, 1):
        raise ConfigError("the discrete adversary expects a binary state")
    return pull_cost(TOWARD_ONE if alg_state == 0 else TOWARD_ZERO, eps)


def adv_continuous_step(a_t: float, b_t: float, eps: float) -> CostFunction:
    """Fractional-state rule against a reference trajectory.

    Boundary states override the comparison; on the comparison itself a
    tie counts as "not above the reference" and pulls up.
    """
    if not (0.0 <= a_t <= 1.0) or not (0.0 <= b_t <= 1.0):
        raise ConfigError("states must lie in [0, 1]")
    if a_t >= 1.0 - _BOUNDARY_TOL:
        return pull_cost(TOWARD_ZERO, eps)
    if a_t <= _BOUNDARY_TOL:
        return pull_cost(TOWARD_ONE, eps)
    if a_t > b_t:
        return pull_cost(TOWARD_ZERO, eps)
    return pull_cost(TOWARD_ONE, eps)


def build_restricted(labels: Sequence[str], variant: str, eps: float,
                     k: float = 2.0, *, convention: str = "symmetric") -> ProblemInstance:
    """Load-based instance replaying a two-level workload.

    The discrete embedding plays on two servers with loads 0.5 / 1 so the
    cost at x of the load model equals the two-level cost at x - 1; the
    continuous embedding uses loads 0 / (1/k) and matches states as-is.
    """
    if not labels:
        raise ConfigError("need at least one workload label")
    if variant == "discrete":
        m, slope_k = 2, 2.0
        loads = [0.5 if lab == TOWARD_ZERO else 1.0 for lab in labels]
    elif variant == "continuous":
        if k < 1:
            raise ConfigError("k must be >= 1")
        m, slope_k = 1, k
        loads = [0.0 if lab == TOWARD_ZERO else 1.0 / k for lab in labels]
    else:
        raise ConfigError(f"unknown restricted variant {variant!r}")
    fns = tuple(RestrictedLoadCost(load, eps=eps, slope_k=slope_k) for load in loads)
    return ProblemInstance(len(labels), m, DUEL_BETA, fns, convention=convention)


def stretch_prediction(instance: ProblemInstance, w: int, m_factor: int) -> ProblemInstance:
    """Replace each slot by ``m_factor * w`` equal-weight copies of itself.

    The copies of one slot sum back to the original cost, so the optimum
    can only get cheaper; lookahead windows of length w see at most one
    original slot ahead in the stretched workload.
    """
    if w < 1 or m_factor < 1:
        raise ConfigError("w and m_factor must be positive integers")
    copies = w * m_factor
    fns = []
    for f in instance.functions:
        fns.extend(StretchedCopyCost(f, copies) for _ in range(copies))
    return instance.replace(T=instance.T * copies, functions=tuple(fns))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class LcpPolicy:
    """Integer-valued lazy policy (see :mod:`rightsizing.lcp`)."""

    name = "lcp"

    def __init__(self, m: int, beta: float):
        self._state = lcp_init(m, beta)

    def step(self, f: CostFunction) -> int:
        return lcp_step(self._state, f).chosen

    @property
    def state(self) -> int:
        return self._state.x_lcp


def _resolve_policy(policy, variant: str, eps: float, m: int):
    if not isinstance(policy, str):
        return policy
    if policy == "lcp":
        if variant in ("continuous",):
            raise ConfigError("the continuous adversary needs a fractional policy")
        return LcpPolicy(m, DUEL_BETA)
    if policy == "algorithm-b":
        if variant in ("discrete",):
            raise ConfigError("the discrete adversary needs an integer policy")
        return AlgorithmB(eps)
    if policy == "random-round":
        if variant != "randomized":
            raise ConfigError("the rounding policy duels the randomized adversary")
        return None  # rounding duels are ensemble-driven, built in place
    raise ConfigError(f"unknown policy {policy!r}")


# ---------------------------------------------------------------------------
# duels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryConfig:
    eps: float
    variant: str = "discrete"
    T: int | None = None
    seed: int = 0
    n_runs: int = 400

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ConfigError("eps must lie in (0, 1]")
        inv = 1.0 / self.eps
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigError("1/eps must be a positive integer")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.T is None:
            object.__setattr__(self, "T", int(math.ceil(inv * inv)))
        if self.T < 1:
            raise ConfigError("T must be positive")


@dataclass
class DuelReport:
    variant: str
    policy: str
    eps: float
    beta: float
    T: int
    policy_cost: float
    opt_cost: float
    ratio: float
    opt_bound: float | None
    switch_count: int
    label_digest: str
    label_counts: dict
    seed: int
    termination: str = "horizon"
    n_runs: int | None = None
    fractional_cost: float | None = None
    embedding_max_dev: float | None = None
    general_policy_cost: float | None = None
    general_opt_cost: float | None = None
    general_ratio: float | None = None
    policy_cost_up_only: float | None = None
    instance: ProblemInstance | None = None  # realized workload, not serialized

    def to_json(self) -> dict:
        out = {}
        for key, val in self.__dict__.items():
            if val is None or key == "instance":
                continue
            out[key] = val
        return out


def _digest(labels: Sequence[str]) -> tuple[str, dict]:
    bits = "".join("1" if lab == TOWARD_ONE else "0" for lab in labels)
    counts = {"toward0": bits.count("0"), "toward1": bits.count("1")}
    return hashlib.sha256(bits.encode()).hexdigest()[:16], counts


def _open_grid_opt(slots: Sequence[Sequence[tuple[float, float]]], beta: float) -> float:
    """Optimal open-ended cost over explicit per-slot (state, cost) grids,
    charging half of beta per unit moved in either direction."""
    cur = {0.0: 0.0}
    half = beta / 2.0
    for slot in slots:
        nxt = {}
        for s, op in slot:
            if not math.isfinite(op):
                continue
            best = min(c + half * abs(s - sp) for sp, c in cur.items()) + op
            nxt[s] = min(best, nxt.get(s, math.inf))
        if not nxt:
            raise ConfigError("no feasible state in some slot")
        cur = nxt
    return min(cur.values())


def _duel_moves(states: Sequence[float], *, close: bool = False) -> tuple[np.ndarray, float]:
    """Per-slot move sizes of a duel trajectory that starts idle (and, with
    ``close``, powers down after the last slot), and their switching cost."""
    d = np.diff(np.concatenate(([0.0], states, [0.0] if close else [])))
    moves = np.abs(d)
    return moves, switching_cost(DUEL_BETA, "symmetric", float(np.maximum(d, 0).sum()),
                                 float(moves.sum()))


def _duel_discrete(policy, config: AdversaryConfig) -> DuelReport:
    eps, T = config.eps, config.T
    policy = _resolve_policy(policy, "discrete", eps, m=1)
    labels, fns, xs = [], [], []
    state = 0
    for _ in range(T):
        f = adv_discrete_step(state, eps)
        labels.append(TOWARD_ONE if state == 0 else TOWARD_ZERO)
        fns.append(f)
        state = int(policy.step(f))
        xs.append(state)
    schedule = np.array(xs, dtype=np.int64)
    instance = ProblemInstance(T, 1, DUEL_BETA, tuple(fns), convention="symmetric")
    policy_cb = eval_cost(instance, schedule)
    opt = dp_optimal(instance)
    switches = int(np.abs(np.diff(np.concatenate(([0], schedule)))).sum())
    bound = min(T * eps / 2.0 + 2.0, switches + 2.0)
    digest, counts = _digest(labels)
    up_only = eval_cost(instance.replace(convention="up_only"), schedule).total
    return DuelReport(
        variant="discrete", policy=getattr(policy, "name", type(policy).__name__),
        eps=eps, beta=DUEL_BETA, T=T,
        policy_cost=policy_cb.total, opt_cost=opt.cost,
        ratio=policy_cb.total / opt.cost, opt_bound=bound,
        switch_count=switches, label_digest=digest, label_counts=counts,
        seed=config.seed, policy_cost_up_only=up_only, instance=instance,
    )


def _duel_continuous(policy, config: AdversaryConfig,
                     scripted_labels: Sequence[str] | None = None) -> DuelReport:
    eps, cap = config.eps, config.T
    policy = _resolve_policy(policy, "continuous", eps, m=1)
    ref = AlgorithmBState(eps)
    labels: list[str] = []
    states: list[float] = []
    a = 0.0
    termination = "horizon"
    if scripted_labels is not None:
        cap = len(scripted_labels)
    for i in range(cap):
        if scripted_labels is None:
            f = adv_continuous_step(a, ref.b, eps)
            lab = TOWARD_ONE if f.center == 1.0 else TOWARD_ZERO
        else:
            lab = scripted_labels[i]
            f = pull_cost(lab, eps)
        labels.append(lab)
        algorithm_b_step(ref, lab)
        a = float(policy.step(f))
        states.append(a)
        if a <= _BOUNDARY_TOL or a >= 1.0 - _BOUNDARY_TOL:
            termination = "hit0" if a <= _BOUNDARY_TOL else "hit1"
            break
    arr = np.array(states, dtype=np.float64)
    ops = math.fsum(pull_cost(lab, eps)(s) for lab, s in zip(labels, arr))
    moves, switching = _duel_moves(arr)
    policy_cost = ops + switching
    slots = [[(0.0, pull_cost(lab, eps)(0.0)), (1.0, pull_cost(lab, eps)(1.0))]
             for lab in labels]
    opt = _open_grid_opt(slots, DUEL_BETA)
    digest, counts = _digest(labels)
    realized = ProblemInstance(len(labels), 1, DUEL_BETA,
                               tuple(pull_cost(lab, eps) for lab in labels),
                               convention="symmetric")
    return DuelReport(
        variant="continuous", policy=getattr(policy, "name", type(policy).__name__),
        eps=eps, beta=DUEL_BETA, T=len(labels),
        policy_cost=policy_cost, opt_cost=opt, ratio=policy_cost / opt,
        opt_bound=None, switch_count=int(np.count_nonzero(moves)),
        label_digest=digest, label_counts=counts, seed=config.seed,
        termination=termination, instance=realized,
    )


def _duel_randomized(policy, config: AdversaryConfig) -> DuelReport:
    eps, T = config.eps, config.T
    # The adversary reacts to the policy's per-slot marginal, which for
    # rounding over the two-level stepping policy equals the reference
    # trajectory itself, so the workload is deterministic.
    ref = AlgorithmBState(eps)
    labels: list[str] = []
    xbar: list[float] = []
    a = 0.0
    for _ in range(T):
        f = adv_continuous_step(a, ref.b, eps)
        labels.append(TOWARD_ONE if f.center == 1.0 else TOWARD_ZERO)
        a = algorithm_b_step(ref, labels[-1])
        xbar.append(a)
    fns = tuple(pull_cost(lab, eps) for lab in labels)
    instance = ProblemInstance(T, 1, DUEL_BETA, fns, convention="symmetric")
    ens = rounding_ensemble(xbar, instance, config.n_runs, config.seed)
    mean_cost = float(ens.costs.mean())
    opt = dp_optimal(instance)
    arr = np.array(xbar)
    moves, switching = _duel_moves(arr, close=True)
    frac_cost = math.fsum(f(v) for f, v in zip(fns, arr)) + switching
    digest, counts = _digest(labels)
    return DuelReport(
        variant="randomized", policy="random-round",
        eps=eps, beta=DUEL_BETA, T=T,
        policy_cost=mean_cost, opt_cost=opt.cost, ratio=mean_cost / opt.cost,
        opt_bound=None, switch_count=int(np.count_nonzero(moves)),
        label_digest=digest, label_counts=counts, seed=config.seed,
        n_runs=config.n_runs, fractional_cost=frac_cost, instance=instance,
    )


def _duel_restricted(policy, config: AdversaryConfig) -> DuelReport:
    policy_name = policy if isinstance(policy, str) else getattr(policy, "name", "")
    if policy_name == "algorithm-b":
        return _duel_restricted_continuous(config)
    if policy_name == "lcp":
        return _duel_restricted_discrete(config)
    raise ConfigError("load-model duels support the lcp and algorithm-b policies")


def _duel_restricted_discrete(config: AdversaryConfig) -> DuelReport:
    """Two-server load-model duel shadowing the discrete two-level duel.

    The lazy policy runs natively on the load-model costs (idle is
    infeasible once loads arrive); its trajectory sits exactly one server
    above the two-level duel's, and interior costs match slot by slot.
    """
    eps, T = config.eps, config.T
    policy = LcpPolicy(2, DUEL_BETA)
    labels, fns, xs = [], [], []
    shadow = 0  # two-level view of the current state
    for _ in range(T):
        lab = TOWARD_ONE if shadow == 0 else TOWARD_ZERO
        load = 1.0 if lab == TOWARD_ONE else 0.5
        f = RestrictedLoadCost(load, eps=eps, slope_k=2.0)
        x = int(policy.step(f))
        labels.append(lab)
        fns.append(f)
        xs.append(x)
        shadow = x - 1
    instance = ProblemInstance(T, 2, DUEL_BETA, tuple(fns), convention="symmetric")
    schedule = np.array(xs, dtype=np.int64)
    policy_cb = eval_cost(instance, schedule)
    opt = dp_optimal(instance)
    # Interior identity: load-model cost at x equals the two-level cost at x-1.
    dev = max(abs(f(x) - pull_cost(lab, eps)(x - 1))
              for x, f, lab in zip(xs, fns, labels))
    general = _duel_discrete("lcp", AdversaryConfig(eps=eps, variant="discrete",
                                                    T=T, seed=config.seed))
    digest, counts = _digest(labels)
    switches = int(np.abs(np.diff(np.concatenate(([0], schedule)))).sum())
    return DuelReport(
        variant="restricted", policy="lcp", eps=eps, beta=DUEL_BETA, T=T,
        policy_cost=policy_cb.total, opt_cost=opt.cost,
        ratio=policy_cb.total / opt.cost,
        opt_bound=None, switch_count=switches,
        label_digest=digest, label_counts=counts, seed=config.seed,
        embedding_max_dev=float(dev),
        general_policy_cost=general.policy_cost,
        general_opt_cost=general.opt_cost, general_ratio=general.ratio,
        instance=instance,
    )


def _duel_restricted_continuous(config: AdversaryConfig) -> DuelReport:
    """Load-model duel for the fractional stepping policy.

    Loads are 0 or 1/k with k large enough that the policy's smallest
    non-idle state stays feasible; costs coincide with the two-level duel.
    """
    eps = config.eps
    k = float(1 << max(1, math.ceil(math.log2(2.0 / eps))))
    policy = AlgorithmB(eps)
    ref = AlgorithmBState(eps)
    labels, states, fns = [], [], []
    a = 0.0
    termination = "horizon"
    for _ in range(config.T):
        lab_f = adv_continuous_step(a, ref.b, eps)
        lab = TOWARD_ONE if lab_f.center == 1.0 else TOWARD_ZERO
        load = 0.0 if lab == TOWARD_ZERO else 1.0 / k
        f = RestrictedLoadCost(load, eps=eps, slope_k=k)
        algorithm_b_step(ref, lab)
        a = float(policy.step(f))
        labels.append(lab)
        fns.append(f)
        states.append(a)
        if a <= _BOUNDARY_TOL or a >= 1.0 - _BOUNDARY_TOL:
            termination = "hit0" if a <= _BOUNDARY_TOL else "hit1"
            break
    ops = [f(s) for f, s in zip(fns, states)]
    moves, switching = _duel_moves(states)
    policy_cost = math.fsum(ops) + switching
    dev = max(abs(o - pull_cost(lab, eps)(s))
              for o, lab, s in zip(ops, labels, states))
    # States below a slot's load cost inf, which _open_grid_opt skips.
    slots = [[(s, f(s)) for s in (0.0, 1.0 / k, 1.0)] for f in fns]
    opt = _open_grid_opt(slots, DUEL_BETA)
    general = _duel_continuous(AlgorithmB(eps), AdversaryConfig(
        eps=eps, variant="continuous", T=config.T, seed=config.seed))
    digest, counts = _digest(labels)
    return DuelReport(
        variant="restricted", policy="algorithm-b", eps=eps, beta=DUEL_BETA,
        T=len(labels), policy_cost=policy_cost, opt_cost=opt,
        ratio=policy_cost / opt, opt_bound=None,
        switch_count=int(np.count_nonzero(moves)),
        label_digest=digest, label_counts=counts, seed=config.seed,
        termination=termination, embedding_max_dev=float(dev),
        general_policy_cost=general.policy_cost,
        general_opt_cost=general.opt_cost, general_ratio=general.ratio,
        instance=ProblemInstance(len(labels), 1, DUEL_BETA, tuple(fns),
                                 convention="symmetric"),
    )


def run_duel(policy, config: AdversaryConfig) -> DuelReport:
    """Alternate adversary and policy for up to T rounds and score both
    against the offline optimum of the realized workload."""
    if config.variant == "discrete":
        return _duel_discrete(policy, config)
    if config.variant == "continuous":
        return _duel_continuous(policy, config)
    if config.variant == "randomized":
        return _duel_randomized(policy, config)
    if config.variant == "restricted":
        return _duel_restricted(policy, config)
    raise ConfigError(f"unknown variant {config.variant!r}")


def run_scripted_workload(policy, labels: Sequence[str], eps: float) -> DuelReport:
    """Score a fractional policy against a fixed two-level label sequence
    (same open-horizon accounting as the reactive continuous duel)."""
    config = AdversaryConfig(eps=eps, variant="continuous", T=len(labels))
    return _duel_continuous(policy, config, scripted_labels=list(labels))
