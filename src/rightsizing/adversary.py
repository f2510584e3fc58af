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
from dataclasses import dataclass, replace
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
    cost_ratio,
    eval_cost,
    extend_continuous,
    row_evaluator,
    slot_costs,
    switching_cost,
)
from .offline import _kernel_costs, _window_schedule, dp_optimal
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


def _discrete_label(alg_state: int) -> str:
    if alg_state not in (0, 1):
        raise ConfigError("the discrete adversary expects a binary state")
    return TOWARD_ONE if alg_state == 0 else TOWARD_ZERO


def adv_discrete_step(alg_state: int, eps: float) -> CostFunction:
    """Binary-state rule: always charge the level the policy occupies."""
    return pull_cost(_discrete_label(alg_state), eps)


def _continuous_label(a_t: float, b_t: float) -> str:
    if not (0.0 <= a_t <= 1.0) or not (0.0 <= b_t <= 1.0):
        raise ConfigError("states must lie in [0, 1]")
    if a_t >= 1.0 - _BOUNDARY_TOL:
        return TOWARD_ZERO
    if a_t <= _BOUNDARY_TOL:
        return TOWARD_ONE
    return TOWARD_ZERO if a_t > b_t else TOWARD_ONE


def adv_continuous_step(a_t: float, b_t: float, eps: float) -> CostFunction:
    """Fractional-state rule against a reference trajectory.

    Boundary states override the comparison; on the comparison itself a
    tie counts as "not above the reference" and pulls up.
    """
    return pull_cost(_continuous_label(a_t, b_t), eps)


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


def _resolve_policy(policy, variant: str, eps: float):
    """The named policy for the discrete or continuous duel; any other
    object is taken as a policy."""
    if not isinstance(policy, str):
        return policy
    if policy == "lcp":
        if variant == "continuous":
            raise ConfigError("the continuous adversary needs a fractional policy")
        return LcpPolicy(1, DUEL_BETA)
    if policy == "algorithm-b":
        if variant == "discrete":
            raise ConfigError("the discrete adversary needs an integer policy")
        return AlgorithmB(eps)
    if policy == "random-round":
        raise ConfigError("the rounding policy duels the randomized adversary")
    raise ConfigError(f"unknown policy {policy!r}")


# ---------------------------------------------------------------------------
# duel configuration and reports
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
        if self.n_runs < 1:
            raise ConfigError("n_runs must be positive")


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
        return {key: val for key, val in self.__dict__.items()
                if val is not None and key != "instance"}


# ---------------------------------------------------------------------------
# the play loop and the two scorers
# ---------------------------------------------------------------------------


def _digest(labels: Sequence[str]) -> tuple[str, dict]:
    bits = "".join("1" if lab == TOWARD_ONE else "0" for lab in labels)
    counts = {"toward0": bits.count("0"), "toward1": bits.count("1")}
    return hashlib.sha256(bits.encode()).hexdigest()[:16], counts


def _open_cost(fns: Sequence[CostFunction], states) -> float:
    """The cost of an open trajectory that starts idle: the fsum of its slot
    costs plus the switching cost of its moves, with no final power-down."""
    d = np.diff(states, prepend=0.0)
    return math.fsum(slot_costs(fns, states).tolist()) + switching_cost(
        DUEL_BETA, "symmetric", float(np.maximum(d, 0).sum()), float(np.abs(d).sum()))


def _pull_costs(eps: float) -> dict[str, CostFunction]:
    return {lab: pull_cost(lab, eps) for lab in (TOWARD_ZERO, TOWARD_ONE)}


def _reference_pick(eps: float):
    """The fractional adversary's rule against a reference stepping
    trajectory that follows the labels it picks."""
    ref = AlgorithmBState(eps)

    def pick(a: float) -> str:
        lab = _continuous_label(a, ref.b)
        algorithm_b_step(ref, lab)
        return lab

    return pick


@dataclass
class _Play:
    """A realized duel: per slot the label, its cost and the policy's state."""

    labels: list
    fns: list
    states: list
    termination: str = "horizon"

    def instance(self, m: int) -> ProblemInstance:
        return ProblemInstance(len(self.labels), m, DUEL_BETA, tuple(self.fns),
                               convention="symmetric")


def _play(policy, pick, costs: dict, T: int, *, cast=float, stop: bool = False) -> _Play:
    """The duel loop.  Each slot the adversary picks a label from the
    policy's last state (idle before the first slot), the label's cost is
    played, and the policy steps.  With ``stop`` the play ends once the
    policy reaches state 0 or 1."""
    play = _Play([], [], [])
    state = 0
    for _ in range(T):
        lab = pick(state)
        f = costs.get(lab)
        if f is None:
            raise ConfigError(f"unknown workload label {lab!r}")
        state = cast(policy.step(f))
        play.labels.append(lab)
        play.fns.append(f)
        play.states.append(state)
        if stop and (state <= _BOUNDARY_TOL or state >= 1.0 - _BOUNDARY_TOL):
            play.termination = "hit0" if state <= _BOUNDARY_TOL else "hit1"
            break
    return play


def _score_closed(play: _Play, m: int) -> dict:
    """The integer schedule's eval_cost against dp_optimal on the realized
    symmetric instance; each unit moved counts as a switch."""
    instance = play.instance(m)
    x = np.array(play.states, dtype=np.int64)
    return dict(instance=instance, policy_cost=eval_cost(instance, x).total,
                opt_cost=dp_optimal(instance).cost,
                switch_count=int(np.abs(np.diff(x, prepend=0)).sum()))


def _score_open(play: _Play, states: Sequence[int], k: int) -> dict:
    """The policy's open cost, each nonzero move one switch, against the
    open-ended optimum over the duel's states ``states / k``.

    An open trajectory from idle costs ``beta * ups - beta/2 * x_T``, so the
    window kernel prices it with ``beta / k`` per unit up on the integer
    states and the unpaid power-down credited on the last slot."""
    S = np.broadcast_to(np.array(states, dtype=np.int64), (len(play.fns), len(states)))
    F = _kernel_costs(row_evaluator(play.fns)(S / k))
    F[-1] -= DUEL_BETA / 2 * S[-1] / k
    x = _window_schedule(S, F, DUEL_BETA / k) / k
    return dict(instance=play.instance(1), policy_cost=_open_cost(play.fns, play.states),
                opt_cost=_open_cost(play.fns, x),
                switch_count=int(np.count_nonzero(np.diff(play.states, prepend=0))))


def _report(variant: str, policy: str, config: AdversaryConfig, play: _Play, *,
            policy_cost: float, opt_cost: float, opt_bound: float | None = None,
            **fields) -> DuelReport:
    digest, counts = _digest(play.labels)
    return DuelReport(
        variant=variant, policy=policy, eps=config.eps, beta=DUEL_BETA,
        T=len(play.labels), policy_cost=policy_cost, opt_cost=opt_cost,
        ratio=cost_ratio(policy_cost, opt_cost), opt_bound=opt_bound, label_digest=digest,
        label_counts=counts, seed=config.seed, termination=play.termination, **fields)


def _name(policy) -> str:
    return getattr(policy, "name", type(policy).__name__)


def _embedding(play: _Play, eps: float, shift: int, general: DuelReport) -> dict:
    """A load-model duel's extras: the largest gap between a slot's cost and
    the two-level cost ``shift`` servers lower, and the figures of the
    general two-level duel it embeds."""
    pulls = _pull_costs(eps)
    x = np.array(play.states)
    dev = np.abs(slot_costs(play.fns, x)
                 - slot_costs([pulls[lab] for lab in play.labels], x - shift)).max()
    return dict(embedding_max_dev=float(dev), general_policy_cost=general.policy_cost,
                general_opt_cost=general.opt_cost, general_ratio=general.ratio)


# ---------------------------------------------------------------------------
# duels
# ---------------------------------------------------------------------------


def _duel_discrete(policy, config: AdversaryConfig) -> DuelReport:
    eps = config.eps
    policy = _resolve_policy(policy, "discrete", eps)
    play = _play(policy, _discrete_label, _pull_costs(eps), config.T, cast=int)
    score = _score_closed(play, 1)
    up_only = eval_cost(score["instance"].replace(convention="up_only"), play.states).total
    bound = min(config.T * eps / 2.0 + 2.0, score["switch_count"] + 2.0)
    return _report("discrete", _name(policy), config, play, **score,
                   opt_bound=bound, policy_cost_up_only=up_only)


def _duel_continuous(policy, config: AdversaryConfig, pick=None) -> DuelReport:
    policy = _resolve_policy(policy, "continuous", config.eps)
    play = _play(policy, pick or _reference_pick(config.eps), _pull_costs(config.eps),
                 config.T, stop=True)
    return _report("continuous", _name(policy), config, play, **_score_open(play, (0, 1), 1))


def _duel_randomized(policy, config: AdversaryConfig) -> DuelReport:
    # The adversary reacts to the policy's per-slot marginal, which for
    # rounding over the two-level stepping policy equals the reference
    # trajectory itself, so the workload is deterministic.
    if policy != "random-round":
        raise ConfigError("the randomized adversary duels the random-round policy")
    eps = config.eps
    play = _play(AlgorithmB(eps), _reference_pick(eps), _pull_costs(eps), config.T)
    instance = play.instance(1)
    ens = rounding_ensemble(play.states, instance, config.n_runs, config.seed)
    return _report("randomized", "random-round", config, play, instance=instance,
                   policy_cost=float(ens.costs.mean()), opt_cost=dp_optimal(instance).cost,
                   fractional_cost=extend_continuous(instance).cost(play.states).total,
                   switch_count=int(np.count_nonzero(np.diff(play.states, prepend=0, append=0))),
                   n_runs=config.n_runs)


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
    eps = config.eps
    costs = {TOWARD_ZERO: RestrictedLoadCost(0.5, eps=eps, slope_k=2.0),
             TOWARD_ONE: RestrictedLoadCost(1.0, eps=eps, slope_k=2.0)}
    # The two-level view is x - 1, and idle counts as its level 0: the
    # adversary pulls toward 0 only from the top server.
    play = _play(LcpPolicy(2, DUEL_BETA), lambda x: TOWARD_ZERO if x == 2 else TOWARD_ONE,
                 costs, config.T, cast=int)
    general = _duel_discrete("lcp", replace(config, variant="discrete"))
    return _report("restricted", "lcp", config, play, **_score_closed(play, 2),
                   **_embedding(play, eps, 1, general))


def _duel_restricted_continuous(config: AdversaryConfig) -> DuelReport:
    """Load-model duel for the fractional stepping policy.

    Loads are 0 or 1/k with k large enough that the policy's smallest
    non-idle state stays feasible; costs coincide with the two-level duel.
    """
    eps = config.eps
    k = 1 << max(1, math.ceil(math.log2(2.0 / eps)))
    costs = {TOWARD_ZERO: RestrictedLoadCost(0.0, eps=eps, slope_k=float(k)),
             TOWARD_ONE: RestrictedLoadCost(1.0 / k, eps=eps, slope_k=float(k))}
    play = _play(AlgorithmB(eps), _reference_pick(eps), costs, config.T, stop=True)
    general = _duel_continuous(AlgorithmB(eps), replace(config, variant="continuous"))
    # States below a slot's load cost inf, which the window kernel never picks.
    return _report("restricted", "algorithm-b", config, play,
                   **_score_open(play, (0, 1, k), k), **_embedding(play, eps, 0, general))


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
    script = iter(list(labels))
    return _duel_continuous(policy, config, lambda _: next(script))
