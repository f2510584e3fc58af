"""Command-line front end: instance I/O, solving, policy simulation,
adversarial duels, and benchmark sweeps.

Structured results are JSON, per-step traces are CSV (header row, comma
separated, '.' decimal point, LF line endings).  Identical invocations,
including the seed, produce byte-identical outputs; the only exception is
the wall-clock field of the solve command and the timing columns of the
benchmark suites.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from .adversary import AdversaryConfig, run_duel
from .lcp import backward_optimal, lcp_init, lcp_step
from .model import (
    AffineAbsCost,
    AlignmentError,
    ConfigError,
    ContractError,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    SchemaError,
    ShapeError,
    cost_ratio,
    eval_cost,
    instance_to_json,
    load_instance,
    slot_costs,
    switching_cost,
)
from .offline import dp_optimal, fractional_grid_optimum, solve_poly
from .randomized import rounding_run

ORACLE_STATE_CAP = 1 << 12  # benches skip the full DP above this fleet size


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    t0 = time.perf_counter()
    if args.algorithm == "poly":
        result = solve_poly(instance)
    else:
        result = dp_optimal(instance)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    breakdown = eval_cost(instance, result.schedule)
    doc = {
        "schedule": [int(v) for v in result.schedule],
        "cost": breakdown.total,
        "operating": breakdown.operating,
        "switching": breakdown.switching,
        "algorithm": args.algorithm,
        "iterations": result.iterations,
        "states_probed": result.states_probed,
        "wall_ms": wall_ms,
        "seed": args.seed,
    }
    m = instance.m
    if args.algorithm == "poly" and m & (m - 1) != 0:
        doc["padded_m"] = 1 << m.bit_length()
    _emit(_json_text(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_rows(instance: ProblemInstance, policy: str, seed: int):
    """Per-step rows (t, lower, upper, state, slot cost, cumulative cost),
    the policy's schedule, and an offline-optimal schedule if the policy
    yields one: the lazy policy's bands rebuild it."""
    optimum = None
    bands = [("", "")] * instance.T
    if policy == "lcp":
        state = lcp_init(instance.m, instance.beta)
        decisions = [lcp_step(state, f) for f in instance.functions]
        schedule = [d.chosen for d in decisions]
        bands = [(d.lower, d.upper) for d in decisions]
        optimum = backward_optimal(decisions)
    elif policy == "random-round":
        schedule = rounding_run(fractional_grid_optimum(instance, 2), instance, seed).schedule
    elif policy == "offline":
        optimum = dp_optimal(instance).schedule
        schedule = [int(v) for v in optimum]
    else:
        raise ConfigError(f"unknown policy {policy!r}")
    costs = slot_costs(instance.functions, schedule)
    d = np.diff(schedule, prepend=0)
    # cumsum adds in slot order, as a running total would.
    cum = np.cumsum(costs + switching_cost(instance.beta, instance.convention,
                                           np.maximum(d, 0), np.abs(d)))
    rows = [(t, lo, hi, x, op, c) for t, (lo, hi), x, op, c in
            zip(range(1, instance.T + 1), bands, schedule, costs.tolist(), cum.tolist())]
    return rows, schedule, optimum


def cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    rows, schedule, optimum = _simulate_rows(instance, args.policy, args.seed)
    total = eval_cost(instance, schedule).total
    if optimum is None:
        opt = dp_optimal(instance).cost
    else:
        opt = eval_cost(instance, optimum).total
    ratio = cost_ratio(total, opt)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x_L", "x_U", "x_policy", "f_t_cost", "cum_cost"])
    # The costs come from .tolist(), so csv writes them with repr, as _fmt does.
    writer.writerows(rows)
    writer.writerow(["summary", "", "", "", _fmt(float(total)), _fmt(float(ratio))])
    _emit(buf.getvalue(), args.out)
    config_echo = {"command": "simulate", "instance": args.instance,
                   "policy": args.policy, "seed": args.seed,
                   "total": total, "ratio": ratio}
    if args.out is not None:
        sys.stdout.write(_json_text(config_echo))
    return 0


# ---------------------------------------------------------------------------
# adversary
# ---------------------------------------------------------------------------


def cmd_adversary(args) -> int:
    config = AdversaryConfig(eps=args.eps, variant=args.variant, T=args.T,
                             seed=args.seed, n_runs=args.runs)
    report = run_duel(args.policy, config)
    doc = report.to_json()
    doc["command"] = "adversary"
    _emit(_json_text(doc), args.out)
    if args.dump_instance is not None and report.instance is not None:
        _emit(_json_text(instance_to_json(report.instance)), args.dump_instance)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _random_affine_instance(T: int, m: int, seed: int,
                            convention: str = "up_only") -> ProblemInstance:
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.1, 2.0, size=T)
    centers = rng.uniform(0, m, size=T)
    fns = tuple(AffineAbsCost(float(e), float(c)) for e, c in zip(eps, centers))
    return ProblemInstance(T, m, float(rng.uniform(0.5, 4.0)), fns,
                           convention=convention)


def _bench_offline(writer) -> None:
    writer.writerow(["T", "m", "poly_ms", "oracle_ms", "costs_equal"])
    cases = [(2000, 1 << 8), (2000, 1 << 10), (2000, 1 << 12),
             (10_000, 1 << 10), (10_000, 1 << 16), (10_000, 1 << 20)]
    for i, (T, m) in enumerate(cases):
        inst = _random_affine_instance(T, m, seed=100 + i)
        t0 = time.perf_counter()
        poly = solve_poly(inst)
        poly_ms = (time.perf_counter() - t0) * 1000.0
        if m <= ORACLE_STATE_CAP:
            t0 = time.perf_counter()
            oracle = dp_optimal(inst)
            oracle_ms = (time.perf_counter() - t0) * 1000.0
            equal = abs(poly.cost - oracle.cost) <= 1e-9 * max(1.0, abs(oracle.cost))
            writer.writerow([T, m, f"{poly_ms:.3f}", f"{oracle_ms:.3f}", equal])
        else:
            writer.writerow([T, m, f"{poly_ms:.3f}", "skipped", ""])


def _bench_lcp(writer) -> None:
    from .lcp import lcp_run

    writer.writerow(["T", "m", "lcp_ms", "ratio"])
    for i, (T, m) in enumerate([(1000, 16), (1000, 256), (1000, 1024)]):
        inst = _random_affine_instance(T, m, seed=200 + i)
        t0 = time.perf_counter()
        trace = lcp_run(inst)
        ms = (time.perf_counter() - t0) * 1000.0
        opt = dp_optimal(inst).cost
        writer.writerow([T, m, f"{ms:.3f}", _fmt(cost_ratio(trace.cost.total, opt))])


def _bench_random(writer) -> None:
    from .model import extend_continuous
    from .randomized import rounding_ensemble

    writer.writerow(["T", "m", "runs", "mean_over_fractional", "ms"])
    for i, (T, m, runs) in enumerate([(50, 4, 10_000), (200, 8, 5_000)]):
        inst = _random_affine_instance(T, m, seed=300 + i)
        rng = np.random.default_rng(400 + i)
        steps = rng.uniform(-1.0, 1.0, size=T)
        xbar = np.clip(np.cumsum(steps), 0, m)
        frac = extend_continuous(inst).cost(xbar).total
        t0 = time.perf_counter()
        ens = rounding_ensemble(xbar, inst, runs, seed=500 + i)
        ms = (time.perf_counter() - t0) * 1000.0
        writer.writerow([T, m, runs, _fmt(float(ens.costs.mean() / frac)), f"{ms:.3f}"])


def cmd_bench(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.suite == "offline":
        _bench_offline(writer)
    elif args.suite == "lcp":
        _bench_lcp(writer)
    else:
        _bench_random(writer)
    out = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, f"bench_{args.suite}.csv")
    _emit(buf.getvalue(), out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rightsizing",
                                description="Discrete right-sizing solvers and simulators")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="optimal offline schedule for an instance file")
    sp.add_argument("instance")
    sp.add_argument("--algorithm", choices=("poly", "oracle"), default="poly")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="per-step trace of an online policy")
    sp.add_argument("instance")
    sp.add_argument("--policy", choices=("lcp", "random-round", "offline"),
                    required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("adversary", help="duel a policy against a workload generator")
    sp.add_argument("--variant", choices=("discrete", "continuous", "randomized",
                                          "restricted"), required=True)
    sp.add_argument("--policy", default="lcp")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=int, default=400)
    sp.add_argument("--out", default=None)
    sp.add_argument("--dump-instance", default=None)
    sp.set_defaults(func=cmd_adversary)

    sp = sub.add_parser("bench", help="timing and ratio sweeps")
    sp.add_argument("--suite", choices=("offline", "lcp", "random"), required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, AlignmentError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 4
    except ContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
