"""Benchmark of the ``rightsizing`` command line: one workload per run.

Usage, from the root of a source tree (the package is imported from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload poly-deep --seed 1 --seconds 25 --trace 0

A run sets the workload up three times (input generation, file writing and
the imports of a fresh interpreter) and reports the median as ``setup_s``.
It then starts one fresh single-threaded process that calls
``rightsizing.cli.main(argv)`` for the workload's commands, round after
round, for about ``--seconds``. The outputs are checked afterwards, outside
the timed region: every round must reproduce the first byte for byte (apart
from ``wall_ms``), and the first must pass the workload's correctness check.

With ``--trace 0`` it prints the end-to-end metrics (no wrapper installed).
With ``--trace 1`` it runs untraced and traced rounds and prints per-layer
spans and counts, recorded by wrapping module attributes from outside the
package (see ``tracer.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, the failure fraction and any problems.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads; the worker inherits the pins
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "slots_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (span it is derived from, unit)
PER_LAYER = {
    "model.load_s": ("model.load", "s"),
    "model.eval_cost_s": ("model.eval_cost", "s"),
    "model.validate_s_per_slot": (None, "s"),
    "offline.solve_poly_s": ("offline.solve_poly", "s"),
    "offline.kernel_s": ("offline.kernel", "s"),
    "offline.kernel_s_per_level": ("offline.kernel", "s"),
    "offline.levels": ("offline.kernel", "count"),
    "offline.states_probed": ("offline.kernel", "count"),
    "offline.row_eval_s": ("offline.row_eval", "s"),
    "offline.dp_optimal_s": ("offline.dp_optimal", "s"),
    "offline.dp_cells": ("offline.dp_optimal", "count"),
    "lcp.step_s": ("lcp.step", "s"),
    "lcp.step_us": ("lcp.step", "us"),
    "lcp.steps": ("lcp.step", "count"),
    "lcp.forced_moves": ("lcp.step", "count"),
    "lcp.band_width_mean": ("lcp.step", "count"),
    "randomized.ensemble_s": ("randomized.ensemble", "s"),
    "randomized.draws": ("randomized.ensemble", "count"),
    "adversary.duel_self_s": ("adversary.duel", "s"),
    "cli.self_s": ("cli.command", "s"),
    "cli.command_s": ("cli.command", "s"),
    "trace.overhead_s": ("cli.command", "s"),
}

#: Counts that must repeat exactly in every traced round of one seed.
REPEATING_COUNTS = ("offline.levels", "offline.states_probed", "offline.dp_cells",
                    "lcp.steps", "lcp.forced_moves", "randomized.draws")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "cpu_count": os.cpu_count()}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def set_up(name: str, seed: int, work: str, env: dict):
    """Generate and write the inputs, then time a fresh interpreter's imports."""
    spec = WORKLOADS[name](seed, work)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--imports-only"],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S)
    return spec


def instance_from_file(path: str):
    """Build the instance from the generated file without the package's
    parser, so a parsing defect cannot hide from the checks."""
    from rightsizing import AffineAbsCost, ProblemInstance, TableCost

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kinds = {"affine_abs": lambda f: AffineAbsCost(f["eps"], f["center"]),
             "table": lambda f: TableCost(f["values"])}
    fns = tuple(kinds[f["kind"]](f) for f in doc["functions"])
    return ProblemInstance(doc["T"], doc["m"], doc["beta"], fns, convention=doc["convention"])


def command_checks(name: str, spec):
    """One output check per command of the workload."""
    import checks

    p = spec.params
    if name == "duel-tiny":
        return [lambda text: checks.check_ratio(text, 2.9, 3.0),
                lambda text: checks.check_ratio(text, 1.9, 2.0)]
    inst = instance_from_file(spec.instance)
    if name == "poly-deep":
        return [lambda text: checks.check_solve_on_grid(inst, text, p["grid"])]
    if name == "lcp-dense":
        return [lambda text: checks.check_simulate_lcp(inst, text)]
    return [lambda text: checks.check_solve_exact(inst, text, p["padded_m"])]


def _read(path: str) -> bytes:
    """File contents; a file the command did not write reads as empty and
    so fails its check."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _out_path(argv: list[str], out_dir: str) -> str:
    return argv[argv.index("--out") + 1].replace("{out}", out_dir)


def judge(name: str, spec, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every round."""
    import checks

    problems: list[str] = []
    first_ok: list[bool] = []
    reference: list[tuple[bytes, bytes]] = []
    for j, (argv, check) in enumerate(zip(spec.commands, command_checks(name, spec))):
        d = rounds[0]["dir"]
        out = _read(_out_path(argv, d)) if rounds[0]["commands"][j]["code"] == 0 else b""
        reference.append((out, _read(os.path.join(d, f"cmd{j}.stdout"))))
        try:
            found = check(out.decode("utf-8"))
        except Exception as exc:  # malformed output fails the check, whatever it raises
            found = [f"output does not parse: {exc!r}"]
        problems += [f"command {j}: {p}" for p in found]
        first_ok.append(not found)
    attempted = failed = 0
    for i, r in enumerate(rounds):
        for j, (argv, cmd) in enumerate(zip(spec.commands, r["commands"])):
            attempted += 1
            if cmd["code"] != 0:
                failed += 1
                problems.append(f"round {i} command {j}: exit code {cmd['code']}")
                continue
            out = _read(_out_path(argv, r["dir"]))
            stdout = _read(os.path.join(r["dir"], f"cmd{j}.stdout"))
            same = (checks.same_output(out, reference[j][0])
                    and checks.same_output(stdout, reference[j][1]))
            if not same:
                problems.append(f"round {i} command {j}: output differs from round 0")
            if not (same and first_ok[j]):
                failed += 1
    return attempted, failed, problems


def end_to_end(spec, rounds: list[dict], result: dict, setup_times: list[float]) -> dict:
    walls = [r["wall"] for r in rounds]
    values = {"wall_s": statistics.median(walls),
              "slots_per_s": spec.slots * len(walls) / sum(walls),
              "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": statistics.median(setup_times)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_values(rec: dict) -> dict:
    tot, own, counts = rec["total"], rec["self"], rec["counts"]
    levels = counts.get("offline.levels", 0)
    steps = counts.get("lcp.steps", 0)
    return {
        "model.load_s": tot.get("model.load", 0.0),
        "model.eval_cost_s": tot.get("model.eval_cost", 0.0),
        "offline.solve_poly_s": tot.get("offline.solve_poly", 0.0),
        "offline.kernel_s": tot.get("offline.kernel", 0.0),
        "offline.kernel_s_per_level": tot.get("offline.kernel", 0.0) / levels if levels else 0.0,
        "offline.levels": levels,
        "offline.states_probed": counts.get("offline.states_probed", 0),
        "offline.row_eval_s": tot.get("offline.row_eval", 0.0),
        "offline.dp_optimal_s": tot.get("offline.dp_optimal", 0.0),
        "offline.dp_cells": counts.get("offline.dp_cells", 0),
        "lcp.step_s": tot.get("lcp.step", 0.0),
        "lcp.step_us": 1e6 * tot.get("lcp.step", 0.0) / steps if steps else 0.0,
        "lcp.steps": steps,
        "lcp.forced_moves": counts.get("lcp.forced_moves", 0),
        "lcp.band_width_mean": counts.get("lcp.band_width_sum", 0) / steps if steps else 0.0,
        "randomized.ensemble_s": tot.get("randomized.ensemble", 0.0),
        "randomized.draws": counts.get("randomized.draws", 0),
        "adversary.duel_self_s": own.get("adversary.duel", 0.0),
        "cli.self_s": own.get("cli.command", 0.0),
        "cli.command_s": tot.get("cli.command", 0.0),
    }


def per_layer(rounds: list[dict], result: dict) -> tuple[dict, list[str], list[str]]:
    """(metrics, problems, missing attributes) from the traced rounds: the
    median over traced rounds of each value, counts checked for repeats."""
    import checks

    traced = [r for r in rounds if r["traced"]]
    per_round = [_layer_values(r["layers"]) for r in traced]
    # Counts repeat (checked below), so the first round's are reported as they are.
    values = {k: first if k in REPEATING_COUNTS else statistics.median(v[k] for v in per_round)
              for k, first in per_round[0].items()}
    values["model.validate_s_per_slot"] = result["validate_s_per_slot"]
    values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                  - statistics.median(r["wall"] for r in rounds if not r["traced"]))
    problems = checks.counts_repeat([{k: v[k] for k in REPEATING_COUNTS} for v in per_round])
    missing = traced[0]["layers"]["missing"]
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (span, unit) in PER_LAYER.items() if span not in missing}
    return metrics, problems, missing


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rightsizing", "cli.py")):
        print("error: no src/rightsizing here; run from the root of a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = child_env(root)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            spec = set_up(args.workload, args.seed, work, env)
            setup_times.append(time.perf_counter() - t0)
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"commands": spec.commands, "instance": spec.instance,
                       "params": spec.params, "work": work, "seconds": args.seconds,
                       "min_rounds": 3 if args.trace else 2,
                       "traced_cycle": [False, True, True] if args.trace else [False]}, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                       env=env, check=True, timeout=WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        rounds = result["rounds"]
        attempted, failed, problems = judge(args.workload, spec, rounds)
        missing: list[str] = []
        count_problems: list[str] = []
        if args.trace:
            metrics, count_problems, missing = per_layer(rounds, result)
            problems += count_problems
        else:
            metrics = end_to_end(spec, rounds, result, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "params": spec.params,
              "round_walls_s": [r["wall"] for r in rounds],
              "fail_frac": failed / attempted, "missing_spans": missing, "problems": problems}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and not count_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
