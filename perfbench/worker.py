"""Runs one workload's rounds in a fresh process and records what happened.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json`` with the
package's ``src`` directory on ``PYTHONPATH``, or ``--imports-only`` to time
nothing but the imports (the parent times that process from outside).

Each round calls ``rightsizing.cli.main(argv)`` in-process for every command
of the spec, with ``--out`` pointed at the round's own directory and the
command's standard output and error captured in files there. Untraced rounds
run with nothing wrapped; traced rounds install a fresh ``Tracer``. Rounds
continue while the next one, predicted from the last, still ends within the
time budget, and there are always at least ``min_rounds``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def run_command(cli, argv, out_dir, index):
    """One in-process CLI invocation: (exit code, wall seconds)."""
    stdout = os.path.join(out_dir, f"cmd{index}.stdout")
    stderr = os.path.join(out_dir, f"cmd{index}.stderr")
    with open(stdout, "w", encoding="utf-8") as out, open(stderr, "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # any crash counts as a failed invocation
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
    return int(code or 0), wall


def layer_record(tracer) -> dict:
    return {"total": dict(tracer.total), "self": dict(tracer.self_time),
            "counts": dict(tracer.counts), "missing": sorted(tracer.missing_spans())}


def validate_per_slot(instance_path: str | None, prefix: int, eps: float | None) -> float:
    """Seconds per slot of ``validate_instance`` on the first ``prefix``
    slots of the workload's instance; for the duel, on the two-level pull
    costs its adversary realizes."""
    from rightsizing import AffineAbsCost, ProblemInstance, load_instance, validate_instance

    if instance_path is not None:
        inst = load_instance(instance_path)
        prefix = min(prefix, inst.T)
        inst = inst.replace(T=prefix, functions=inst.functions[:prefix])
    else:
        fns = tuple(AffineAbsCost(eps, float(t % 2)) for t in range(prefix))
        inst = ProblemInstance(prefix, 1, 2.0, fns, convention="symmetric")
    t0 = time.perf_counter()
    validate_instance(inst)
    return (time.perf_counter() - t0) / prefix


def main(argv) -> int:
    if argv == ["--imports-only"]:
        import rightsizing.cli  # noqa: F401
        return 0
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import rightsizing.cli as cli
    from tracer import Tracer

    cycle = spec["traced_cycle"]  # round i is traced when cycle[i % len(cycle)]
    rounds = []
    started = time.perf_counter()
    while True:
        i = len(rounds)
        if i >= spec["min_rounds"]:
            elapsed = time.perf_counter() - started
            if elapsed + rounds[-1]["wall"] > spec["seconds"]:
                break
        traced = cycle[i % len(cycle)]
        out_dir = os.path.join(spec["work"], f"round{i}")
        os.makedirs(out_dir)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            cmds = []
            for j, cmd in enumerate(spec["commands"]):
                argv_j = [a.replace("{out}", out_dir) for a in cmd]
                code, wall = run_command(cli, argv_j, out_dir, j)
                cmds.append({"code": code, "wall": wall})
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds.append({"traced": traced, "dir": out_dir, "commands": cmds,
                       "wall": sum(c["wall"] for c in cmds),
                       "layers": layer_record(tracer) if tracer else None})
    result = {"rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if any(cycle):
        result["validate_s_per_slot"] = validate_per_slot(
            spec["instance"], spec["params"]["validate_prefix"], spec["params"].get("eps"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
