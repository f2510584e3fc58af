"""Output checks, run after the timed rounds. Each returns a list of
problems; an empty list means the output passed."""

from __future__ import annotations

import csv
import io
import json
import re

from rightsizing import backward_optimal, dp_optimal, eval_cost, restrict_phi

REL = 1e-9

#: The one line of ``solve`` output that may differ between identical runs.
_WALL_MS = re.compile(rb'^  "wall_ms": [^\n]*\n', re.MULTILINE)


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def same_output(a: bytes, b: bytes) -> bool:
    """Byte identity apart from ``wall_ms``."""
    return _WALL_MS.sub(b"", a) == _WALL_MS.sub(b"", b)


def _schedule_cost(instance, doc) -> tuple[list[str], float | None]:
    try:
        cost = eval_cost(instance, doc["schedule"]).total
    except (KeyError, ValueError) as exc:
        return [f"schedule does not evaluate: {exc!r}"], None
    if not close(doc["cost"], cost):
        return [f"reported cost {doc['cost']!r} != eval_cost {cost!r}"], cost
    return [], cost


def check_solve_on_grid(instance, text: str, grid: int) -> list[str]:
    """``solve`` on centers that lie on the 2**grid lattice: some optimum lies
    on that lattice, so the restricted oracle gives the optimal cost."""
    doc = json.loads(text)
    problems, cost = _schedule_cost(instance, doc)
    if cost is not None:
        opt = dp_optimal(restrict_phi(instance, grid)).cost
        if not close(cost, opt):
            problems.append(f"cost {cost!r} != lattice oracle {opt!r}")
    return problems


def check_solve_exact(instance, text: str, padded_m: int) -> list[str]:
    """``solve`` against the full-grid oracle, with the padding note."""
    doc = json.loads(text)
    problems, cost = _schedule_cost(instance, doc)
    if cost is not None:
        opt = dp_optimal(instance).cost
        if not close(cost, opt):
            problems.append(f"cost {cost!r} != oracle {opt!r}")
    if doc.get("padded_m") != padded_m:
        problems.append(f"padded_m {doc.get('padded_m')!r} != {padded_m}")
    return problems


def check_simulate_lcp(instance, text: str) -> list[str]:
    """``simulate --policy lcp``: ratio at most 3, and the recorded bands
    rebuild an offline optimum."""
    rows = list(csv.reader(io.StringIO(text)))
    body, summary = rows[1:-1], rows[-1]
    problems = []
    if summary[0] != "summary" or len(body) != instance.T:
        return [f"trace has {len(body)} slot rows, expected {instance.T} and a summary"]
    ratio = float(summary[5])
    if not ratio <= 3.0:
        problems.append(f"ratio {ratio!r} above 3")
    bands = [(int(r[1]), int(r[2])) for r in body]
    rebuilt = eval_cost(instance, backward_optimal(bands, instance.T)).total
    opt = dp_optimal(instance).cost
    if not close(rebuilt, opt):
        problems.append(f"cost from the bands {rebuilt!r} != oracle {opt!r}")
    return problems


def check_ratio(text: str, low: float, high: float) -> list[str]:
    ratio = json.loads(text)["ratio"]
    if not low <= ratio <= high:
        return [f"ratio {ratio!r} outside [{low}, {high}]"]
    return []


def counts_repeat(per_round: list[dict]) -> list[str]:
    """Counts of every traced round must equal those of the first."""
    return [f"counts differ between traced rounds: {per_round[0]} vs {c}"
            for c in per_round[1:] if c != per_round[0]]
