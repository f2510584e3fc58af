"""Seeded inputs and command lines for the four benchmark workloads.

Each workload is a list of ``rightsizing`` CLI invocations run in order as
one round. Instance files are generated here with numpy and ``json`` only,
so the program under test sees nothing but the files and the flags.

Why these four (starting state on Python 3.11, numpy 2.4, no numba, 2 cores):

- ``poly-deep``: acceptance criterion 3's fleet (m = 2^20) and cost law. Its
  19 window levels make the window kernel about 99 % of the time. The
  horizon is T = 2000 rather than the criterion's 10 000: a 10 000-slot
  solve takes about 9 s, so a run held only two rounds and its median swung
  by a quarter between seeds on a noisy host. At T = 10 000 the solve took
  10.0 s against the criterion's 5 s bound. ``validate_instance`` costs about
  91 ms per slot at this m. Judges ROADMAP items 1 and 5.
- ``lcp-dense``: the lazy policy's O(m) step and the full-grid oracle behind
  the summary ratio, whose T x (m+1) table sets the peak memory. The window
  kernel never runs. Judges items 4 and 5.
- ``duel-tiny``: the same online and offline layers at m <= 2, where per-call
  overhead dominates, plus the rounding ensemble and the duel loop. A change
  that trades a per-call constant for per-state work shows here as a loss.
- ``table-parse``: a ~40 MB table instance with m = 1023, the only workload
  where JSON parsing, the non-affine row evaluation and power-of-two padding
  cost anything. ``validate_instance`` took 11.4 s on it. Judges items 3, 4.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

#: Replaced in command lines by the round's own output directory.
OUT = "{out}"


@dataclass(frozen=True)
class Spec:
    """What one run executes: the commands of a round, the slots one round
    processes, and the instance file (if any) the commands read."""

    commands: list[list[str]]
    slots: int
    instance: str | None = None
    params: dict = field(default_factory=dict)


def _write(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def _instance_doc(T: int, m: int, beta: float, functions: list) -> dict:
    return {"T": T, "m": m, "beta": beta, "convention": "up_only",
            "functions": functions}


def affine_doc(seed: int, T: int, m: int, grid: int = 0) -> dict:
    """``affine_abs`` instance: eps ~ U(0.1, 2), beta ~ U(0.5, 4), centers
    uniform on [0, m], or on the multiples of ``2**grid`` when grid > 0."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.1, 2.0, size=T)
    if grid > 0:
        step = 1 << grid
        centers = step * rng.integers(0, m // step + 1, size=T).astype(np.float64)
    else:
        centers = rng.uniform(0.0, m, size=T)
    beta = float(rng.uniform(0.5, 4.0))
    fns = [{"kind": "affine_abs", "eps": e, "center": c}
           for e, c in zip(eps.tolist(), centers.tolist())]
    return _instance_doc(T, m, beta, fns)


def table_doc(seed: int, T: int, m: int) -> dict:
    """Convex ``table`` instance: ``eps*|x - c| + q*(x - c)**2`` per slot."""
    rng = np.random.default_rng(seed)
    xs = np.arange(m + 1, dtype=np.float64)
    eps = rng.uniform(0.1, 2.0, size=T)
    centers = rng.uniform(0.0, m, size=T)
    curv = rng.uniform(0.0, 4.0 / m, size=T)
    beta = float(rng.uniform(0.5, 4.0))
    d = xs[None, :] - centers[:, None]
    values = eps[:, None] * np.abs(d) + curv[:, None] * d * d
    fns = [{"kind": "table", "values": row} for row in values.tolist()]
    return _instance_doc(T, m, beta, fns)


def poly_deep(seed: int, work: str) -> Spec:
    T, m, grid = 2000, 1 << 20, 10
    path = os.path.join(work, "poly_deep.json")
    _write(affine_doc(seed, T, m, grid=grid), path)
    cmd = ["solve", path, "--algorithm", "poly", "--out", os.path.join(OUT, "solve.json")]
    return Spec([cmd], T, path, {"grid": grid, "validate_prefix": 4})


def lcp_dense(seed: int, work: str) -> Spec:
    T, m = 2000, 1 << 14
    path = os.path.join(work, "lcp_dense.json")
    _write(affine_doc(seed, T, m), path)
    cmd = ["simulate", path, "--policy", "lcp", "--seed", str(seed),
           "--out", os.path.join(OUT, "trace.csv")]
    return Spec([cmd], T, path, {"validate_prefix": 4})


def duel_tiny(seed: int, work: str) -> Spec:
    T, runs = 10_000, 4000
    common = ["--eps", "0.01", "--T", str(T), "--seed", str(seed)]
    discrete = ["adversary", "--variant", "discrete", "--policy", "lcp", *common,
                "--out", os.path.join(OUT, "discrete.json")]
    randomized = ["adversary", "--variant", "randomized", "--policy", "random-round",
                  *common, "--runs", str(runs), "--out", os.path.join(OUT, "randomized.json")]
    return Spec([discrete, randomized], 2 * T, None,
                {"eps": 0.01, "validate_prefix": 256})


def table_parse(seed: int, work: str) -> Spec:
    T, m = 2000, 1023
    path = os.path.join(work, "table_parse.json")
    _write(table_doc(seed, T, m), path)
    cmd = ["solve", path, "--algorithm", "poly", "--out", os.path.join(OUT, "solve.json")]
    return Spec([cmd], T, path, {"padded_m": 1 << m.bit_length(), "validate_prefix": 64})


WORKLOADS = {
    "poly-deep": poly_deep,
    "lcp-dense": lcp_dense,
    "duel-tiny": duel_tiny,
    "table-parse": table_parse,
}
