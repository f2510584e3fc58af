"""Per-layer spans recorded from outside the program.

The package's callers look functions up as module attributes at call time
(``solve_poly`` inside ``rightsizing.cli``, ``_window_dp`` inside
``rightsizing.offline``, ...). ``Tracer.install`` swaps each such attribute
for a timing wrapper and ``uninstall`` puts the originals back, so no file
of the package changes. Span times are inclusive; a span's self time is its
duration minus the time of the spans directly inside it. A wrapper entered
while a span of the same name is open records nothing, so a layer that
calls itself through another wrapped name is counted once.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span): every lookup path a workload takes into a layer.
WRAPS = [
    ("rightsizing.cli", "main", "cli.command"),
    ("rightsizing.cli", "load_instance", "model.load"),
    ("rightsizing.cli", "eval_cost", "model.eval_cost"),
    ("rightsizing.offline", "eval_cost", "model.eval_cost"),
    ("rightsizing.adversary", "eval_cost", "model.eval_cost"),
    ("rightsizing.cli", "solve_poly", "offline.solve_poly"),
    ("rightsizing.offline", "_window_dp", "offline.kernel"),
    ("rightsizing.offline", "_row_evaluator", "offline.row_eval"),
    ("rightsizing.offline", "evaluate_rows", "offline.row_eval"),
    ("rightsizing.cli", "dp_optimal", "offline.dp_optimal"),
    ("rightsizing.offline", "dp_optimal", "offline.dp_optimal"),
    ("rightsizing.adversary", "dp_optimal", "offline.dp_optimal"),
    ("rightsizing.cli", "lcp_step", "lcp.step"),
    ("rightsizing.adversary", "lcp_step", "lcp.step"),
    ("rightsizing.adversary", "rounding_ensemble", "randomized.ensemble"),
    ("rightsizing.cli", "run_duel", "adversary.duel"),
]


def _count_kernel(tr, args, out):
    tr.counts["offline.levels"] += 1
    tr.counts["offline.states_probed"] += int(args[0].size)


def _count_dp(tr, args, out):
    instance = args[0]
    columns = args[1] if len(args) > 1 else None
    if columns is None:
        width = instance.m // instance.allowed_step + 1
    else:
        width = max(len(c) for c in columns)
    tr.counts["offline.dp_cells"] += instance.T * width


def _count_lcp(tr, args, out):
    history = args[0].history
    prev = history[-2].chosen if len(history) > 1 else 0
    tr.counts["lcp.steps"] += 1
    tr.counts["lcp.forced_moves"] += int(out.chosen != prev)
    tr.counts["lcp.band_width_sum"] += out.upper - out.lower


def _count_ensemble(tr, args, out):
    tr.counts["randomized.draws"] += int(args[2]) * args[1].T


COUNTERS = {
    "offline.kernel": _count_kernel,
    "offline.dp_optimal": _count_dp,
    "lcp.step": _count_lcp,
    "randomized.ensemble": _count_ensemble,
}


class Tracer:
    """Span totals and counts for one traced round, kept in memory."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, time of direct children]
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
            if name == "offline.row_eval" and callable(out):
                # _row_evaluator returns the closure solve_poly calls per level.
                out = self.wrap(name, out)
            if count is not None:
                count(self, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, span in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def missing_spans(self) -> set[str]:
        """Span names with at least one lookup path that no longer exists."""
        gone = set(self.missing)
        return {span for module_name, attr, span in WRAPS
                if f"{module_name}.{attr}" in gone}
