"""Outside-in tracer: wraps the engine's entry points by replacing module
attributes for the duration of a traced run, so no engine file changes.

Every wrapped call adds to its layer's call count, busy time (outermost
calls only) and self time (its duration minus that of wrapped calls made
inside it).  Coarse layers also keep a span ``(id, parent, name, start,
end)``; the per-point kernels, called up to 10^5 times a query, are only
aggregated.  A target whose module or attribute no longer exists is
reported as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LN2 = 0.6931471805599453


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _sec_arg(args, kwargs):
    return kwargs["sec"] if "sec" in kwargs else args[2]


def plateau_raw(sec) -> float:
    """Key expression on the zero-key plateau: minus the PA constant."""
    return -(6.0 * (math.log(21.0 / sec.eps_s) / LN2) + math.log(2.0 / sec.eps_c) / LN2)


def _count_optimize(stat, args, kwargs, result):
    floor = plateau_raw(_sec_arg(args, kwargs))
    stat.add("evals", result.evaluations)
    stat.add("restarts", len(result.restart_trace))
    stat.add("plateau", sum(math.isclose(r["raw"], floor, rel_tol=1e-12)
                            for r in result.restart_trace))


def _count_points(stat, args, kwargs, result):
    stat.add("points", np.broadcast(*args).size)


def _count_sweep(stat, args, kwargs, result):
    stat.add("points", len(result))


def _count_probes(stat, args, kwargs, result):
    stat.add("probes", len(result.probes))


def _count_grid(stat, args, kwargs, result):
    stat.add("grid_points", result.evaluations)


# (layer, module, attribute, keep spans, counter)
TARGETS: tuple[tuple[str, str, str, bool, Callable | None], ...] = (
    ("cli.main", "fsqkd.cli", "main", True, None),
    ("config.load", "fsqkd.config", "RunConfig.load", True, None),
    ("scenarios.sweep", "fsqkd.scenarios", "sweep", True, _count_sweep),
    ("scenarios.max_loss", "fsqkd.scenarios", "max_loss", True, _count_probes),
    ("optimize.optimize", "fsqkd.optimize", "optimize", True, _count_optimize),
    ("optimize.minimize", "fsqkd.optimize", "minimize", True, None),
    ("uncertainty.worst_case", "fsqkd.uncertainty", "worst_case_key_length", True, _count_grid),
    ("kernels.grid_counts_core", "fsqkd._kernels", "grid_counts_core", True, None),
    ("kernels.grid_min_core", "fsqkd._kernels", "grid_min_core", True, None),
    ("finitekey.objective", "fsqkd.finitekey", "_evaluate_flat", False, None),
    ("finitekey.key_length_for_channel", "fsqkd.finitekey", "key_length_for_channel", False, None),
    ("channel.expected_block_counts", "fsqkd.channel", "expected_block_counts", False, None),
    ("quantile.binom_ppf", "fsqkd._quantile", "binom_ppf", False, _count_points),
    ("kernels.counts_core", "fsqkd._kernels", "counts_core", False, None),
    ("kernels.bounds_ell_core", "fsqkd._kernels", "bounds_ell_core", False, None),
)


class Tracer:
    """Collects per-layer statistics and spans while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, LayerStat] = {t[0]: LayerStat() for t in targets}
        self.stats["query"] = LayerStat()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.absent: list[str] = []
        self._frames: list[list[float]] = [[0.0]]  # child time per open call
        self._span_ids: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------
    def _call(self, name: str, stat: LayerStat, keep_span: bool, fn, args, kwargs):
        frames = self._frames
        frame = [0.0]
        frames.append(frame)
        if keep_span:
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; parents precede children
            parent = self._span_ids[-1] if self._span_ids else None
            self._span_ids.append(span_id)
        stat.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            frames.pop()
            stat.depth -= 1
            dt = t1 - t0
            frames[-1][0] += dt
            stat.calls += 1
            stat.self_s += dt - frame[0]
            if stat.depth == 0:
                stat.busy_s += dt
            if keep_span:
                self._span_ids.pop()
                self.spans[span_id] = (span_id, parent, name, t0, t1)

    def _wrap(self, name: str, fn, keep_span: bool, counter):
        stat = self.stats[name]
        call = self._call

        def traced(*args, **kwargs):
            result = call(name, stat, keep_span, fn, args, kwargs)
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        return traced

    def query(self, fn, *args):
        """Call ``fn(*args)`` as one query: a root span made by the benchmark."""
        return self._call("query", self.stats["query"], True, fn, args, {})

    # --- installation ---------------------------------------------------
    def _aliases(self, obj):
        """Every (module, name) in the fsqkd package that is bound to ``obj``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fsqkd" or modname.startswith("fsqkd.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is obj:
                    yield mod, key

    def install(self) -> None:
        self.absent = []
        for name, modname, attr, keep_span, counter in self.targets:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, keep_span, counter))
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            wrapped = self._wrap(name, raw, keep_span, counter)
            for mod, key in list(self._aliases(raw)):
                self._restore.append((mod, key, raw))
                setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, raw = self._restore.pop()
            setattr(owner, key, raw)
