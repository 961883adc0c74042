"""Outside-in layer tracing of gammanoise.

The tracer rebinds public functions by name in every loaded gammanoise
module that holds them (``series``, ``spde`` and ``experiments`` import
names directly, so patching only the defining module would miss calls), on
the orthonormal-system classes, and on ``numpy.fft``.  Each call records a
span ``(name, start, end)``; the parent of each span is found from the
nesting once the round is over.  Spans stay in memory and are written out
once.  A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _largest_bytes(args, kwargs, out):
    return out.nbytes


def _out_cells(args, kwargs, out):
    return out.size


def _in_cells(args, kwargs, out):
    return np.size(args[0])


def _file_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute, span name, {size kind: (measure, reduce)})
FUNCTIONS = [
    ("gammanoise.rng", "stream", "rng.stream", {}),
    ("gammanoise.rng", "complex_standard_normal", "rng.draw", {}),
    ("gammanoise.series", "term_values", "series.term_values",
     {"bytes": (_largest_bytes, max)}),
    ("gammanoise.series", "mc_gamma_norm", "series.mc_gamma_norm", {}),
    ("gammanoise.series", "hs_gamma_norm_exact", "series.hs_gamma_norm_exact", {}),
    ("gammanoise.series", "sq_function_from_terms", "series.sq_function_from_terms", {}),
    ("gammanoise.grid", "upsampled_values", "grid.upsampled_values",
     {"cells": (_out_cells, sum)}),
    ("gammanoise.grid", "forward_transform", "grid.forward_transform", {}),
    ("gammanoise.norms", "lq_norm", "norms.lq_norm", {}),
    ("gammanoise.norms", "bessel_multiplier", "norms.bessel_multiplier", {}),
    ("gammanoise.norms", "hsq_norm", "norms.hsq_norm", {}),
    ("gammanoise.spde", "simulate", "spde.simulate", {}),
    ("gammanoise.spde", "term_values_for_system", "spde.term_values_for_system",
     {"bytes": (_largest_bytes, max)}),
    ("gammanoise.spde", "trajectory_norms", "spde.trajectory_norms", {}),
    ("gammanoise.spde", "scaling_diagnostic", "spde.scaling_diagnostic", {}),
    ("gammanoise.experiments", "frequency_block_test", "experiments.frequency_block_test", {}),
    ("gammanoise.experiments", "rescaled_bump_test", "experiments.rescaled_bump_test", {}),
    ("gammanoise.experiments", "shifted_bump_test", "experiments.shifted_bump_test", {}),
    ("gammanoise.experiments", "dirichlet_norm_test", "experiments.dirichlet_norm_test", {}),
    ("gammanoise.operators", "gamma_young_check", "operators.gamma_young_check", {}),
    ("gammanoise.operators", "mg_sobolev_gamma_norm", "operators.mg_sobolev_gamma_norm", {}),
    ("gammanoise.operators", "schatten_heat_norm", "operators.schatten_heat_norm", {}),
    ("gammanoise.config", "load_config", "config.load_config", {}),
    ("gammanoise.output", "write_csv", "output.write_csv", {"bytes": (_file_bytes, sum)}),
    ("gammanoise.cli", "main", "cli.main", {}),
]

# (module, class, method, span name, sizes)
METHODS = [
    ("gammanoise.systems", cls, "render", "systems.render", {})
    for cls in ("FourierSystem", "HaarSystem", "ShiftedBumpSystem", "SyntheticGrowthSystem")
] + [("gammanoise.output", "RunManifest", "write", "output.manifest", {})]

FFT_SIZES = {"cells": (_in_cells, sum)}


class LayerStats:
    """Calls, self time and size counters of one span name."""

    __slots__ = ("calls", "self_s", "wall_s", "sizes", "summed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.wall_s = 0.0
        self.sizes = {}
        self.summed = set()     # size kinds that add up over calls, not peaks


class Tracer:
    """Span recorder.  Single-threaded: the traced rounds run with one worker.

    A traced call only appends ``(name, start, end)``; ``close_round`` then
    finds each span's parent and folds the round into the layer stats, so
    the bookkeeping costs nothing inside the timed round.
    """

    def __init__(self):
        self.stats: dict = {}
        self.spans: list = []       # (name, start, end, parent) of the last closed round
        self._raw: list = []        # (name, start, end) in completion order
        self._undo: list = []

    def wrap(self, name: str, fn, sizes: dict):
        stat = self.stats.setdefault(name, LayerStats())
        for kind, (_, reduce) in sizes.items():
            stat.sizes.setdefault(kind, 0)
            if reduce is sum:
                stat.summed.add(kind)
        append, clock = self._raw.append, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                append((name, t0, clock()))
            for kind, (measure, reduce) in sizes.items():
                stat.sizes[kind] = reduce((stat.sizes[kind], measure(args, kwargs, out)))
            return out

        return traced

    def close_round(self) -> float:
        """Fold the recorded spans into the stats; returns the top-level time."""
        raw = sorted(self._raw, key=lambda sp: (sp[1], -sp[2]))
        self._raw.clear()
        child = [0.0] * len(raw)
        self.spans = []
        open_spans: list = []
        top = 0.0
        for i, (name, t0, t1) in enumerate(raw):
            while open_spans and raw[open_spans[-1]][2] <= t0:
                open_spans.pop()
            parent = open_spans[-1] if open_spans else -1
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
            open_spans.append(i)
            self.spans.append((name, t0, t1, parent))
        for (name, t0, t1, _), inner in zip(self.spans, child):
            stat = self.stats[name]
            stat.calls += 1
            stat.wall_s += t1 - t0
            stat.self_s += t1 - t0 - inner
        return top

    def install(self) -> None:
        """Rebind every traced name; ``uninstall`` restores the originals."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "gammanoise" or name.startswith("gammanoise.")}
        for modname, attr, span, sizes in FUNCTIONS:
            original = getattr(mods[modname], attr)
            wrapped = self.wrap(span, original, sizes)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._rebind(mod, attr, wrapped)
        for modname, clsname, attr, span, sizes in METHODS:
            cls = getattr(mods[modname], clsname)
            self._rebind(cls, attr, self.wrap(span, cls.__dict__[attr], sizes))
        runners = mods["gammanoise.cli"].RUNNERS
        for command, runner in list(runners.items()):
            self._rebind_item(runners, command, self.wrap(f"cli.{command}", runner, {}))
        for attr in ("fftn", "ifftn"):
            self._rebind(np.fft, attr, self.wrap("fft", getattr(np.fft, attr), FFT_SIZES))

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, value = self._undo.pop()
            setter(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str, extra: dict) -> None:
        """Write the kept spans (times relative to the first) and ``extra``."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t_ref = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(t0 - t_ref, 7), round(t1 - t_ref, 7), parent]
                for n, t0, t1, parent in self.spans]
        doc = {**extra, "span_fields": ["name", "start_s", "end_s", "parent"],
               "names": names, "spans": rows}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
