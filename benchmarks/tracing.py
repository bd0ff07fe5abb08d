"""Spans around the library's public functions, for the traced run only.

The library is not edited.  ``Tracer.install`` wraps every public function
defined in the layer modules below and rebinds every name that points at
one, in the package and in each submodule, because the modules import
each other's functions with ``from .x import y``.  Note that ``tubal.tprod``
on the package is the function; the module is ``sys.modules["tubal.tprod"]``.

A span is recorded only while the benchmark has a phase open, so the
benchmark's own correctness checks between phases leave no trace.
"""

import functools
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("core", "tprod", "decomp", "randomized", "bench", "tio", "cli")


def _complex_matmul_flops(args, out):
    # One complex multiply-add is 8 real flops; the product runs on the
    # I3 // 2 + 1 leading spectral slices only.
    a, b = np.asarray(args[0]), np.asarray(args[1])
    i1, i2, i3 = a.shape
    return {"flops": 8 * (i3 // 2 + 1) * i1 * i2 * b.shape[1]}


# Computed (not measured) work of a call, from the shapes of its arguments
# and result.  Transform bytes count what is read plus what is written.
METERS = {
    "core.rfft_tubes": lambda args, out: {
        "bytes": np.asarray(args[0]).size * 8 + out.nbytes, "elems": np.asarray(args[0]).size},
    "core.irfft_tubes": lambda args, out: {"bytes": np.asarray(args[0]).nbytes + out.nbytes},
    "core.concat_mode1": lambda args, out: {"bytes": out.nbytes},
    "core.concat_mode2": lambda args, out: {"bytes": out.nbytes},
    "tprod.tprod": _complex_matmul_flops,
    "tio.load_tns": lambda args, out: {"bytes": out.nbytes},
    "tio.save_tns": lambda args, out: {"bytes": np.asarray(args[0]).size * 8},
    "tio.load_pgm_stack": lambda args, out: {"bytes": out.size},
    "tio.save_pgm_stack": lambda args, out: {"bytes": np.asarray(args[1]).size},
}


class Tracer:
    """In-memory span recorder.

    Each span is [name, start, end, parent index, child time, phase,
    round, computed stats].  ``phase`` and ``round`` are set by the
    benchmark; with ``phase`` None calls pass straight through.
    """

    def __init__(self):
        self.spans = []
        self.phase = None
        self.round = 0
        self.functions = set()
        self._open = []
        self._rebound = []
        self._wrappers = {}

    def _wrap(self, name, fn):
        meter = METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent, 0.0, self.phase, self.round, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    self.spans[parent][4] += end - start
            if meter is not None:
                span[7] = meter(args, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind every name that refers to one.

        The wrappers are made on the first call; later calls rebind the same ones.
        """
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"tubal.{layer}"]
                for attr, obj in vars(mod).items():
                    if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                        self.functions.add(f"{layer}.{attr}")
        wrappers = self._wrappers
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tubal" and not mod_name.startswith("tubal."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def layer_metrics(self, round_wall: dict, x_size: int) -> dict:
        """Per-round sums of every span statistic, keyed by metric name.

        Returns {name: {round: value}}.  ``<module>.<function>.self_s`` is
        span time minus child-span time; ``<module>.self_s`` sums those over
        the module; ``other.self_s`` is the round's phase time outside every
        span.  ``core.rfft_tubes.x_calls`` counts transforms of an x-sized
        tensor inside the ``solve`` phase, the adaptive_qb call itself.
        """
        per = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, child, phase, rnd, stats in self.spans:
            self_s = end - start - child
            per[f"{name}.calls"][rnd] += 1
            per[f"{name}.self_s"][rnd] += self_s
            per[f"{name.split('.')[0]}.self_s"][rnd] += self_s
            per["other.self_s"][rnd] -= self_s
            for stat, value in (stats or {}).items():
                if stat == "elems":
                    if phase == "solve" and value == x_size:
                        per[f"{name}.x_calls"][rnd] += 1
                else:
                    per[f"{name}.{stat}"][rnd] += value
        for rnd, wall in round_wall.items():
            per["other.self_s"][rnd] += wall
        return per

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, _, phase, rnd, stats) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase, "round": rnd,
                                    "stats": stats}) + "\n")
