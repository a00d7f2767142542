"""Span tracer for kp5, installed from outside the package.

``Tracer.install`` wraps every public function of the traced kp5 modules,
two public classmethods, and the transforms in ``numpy.fft``.  A wrapper
is set on every loaded kp5 module that holds the original object, because
kp5 modules import each other's names (``kp5.integrator.gevrey_norm`` is
the same function as ``kp5.operators.gevrey_norm``, and ``kp5.cli`` holds
``simulate``, ``save_snapshot`` and the reporting writers); wrapping only
the defining module would leave those calls uncounted.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out by ``dump`` when the traced run ends.  ``aggregate`` turns
them into per-function calls, busy time and self time, where self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("spectral", "operators", "integrator", "picard", "diagnostics", "config", "reporting")
CLASSMETHODS = (
    ("spectral", "SpectralField", "from_coefficients"),
    ("diagnostics", "SpaceTimeField", "from_slices"),
)
FFT_LAYER = "numpy.fft"
# the real-input transforms too, so that a move to rfft2 stays counted
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.fft_points = 0  # elements handed to numpy.fft transforms
        self.fft_bytes = 0  # input plus output array bytes, computed from shapes
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _fft_span(self, fn):
        inner = self._span(FFT_LAYER, fn)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = inner(a, *args, **kwargs)
            a = np.asarray(a)
            self.fft_points += a.size
            self.fft_bytes += a.nbytes + out.nbytes
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions; kp5 must already be imported."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"kp5.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = self._span(f"{layer}.{attr}", obj)
        fft_mod = sys.modules["numpy.fft"]
        for attr in FFT_FUNCTIONS:
            obj = getattr(fft_mod, attr)
            wrappers[id(obj)] = self._fft_span(obj)

        holders = [fft_mod] + [
            m for name, m in sorted(sys.modules.items())
            if name == "kp5" or name.startswith("kp5.")
        ]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

        for layer, cls_name, meth in CLASSMETHODS:
            cls = getattr(sys.modules[f"kp5.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            span = self._span(f"{layer}.{cls_name}.{meth}", raw.__func__)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, classmethod(span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index]."""
        spans = [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)


def aggregate(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time sums span durations, so a function that called itself would
    be counted twice; none of the traced functions recurses.
    """
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for name, d, c in zip(names, dur, child):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += d
        row["self_s"] += d - c
    return out
