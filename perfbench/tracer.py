"""Span tracer that wraps atsvit's public functions from outside the package.

Each traced function is replaced, in every atsvit module namespace that
binds it, by a wrapper that records one span: name, start, end, parent span
and the image and train-step ordinals current when it opened. Spans live in
flat typed arrays (about 32 bytes each) because a traced train epoch opens
around a million of them; self time is computed once, after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

IMAGE_SPAN = "model.forward"      # opening one of these starts a new image
STEP_SPAN = "trainer.optim_step"  # closing one of these ends a train step


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.image = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, float] = {}
        self._stack: list[int] = []
        self._images = -1
        self._steps = 0
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        starts, ends = self.start, self.end
        is_image, is_step = name == IMAGE_SPAN, name == STEP_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_image:
                self._images += 1
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.image.append(self._images)
            self.step.append(self._steps)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_step:
                self._steps += 1
            if note is not None:
                self.notes[idx] = float(note(args, result))
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, note) tuples. note is None
        or a function of (args, result) giving a number kept on the span.

        A missing attribute raises AttributeError, so a renamed function
        stops the traced run instead of reading as zero."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "atsvit" or n.startswith("atsvit."))]
        for module, attr, name, note in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis, after the run -------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls and self time in seconds (duration minus the
        time covered by direct child spans)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [i for i, v in enumerate(self.name_id) if v == nid]
