"""Timers the traced run puts around the program's layer boundaries.

The program is not changed: :class:`Tracer` replaces chosen functions
and methods with timing wrappers for the duration of a traced round
and puts the originals back afterwards.  A function imported by name
into other modules (``from repro.logic.complement import
complement_cover``) is replaced wherever a loaded ``repro`` module
binds it.

Spans nest.  A *layer* span with no layer span around it is top-level;
the sum of top-level time is what the traced run reports as its
coverage of wall time.  A re-entrant call (a recursive function, or a
layer calling itself through another path) is timed once, at its
outermost entry.  Spans marked ``layer=False`` (whole entry points
such as ``estimate_yield``) are timed but neither count as coverage nor
hide the layers inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span totals and call counts for one traced run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.top_seconds = 0.0
        self._open_layers = 0
        self._inside: Dict[str, bool] = {}
        self._targets: List[Tuple[Any, str, str, bool, Optional[Callable]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # declaring what to time
    # ------------------------------------------------------------------
    def function(self, module: str, attr: str, name: str,
                 layer: bool = True,
                 after: Optional[Callable] = None) -> None:
        """Time ``module.attr`` (a plain function) under ``name``."""
        self._targets.append((module, attr, name, layer, after))

    def method(self, owner: type, attr: str, name: str, layer: bool = True,
               after: Optional[Callable] = None) -> None:
        """Time ``owner.attr`` (method or classmethod) under ``name``."""
        self._targets.append((owner, attr, name, layer, after))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, layer, after in self._targets:
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                wrapper = self._wrap(original, name, layer, after)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(
                            "repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, wrapper)
            else:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap(raw.__func__, name, layer, after))
                else:
                    wrapped = self._wrap(raw, name, layer, after)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def _wrap(self, fn: Callable, name: str, layer: bool,
              after: Optional[Callable]) -> Callable:
        tracer = self
        self.seconds.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._inside.get(name):
                return fn(*args, **kwargs)
            tracer._inside[name] = True
            top = layer and tracer._open_layers == 0
            if layer:
                tracer._open_layers += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._inside[name] = False
                if layer:
                    tracer._open_layers -= 1
                tracer.seconds[name] += elapsed
                tracer.calls[name] += 1
                if top:
                    tracer.top_seconds += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return traced
