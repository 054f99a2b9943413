"""Evaluation-kernel backend selection.

The library has two implementations of every truth-table-sized
computation:

* the NumPy kernels — :mod:`repro.kernels.bitslice` evaluates 64 input
  vectors per machine word, :mod:`repro.kernels.cubematrix` runs the
  minimizer's cube algebra (distance, containment, cofactor, ...) as
  whole-cover matrix operations, and :mod:`repro.kernels.batcharena`
  evaluates many covers or defect-patched configurations in one pass;
* the original scalar Python loops, the oracle in the differential
  tests.

Which one runs is decided here.  The default is the NumPy backend
(NumPy is a declared dependency); setting the environment variable
``REPRO_KERNEL=python`` forces the scalar oracle.  Tests and
benchmarks can override programmatically::

    from repro import kernels
    with kernels.forced_backend("python"):
        ...   # scalar oracle

Call sites gate on :func:`enabled` and keep their scalar code as the
oracle, so behaviour is identical either way — only the speed changes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.kernels import bitslice
from repro.kernels import cubematrix
from repro.kernels import batcharena

#: Environment variable selecting the backend ("numpy" or "python").
BACKEND_ENV = "REPRO_KERNEL"

_forced: Optional[str] = None


def backend() -> str:
    """The active backend name: ``"numpy"`` or ``"python"``.

    Resolution order: programmatic override (:func:`set_backend` /
    :func:`forced_backend`), then the ``REPRO_KERNEL`` environment
    variable (``python``/``scalar``/``off`` select the scalar oracle;
    ``numpy``/``bitslice`` and anything else the kernels).
    """
    choice = _forced
    if choice is None:
        choice = os.environ.get(BACKEND_ENV, "").strip().lower()
    if choice in ("python", "scalar", "off"):
        return "python"
    return "numpy"


def set_backend(name: Optional[str]) -> None:
    """Force a backend (``"numpy"`` / ``"python"``); ``None`` re-enables
    environment selection."""
    global _forced
    if name is not None and name not in ("numpy", "python"):
        raise ValueError(f"unknown kernel backend {name!r}")
    _forced = name


@contextmanager
def forced_backend(name: Optional[str]) -> Iterator[None]:
    """Temporarily force a backend (used by tests and benchmarks)."""
    global _forced
    previous = _forced
    set_backend(name)
    try:
        yield
    finally:
        _forced = previous


def enabled() -> bool:
    """True when the bit-sliced NumPy kernels should be used."""
    return backend() == "numpy"


__all__ = ["BACKEND_ENV", "backend", "batcharena", "bitslice", "cubematrix",
           "enabled", "forced_backend", "set_backend"]
