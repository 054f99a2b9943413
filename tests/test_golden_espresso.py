"""Espresso's outputs pinned byte for byte.

``tests/golden/espresso.json`` holds the covers (and output phases)
Espresso returns for the registry functions, the generated workload
cells and two random functions with DC-sets; its docstring says how to
regenerate it.  Every minimizer decision is deterministic, so any
change here is an output change that needs a reviewed golden diff.
"""

from __future__ import annotations

import importlib.util
import json
import os

from repro import kernels

_SCRIPT = os.path.join(os.path.dirname(__file__), "golden",
                       "regen_espresso.py")


def _regen():
    spec = importlib.util.spec_from_file_location("regen_espresso", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_espresso_outputs_match_golden_file():
    regen = _regen()
    with open(regen.PATH) as handle:
        golden = handle.read()
    assert regen.render(regen.compute()) == golden


def test_scalar_backend_matches_golden_file():
    regen = _regen()
    with open(regen.PATH) as handle:
        golden = json.load(handle)["entries"]
    with kernels.forced_backend("python"):
        scalar = regen.compute(max_inputs=regen.SCALAR_MAX_INPUTS)
    assert len(scalar) == 22
    for name, entry in scalar.items():
        assert entry == golden[name], name
