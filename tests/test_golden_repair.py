"""Spare-row repair outputs pinned byte for byte.

``tests/golden/repair.json`` holds yield reports with their per-sample
repair records, and the re-minimized programmings repair falls back
to; its docstring says how to regenerate it.  Every repair decision is
deterministic, so any change here is an output change that needs a
reviewed golden diff.
"""

from __future__ import annotations

import importlib.util
import os

_SCRIPT = os.path.join(os.path.dirname(__file__), "golden",
                       "regen_repair.py")


def _regen():
    spec = importlib.util.spec_from_file_location("regen_repair", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repair_outputs_match_golden_file():
    regen = _regen()
    with open(regen.PATH) as handle:
        golden = handle.read()
    assert regen.render(regen.compute()) == golden
