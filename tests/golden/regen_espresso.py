"""Rewrite ``tests/golden/espresso.json``, the pinned Espresso outputs.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_espresso.py

The file holds, in positional notation, the cover Espresso returns for

* ``benchmark_function(stats, seed=0)`` of every ``EXTENDED_SUITE``
  entry, and ``assign_output_phases`` (rows plus phases) of those with
  at most 12 inputs;
* the generated workload cells that the ``compile`` benchmark builds;
* two seeded random functions with DC-sets.

``tests/test_golden_espresso.py`` recomputes every entry and diffs the
file byte for byte, so a change to any minimizer decision shows up as a
golden diff.  Regenerate only for an intended output change, and say in
CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "espresso.json")

#: Generated cells, in the order the ``compile`` benchmark builds them.
CELLS = ("add2", "cmp2", "eq4", "pop4", "add4", "addc4", "cmp4", "gt8",
         "pop6", "pop8", "clf-majority9-perceptron",
         "clf-blobs12-perceptron", "clf-mux6-dlist")

#: Phase assignment runs on the registry functions up to this width.
PHASE_MAX_INPUTS = 12

#: Entries this narrow are also recomputed on the scalar backend.
SCALAR_MAX_INPUTS = 10


def _random(n: int, m: int, k: int, seed: int, dc: int):
    from repro.logic.function import BooleanFunction
    return BooleanFunction.random(n, m, k, seed=seed, dc_cubes=dc)


def corpus() -> List[Tuple[str, int, Callable[[], dict]]]:
    """``(name, n_inputs, compute)`` per entry, in file order."""
    from repro.bench.mcnc import EXTENDED_SUITE, benchmark_function
    from repro.espresso import assign_output_phases, espresso
    from repro.workloads import build_workload

    def minimized(build):
        return lambda: {"rows": espresso(build()).cover.to_strings()}

    def phased(build):
        def compute():
            result = assign_output_phases(build())
            return {"rows": result.cover.to_strings(),
                    "phases": [bool(p) for p in result.phases]}
        return compute

    entries = []
    for stats in EXTENDED_SUITE:
        build = (lambda s=stats: benchmark_function(s, seed=0))
        entries.append((f"espresso:{stats.name}", stats.inputs,
                        minimized(build)))
    for stats in EXTENDED_SUITE:
        if stats.inputs <= PHASE_MAX_INPUTS:
            build = (lambda s=stats: benchmark_function(s, seed=0))
            entries.append((f"phase:{stats.name}", stats.inputs,
                            phased(build)))
    for spec in CELLS:
        n_inputs = build_workload(spec).n_inputs
        entries.append((f"cell:{spec}", n_inputs,
                        minimized(lambda s=spec: build_workload(s))))
    for n, m, k, seed, dc in ((9, 3, 30, 1, 6), (12, 4, 40, 2, 8)):
        entries.append((f"random:{n}x{m}x{k}/seed{seed}/dc{dc}", n,
                        minimized(lambda a=(n, m, k, seed, dc): _random(*a))))
    return entries


def compute(max_inputs: Optional[int] = None) -> Dict[str, dict]:
    """Every entry (or those with at most ``max_inputs`` inputs)."""
    return {name: run() for name, n_inputs, run in corpus()
            if max_inputs is None or n_inputs <= max_inputs}


def render(entries: Dict[str, dict]) -> str:
    """The file's exact text."""
    return json.dumps({"entries": entries}, indent=1) + "\n"


def main() -> int:
    with open(PATH, "w") as handle:
        handle.write(render(compute()))
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
