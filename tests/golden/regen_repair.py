"""Rewrite ``tests/golden/repair.json``, the pinned spare-row repair outputs.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_repair.py

The file holds

* for each yield setting in :data:`YIELDS`, the ``--json`` report of
  ``estimate_yield`` and the per-sample records behind it, one
  ``"<status> <exact> <correct fraction> <spare rows> <spare cols>"``
  line per sample;
* the re-minimized programming that repair falls back to
  (``_reminimize`` of the array's function and configuration) for
  every ``EXTENDED_SUITE`` function and the cells in
  :data:`REMINIMIZED_CELLS`, one ``"<and plane> <or plane>"`` row per
  product, or ``null`` when it degenerates.

``tests/test_golden_repair.py`` recomputes every entry and diffs the
file byte for byte, so a change to any repair decision (row matching,
column choice, re-minimization or the verifying evaluation) shows up as
a golden diff.  Regenerate only for an intended output change, and say
in CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Dict, List

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "repair.json")

#: (benchmark, samples, seed, defect rates) per pinned yield run.
YIELDS = (
    ("max46", 300, 11, {}),
    ("max46", 100, 1, {"p_stuck_off": 0.02, "p_stuck_on": 0.0}),
    ("syn_tall", 100, 1, {"p_stuck_off": 0.004, "p_stuck_on": 0.002}),
    ("t2", 10, 3, {}),
    ("workload:clf-blobs12-perceptron", 60, 5,
     {"p_stuck_off": 0.002, "p_stuck_on": 0.00086}),
)

#: Generated cells whose re-minimized programming is pinned too.
REMINIMIZED_CELLS = ("clf-blobs12-perceptron", "gt8", "pop8", "add4")

_DEVICE = {"INVERT": "1", "PASS": "0", "DROP": "-"}


def _yield_entry(benchmark: str, samples: int, seed: int,
                 rates: dict) -> dict:
    """The report and per-sample records of one yield run.

    The records come from the yield engine's own chunks, and the report
    is what ``estimate_yield`` aggregates from them.
    """
    from repro.robustness import yield_engine as engine

    settings = engine.YieldSettings(benchmark=benchmark, samples=samples,
                                    seed=seed, **rates)
    records: List[dict] = []
    for start in range(0, samples, engine.CHUNK_SIZE):
        records.extend(engine.run_yield_chunk({
            "settings": asdict(settings), "start": start,
            "count": min(engine.CHUNK_SIZE, samples - start)}))
    return {
        "report": engine._aggregate(settings, records).to_json(),
        "samples": [f"{r['status']} {int(r['exact'])} {r['frac']!r} "
                    f"{r['sr']} {r['sc']}" for r in records],
    }


def _rows(config) -> List[str]:
    """One ``"<and plane> <or plane>"`` string per product row."""
    return ["".join(_DEVICE[d.name] for d in config.and_plane[r]) + " " +
            "".join("1" if config.or_plane[k][r].name == "PASS" else "0"
                    for k in range(config.n_outputs))
            for r in range(config.n_products)]


def _reminimized_entry(benchmark: str) -> dict:
    from repro.bench.mcnc import benchmark_function, get_benchmark
    from repro.mapping.gnor_map import map_cover_to_gnor
    from repro.robustness.repair import _reminimize

    function = benchmark_function(get_benchmark(benchmark), seed=0)
    alt = _reminimize(function, map_cover_to_gnor(function.on_set))
    return {"rows": None if alt is None else _rows(alt)}


def compute() -> Dict[str, dict]:
    """Every entry, in file order."""
    from repro.bench.mcnc import EXTENDED_SUITE

    entries = {}
    for benchmark, samples, seed, rates in YIELDS:
        name = f"yield:{benchmark}/n{samples}/seed{seed}"
        if rates:
            name += "/" + ",".join(f"{k}={v}" for k, v in rates.items())
        entries[name] = _yield_entry(benchmark, samples, seed, rates)
    for benchmark in ([s.name for s in EXTENDED_SUITE] +
                      [f"workload:{spec}" for spec in REMINIMIZED_CELLS]):
        entries[f"reminimize:{benchmark}"] = _reminimized_entry(benchmark)
    return entries


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
