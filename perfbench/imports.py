"""Import cost of the program, from ``python -X importtime``.

Interpreter start and ``import repro`` are most of a one-shot command;
every workload pays them once in set-up.  The traced run of every
workload reports them, so a change to the import graph shows wherever
set-up time moves.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from typing import Dict

#: Modules whose cumulative import time is reported, by metric name.
MODULES = {"repro": "import.repro_ms", "numpy": "import.numpy_ms",
           "networkx": "import.networkx_ms"}

#: Fresh interpreters per measurement; the median is reported.
REPEATS = 3


def import_times(bench) -> Dict[str, float]:
    samples: Dict[str, list] = {name: [] for name in MODULES.values()}
    for _ in range(REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import repro"], env=bench.env(),
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"import repro failed: {done.stderr[-500:]}")
        found = parse_importtime(done.stderr)
        for module, metric in MODULES.items():
            samples[metric].append(found.get(module, 0.0))
    return {metric: statistics.median(values)
            for metric, values in samples.items()}


def parse_importtime(text: str) -> Dict[str, float]:
    """Module -> cumulative import time in ms (first import only)."""
    found: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        found.setdefault(name, int(fields[1]) / 1e3)
    return found
