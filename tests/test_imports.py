"""What ``import repro`` loads.

Every CLI command pays for the package import, so the top-level import
must not pull in the Monte Carlo repair stack, the worker-pool runner
or graph libraries.  Checked in a fresh interpreter: this test process
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_import_repro_skips_networkx_robustness_and_runner():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "repro.core.fault" in loaded  # the import did run
    unwanted = [name for name in loaded
                if name == "networkx" or name.startswith("networkx.")
                or name == "repro.robustness"
                or name.startswith("repro.robustness.")
                or name == "repro.runner"]
    assert unwanted == []
