"""What ``import repro`` loads, and what the library's modules import.

Every CLI command pays for the package import, so the top-level import
must not pull in the Monte Carlo repair stack, the worker-pool runner
or graph libraries.  Checked in a fresh interpreter: this test process
has long since imported everything.
"""

from __future__ import annotations

import ast
import glob
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


def test_no_unused_top_level_imports():
    """Each top-level import of a ``src/repro`` module is used: its name
    appears in the module's code or in its ``__all__``.  A stdlib
    ``ast`` scan, so it needs no linter."""
    unused = []
    pattern = os.path.join(SRC, "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{os.path.relpath(path, SRC)}:"
                                  f"{node.lineno} {name}")
    assert unused == []
