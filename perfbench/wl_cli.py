"""``cli``: one-shot ``python -m repro`` commands, one after another.

Interpreter start and ``import repro`` are most of each command.  The
round runs ``--help``, ``tech ls``, ``table1``, ``info`` and
``minimize`` on a small seeded PLA, ``cache stats`` against a store
warmed during set-up, and one ``serve --stdio`` session that sends
``ping`` and closes its input.

The ``serve --stdio`` session fails every time: after replying, the
server awaits ``writer.wait_closed()`` on the stdout pipe, which raises
``NotImplementedError`` on Python 3.11, and the process exits 1.  It is
counted as a failed operation; its reply is still checked.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import List, Tuple

import checks
from harness import Op, median

#: Shape of the generated PLA that ``info`` and ``minimize`` read.
PLA_SHAPE = (8, 3, 14)
PING = '{"id": 1, "op": "ping"}\n'
TIMEOUT = 120.0


class CliWorkload:
    name = "cli"
    ROUND_S = 4.8
    known_failures: Tuple[str, ...] = ("serve_stdio",)

    def __init__(self, bench) -> None:
        self.bench = bench
        self.commands: List[Tuple[str, List[str], str]] = []
        self.rows: List[str] = []

    def setup(self, n_draws: int) -> None:
        rng = random.Random(self.bench.seed)
        n, m, p = PLA_SHAPE
        self.rows = []
        for _ in range(p):
            ins = "".join(rng.choice("01--") for _ in range(n))
            outs = ["0"] * m
            outs[rng.randrange(m)] = "1"
            self.rows.append(f"{ins} {''.join(outs)}")
        self.pla = os.path.join(self.bench.run_dir, "cell.pla")
        with open(self.pla, "w") as handle:
            handle.write(f".i {n}\n.o {m}\n.p {p}\n"
                         + "\n".join(self.rows) + "\n.e\n")
        self.store = os.path.join(self.bench.run_dir, "cli-store")
        self.env = self.bench.env(REPRO_CACHE_DIR=self.store)
        self.commands = [
            ("help", ["--help"], ""),
            ("tech_ls", ["tech", "ls"], ""),
            ("table1", ["table1"], ""),
            ("info", ["info", self.pla], ""),
            ("minimize", ["minimize", self.pla], ""),
            ("cache_stats", ["cache", "stats"], ""),
            ("serve_stdio", ["serve", "--stdio"], PING),
        ]

    def warm(self) -> None:
        # one of each command; minimize and table1 fill the store that
        # cache stats then reports on
        for command in self.commands:
            self._run(command)

    def run_round(self, draw: int) -> List[Op]:
        return [self._run(command) for command in self.commands]

    def _run(self, command) -> Op:
        kind, args, stdin = command
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "repro", *args],
                              input=stdin, capture_output=True, text=True,
                              env=self.env, timeout=TIMEOUT)
        elapsed = time.perf_counter() - start
        error = None
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            error = f"exit status {done.returncode}: {tail[0]}"
        return Op(kind, elapsed, ok=done.returncode == 0,
                  output=(done.stdout, done.stderr), error=error)

    # ------------------------------------------------------------------
    def check(self, ops: List[Op]) -> List[str]:
        errors = []
        for op in ops:
            if not op.ok and op.kind != "serve_stdio":
                continue
            try:
                getattr(self, "_check_" + op.kind)(op.output[0])
            except (checks.CheckError, ValueError, KeyError) as exc:
                errors.append(f"{op.kind}: {exc}")
        return errors

    def _check_help(self, out: str) -> None:
        if not out.startswith("usage:"):
            raise checks.CheckError("no usage line")

    def _check_tech_ls(self, out: str) -> None:
        missing = [t for t in checks.CELLS if t not in out.split()]
        if missing:
            raise checks.CheckError(f"technologies missing: {missing}")

    def _check_table1(self, out: str) -> None:
        checks.check_table1_text(out)

    def _check_info(self, out: str) -> None:
        fields = dict(line.split(None, 1) for line in out.splitlines()
                      if len(line.split(None, 1)) == 2)
        got = (int(fields["inputs"]), int(fields["outputs"]),
               int(fields["products"]))
        if got != PLA_SHAPE:
            raise checks.CheckError(f"info reports {got}, file has "
                                    f"{PLA_SHAPE}")

    def _check_minimize(self, out: str) -> None:
        n, m, p, rows = parse_pla(out)
        if (n, m) != PLA_SHAPE[:2] or p != len(rows):
            raise checks.CheckError(f"minimized PLA is {n}x{m} with "
                                    f".p {p} over {len(rows)} rows")
        checks.check_equivalent(n, m, checks.parse_rows(rows, n, m),
                                checks.parse_rows(self.rows, n, m),
                                what="minimized PLA")

    def _check_cache_stats(self, out: str) -> None:
        lines = {line.split(None, 1)[0]: line.split(None, 1)[1].strip()
                 for line in out.splitlines() if len(line.split(None, 1)) == 2}
        if lines.get("root") != self.store:
            raise checks.CheckError(f"stats of {lines.get('root')!r}, not "
                                    f"the run's store")
        if int(lines.get("entries", "0")) < 1:
            raise checks.CheckError("warmed store reports no entries")

    def _check_serve_stdio(self, out: str) -> None:
        replies = [json.loads(line) for line in out.splitlines() if line]
        if len(replies) != 1 or replies[0].get("id") != 1 or \
                not replies[0].get("ok") or \
                replies[0]["result"].get("pong") is not True:
            raise checks.CheckError(f"ping replies {replies}")

    # ------------------------------------------------------------------
    def _arrays(self, ops: List[Op]) -> List[Tuple[int, int, int]]:
        from repro.bench.mcnc import TABLE1_BENCHMARKS

        arrays = {(b.inputs, b.outputs, b.products)
                  for b in TABLE1_BENCHMARKS}
        for op in ops:
            if op.ok and op.kind == "minimize":
                n, m, p, _rows = parse_pla(op.output[0])
                arrays.add((n, m, p))
        return sorted(arrays)

    def quality(self, ops: List[Op]) -> Tuple[float, float]:
        from repro.core.timing import PLATimingModel

        arrays = self._arrays(ops)
        return (sum(checks.table1_area("cnfet", *dims) for dims in arrays),
                checks.geomean([PLATimingModel(*dims).max_frequency() / 1e6
                                for dims in arrays]))

    def trace(self, tracer) -> None:
        """Nothing in this process to wrap: each command is a process."""

    def layers(self, tracer, traced_ops: List[Op], n_rounds: int) -> dict:
        return {f"cli.{kind}_ms":
                median(op.latency_s for op in traced_ops
                       if op.kind == kind) * 1e3
                for kind, _args, _stdin in self.commands}

    def coverage(self, tracer, traced_ops: List[Op], wall: float) -> float:
        """Share of a command that is interpreter start plus imports."""
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           env=self.env, check=True, capture_output=True,
                           timeout=TIMEOUT)
            samples.append(time.perf_counter() - start)
        command = median(op.latency_s for op in traced_ops if op.ok)
        return median(samples) / command if command else 0.0

    def close(self) -> None:
        pass


def parse_pla(text: str) -> Tuple[int, int, int, List[str]]:
    """``(inputs, outputs, .p, rows)`` of Berkeley PLA text."""
    n = m = p = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(".i "):
            n = int(line.split()[1])
        elif line.startswith(".o "):
            m = int(line.split()[1])
        elif line.startswith(".p "):
            p = int(line.split()[1])
        elif line and not line.startswith((".", "#")):
            rows.append(line)
    if n is None or m is None or p is None:
        raise checks.CheckError("PLA text without .i/.o/.p")
    return n, m, p, rows
