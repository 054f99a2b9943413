"""``yield``: Monte Carlo manufacturing yield with spare-row repair.

Each operation is one ``estimate_yield`` run (``jobs=1``) with its own
seed.  A round gives equal numbers of operations to three arrays, so a
change to the evaluation arena and a change to the row matching show
on different operations:

* ``max46`` — a small array (46 rows);
* ``t2`` — where checking each repair over 2^17 vectors in the batch
  arena is nearly all of the time;
* ``workload:clf-blobs12-perceptron`` — 252 rows at the classifier
  curve's stuck-off rate, where Kuhn row matching and the
  re-minimization fallback (run once per operation) take most of the
  time.

Every operation has its own seed, drawn from the benchmark seed and the
round, and every round writes into a fresh store, so each operation is
a store miss.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import checks
from harness import Op, timed
from wl_compile import synthesis_layers, trace_synthesis

#: (array, samples per operation, defect rates) — samples are sized so
#: the three kinds take roughly 0.3 s, 0.9 s and 1.5 s.
ARRAYS = (
    ("max46", 300, {}),
    ("t2", 10, {}),
    ("workload:clf-blobs12-perceptron", 6,
     {"p_stuck_off": 0.002, "p_stuck_on": 0.002 * 0.43}),
)
#: Operations per array in one round.
PER_ARRAY = 2


class YieldWorkload:
    name = "yield"
    ROUND_S = 5.5
    known_failures: Tuple[str, ...] = ()

    def __init__(self, bench) -> None:
        self.bench = bench
        self.rounds = []
        self._stores = 0

    def _settings(self, seed: int) -> list:
        from repro.robustness.yield_engine import YieldSettings

        return [YieldSettings(benchmark=array, samples=samples,
                              seed=(seed * 7919 + j * 31 + k) % 2 ** 31,
                              **rates)
                for j in range(PER_ARRAY)
                for k, (array, samples, rates) in enumerate(ARRAYS)]

    def setup(self, n_draws: int) -> None:
        self.rounds = [self._settings(self.bench.seed * 1000 + draw)
                       for draw in range(n_draws)]

    def _fresh_store(self) -> None:
        # the default service re-resolves its root when this changes
        self._stores += 1
        os.environ["REPRO_CACHE_DIR"] = os.path.join(
            self.bench.run_dir, "yield", str(self._stores))

    def warm(self) -> None:
        self._fresh_store()
        for settings in self._settings(-1 - self.bench.seed)[:len(ARRAYS)]:
            self._estimate(settings)

    def run_round(self, draw: int) -> List[Op]:
        self._fresh_store()
        ops = []
        for settings in self.rounds[draw]:
            op = timed(settings.benchmark, self._estimate, settings)
            op.extra["settings"] = settings
            ops.append(op)
        return ops

    def _estimate(self, settings) -> dict:
        from repro.core.area import CNFET_AMBIPOLAR, pla_area
        from repro.core.timing import PLATimingModel
        from repro.robustness.yield_engine import estimate_yield

        report = estimate_yield(settings, jobs=1)
        dims = (report.n_inputs, report.n_outputs, report.n_products)
        return {
            "samples": report.samples,
            "raw": report.raw_successes,
            "repaired": report.repaired_successes,
            "raw_yield": report.raw_yield,
            "repaired_yield": report.repaired_yield,
            "raw_ci": report.raw_interval(),
            "repaired_ci": report.repaired_interval(),
            "statuses": dict(report.status_counts),
            "dims": dims,
            "area": pla_area(CNFET_AMBIPOLAR, *dims),
            "fmax_mhz": PLATimingModel(*dims).max_frequency() / 1e6,
        }

    # ------------------------------------------------------------------
    def check(self, ops: List[Op]) -> List[str]:
        errors = []
        first = {}
        for op in ops:
            if not op.ok:
                continue
            out, settings = op.output, op.extra["settings"]
            what = f"{settings.benchmark} seed {settings.seed}"
            try:
                if first.setdefault(settings, out) != out:
                    raise checks.CheckError(f"{what}: two reports for the "
                                            f"same settings differ")
                if out["samples"] != settings.samples:
                    raise checks.CheckError(f"{what}: {out['samples']} "
                                            f"samples reported")
                if sum(out["statuses"].values()) != out["samples"]:
                    raise checks.CheckError(f"{what}: status counts "
                                            f"{out['statuses']}")
                if out["repaired"] < out["raw"]:
                    raise checks.CheckError(f"{what}: repair lost arrays")
                checks.check_wilson(out["raw"], out["samples"],
                                    out["raw_yield"], out["raw_ci"],
                                    f"{what} raw yield")
                checks.check_wilson(out["repaired"], out["samples"],
                                    out["repaired_yield"],
                                    out["repaired_ci"],
                                    f"{what} repaired yield")
                checks.check_area(out["area"], "cnfet", *out["dims"],
                                  what=f"{what} area")
            except checks.CheckError as exc:
                errors.append(str(exc))
        return errors

    def quality(self, ops: List[Op]) -> Tuple[float, float]:
        arrays = {op.extra["settings"].benchmark: op.output
                  for op in ops if op.ok}
        return (sum(out["area"] for out in arrays.values()),
                checks.geomean([out["fmax_mhz"] for out in arrays.values()]))

    # ------------------------------------------------------------------
    def trace(self, tracer) -> None:
        import repro.robustness.repair  # noqa: F401 - patched by name
        import repro.robustness.yield_engine  # noqa: F401
        from repro.core.defects import DefectMap

        trace_synthesis(tracer)
        tracer.method(DefectMap, "sample", "defects.sample_s")
        tracer.method(DefectMap, "sample_row_correlated", "defects.sample_s")
        tracer.function("repro.robustness.repair", "repair_config_batch",
                        "repair.batch_s", after=_spares)
        tracer.function("repro.robustness.repair", "repair_config",
                        "repair.batch_s", after=_spares_one)
        tracer.function("repro.robustness.repair", "_max_matching",
                        "repair.match_s")
        tracer.function("repro.robustness.repair", "_reminimized_config",
                        "repair.reminimize_s")
        tracer.function("repro.robustness.yield_engine", "estimate_yield",
                        "yield.estimate", layer=False)
        tracer.function("repro.robustness.yield_engine", "run_yield_chunk",
                        "yield.chunk", layer=False)

    def layers(self, tracer, traced_ops: List[Op], n_rounds: int) -> dict:
        metrics = synthesis_layers(tracer, n_rounds)
        metrics.update(yield_layers(tracer, n_rounds))
        outs = [op.output for op in traced_ops if op.ok]
        samples = sum(out["samples"] for out in outs)
        metrics["repair.repaired_yield"] = (
            sum(out["repaired"] for out in outs) / samples if samples else 0.0)
        return metrics

    def coverage(self, tracer, traced_ops: List[Op], wall: float) -> float:
        return tracer.top_seconds / wall if wall else 0.0

    def close(self) -> None:
        pass


def _spares(tracer, args, outcomes) -> None:
    tracer.count("repair.spare_rows_used",
                 sum(o.spare_rows_used for o in outcomes))


def _spares_one(tracer, args, outcome) -> None:
    tracer.count("repair.spare_rows_used", outcome.spare_rows_used)


def yield_layers(tracer, n_rounds: int) -> dict:
    """Defect sampling, repair, arena evaluation and runner overhead."""
    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts

    def per(value: float) -> float:
        return value / n_rounds

    return {
        "defects.sample_s": per(seconds.get("defects.sample_s", 0.0)),
        "repair.batch_s": per(seconds.get("repair.batch_s", 0.0)),
        "repair.match_s": per(seconds.get("repair.match_s", 0.0)),
        "repair.match_calls": per(calls.get("repair.match_s", 0)),
        "repair.reminimize_s": per(seconds.get("repair.reminimize_s", 0.0)),
        "repair.reminimize_calls": per(calls.get("repair.reminimize_s", 0)),
        "repair.spare_rows_used": per(counts.get("repair.spare_rows_used",
                                                 0)),
        "eval.batch.eval_s": per(counts.get("perf:eval.batch.eval", 0.0)),
        "eval.batch.pack_s": per(counts.get("perf:eval.batch.pack", 0.0)),
        "eval.batch.pairs": per(counts.get("perf:eval.batch.pairs", 0)),
        "eval.batch.vectors": per(counts.get("perf:eval.batch.vectors", 0)),
        "runner.overhead_s": per(seconds.get("yield.estimate", 0.0)
                                 - seconds.get("yield.chunk", 0.0)),
    }
