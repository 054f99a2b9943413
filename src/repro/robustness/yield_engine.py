"""Monte Carlo manufacturing-yield engine.

``estimate_yield`` samples per-crosspoint defect maps of a benchmark's
GNOR fabric (independent or row-correlated statistics), pushes every
sample through the spare-aware repair pass of
:mod:`repro.robustness.repair`, and aggregates:

* **raw yield** — fraction of arrays whose identity placement already
  computes the golden function (defects absent, harmless, or logically
  masked);
* **repaired yield** — fraction computing it exactly after remapping /
  re-minimization on the spare-equipped fabric;
* **graceful degradation** — over the irreparable remainder, the mean
  and worst fraction of (minterm, output) pairs still correct;

each yield with a Wilson score confidence interval.

Sampling is chunked and dispatched through :func:`repro.runner.run_tasks`:
chunks are crash-isolated, retried, and checkpointed, so a sweep killed
mid-run resumes with ``resume=True`` and produces a bit-identical
report.  Determinism holds across any job count because every sample's
defect map is seeded from the base seed and the sample index alone, and
chunks are aggregated in index order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import runner as resilient

#: Samples per runner task: big enough to amortize the per-worker
#: benchmark synthesis, small enough that a killed worker loses little.
CHUNK_SIZE = 100


@dataclass(frozen=True)
class YieldSettings:
    """Everything that defines a yield experiment (JSON-roundtrippable).

    Construction raises :class:`~repro.errors.ReproInputError` on a bad
    field, before any sample runs; it only looks the benchmark up (no
    synthesis), since workers rebuild the settings once per chunk.

    Attributes
    ----------
    benchmark:
        Registry name (``max46`` / ``apla`` / ``t2`` / synthetic) or a
        ``workload:<spec>`` cell.
    samples:
        Monte Carlo sample count (>= 1).
    seed:
        Base seed; sample ``j`` draws its defect map from
        ``seed * 1_000_003 + j``, so reports are reproducible and
        resumable bit-for-bit.
    p_stuck_off, p_stuck_on, p_pg_leak:
        Per-device defect rates (see :class:`~repro.core.defects.DefectModel`).
    spare_rows, spare_cols:
        Fabric redundancy available to the repair pass (>= 0).
    correlated:
        Sample row-correlated maps
        (:meth:`~repro.core.defects.DefectMap.sample_row_correlated`).
    reminimize:
        Allow the repair pass its re-minimization fallback.
    tech:
        Technology spec (registry name or descriptor-file path) the
        experiment runs under; workers resolve it via
        :func:`repro.tech.use`, and the artifact key separates by its
        content digest.
    """

    benchmark: str
    samples: int
    seed: int = 0
    p_stuck_off: float = 0.0014
    p_stuck_on: float = 0.0006
    p_pg_leak: float = 0.0
    spare_rows: int = 2
    spare_cols: int = 1
    correlated: bool = False
    reminimize: bool = True
    tech: str = "cnfet"

    def __post_init__(self) -> None:
        from repro.bench.mcnc import check_benchmark
        from repro.core.defects import DefectModel
        from repro.errors import ReproInputError, check_int

        check_benchmark(self.benchmark)
        check_int("samples", self.samples, 1)
        check_int("seed", self.seed)
        check_int("spare_rows", self.spare_rows, 0)
        check_int("spare_cols", self.spare_cols, 0)
        DefectModel(self.p_stuck_off, self.p_stuck_on, self.p_pg_leak)
        for name, kind in (("correlated", bool), ("reminimize", bool),
                           ("tech", str)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ReproInputError(f"{name} must be {kind.__name__}, "
                                      f"got {type(value).__name__}")


@dataclass
class YieldReport:
    """Aggregated outcome of a yield experiment.

    All fields derive deterministically from the per-sample outcomes,
    so two runs with the same :class:`YieldSettings` — sequential,
    parallel, or resumed from a checkpoint — render byte-identical
    reports.
    """

    settings: YieldSettings
    n_inputs: int
    n_outputs: int
    n_products: int
    samples: int
    raw_successes: int
    repaired_successes: int
    status_counts: Dict[str, int]
    mean_defects: float
    degraded_fractions: List[float] = field(default_factory=list)
    spare_rows_used_max: int = 0
    spare_cols_used_max: int = 0

    @property
    def raw_yield(self) -> float:
        return self.raw_successes / self.samples if self.samples else 0.0

    @property
    def repaired_yield(self) -> float:
        return self.repaired_successes / self.samples if self.samples else 0.0

    def raw_interval(self, z: float = 1.96) -> Tuple[float, float]:
        return wilson_interval(self.raw_successes, self.samples, z)

    def repaired_interval(self, z: float = 1.96) -> Tuple[float, float]:
        return wilson_interval(self.repaired_successes, self.samples, z)

    def degradation(self) -> Tuple[float, float]:
        """(mean, worst) correct fraction over irreparable samples.

        Both are 1.0 when every sample was repaired — nothing degraded.
        """
        if not self.degraded_fractions:
            return (1.0, 1.0)
        return (sum(self.degraded_fractions) / len(self.degraded_fractions),
                min(self.degraded_fractions))

    def to_json(self) -> dict:
        mean_frac, worst_frac = self.degradation()
        raw_lo, raw_hi = self.raw_interval()
        rep_lo, rep_hi = self.repaired_interval()
        return {
            "settings": asdict(self.settings),
            "array": {"inputs": self.n_inputs, "outputs": self.n_outputs,
                      "products": self.n_products},
            "samples": self.samples,
            "raw_yield": round(self.raw_yield, 6),
            "raw_ci95": [round(raw_lo, 6), round(raw_hi, 6)],
            "repaired_yield": round(self.repaired_yield, 6),
            "repaired_ci95": [round(rep_lo, 6), round(rep_hi, 6)],
            "status_counts": dict(sorted(self.status_counts.items())),
            "mean_defects_per_array": round(self.mean_defects, 4),
            "irreparable": len(self.degraded_fractions),
            "degraded_mean_correct": round(mean_frac, 6),
            "degraded_worst_correct": round(worst_frac, 6),
            "max_spare_rows_used": self.spare_rows_used_max,
            "max_spare_cols_used": self.spare_cols_used_max,
        }


def wilson_interval(successes: int, n: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because Monte Carlo yields
    sit near 0 or 1 exactly where the normal interval misbehaves.
    """
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # the min/max with p absorbs float rounding at the 0/1 endpoints:
    # the interval must always contain the point estimate
    return (min(p, max(0.0, center - half)),
            max(p, min(1.0, center + half)))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process cache of (function, config, fabric, golden) so one worker
#: synthesizes each benchmark once, not once per chunk.  Keyed by the
#: kernel backend too: a golden reference holds output words only when
#: it was built on the kernel backend.
_WORKER_CACHE: dict = {}


def _prepared(settings: YieldSettings):
    from repro import kernels
    key = (settings.benchmark, settings.spare_rows, settings.spare_cols,
           settings.tech, kernels.backend())
    entry = _WORKER_CACHE.get(key)
    if entry is None:
        from repro.bench.mcnc import benchmark_function, get_benchmark
        from repro.mapping.gnor_map import map_cover_to_gnor
        from repro.robustness.defective import golden_of
        from repro.robustness.repair import SpareFabric

        function = benchmark_function(get_benchmark(settings.benchmark),
                                      seed=0)
        config = map_cover_to_gnor(function.on_set)
        fabric = SpareFabric.for_config(config, settings.spare_rows,
                                        settings.spare_cols)
        entry = (function, config, fabric, golden_of(config))
        _WORKER_CACHE.clear()  # one benchmark per worker at a time
        _WORKER_CACHE[key] = entry
    return entry


def run_yield_chunk(payload: dict) -> List[dict]:
    """Worker entry point: evaluate one chunk of samples.

    ``payload`` is JSON-shaped (it doubles as the checkpoint key's
    sibling): the settings dict plus the chunk's ``start`` index and
    ``count``.  Returns one JSON-shaped outcome record per sample.
    """
    settings = YieldSettings(**payload["settings"])
    from repro import tech as tech_mod

    with tech_mod.use(settings.tech):
        return _run_chunk_under_tech(settings, payload)


def _run_chunk_under_tech(settings: YieldSettings, payload: dict):
    from repro import kernels
    from repro import perf
    from repro.core.defects import DefectMap, DefectModel
    from repro.robustness.repair import repair_config, repair_config_batch

    function, config, fabric, golden = _prepared(settings)
    model = DefectModel(p_stuck_off=settings.p_stuck_off,
                        p_stuck_on=settings.p_stuck_on,
                        p_pg_leak=settings.p_pg_leak)
    indices = list(range(payload["start"],
                         payload["start"] + payload["count"]))
    defect_maps = []
    for j in indices:
        map_seed = settings.seed * 1_000_003 + j
        if settings.correlated:
            defect_maps.append(DefectMap.sample_row_correlated(
                fabric.n_physical_rows, fabric.n_columns, model, map_seed))
        else:
            defect_maps.append(DefectMap.sample(
                fabric.n_physical_rows, fabric.n_columns, model, map_seed))

    if kernels.enabled():
        # all trials of the chunk verified against one tiled arena;
        # bit-identical outcomes to the scalar per-trial loop below
        perf.count("eval.batch.trials", len(indices))
        repaired = repair_config_batch(config, fabric, defect_maps, golden,
                                       function=function,
                                       reminimize=settings.reminimize)
    else:
        repaired = [repair_config(config, fabric, defect_map, golden,
                                  function=function,
                                  reminimize=settings.reminimize)
                    for defect_map in defect_maps]

    outcomes = []
    for j, outcome in zip(indices, repaired):
        outcomes.append({
            "i": j,
            "defects": outcome.n_defects,
            "raw": outcome.status == "clean",
            "exact": outcome.exact,
            "status": outcome.status,
            "frac": outcome.correct_fraction,
            "sr": outcome.spare_rows_used,
            "sc": outcome.spare_cols_used,
        })
    return outcomes


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def estimate_yield(settings: YieldSettings, jobs: int = 1,
                   checkpoint: Optional[str] = None, resume: bool = False,
                   timeout: Optional[float] = None,
                   retries: int = 2) -> YieldReport:
    """Run the Monte Carlo experiment through the resilient runner.

    ``checkpoint``/``resume`` give crash-resumable sweeps; see
    :mod:`repro.runner` for the timeout/retry semantics.  The report is
    bit-identical for any ``jobs`` value and across resumes.

    The aggregated report is a content-addressed artifact (kind
    ``yield``) keyed by the full settings: a repeated run with the same
    settings, kernel backend and technology digest is served from the
    synthesis service's store without touching the Monte Carlo sweep.
    ``REPRO_CACHE=off`` always recomputes.
    """
    from repro import tech as tech_mod
    from repro.store.service import get_service

    def compute() -> YieldReport:
        settings_dict = asdict(settings)
        tasks = []
        for start in range(0, settings.samples, CHUNK_SIZE):
            count = min(CHUNK_SIZE, settings.samples - start)
            key = {"bench": settings.benchmark, "seed": settings.seed,
                   "start": start, "count": count}
            payload = {"settings": settings_dict, "start": start,
                       "count": count}
            tasks.append((key, payload))

        report = resilient.run_tasks(
            run_yield_chunk, tasks, jobs=jobs, timeout=timeout,
            retries=retries, checkpoint=checkpoint, resume=resume)
        report.raise_on_failure()
        outcomes = [record for chunk in report.values() for record in chunk]
        return _aggregate(settings, outcomes)

    # settings.tech is authoritative for the whole experiment: the
    # artifact key (via the active digest) and any tech-parameterized
    # model call both resolve under it.
    with tech_mod.use(settings.tech):
        return get_service().yield_run(settings, compute)


def _aggregate(settings: YieldSettings,
               outcomes: List[dict]) -> YieldReport:
    _function, config, _fabric, _golden = _prepared(settings)
    status_counts: Dict[str, int] = {}
    degraded = []
    raw = exact = 0
    defects_total = 0
    sr_max = sc_max = 0
    for record in outcomes:
        status_counts[record["status"]] = \
            status_counts.get(record["status"], 0) + 1
        raw += bool(record["raw"])
        exact += bool(record["exact"])
        defects_total += record["defects"]
        sr_max = max(sr_max, record["sr"])
        sc_max = max(sc_max, record["sc"])
        if not record["exact"]:
            degraded.append(record["frac"])
    n = len(outcomes)
    return YieldReport(
        settings=settings,
        n_inputs=config.n_inputs,
        n_outputs=config.n_outputs,
        n_products=config.n_products,
        samples=n,
        raw_successes=raw,
        repaired_successes=exact,
        status_counts=status_counts,
        mean_defects=defects_total / n if n else 0.0,
        degraded_fractions=degraded,
        spare_rows_used_max=sr_max,
        spare_cols_used_max=sc_max,
    )


__all__ = ["CHUNK_SIZE", "YieldReport", "YieldSettings", "estimate_yield",
           "run_yield_chunk", "wilson_interval"]
