"""Technology characterization: one function, N technologies, one datasheet.

The characterizer is the integration point of the declarative
technology layer (:mod:`repro.tech`): it takes a benchmark function and
a list of technology specs (registry names or descriptor-file paths)
and pushes each through the full pipeline —

    minimize -> map -> area / delay / power -> variation Monte Carlo
    -> manufacturing-yield Monte Carlo (Wilson CIs)

— emitting one schema-versioned, machine-readable **datasheet** (see
:func:`repro.analysis.export.validate_datasheet` for the contract).

Every (technology, cell) pair is an independent task on the resilient
runner (:func:`repro.runner.run_tasks`): crash-isolated, retried, and
checkpoint-resumable, with results aggregated in deterministic task
order, so a sweep produces byte-identical datasheets for any job count
and across resumes.  The finished datasheet is a content-addressed
artifact (kind ``characterize``) keyed by the settings and every
technology's content digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import runner as resilient

#: Datasheet schema identifier + version (bump on shape changes).
DATASHEET_SCHEMA = "repro.datasheet"
DATASHEET_VERSION = 1


@dataclass(frozen=True)
class CharacterizeSettings:
    """Everything that defines a characterization sweep.

    Attributes
    ----------
    benchmark:
        Registry benchmark name (``max46`` / ``apla`` / ``t2`` /
        ``syn_*`` / ``workload:<spec>``) naming the function to
        characterize.
    techs:
        Technology specs, each a registry name or a descriptor-file
        path; the datasheet carries one entry per spec, in order.
    seed:
        Base seed for the LFSR power stream, the variation trials and
        the yield sweep.
    power_vectors:
        LFSR vectors simulated for the activity-dependent energy model.
    variation_trials:
        Monte Carlo samples of the parametric timing distribution.
    yield_samples:
        Monte Carlo samples per manufacturing-yield experiment.
    spares:
        ``(spare_rows, spare_cols)`` fabric redundancy points; the
        yield sweep runs once per technology per point.
    """

    benchmark: str
    techs: Tuple[str, ...] = ("flash", "eeprom", "cnfet")
    seed: int = 0
    power_vectors: int = 256
    variation_trials: int = 200
    yield_samples: int = 400
    spares: Tuple[Tuple[int, int], ...] = ((2, 1),)

    def __post_init__(self):
        from repro.bench.mcnc import check_benchmark
        from repro.errors import ReproInputError, check_int

        check_benchmark(self.benchmark)
        # lists (the JSON form) become tuples
        object.__setattr__(self, "techs", tuple(self.techs))
        object.__setattr__(self, "spares",
                           tuple(tuple(pair) for pair in self.spares))
        if not self.techs:
            raise ReproInputError("need at least one technology")
        check_int("seed", self.seed)
        for name in ("power_vectors", "variation_trials", "yield_samples"):
            check_int(name, getattr(self, name), 1)
        if not self.spares:
            raise ReproInputError("need at least one (spare_rows, "
                                  "spare_cols) point")
        for rows, cols in self.spares:
            check_int("spare_rows", rows, 0)
            check_int("spare_cols", cols, 0)

    def to_json(self) -> Dict[str, Any]:
        """Canonically-JSON-serializable form (tuples become lists)."""
        return {
            "benchmark": self.benchmark,
            "techs": list(self.techs),
            "seed": self.seed,
            "power_vectors": self.power_vectors,
            "variation_trials": self.variation_trials,
            "yield_samples": self.yield_samples,
            "spares": [list(pair) for pair in self.spares],
        }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_characterize_cell(payload: dict) -> dict:
    """Worker entry point: one (technology, cell) unit of the sweep.

    ``payload``: ``{"settings": ..., "tech": spec, "cell": "models"}``
    for the area/delay/power/variation bundle, or
    ``{..., "cell": "yield", "spare_rows": R, "spare_cols": C}`` for
    one manufacturing-yield experiment.  Returns a JSON-shaped record.
    """
    from repro import tech as tech_mod

    settings = CharacterizeSettings(**payload["settings"])
    spec = payload["tech"]
    if payload["cell"] == "yield":
        return _yield_cell(settings, spec, payload["spare_rows"],
                           payload["spare_cols"])
    with tech_mod.use(spec) as descriptor:
        return _models_cell(settings, descriptor)


def _minimized(settings: CharacterizeSettings):
    """(function, minimized cover) of the benchmark, via the store."""
    from repro.bench.mcnc import benchmark_function, get_benchmark
    from repro.store.service import get_service

    function = benchmark_function(get_benchmark(settings.benchmark), seed=0)
    cover = get_service().minimize(function)
    return function, cover


def _models_cell(settings: CharacterizeSettings, descriptor) -> dict:
    """Area, delay, power and variation of the function on one tech."""
    from repro.core.area import pla_area, technology_from
    from repro.core.classical_pla import ClassicalPLA
    from repro.core.pla import AmbipolarPLA
    from repro.core.power import PLAPowerModel
    from repro.core.timing import PLATimingModel, TimingParameters
    from repro.core.variation import VariationModel, monte_carlo_cycle_time
    from repro.testgen.lfsr import GaloisLFSR

    _function, cover = _minimized(settings)
    dims = (cover.n_inputs, cover.n_outputs, cover.n_cubes())
    view = technology_from(descriptor)
    columns = view.input_columns(dims[0])

    timing = TimingParameters.from_tech(descriptor)
    model = PLATimingModel(dims[0], dims[1], dims[2], timing,
                           n_input_columns=columns)

    vectors = GaloisLFSR(dims[0], seed=settings.seed).vectors(
        settings.power_vectors)
    power_model = PLAPowerModel(timing)
    if descriptor.dual_input_columns:
        report = power_model.classical_energy(
            ClassicalPLA.from_cover(cover), vectors)
    else:
        report = power_model.gnor_energy(
            AmbipolarPLA.from_cover(cover), vectors)

    distribution = monte_carlo_cycle_time(
        dims[0], dims[1], dims[2], VariationModel.from_tech(descriptor),
        trials=settings.variation_trials, seed=settings.seed, base=timing,
        n_input_columns=columns)
    nominal = model.cycle_time()

    return {
        "tech": {"name": descriptor.name, "digest": descriptor.digest(),
                 "parameters": descriptor.to_json()},
        "array": {"inputs": dims[0], "outputs": dims[1],
                  "products": dims[2], "input_columns": columns},
        "area": {
            "total_l2": pla_area(descriptor, *dims),
            "cell_l2": descriptor.cell_area_l2,
        },
        "timing": {
            "evaluate_delay_ps": model.evaluate_delay() * 1e12,
            "cycle_time_ps": nominal * 1e12,
            "max_frequency_mhz": model.max_frequency() / 1e6,
        },
        "power": {
            "cycles": report.cycles,
            "energy_j": report.energy_j,
            "energy_per_cycle_j": report.energy_per_cycle(),
            "row_discharges": report.row_discharges,
            "column_discharges": report.column_discharges,
            "inverter_toggles": report.inverter_toggles,
        },
        "variation": {
            "trials": settings.variation_trials,
            "cycle_mean_ps": distribution.mean() * 1e12,
            "cycle_std_ps": distribution.std() * 1e12,
            "cycle_p95_ps": distribution.percentile(0.95) * 1e12,
            # yield against a 10 %-slack budget on the nominal cycle
            "timing_yield_10pct_slack": distribution.timing_yield(
                1.0 / (nominal * 1.1)),
        },
    }


def _yield_cell(settings: CharacterizeSettings, spec: str,
                spare_rows: int, spare_cols: int) -> dict:
    """One manufacturing-yield experiment (Wilson CIs included)."""
    from repro.robustness.yield_engine import YieldSettings, estimate_yield

    ysettings = YieldSettings(
        benchmark=settings.benchmark, samples=settings.yield_samples,
        seed=settings.seed, spare_rows=spare_rows, spare_cols=spare_cols,
        tech=spec)
    report = estimate_yield(ysettings, jobs=1)
    return {"tech": spec, "spare_rows": spare_rows,
            "spare_cols": spare_cols, "report": report.to_json()}


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def characterize(settings: CharacterizeSettings, jobs: int = 1,
                 checkpoint: Optional[str] = None, resume: bool = False,
                 timeout: Optional[float] = None,
                 retries: int = 2) -> Dict[str, Any]:
    """Run the full sweep and return the datasheet dict.

    The datasheet is served through the content-addressed store (kind
    ``characterize``) keyed by the settings plus every technology's
    content digest, so repeated sweeps — and sweeps over renamed files
    with identical parameters — are cache hits.  ``checkpoint`` /
    ``resume`` give crash-resumable sweeps; the datasheet is
    bit-identical for any ``jobs`` value and across resumes.
    """
    from repro.analysis.export import validate_datasheet
    from repro.store.service import get_service
    from repro.tech import resolve_tech

    digests = [resolve_tech(spec).digest() for spec in settings.techs]
    request = {"settings": settings.to_json(), "tech_digests": digests}

    def compute() -> Dict[str, Any]:
        settings_json = settings.to_json()
        tasks = []
        for t, spec in enumerate(settings.techs):
            tasks.append((
                {"cell": "models", "tech": t},
                {"settings": settings_json, "tech": spec,
                 "cell": "models"}))
        for t, spec in enumerate(settings.techs):
            for rows, cols in settings.spares:
                tasks.append((
                    {"cell": "yield", "tech": t, "sr": rows, "sc": cols},
                    {"settings": settings_json, "tech": spec,
                     "cell": "yield", "spare_rows": rows,
                     "spare_cols": cols}))

        report = resilient.run_tasks(
            run_characterize_cell, tasks, jobs=jobs, timeout=timeout,
            retries=retries, checkpoint=checkpoint, resume=resume)
        report.raise_on_failure()
        return _assemble(settings, digests, report, [k for k, _p in tasks])

    datasheet = get_service().get_or_compute("characterize", request,
                                             compute)
    validate_datasheet(datasheet)
    return datasheet


def _assemble(settings: CharacterizeSettings, digests: List[str],
              report, keys: List[dict]) -> Dict[str, Any]:
    """Fold the runner's results into the datasheet, in task order."""
    results = report.values()
    by_key = {_key_id(key): results[i] for i, key in enumerate(keys)}

    function_block = None
    technologies = []
    yields = []
    for t, _spec in enumerate(settings.techs):
        cell = by_key[("models", t, None, None)]
        if function_block is None:
            function_block = {
                "name": settings.benchmark,
                "inputs": cell["array"]["inputs"],
                "outputs": cell["array"]["outputs"],
                "products": cell["array"]["products"],
            }
        technologies.append(cell)
    for t, _spec in enumerate(settings.techs):
        for rows, cols in settings.spares:
            yields.append(by_key[("yield", t, rows, cols)])

    return {
        "schema": DATASHEET_SCHEMA,
        "version": DATASHEET_VERSION,
        "settings": settings.to_json(),
        "tech_digests": digests,
        "function": function_block,
        "technologies": technologies,
        "yield": yields,
    }


def _key_id(key: dict) -> tuple:
    return (key["cell"], key["tech"], key.get("sr"), key.get("sc"))


__all__ = ["DATASHEET_SCHEMA", "DATASHEET_VERSION",
           "CharacterizeSettings", "characterize",
           "run_characterize_cell"]
