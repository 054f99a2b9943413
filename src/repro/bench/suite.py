"""One-call benchmark-suite evaluation.

Runs every registry benchmark through the full pipeline — synthetic
cover, GNOR mapping, Table 1 area model, delay model — and aggregates
the results into a single report usable from Python, the CLI
(``python -m repro suite``) or CSV export.

Benchmarks are independent of each other (each synthesizes its cover
from the shared base ``seed`` alone), so the suite parallelizes across
a process pool: ``evaluate_suite(..., jobs=N)`` / ``python -m repro
suite --jobs N``.  Results are bit-identical for any job count — tasks
are aggregated in registry order and every worker derives its
randomness from the benchmark's own seeded generator.

Execution goes through the resilient runner (:mod:`repro.runner`):
workers are crash-isolated and retried, per-task timeouts come from
``REPRO_TASK_TIMEOUT``, and an optional JSONL checkpoint makes long
suite runs resumable (``evaluate_suite(..., checkpoint=..., resume=True)``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from repro import runner as resilient

from repro.analysis.export import rows_to_csv
from repro.analysis.report import format_area, format_percent, render_table
from repro.bench.mcnc import (EXTENDED_SUITE, BenchmarkStats,
                              benchmark_function)
from repro.core.area import (CNFET_AMBIPOLAR, EEPROM, FLASH,
                             area_saving_percent, pla_area)
from repro.core.timing import PLATimingModel, classical_timing
from repro.mapping.gnor_map import map_cover_to_gnor


@dataclass
class SuiteEntry:
    """All measured quantities for one benchmark.

    Attributes
    ----------
    stats:
        The registry entry.
    flash_area, eeprom_area, cnfet_area:
        Table 1 areas [L^2].
    saving_vs_flash, saving_vs_eeprom:
        Percent savings of the CNFET implementation.
    gnor_frequency_hz, classical_frequency_hz:
        Delay-model frequencies of both architectures.
    programmed_devices, total_devices:
        GNOR mapping occupancy.
    """

    stats: BenchmarkStats
    flash_area: float
    eeprom_area: float
    cnfet_area: float
    saving_vs_flash: float
    saving_vs_eeprom: float
    gnor_frequency_hz: float
    classical_frequency_hz: float
    programmed_devices: int
    total_devices: int


def _evaluate_one(task: Tuple[BenchmarkStats, int]) -> SuiteEntry:
    """Full pipeline for one benchmark (top-level: process-pool safe)."""
    stats, seed = task
    function = benchmark_function(stats, seed=seed)
    config = map_cover_to_gnor(function.on_set)
    dims = (config.n_inputs, config.n_outputs, config.n_products)
    flash = pla_area(FLASH, *dims)
    eeprom = pla_area(EEPROM, *dims)
    cnfet = pla_area(CNFET_AMBIPOLAR, *dims)
    return SuiteEntry(
        stats=stats,
        flash_area=flash,
        eeprom_area=eeprom,
        cnfet_area=cnfet,
        saving_vs_flash=area_saving_percent(cnfet, flash),
        saving_vs_eeprom=area_saving_percent(cnfet, eeprom),
        gnor_frequency_hz=PLATimingModel(*dims).max_frequency(),
        classical_frequency_hz=classical_timing(*dims).max_frequency(),
        programmed_devices=config.used_devices(),
        total_devices=config.total_devices(),
    )


def _entry_to_json(entry: SuiteEntry) -> dict:
    """Checkpoint encoding of a :class:`SuiteEntry`."""
    record = asdict(entry)
    record["stats"] = asdict(entry.stats)
    return record


def _entry_from_json(record: dict) -> SuiteEntry:
    record = dict(record)
    record["stats"] = BenchmarkStats(**record["stats"])
    return SuiteEntry(**record)


def evaluate_suite(benchmarks: Optional[Sequence[BenchmarkStats]] = None,
                   seed: int = 0, jobs: int = 1,
                   timeout: Optional[float] = None, retries: int = 2,
                   checkpoint: Optional[str] = None,
                   resume: bool = False) -> List[SuiteEntry]:
    """Evaluate the registry (or a custom list) end to end.

    ``jobs > 1`` fans the benchmarks out over crash-isolated worker
    processes via :func:`repro.runner.run_tasks`; entry order and
    content are identical to the sequential run.  ``checkpoint`` (a
    JSONL path) plus ``resume=True`` skips benchmarks completed by an
    interrupted earlier run.  A benchmark that keeps failing after
    ``retries`` raises :class:`repro.runner.TaskFailure` with the
    structured per-task report instead of a mid-run traceback.

    Entries are also content-addressed artifacts (kind
    ``suite_entry``) in the synthesis service's store: cached
    benchmarks are served without touching the runner, only the misses
    are dispatched, and fresh results are published for the next run.
    ``REPRO_CACHE=off`` disables the cache tier entirely.
    """
    if benchmarks is None:
        benchmarks = EXTENDED_SUITE
    benchmarks = list(benchmarks)

    from repro.store.service import get_service
    service = get_service()

    def request_of(stats: BenchmarkStats) -> dict:
        return {"stats": asdict(stats), "seed": seed}

    cached = {}
    if service.enabled:
        for stats in benchmarks:
            entry = service.serve_cached("suite_entry", request_of(stats),
                                         decode=_entry_from_json)
            if entry is not None:
                cached[stats.name] = entry

    missing = [stats for stats in benchmarks if stats.name not in cached]
    computed = {}
    if missing:
        tasks = [({"benchmark": stats.name, "seed": seed}, (stats, seed))
                 for stats in missing]
        report = resilient.run_tasks(
            _evaluate_one, tasks,
            jobs=min(jobs, len(tasks)) if jobs > 1 else 1,
            timeout=timeout, retries=retries, checkpoint=checkpoint,
            resume=resume, encode=_entry_to_json, decode=_entry_from_json)
        for stats, entry in zip(missing, report.values()):
            computed[stats.name] = entry
            if service.enabled:
                service.publish("suite_entry", request_of(stats),
                                _entry_to_json(entry))
    return [cached.get(stats.name, computed.get(stats.name))
            for stats in benchmarks]


def verify_suite(benchmarks: Optional[Sequence[BenchmarkStats]] = None,
                 seed: int = 0, n_words: int = 4,
                 stream_seed: int = 1) -> "dict":
    """BIST-style equivalence check of every benchmark's GNOR mapping.

    Synthesizes each benchmark's cover, maps it onto the GNOR planes,
    and drives both with the same deterministic Galois-LFSR vector
    stream (``n_words * 64`` vectors, seeded by ``stream_seed``); the
    mapping passes when the output masks agree on every vector.
    Returns ``{benchmark name: bool}``.

    On the NumPy backend all covers are packed into one
    :class:`CoverArena` and all configurations into one heterogeneous
    :class:`ConfigArena`, and the whole suite is checked in two
    vectorized passes.  Under ``REPRO_KERNEL=python`` each pair is
    walked vector by vector through the scalar oracles
    (``Cover.output_mask_for`` / ``evaluate_defective``) — the verdicts
    are bit-identical either way (the differential tests assert it).
    """
    from repro import kernels
    from repro.testgen.lfsr import GaloisLFSR

    if benchmarks is None:
        benchmarks = EXTENDED_SUITE
    benchmarks = list(benchmarks)
    covers = []
    configs = []
    for stats in benchmarks:
        function = benchmark_function(stats, seed=seed)
        covers.append(function.on_set)
        configs.append(map_cover_to_gnor(function.on_set))
    width = max([cover.n_inputs for cover in covers] + [2])
    minterms = GaloisLFSR(width, seed=stream_seed).states(n_words * 64)

    if kernels.enabled():
        from repro.kernels import batcharena, bitslice as bs
        cover_masks = batcharena.CoverArena.from_covers(covers) \
            .eval_minterms(minterms)
        config_arena = batcharena.ConfigArena.from_configs(configs)
        x = bs.pack_minterms(minterms, config_arena.and_pass.shape[1])
        config_masks = config_arena.eval_slices(x, len(minterms))
        return {stats.name: bool((cover_masks[b] == config_masks[b]).all())
                for b, stats in enumerate(benchmarks)}

    from repro.robustness.defective import evaluate_defective
    results = {}
    for stats, cover, config in zip(benchmarks, covers, configs):
        ok = True
        for minterm in minterms:
            vector = [(minterm >> i) & 1 for i in range(config.n_inputs)]
            bits = evaluate_defective(config, {}, vector)
            mask = sum(bit << k for k, bit in enumerate(bits))
            if mask != cover.output_mask_for(minterm):
                ok = False
                break
        results[stats.name] = ok
    return results


SUITE_HEADERS = ["benchmark", "I", "O", "P", "flash_l2", "eeprom_l2",
                 "cnfet_l2", "saving_vs_flash_pct", "saving_vs_eeprom_pct",
                 "gnor_mhz", "classical_mhz", "programmed", "devices"]


def suite_rows(entries: Sequence[SuiteEntry]) -> List[List[object]]:
    """Flatten entries for tables/CSV (same order as SUITE_HEADERS)."""
    rows = []
    for entry in entries:
        rows.append([
            entry.stats.name, entry.stats.inputs, entry.stats.outputs,
            entry.stats.products, entry.flash_area, entry.eeprom_area,
            entry.cnfet_area, round(entry.saving_vs_flash, 2),
            round(entry.saving_vs_eeprom, 2),
            round(entry.gnor_frequency_hz / 1e6, 1),
            round(entry.classical_frequency_hz / 1e6, 1),
            entry.programmed_devices, entry.total_devices,
        ])
    return rows


def render_suite(entries: Sequence[SuiteEntry]) -> str:
    """Human-readable suite report."""
    rows = []
    for entry in entries:
        rows.append([
            entry.stats.name,
            f"{entry.stats.inputs}/{entry.stats.outputs}/"
            f"{entry.stats.products}",
            format_area(entry.cnfet_area),
            format_percent(entry.saving_vs_flash),
            format_percent(entry.saving_vs_eeprom),
            f"{entry.gnor_frequency_hz / 1e9:.2f}",
            f"{entry.classical_frequency_hz / 1e9:.2f}",
        ])
    return render_table(
        ["benchmark", "I/O/P", "CNFET L^2", "vs Flash", "vs EEPROM",
         "GNOR GHz", "classical GHz"],
        rows, title="Benchmark suite: area & delay across the registry")


def suite_csv(entries: Sequence[SuiteEntry]) -> str:
    """CSV of the suite report."""
    return rows_to_csv(SUITE_HEADERS, suite_rows(entries))
