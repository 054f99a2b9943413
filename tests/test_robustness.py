"""Tests for the robustness subsystem: defective evaluation, spare-aware
repair and the Monte Carlo yield engine."""

import random

import pytest

from repro import kernels
from repro.core.defects import DefectMap, DefectModel, DefectType
from repro.logic.cover import Cover
from repro.logic.function import BooleanFunction
from repro.mapping.gnor_map import map_cover_to_gnor
from repro.robustness import (SpareFabric, defective_truth_table,
                              estimate_yield, evaluate_defective, golden_of,
                              overlay_from_map, repair_config,
                              wilson_interval)
from repro.robustness.repair import (STATUS_CLEAN, STATUS_DEGRADED,
                                     STATUS_REMAPPED, STATUS_REMINIMIZED)
from repro.robustness.yield_engine import YieldSettings
from repro.testgen import Fault, FaultSimulator, FaultSite, enumerate_faults


def config_of(rows):
    return map_cover_to_gnor(Cover.from_strings(rows))


def random_config(seed, n_inputs=4, n_outputs=2, n_cubes=5):
    function = BooleanFunction.random(n_inputs, n_outputs, n_cubes,
                                      seed=seed)
    return map_cover_to_gnor(function.on_set), function


# ---------------------------------------------------------------------
# overlay projection
# ---------------------------------------------------------------------
class TestOverlayProjection:
    def test_identity_projection(self):
        config = config_of(["10 1", "01 1"])
        dmap = DefectMap(2, 3, {(0, 1): DefectType.STUCK_OFF,
                                (1, 2): DefectType.STUCK_ON})
        overlay = overlay_from_map(config, dmap)
        assert overlay == {("and", 0, 1): DefectType.STUCK_OFF,
                           ("or", 1, 0): DefectType.STUCK_ON}

    def test_unassigned_spare_row_defects_vanish(self):
        config = config_of(["10 1"])
        # physical rows 0..2 (2 spares); defect on unused physical row 2
        dmap = DefectMap(3, 3, {(2, 0): DefectType.STUCK_ON})
        overlay = overlay_from_map(config, dmap, row_assignment={0: 0},
                                   n_input_columns=2)
        assert overlay == {}

    def test_column_remap_moves_defect(self):
        config = config_of(["10 1"])
        # input 0 placed on physical column 2 (a spare), defect there
        dmap = DefectMap(1, 4, {(0, 2): DefectType.STUCK_OFF})
        overlay = overlay_from_map(config, dmap, col_assignment={0: 2, 1: 1},
                                   n_input_columns=3)
        assert overlay == {("and", 0, 0): DefectType.STUCK_OFF}

    def test_output_columns_after_input_columns(self):
        config = config_of(["10 1"])
        # 2 inputs + 1 spare col: output 0 sits at physical column 3
        dmap = DefectMap(1, 4, {(0, 3): DefectType.STUCK_ON})
        overlay = overlay_from_map(config, dmap, n_input_columns=3)
        assert overlay == {("or", 0, 0): DefectType.STUCK_ON}


# ---------------------------------------------------------------------
# defective evaluation: kernel vs scalar vs fault simulator
# ---------------------------------------------------------------------
class TestDefectiveEvaluation:
    def test_kernel_matches_scalar_oracle(self):
        for seed in range(6):
            config, _f = random_config(seed)
            rng = random.Random(seed)
            sites = [("and", r, i) for r in range(config.n_products)
                     for i in range(config.n_inputs)]
            sites += [("or", r, k) for r in range(config.n_products)
                      for k in range(config.n_outputs)]
            overlay = {site: rng.choice([DefectType.STUCK_OFF,
                                         DefectType.STUCK_ON,
                                         DefectType.PG_LEAK])
                       for site in rng.sample(sites, min(4, len(sites)))}
            with kernels.forced_backend("python"):
                scalar = defective_truth_table(config, overlay)
            if kernels.enabled():
                assert defective_truth_table(config, overlay) == scalar

    def test_agrees_with_fault_simulator_single_faults(self):
        """A 1-entry overlay is exactly one Fault of the ATPG simulator."""
        config, _f = random_config(11, n_inputs=3, n_outputs=2)
        simulator = FaultSimulator(config)
        for fault in enumerate_faults(config):
            site = "and" if fault.site is FaultSite.AND else "or"
            defect = (DefectType.STUCK_ON if fault.stuck_on
                      else DefectType.STUCK_OFF)
            overlay = {(site, fault.row, fault.column): defect}
            for m in range(1 << config.n_inputs):
                vector = [(m >> i) & 1 for i in range(config.n_inputs)]
                assert (evaluate_defective(config, overlay, vector)
                        == simulator.evaluate(vector, fault)), str(fault)

    def test_all_crosspoints_stuck_off_drops_everything(self):
        config = config_of(["11 1", "00 1"])
        overlay = {("and", r, i): DefectType.STUCK_OFF
                   for r in range(config.n_products)
                   for i in range(config.n_inputs)}
        overlay.update({("or", r, 0): DefectType.STUCK_OFF
                        for r in range(config.n_products)})
        # nothing ever conducts: every OR NOR floats to 1, and the
        # default inverted output phase turns that into constant 0
        for m in range(4):
            vector = [(m >> i) & 1 for i in range(2)]
            assert evaluate_defective(config, overlay, vector) == [0]

    def test_golden_errors_count(self):
        config = config_of(["1- 1"])  # f = x0, 2 inputs
        golden = golden_of(config)
        assert golden.total_pairs == 4
        assert golden.errors_of({}) == 0
        # stuck-on AND device on the only row kills the product row for
        # every vector: output becomes constant 0, wrong where x0=1
        overlay = {("and", 0, 1): DefectType.STUCK_ON}
        assert golden.errors_of(overlay) == 2


# ---------------------------------------------------------------------
# spare-aware repair
# ---------------------------------------------------------------------
class TestRepair:
    def test_clean_on_defect_free_map(self):
        config, function = random_config(3)
        fabric = SpareFabric.for_config(config, spare_rows=2, spare_cols=1)
        dmap = DefectMap(fabric.n_physical_rows, fabric.n_columns)
        outcome = repair_config(config, fabric, dmap, golden_of(config),
                                function=function)
        assert outcome.status == STATUS_CLEAN
        assert outcome.exact and outcome.correct_fraction == 1.0
        assert outcome.spare_rows_used == 0

    def test_harmless_defect_stays_clean(self):
        config = config_of(["1- 1"])  # position (0,1) is DROP
        fabric = SpareFabric.for_config(config)
        dmap = DefectMap(1, 3, {(0, 1): DefectType.STUCK_OFF})
        outcome = repair_config(config, fabric, dmap, golden_of(config))
        assert outcome.status == STATUS_CLEAN

    def test_dead_row_remapped_to_spare(self):
        config = config_of(["10 1", "01 1"])
        fabric = SpareFabric.for_config(config, spare_rows=1)
        # stuck-on in row 0's programmed position: fatal there, but the
        # spare physical row 2 is pristine
        dmap = DefectMap(3, 3, {(0, 0): DefectType.STUCK_ON})
        outcome = repair_config(config, fabric, dmap, golden_of(config))
        assert outcome.status == STATUS_REMAPPED
        assert outcome.exact
        assert outcome.spare_rows_used == 1
        # the dead physical row is left out of the placement
        assert 0 not in outcome.row_assignment.values()

    def test_degraded_without_spares(self):
        config = config_of(["10 1", "01 1"])
        fabric = SpareFabric.for_config(config)  # no redundancy
        dmap = DefectMap(2, 3, {(0, 0): DefectType.STUCK_ON})
        outcome = repair_config(config, fabric, dmap, golden_of(config),
                                reminimize=False)
        assert outcome.status == STATUS_DEGRADED
        assert not outcome.exact
        assert 0.0 < outcome.correct_fraction < 1.0

    def test_geometry_mismatch_rejected(self):
        config = config_of(["10 1"])
        fabric = SpareFabric.for_config(config, spare_rows=1)
        with pytest.raises(ValueError, match="geometry"):
            repair_config(config, fabric, DefectMap(1, 3),
                          golden_of(config))


# ---------------------------------------------------------------------
# yield engine
# ---------------------------------------------------------------------
SETTINGS = YieldSettings(benchmark="syn_small", samples=60, seed=5,
                         p_stuck_off=0.004, p_stuck_on=0.002)


class TestYieldEngine:
    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 0)
        assert (lo, hi) == (0.0, 1.0)
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0 and 0.0 < hi0 < 0.1
        lo1, hi1 = wilson_interval(100, 100)
        assert hi1 == 1.0 and 0.9 < lo1 < 1.0
        # interval tightens with n
        assert (wilson_interval(500, 1000)[1] - wilson_interval(500, 1000)[0]
                < hi - lo)

    def test_deterministic_across_job_counts(self):
        sequential = estimate_yield(SETTINGS, jobs=1)
        parallel = estimate_yield(SETTINGS, jobs=2)
        assert sequential.to_json() == parallel.to_json()
        assert sequential.samples == 60

    def test_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "yield.ckpt.jsonl")
        small = YieldSettings(benchmark="syn_small", samples=220, seed=5,
                              p_stuck_off=0.004, p_stuck_on=0.002)
        full = estimate_yield(small, jobs=1, checkpoint=path)
        # simulate an interrupted run: drop the checkpoint's tail, then
        # resume — restored chunks + recomputed tail must agree exactly
        lines = open(path).read().splitlines(keepends=True)
        lines = open(path).read().splitlines(keepends=True)
        assert len(lines) == 3  # chunks of 100/100/20
        with open(path, "w") as handle:
            handle.writelines(lines[:1])
        resumed = estimate_yield(small, jobs=2, checkpoint=path,
                                 resume=True)
        assert resumed.to_json() == full.to_json()

    def test_reminimizes_once_per_function_and_config(self, monkeypatch):
        import importlib
        from repro.robustness import repair
        from repro.store.service import reset_service
        reduce_module = importlib.import_module("repro.espresso.reduce")
        reduce_cover = reduce_module.reduce_cover
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return reduce_cover(*args, **kwargs)

        monkeypatch.setattr(reduce_module, "reduce_cover", counting)
        monkeypatch.setenv("REPRO_CACHE", "off")
        reset_service()
        settings = YieldSettings(benchmark="syn_small", samples=300, seed=3,
                                 p_stuck_off=0.02, p_stuck_on=0.01,
                                 spare_rows=0)
        monkeypatch.setattr(repair, "_REMINIMIZED", (None, None, None))
        memoized = estimate_yield(settings, jobs=1)
        assert len(calls) == 1  # three chunks, one re-minimization
        assert memoized.status_counts[STATUS_REMINIMIZED] > 0
        # every chunk re-minimizing, as without the memo
        monkeypatch.setattr(repair, "_reminimized_config",
                            repair._reminimize)
        assert estimate_yield(settings, jobs=1).to_json() == \
            memoized.to_json()
        assert len(calls) == 4

    def test_report_consistency(self):
        report = estimate_yield(SETTINGS, jobs=1)
        assert report.raw_successes <= report.repaired_successes
        assert report.repaired_successes + len(report.degraded_fractions) \
            == report.samples
        assert sum(report.status_counts.values()) == report.samples
        lo, hi = report.repaired_interval()
        assert lo <= report.repaired_yield <= hi

    def test_correlated_sampling_clusters(self):
        model = DefectModel(p_stuck_off=0.01, p_stuck_on=0.004)
        rows = 40
        independent = DefectMap.sample(rows, 20, model, seed=9)
        correlated = DefectMap.sample_row_correlated(
            rows, 20, model, seed=9, p_bad_row=0.15, boost=25.0)
        # deterministic in the seed
        again = DefectMap.sample_row_correlated(
            rows, 20, model, seed=9, p_bad_row=0.15, boost=25.0)
        assert correlated.defects == again.defects
        # clustering: the worst row of the correlated map concentrates
        # far more defects than any row of the independent map
        def worst_row(dmap):
            return max(len(dmap.row_defects(q)) for q in range(rows))
        assert worst_row(correlated) > worst_row(independent)
