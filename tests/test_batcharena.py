"""Differential tests for the batched evaluation arena (PR 6).

The arena (:mod:`repro.kernels.batcharena`) and its facade
(:mod:`repro.eval`) are pure throughput plumbing: every result must be
bit-identical to the per-cover kernels (``bitslice.eval_minterms``,
per-trial ``repair_config``) and to the scalar oracles.
These tests pin that contract on hypothesis-made covers and verify the
Galois-LFSR stream generator exhaustively at small widths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import eval as batch_eval
from repro import kernels
from repro.testgen.lfsr import (GaloisLFSR, PRIMITIVE_TAPS, stream_minterms,
                                stream_spec)

from conftest import covers

np = pytest.importorskip("numpy")

from repro.kernels import batcharena, bitslice as bs  # noqa: E402


# ----------------------------------------------------------------------
# LFSR vector streams
# ----------------------------------------------------------------------
class TestLFSR:
    @pytest.mark.parametrize("width", range(2, 11))
    def test_maximal_period_exhaustive(self, width):
        """Every nonzero state appears exactly once per period."""
        lfsr = GaloisLFSR(width, seed=3)
        states = lfsr.states(lfsr.period)
        assert len(set(states)) == lfsr.period
        assert set(states) == set(range(1, 1 << width))
        # and the register is back where it started
        assert lfsr.state == states[0]

    @pytest.mark.parametrize("width", sorted(PRIMITIVE_TAPS))
    def test_seed_never_reaches_lockup(self, width):
        for seed in (0, 1, (1 << width) - 1, 12345):
            lfsr = GaloisLFSR(width, seed=seed)
            assert lfsr.state != 0
            for _ in range(100):
                assert lfsr.step() != 0

    def test_streams_are_deterministic(self):
        a = GaloisLFSR(9, seed=42).states(500)
        b = GaloisLFSR(9, seed=42).states(500)
        assert a == b
        assert GaloisLFSR(9, seed=43).states(500) != a

    def test_word_slices_match_states(self):
        """The packed stream is exactly pack_minterms of the states."""
        packed = GaloisLFSR(7, seed=5).word_slices(3)
        states = GaloisLFSR(7, seed=5).states(3 * bs.WORD)
        assert packed.shape == (7, 3)
        assert (packed == bs.pack_minterms(states, 7)).all()

    def test_stream_spec_roundtrip(self):
        spec = stream_spec(11, 2, seed=9)
        assert stream_minterms(spec) == GaloisLFSR(11, seed=9).states(128)
        with pytest.raises(ValueError):
            stream_minterms({"kind": "urandom"})

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            GaloisLFSR(1)
        with pytest.raises(ValueError):
            GaloisLFSR(33)  # no built-in polynomial
        # explicit taps admit unlisted widths
        assert GaloisLFSR(33, taps=(33, 13)).step() != 0
        with pytest.raises(ValueError):
            GaloisLFSR(8, taps=(8, 9))  # tap outside the register


# ----------------------------------------------------------------------
# cover arena vs the per-cover kernel and scalar oracles
# ----------------------------------------------------------------------
class TestCoverArenaDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(covers(max_inputs=5, max_outputs=3, max_cubes=8),
                    min_size=1, max_size=5),
           st.integers(0, 2**16))
    def test_three_paths_bit_identical(self, batch, seed):
        """arena == per-cover kernel == scalar, cover by cover."""
        width = max([c.n_inputs for c in batch] + [2])
        minterms = GaloisLFSR(width, seed=seed).states(96)
        with kernels.forced_backend("numpy"):
            arena_masks = batch_eval.evaluate_covers(batch, minterms)
            percov_masks = [[int(m) for m in bs.eval_minterms(cover,
                                                               minterms)]
                            for cover in batch]
        with kernels.forced_backend("python"):
            scalar_masks = batch_eval.evaluate_covers(batch, minterms)
        assert arena_masks == percov_masks == scalar_masks

    @settings(max_examples=25, deadline=None)
    @given(st.lists(covers(max_inputs=5, max_outputs=3, max_cubes=8),
                    min_size=1, max_size=4))
    def test_arena_rows_match_eval_minterms(self, batch):
        """Row ``c`` of the arena equals bitslice.eval_minterms(covers[c])."""
        width = max([c.n_inputs for c in batch] + [2])
        minterms = GaloisLFSR(width, seed=1).states(64)
        with kernels.forced_backend("numpy"):
            arena = batcharena.CoverArena.from_covers(batch)
            masks = arena.eval_minterms(minterms)
            for c, cover in enumerate(batch):
                expect = bs.eval_minterms(cover, minterms)
                assert (masks[c] == np.asarray(expect, dtype=np.uint64)).all()

    def test_stream_facade_matches_explicit_minterms(self):
        from repro.bench.mcnc import benchmark_function, get_benchmark
        batch = [benchmark_function(get_benchmark(name), seed=0).on_set
                 for name in ("syn_small", "syn_dec5")]
        width = max(c.n_inputs for c in batch)
        minterms = GaloisLFSR(width, seed=4).states(2 * 64)
        with kernels.forced_backend("numpy"):
            streamed = batch_eval.evaluate_stream(batch, 2, seed=4)
            explicit = batch_eval.evaluate_covers(batch, minterms)
        assert streamed == explicit


# ----------------------------------------------------------------------
# config arena vs the defect-analysis oracles
# ----------------------------------------------------------------------
def _small_config():
    from repro.bench.mcnc import benchmark_function, get_benchmark
    from repro.mapping.gnor_map import map_cover_to_gnor
    function = benchmark_function(get_benchmark("syn_small"), seed=0)
    return map_cover_to_gnor(function.on_set)


def _sampled_overlays(config, count, seed=0):
    from repro.core.defects import DefectMap, DefectModel
    from repro.robustness.defective import overlay_from_map
    model = DefectModel(p_stuck_off=0.02, p_stuck_on=0.01)
    overlays = []
    for t in range(count):
        defect_map = DefectMap.sample(config.n_products,
                                      config.n_inputs + config.n_outputs,
                                      model, seed * 1_000_003 + t)
        overlays.append(overlay_from_map(config, defect_map))
    return overlays


class TestConfigArenaDifferential:
    def test_patched_members_match_golden_errors(self):
        """Tiled + patched arena error counts equal GoldenRef.errors_of."""
        from repro.robustness.defective import golden_of
        config = _small_config()
        overlays = _sampled_overlays(config, 12, seed=2)
        with kernels.forced_backend("numpy"):
            golden = golden_of(config)
            arena = batcharena.ConfigArena.from_config(config,
                                                       copies=len(overlays))
            for t, overlay in enumerate(overlays):
                arena.patch_overlay(t, overlay)
            counts = arena.error_counts_vs(golden.output_words)
            expect = [golden.errors_of(overlay) for overlay in overlays]
        assert counts.tolist() == expect
        # empty overlays (defect-free samples) really are error-free
        for errors, overlay in zip(expect, overlays):
            if not overlay:
                assert errors == 0

    def test_defect_free_arena_is_golden(self):
        from repro.robustness.defective import golden_of
        config = _small_config()
        with kernels.forced_backend("numpy"):
            golden = golden_of(config)
            arena = batcharena.ConfigArena.from_config(config, copies=3)
            counts = arena.error_counts_vs(golden.output_words)
        assert counts.tolist() == [0, 0, 0]

    def test_heterogeneous_members_match_truth_tables(self):
        """from_configs pads mixed geometries without changing results."""
        from repro.bench.mcnc import benchmark_function, get_benchmark
        from repro.mapping.gnor_map import map_cover_to_gnor
        from repro.robustness.defective import defective_truth_table
        configs = [map_cover_to_gnor(
            benchmark_function(get_benchmark(name), seed=0).on_set)
            for name in ("syn_small", "syn_dec5", "syn_tall")]
        with kernels.forced_backend("numpy"):
            arena = batcharena.ConfigArena.from_configs(configs)
            n_inputs = arena.and_pass.shape[1]
            minterms = GaloisLFSR(n_inputs, seed=6).states(64)
            x = bs.pack_minterms(minterms, n_inputs)
            masks = arena.eval_slices(x, len(minterms))
            for t, config in enumerate(configs):
                table = defective_truth_table(config, {})
                expect = [table[m % (1 << config.n_inputs)]
                          for m in minterms]
                assert masks[t].tolist() == expect


# ----------------------------------------------------------------------
# consumers: yield engine and suite BIST
# ----------------------------------------------------------------------
class TestConsumers:
    def _chunk(self, start=0, count=24):
        return {"settings": {"benchmark": "syn_small", "samples": count,
                             "seed": 5, "p_stuck_off": 0.01,
                             "p_stuck_on": 0.004, "spare_rows": 2,
                             "spare_cols": 1},
                "start": start, "count": count}

    def test_yield_chunk_batched_equals_per_trial(self):
        """arena chunk == per-trial repair on the kernels == scalar chunk."""
        from repro.core.defects import DefectMap, DefectModel
        from repro.robustness import yield_engine
        from repro.robustness.repair import repair_config
        payload = self._chunk()
        settings = yield_engine.YieldSettings(**payload["settings"])
        model = DefectModel(p_stuck_off=settings.p_stuck_off,
                            p_stuck_on=settings.p_stuck_on)
        with kernels.forced_backend("numpy"):
            yield_engine._WORKER_CACHE.clear()
            batched = yield_engine.run_yield_chunk(payload)
            function, config, fabric, golden = \
                yield_engine._prepared(settings)
            per_trial = [repair_config(
                config, fabric,
                DefectMap.sample(fabric.n_physical_rows, fabric.n_columns,
                                 model, settings.seed * 1_000_003 + j),
                golden, function=function) for j in range(settings.samples)]
        with kernels.forced_backend("python"):
            scalar = yield_engine.run_yield_chunk(payload)
        yield_engine._WORKER_CACHE.clear()
        assert batched == scalar
        assert [(r["defects"], r["status"], r["exact"], r["frac"], r["sr"],
                 r["sc"]) for r in batched] == \
            [(o.n_defects, o.status, o.exact, o.correct_fraction,
              o.spare_rows_used, o.spare_cols_used) for o in per_trial]

    def test_yield_chunk_cache_follows_backend(self):
        """One process switching backends never reuses the other's
        prepared golden reference (the cache is keyed by backend)."""
        from repro.robustness import yield_engine
        payload = self._chunk()
        yield_engine._WORKER_CACHE.clear()
        try:
            records = []
            for backend in ("python", "numpy", "python"):
                with kernels.forced_backend(backend):
                    records.append(yield_engine.run_yield_chunk(payload))
        finally:
            yield_engine._WORKER_CACHE.clear()
        assert records[0] == records[1] == records[2]

    def test_suite_bist_verifies_on_every_path(self):
        from repro.bench.mcnc import get_benchmark
        from repro.bench.suite import verify_suite
        benchmarks = [get_benchmark(name)
                      for name in ("syn_small", "syn_dec5")]
        with kernels.forced_backend("numpy"):
            arena_verdicts = verify_suite(benchmarks, n_words=2)
        with kernels.forced_backend("python"):
            scalar_verdicts = verify_suite(benchmarks, n_words=2)
        assert arena_verdicts == scalar_verdicts
        assert all(arena_verdicts.values())


# ----------------------------------------------------------------------
# service facade
# ----------------------------------------------------------------------
class TestServiceFacade:
    def test_evaluate_batch_cached_and_identical(self, tmp_path,
                                                 monkeypatch):
        from repro.store import CACHE_DIR_ENV, reset_service
        from repro.store.service import get_service
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        reset_service()
        try:
            from repro.bench.mcnc import benchmark_function, get_benchmark
            batch = [benchmark_function(get_benchmark("syn_small"),
                                        seed=0).on_set]
            spec = stream_spec(batch[0].n_inputs, 2, seed=8)
            service = get_service()
            cold = service.evaluate_batch(batch, stream=spec)
            warm = service.evaluate_batch(batch, stream=spec)
            assert cold == warm
            with kernels.forced_backend("numpy"):
                direct = batch_eval.evaluate_covers(
                    batch, stream_minterms(spec))
            assert cold == direct
            with pytest.raises(ValueError):
                service.evaluate_batch(batch)  # neither minterms nor stream
        finally:
            reset_service()
