#!/usr/bin/env python
"""Workload subsystem benchmark (lands ``workload_arith`` and
``workload_curve``).

Two stress passes over :mod:`repro.workloads`:

* **Arithmetic cell** — generate a >= 16-input comparator cover
  (``gt8``: 16 inputs, 255 raw products) and run the full minimize +
  GNOR-map compile once on the scalar espresso path and once on the
  cube-matrix kernel path, each from a cold artifact store.  Gates on
  the two minimized covers being **bit-identical** (the kernel backend
  must not change the compile) and spot-checks the result against the
  integer-arithmetic oracle on an LFSR sample.

* **Classifier curve** — run the accuracy-vs-defect-rate curve driver
  (:func:`repro.workloads.curves.run_curve`) for a bundled classifier
  twice against one store: a cold pass (train, expand, minimize, clean
  accuracy on the batch arena, one Monte Carlo yield sweep per defect
  rate) and a warm pass that must be served entirely from the
  content-addressed store.  Gates on **byte-identical** canonical
  renders and on the warm pass clearing the cache-speedup floor.

The ``acceptance_workload`` block gates on all three: arith covers
identical across backends, curve cold/warm byte-identical, and the
cache speedup floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_workload.py [--quick]
        [--arith SPEC] [--clf SPEC] [--samples N] [--report FILE]
        [--curve-out FILE] [--no-gate]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

#: Acceptance floor on the curve's cold/warm cache speedup.  The cold
#: pass runs espresso plus a Monte Carlo sweep while the warm pass is
#: one store read, so double-digit ratios are typical; 2.0 keeps the
#: gate robust on slow CI filesystems.
MIN_CURVE_SPEEDUP = 2.0

#: LFSR words for the arith oracle spot-check (64 vectors per word).
ORACLE_WORDS = 32


def _merge_into_report(path: str, records: list, acceptance: dict) -> None:
    """Add/replace this bench's records in an existing report."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {"suite": "bench_workload", "results": []}
    names = {record["name"] for record in records}
    results = [r for r in report.get("results", [])
               if r.get("name") not in names]
    results.extend(records)
    report["results"] = results
    report["acceptance_workload"] = acceptance
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _fresh_store(root: str):
    from repro.store.service import reset_service
    from repro.store.store import CACHE_DIR_ENV
    os.environ[CACHE_DIR_ENV] = root
    reset_service()


def _drop_store():
    from repro.store.service import reset_service
    from repro.store.store import CACHE_DIR_ENV
    os.environ.pop(CACHE_DIR_ENV, None)
    reset_service()


def _compile_once(spec: str, backend: str, root: str):
    """(wall_s, minimized cover, bitstream bits) of one cold compile."""
    from repro import kernels, workloads
    from repro.mapping.gnor_map import map_cover_to_gnor

    _fresh_store(root)
    try:
        workloads.clear_caches()
        with kernels.forced_backend(backend):
            start = time.perf_counter()
            function = workloads.workload_function(spec)
            bitstream = map_cover_to_gnor(function.on_set)
            wall = time.perf_counter() - start
        return wall, function.on_set, bitstream
    finally:
        workloads.clear_caches()
        _drop_store()


def _arith_pass(spec: str, tmp: str) -> dict:
    from repro import workloads
    from repro.testgen.lfsr import stream_minterms, stream_spec

    raw = workloads.raw_function(spec)
    scalar_s, scalar_cover, _bits = _compile_once(
        spec, "python", os.path.join(tmp, "arith-python"))
    kernel_s, kernel_cover, _bits = _compile_once(
        spec, "numpy", os.path.join(tmp, "arith-numpy"))

    identical = scalar_cover.to_strings() == kernel_cover.to_strings()
    sample = stream_minterms(stream_spec(raw.n_inputs, ORACLE_WORDS,
                                         seed=11))
    mismatches = sum(
        1 for minterm in sample
        if kernel_cover.output_mask_for(minterm)
        != workloads.oracle_mask(spec, minterm))
    speedup = scalar_s / kernel_s if kernel_s > 0 else float("inf")
    return {
        "name": "workload_arith",
        "detail": f"{spec}: generate a {raw.n_inputs}-input "
                  f"{raw.n_outputs}-output comparator cover "
                  f"({raw.on_set.n_cubes()} raw products), minimize + "
                  f"GNOR-map from a cold store on the scalar vs kernel "
                  f"espresso path; minimized covers bit-identical, "
                  f"oracle-checked on {len(sample)} LFSR vectors",
        "scalar_s": round(scalar_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(speedup, 3),
        "spec": spec,
        "inputs": raw.n_inputs,
        "outputs": raw.n_outputs,
        "raw_products": raw.on_set.n_cubes(),
        "products": kernel_cover.n_cubes(),
        "identical": identical,
        "oracle_vectors": len(sample),
        "oracle_mismatches": mismatches,
    }


def _curve_pass(spec: str, samples: int, rates: tuple, tmp: str,
                curve_out: str = None) -> dict:
    from repro import workloads
    from repro.analysis.export import curve_json, write_curve_report
    from repro.workloads.curves import CurveSettings, run_curve

    settings = CurveSettings(spec=spec, techs=("cnfet", "flash"),
                             rates=rates, samples=samples,
                             stream_words=256)
    _fresh_store(os.path.join(tmp, "curve"))
    try:
        workloads.clear_caches()
        start = time.perf_counter()
        cold = run_curve(settings)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_curve(settings)
        warm_s = time.perf_counter() - start
    finally:
        workloads.clear_caches()
        _drop_store()

    cold_bytes = curve_json(cold)
    identical = cold_bytes == curve_json(warm)
    if curve_out:
        write_curve_report(curve_out, cold)
        print(f"curve report -> {curve_out}")
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "name": "workload_curve",
        "detail": f"{spec}: train + threshold-expand + minimize, clean "
                  f"accuracy over {settings.stream_words * 64} arena "
                  f"vectors + dataset rows, then {len(rates)} defect "
                  f"rates x {samples} Monte Carlo samples with Wilson "
                  f"CIs; cold vs store-served warm re-run, "
                  f"byte-identical reports",
        "scalar_s": round(cold_s, 6),
        "kernel_s": round(warm_s, 6),
        "speedup": round(speedup, 3),
        "spec": spec,
        "model_digest": cold["model"]["digest"],
        "identical": identical,
        "clean_accuracy": cold["clean"]["dataset"]["test_accuracy"],
        "rates": list(rates),
        "samples": samples,
        "report_bytes": len(cold_bytes),
        "points": [{
            "p_stuck_off": point["p_stuck_off"],
            "repaired_yield": point["yield"]["repaired_yield"],
            "repaired_ci95": point["yield"]["repaired_ci95"],
            "expected_accuracy": point["accuracy"].get(
                "expected_accuracy"),
        } for point in cold["points"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller cells and Monte Carlo budgets "
                             "(CI smoke)")
    parser.add_argument("--arith", default="gt8",
                        help="arith workload spec (default gt8, the "
                             "16-input stress cell, also under --quick)")
    parser.add_argument("--clf", default=None,
                        help="classifier workload spec (default "
                             "clf-blobs12-perceptron; clf-mux6-dlist "
                             "under --quick)")
    parser.add_argument("--samples", type=int, default=None,
                        help="Monte Carlo samples per defect-rate point "
                             "(default 300; 60 under --quick)")
    parser.add_argument("--report", default="BENCH_perf.json",
                        help="report to update in place (default: "
                             "BENCH_perf.json)")
    parser.add_argument("--curve-out", default=None, metavar="FILE",
                        help="also export the cold curve report here")
    parser.add_argument("--no-gate", action="store_true",
                        help="record results but do not fail on the "
                             "speedup floor (identity mismatches still "
                             "fail)")
    args = parser.parse_args(argv)

    arith_spec = args.arith
    clf_spec = args.clf or ("clf-mux6-dlist" if args.quick
                            else "clf-blobs12-perceptron")
    samples = args.samples or (60 if args.quick else 300)
    rates = (0.001, 0.004) if args.quick else (0.0005, 0.001, 0.002,
                                               0.004)
    print(f"bench_workload (quick={args.quick}, arith={arith_spec}, "
          f"clf={clf_spec}, samples={samples})")

    with tempfile.TemporaryDirectory(prefix="bench-workload-") as tmp:
        arith = _arith_pass(arith_spec, tmp)
        curve = _curve_pass(clf_spec, samples, rates, tmp,
                            curve_out=args.curve_out)

    if not arith["identical"]:
        print("FATAL: scalar and kernel minimized covers differ")
        return 1
    if arith["oracle_mismatches"]:
        print(f"FATAL: {arith['oracle_mismatches']} oracle mismatches")
        return 1
    if not curve["identical"]:
        print("FATAL: cold and warm curve reports differ")
        return 1

    passed = curve["speedup"] >= MIN_CURVE_SPEEDUP
    acceptance = {
        "metric": "workload_curve_cache",
        "speedup": curve["speedup"],
        "threshold": MIN_CURVE_SPEEDUP,
        "identical": True,
        "pass": passed,
    }
    _merge_into_report(args.report, [arith, curve], acceptance)

    print(f"  {arith_spec}: scalar {arith['scalar_s']:.2f} s -> kernel "
          f"{arith['kernel_s']:.2f} s (x{arith['speedup']:.2f}), "
          f"{arith['raw_products']} -> {arith['products']} products, "
          f"covers bit-identical, 0/{arith['oracle_vectors']} oracle "
          f"mismatches")
    print(f"  {clf_spec}: cold {curve['scalar_s']:.2f} s -> warm "
          f"{curve['kernel_s']:.4f} s (x{curve['speedup']:.1f}), "
          f"clean accuracy {curve['clean_accuracy']:.3f}, "
          f"{len(curve['points'])} curve points, reports byte-identical")
    print(f"acceptance (workload): curve cache speedup "
          f"{curve['speedup']:.1f} >= {MIN_CURVE_SPEEDUP}: "
          f"{'PASS' if passed else 'FAIL'}"
          f"{' (not gated)' if args.no_gate else ''}")
    print(f"updated {args.report}")
    return 0 if passed or args.no_gate else 1


if __name__ == "__main__":
    sys.exit(main())
