"""Command-line interface: ``python -m repro <command>``.

Gives the library a tool-like surface over PLA files::

    python -m repro info design.pla          # dimensions & stats
    python -m repro minimize design.pla      # Espresso -> stdout (.pla)
    python -m repro area design.pla          # Table 1 areas + savings
    python -m repro simulate design.pla 1011 # evaluate vectors
    python -m repro map design.pla -o d.bit  # GNOR configuration bitstream
    python -m repro table1                   # reproduce Table 1
    python -m repro table2 --grid 8          # reproduce Table 2 (slow-ish)
    python -m repro cache stats              # artifact-store census

Expensive results (minimization, place-and-route, yield sweeps) are
served from a content-addressed artifact store under ``.repro/store``
(``REPRO_CACHE=off`` disables it; ``repro cache`` manages it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_area, format_percent, render_table
from repro.core.area import (CNFET_AMBIPOLAR, EEPROM, FLASH,
                             area_saving_percent, pla_area,
                             technology_from)
from repro.errors import ReproInputError
from repro.espresso import espresso
from repro.logic.function import BooleanFunction
from repro.logic.pla_format import parse_pla, write_pla
from repro.mapping.gnor_map import map_cover_to_gnor
from repro.tech import resolve_tech


def _load(path: str) -> BooleanFunction:
    with open(path) as handle:
        return parse_pla(handle, name=path)


def _default_checkpoint(kind: str, *parts: object) -> str:
    """Deterministic checkpoint path for resumable sweeps."""
    import os
    tag = "-".join(str(p) for p in parts)
    return os.path.join(".repro", f"{kind}-{tag}.ckpt.jsonl")


def _cmd_info(args) -> int:
    function = _load(args.file)
    stats = function.stats()
    rows = [[key, value] for key, value in stats.items()]
    rows.append(["dc cubes", function.dc_set.n_cubes()])
    print(render_table(["field", "value"], rows, title=f"PLA: {args.file}"))
    return 0


def _cmd_minimize(args) -> int:
    from repro.store.service import get_service
    function = _load(args.file)
    service = get_service()
    if args.phase:
        cover, phase_list = service.minimize(function, {"phase": True})
        phases = "".join("+" if p else "-" for p in phase_list)
        print(f"# phases: {phases}", file=sys.stderr)
    else:
        cover = service.minimize(function)
    minimized = BooleanFunction(cover, name=function.name,
                                input_labels=function.input_labels,
                                output_labels=function.output_labels)
    text = write_pla(minimized)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({cover.n_cubes()} products)",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_area(args) -> int:
    function = _load(args.file)
    cover = espresso(function).cover if args.minimize else function.on_set
    dims = (cover.n_inputs, cover.n_outputs, cover.n_cubes())
    lineup = [FLASH, EEPROM, CNFET_AMBIPOLAR]
    if args.tech:
        extra = technology_from(resolve_tech(args.tech))
        if extra.name not in [t.name for t in lineup]:
            lineup.append(extra)
    rows = []
    flash = pla_area(FLASH, *dims)
    for tech in lineup:
        area = pla_area(tech, *dims)
        rows.append([tech.name, format_area(area),
                     format_percent(area_saving_percent(area, flash))
                     if tech is not FLASH else "baseline"])
    print(render_table(["technology", "area (L^2)", "vs Flash"], rows,
                       title=f"{function.name}: I={dims[0]} O={dims[1]} "
                             f"P={dims[2]}"))
    return 0


def _cmd_simulate(args) -> int:
    function = _load(args.file)
    from repro.core.pla import AmbipolarPLA
    pla = AmbipolarPLA.from_cover(function.on_set)
    for vector_str in args.vectors:
        if len(vector_str) != function.n_inputs or \
                any(ch not in "01" for ch in vector_str):
            print(f"bad vector {vector_str!r}: need {function.n_inputs} "
                  f"bits of 0/1", file=sys.stderr)
            return 2
        vector = [int(ch) for ch in vector_str]
        outputs = "".join(str(bit) for bit in pla.evaluate(vector))
        print(f"{vector_str} -> {outputs}")
    return 0


def _cmd_map(args) -> int:
    from repro.fpga.bitstream import serialize_pla
    function = _load(args.file)
    cover = espresso(function).cover if args.minimize else function.on_set
    config = map_cover_to_gnor(cover)
    data = serialize_pla(config)
    with open(args.output, "wb") as handle:
        handle.write(data)
    print(f"wrote {args.output}: {len(data)} bytes for "
          f"{config.total_devices()} devices "
          f"({config.used_devices()} programmed)", file=sys.stderr)
    return 0


def _cmd_table1(args) -> int:
    from repro.bench.mcnc import TABLE1_BENCHMARKS
    lineup = [FLASH, EEPROM, CNFET_AMBIPOLAR]
    headers = ["", "Flash", "EEPROM", "CNFET"]
    if getattr(args, "tech", None):
        extra = technology_from(resolve_tech(args.tech))
        if extra.name not in headers:
            lineup.append(extra)
            headers.append(extra.name)
    rows = [["Basic cell (L2)"] + [format_area(t.cell_area_l2)
                                   for t in lineup]]
    for stats in TABLE1_BENCHMARKS:
        dims = (stats.inputs, stats.outputs, stats.products)
        rows.append([f"{stats.name} (L2)"] +
                    [format_area(pla_area(t, *dims)) for t in lineup])
    print(render_table(headers, rows,
                       title=f"Table 1: Area of logic functions in "
                             f"{len(lineup)} technologies"))
    return 0


def _cmd_table2(args) -> int:
    from repro.fpga.emulate import run_emulation
    report = run_emulation(seed=args.seed, grid_side=args.grid,
                           jobs=args.jobs)
    rows = [list(row) for row in report.table_rows()]
    print(render_table(["", "Standard FPGA", "CNFET FPGA"], rows,
                       title="Table 2: Frequency of standard FPGA and "
                             "CNFET FPGA"))
    print(f"frequency gain: {report.frequency_gain:.2f}x")
    return 0


def _cmd_fsm(args) -> int:
    from repro.fsm import (binary_encoding, gray_encoding, one_hot_encoding,
                           synthesize_fsm)
    from repro.fsm.kiss import parse_kiss
    with open(args.file) as handle:
        fsm = parse_kiss(handle, name=args.file)
    encoders = {"binary": binary_encoding, "gray": gray_encoding,
                "one-hot": one_hot_encoding}
    encoder = encoders[args.encoding]
    synth = synthesize_fsm(fsm, encoder(fsm.states))
    pla = synth.pla
    rows = [
        ["states", len(fsm.states)],
        ["transitions", len(fsm.transitions)],
        ["encoding", args.encoding],
        ["state bits", synth.encoding.n_bits],
        ["products", pla.n_products],
        ["array", f"{pla.n_products}x{pla.n_columns()}"],
        ["CNFET area (L^2)",
         format_area(pla_area(CNFET_AMBIPOLAR, pla.n_inputs, pla.n_outputs,
                              pla.n_products))],
    ]
    print(render_table(["field", "value"], rows,
                       title=f"FSM synthesis: {fsm.name}"))
    if args.output:
        from repro.logic.pla_format import write_pla
        logic = BooleanFunction(synth.cover, name=f"{fsm.name}.logic")
        with open(args.output, "w") as handle:
            handle.write(write_pla(logic))
        print(f"wrote combinational logic to {args.output}",
              file=sys.stderr)
    return 0


def _cmd_atpg(args) -> int:
    from repro.testgen.atpg import deterministic_tests
    function = _load(args.file)
    cover = espresso(function).cover if args.minimize else function.on_set
    config = map_cover_to_gnor(cover)
    result = deterministic_tests(config)
    n_faults = len(result.detected) + len(result.undetected)
    rows = [
        ["array", f"{config.n_products}x"
                  f"{config.n_inputs + config.n_outputs}"],
        ["single faults", n_faults],
        ["tests", result.n_tests()],
        ["coverage", f"{result.coverage:.1%}"],
        ["redundant faults", len(result.undetected)],
    ]
    print(render_table(["field", "value"], rows,
                       title=f"ATPG: {function.name}"))
    if args.output:
        with open(args.output, "w") as handle:
            for test in result.tests:
                handle.write("".join(str(bit) for bit in test) + "\n")
        print(f"wrote {result.n_tests()} test vectors to {args.output}",
              file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    from repro.bench.suite import (evaluate_suite, render_suite, suite_csv)
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = _default_checkpoint("suite", args.seed)
    entries = evaluate_suite(seed=args.seed, jobs=args.jobs,
                             retries=args.retries, checkpoint=checkpoint,
                             resume=args.resume)
    print(render_suite(entries))
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(suite_csv(entries))
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.verify:
        from repro.bench.suite import verify_suite
        verdicts = verify_suite(seed=args.seed)
        failed = sorted(name for name, ok in verdicts.items() if not ok)
        print(f"mapping equivalence (LFSR BIST): "
              f"{len(verdicts) - len(failed)}/{len(verdicts)} verified"
              + (f"; FAILED: {', '.join(failed)}" if failed else ""))
        if failed:
            return 1
    return 0


def _cmd_yield(args) -> int:
    from repro.robustness.yield_engine import YieldSettings, estimate_yield
    if args.rate is not None:
        p_off, p_on = args.rate * 0.7, args.rate * 0.3
    else:
        p_off, p_on = args.p_stuck_off, args.p_stuck_on
    settings = YieldSettings(
        benchmark=args.benchmark, samples=args.samples, seed=args.seed,
        p_stuck_off=p_off, p_stuck_on=p_on, spare_rows=args.spare_rows,
        spare_cols=args.spare_cols, correlated=args.correlated,
        reminimize=not args.no_reminimize)
    checkpoint = args.checkpoint or _default_checkpoint(
        "yield", args.benchmark, args.samples, args.seed)
    report = estimate_yield(settings, jobs=args.jobs,
                            checkpoint=checkpoint, resume=args.resume,
                            retries=args.retries)
    data = report.to_json()
    raw_lo, raw_hi = data["raw_ci95"]
    rep_lo, rep_hi = data["repaired_ci95"]
    rows = [
        ["array", f"{report.n_products}x"
                  f"{report.n_inputs + report.n_outputs} "
                  f"(+{settings.spare_rows} rows, "
                  f"+{settings.spare_cols} cols)"],
        ["samples", report.samples],
        ["defect rates", f"off={settings.p_stuck_off:g} "
                         f"on={settings.p_stuck_on:g}"
                         + (" (row-correlated)" if settings.correlated
                            else "")],
        ["mean defects/array", f"{data['mean_defects_per_array']:.2f}"],
        ["raw yield", f"{report.raw_yield:.4f}  "
                      f"[{raw_lo:.4f}, {raw_hi:.4f}]"],
        ["repaired yield", f"{report.repaired_yield:.4f}  "
                           f"[{rep_lo:.4f}, {rep_hi:.4f}]"],
        ["repair statuses", " ".join(f"{k}={v}" for k, v in
                                     sorted(report.status_counts.items()))],
        ["irreparable", data["irreparable"]],
        ["degraded correctness",
         f"mean={data['degraded_mean_correct']:.6f} "
         f"worst={data['degraded_worst_correct']:.6f}"],
    ]
    print(render_table(["field", "value"], rows,
                       title=f"Manufacturing yield: {args.benchmark} "
                             f"(seed {args.seed})"))
    if args.json:
        _write_json(args.json, data)
    return 0


def _write_json(path: str, data) -> None:
    """Dump ``data`` to ``path`` (``-`` = stdout) as sorted JSON."""
    import json
    if path == "-":
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}", file=sys.stderr)


def _cmd_cache(args) -> int:
    from repro.store import ArtifactStore, default_root
    store = ArtifactStore(args.dir or default_root())
    action = args.action
    if action == "stats":
        stats = store.stats()
        if args.json:
            # machine-readable: the serve load generator and CI scrape
            # hit/miss/coalesce/gc counters from here
            _write_json(args.json, stats)
            return 0
        cap = stats["disk_capacity"]
        rows = [
            ["root", stats["root"]],
            ["entries", stats["entries"]],
            ["bytes", stats["bytes"]],
            ["disk cap", cap if cap is not None else "(unbounded)"],
            ["quarantined", f"{stats['quarantined']} entries / "
                            f"{stats['quarantine_bytes']} B "
                            f"(cap {stats['quarantine_capacity']})"],
        ]
        for kind, info in sorted(stats["kinds"].items()):
            rows.append([f"kind: {kind}",
                         f"{info['entries']} entries / {info['bytes']} B"])
        print(render_table(["field", "value"], rows,
                           title="Artifact store"))
    elif action == "ls":
        entries = store.entries()
        if not entries:
            print("(store is empty)")
        else:
            rows = [[e["key"][:16], e["kind"], e["backend"], e["bytes"]]
                    for e in entries]
            print(render_table(["key", "kind", "backend", "bytes"], rows,
                               title=f"{len(entries)} artifacts in "
                                     f"{store.root}"))
    elif action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
    elif action == "gc":
        max_bytes = args.max_bytes
        if max_bytes is None and store.disk_bytes is None:
            print("no cap: pass --max-bytes N or set "
                  "REPRO_CACHE_DISK_BYTES", file=sys.stderr)
            return 2
        result = store.gc(max_bytes)
        print(f"evicted {result['evicted']} artifacts "
              f"({result['freed_bytes']} B); {result['bytes']} B remain "
              f"in {store.root}")
    elif action == "verify":
        result = store.verify()
        print(f"verified {store.root}: {result['ok']} ok, "
              f"{result['corrupt']} corrupt (quarantined)", file=sys.stderr)
        if args.json:
            _write_json(args.json, result)
        return 1 if result["corrupt"] else 0
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    from repro.serve.server import ServeConfig, SynthesisServer

    if args.faults:
        # arm failpoints before any worker forks so the schedule
        # reaches worker processes through the environment
        from repro import faults
        from repro.faults.chaos import quiet_asyncio_log
        faults.install(args.faults, args.faults_seed)
        # injected resets make the loop write into aborted sockets by
        # design; without this the asyncio logger floods stderr
        quiet_asyncio_log()
        print(f"fault injection armed: {args.faults!r} "
              f"(seed {args.faults_seed})", file=sys.stderr)

    overrides = {"host": args.host, "port": args.port}
    if args.batch is not None:
        overrides["max_batch"] = args.batch
    if args.linger_us is not None:
        overrides["linger_us"] = args.linger_us
    if args.queue is not None:
        overrides["queue_limit"] = args.queue
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    config = ServeConfig(**overrides)
    server = SynthesisServer(config)

    if args.stdio:
        # pipe mode: same protocol over stdin/stdout (tests, SSH, inetd)
        asyncio.run(server.serve_stdio())
        return 0

    def ready(host: str, port: int) -> None:
        import os
        print(f"serving on {host}:{port} (pid {os.getpid()}, "
              f"batch={config.max_batch}, linger={config.linger_us}us, "
              f"queue={config.queue_limit})", file=sys.stderr, flush=True)

    try:
        asyncio.run(server.run_tcp(ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    from repro import perf
    snapshot = perf.snapshot()
    served = {name: entry for name, entry in snapshot["timers"].items()
              if name.startswith("serve.request.")}
    for name, entry in sorted(served.items()):
        print(f"{name}: {entry['calls']} requests, "
              f"p50={entry.get('p50_ms', 0.0):.3f}ms "
              f"p99={entry.get('p99_ms', 0.0):.3f}ms", file=sys.stderr)
    print("drained cleanly", file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import (ChaosSettings, quiet_asyncio_log,
                                    run_chaos)

    quiet_asyncio_log()
    overrides = {}
    if args.store_faults is not None:
        overrides["store_faults"] = args.store_faults
    if args.serve_faults is not None:
        overrides["serve_faults"] = args.serve_faults
    settings = ChaosSettings(seed=args.seed, store_ops=args.store_ops,
                             requests=args.requests, clients=args.clients,
                             jobs=args.jobs, **overrides)
    soak = run_chaos(settings)
    store, serve = soak["store"], soak["serve"]
    rows = [
        ["fault keys", f"store {soak['fault_keys']['store'][:16]} / "
                       f"serve {soak['fault_keys']['serve'][:16]}"],
        ["injected", f"{soak['injected']}/{soak['checked']} checks "
                     f"({soak['injected_rate']:.1%})"],
        ["store segment", f"{store['completed']}/{store['ops']} ops, "
                          f"{store['mismatches']} mismatches, "
                          f"{store['quarantined']} quarantined"],
        ["serve segment", f"{serve['completed']}/{serve['requests']} "
                          f"completed, {serve['hangs']} hangs, "
                          f"{serve['mismatches']} mismatches"],
        ["errors", " ".join(f"{k}={v}" for k, v in
                            sorted(serve["error_codes"].items())) or "none"],
        ["p99", f"oracle {serve['oracle_p99_ms']:.1f}ms -> faulted "
                f"{serve['faulted_p99_ms']:.1f}ms "
                f"(x{soak['p99_ratio']:.1f})"],
        ["verdict", "OK" if soak["ok"] else "NOT OK"],
    ]
    print(render_table(["field", "value"], rows,
                       title=f"Chaos soak (seed {soak['seed']}, "
                             f"wall {soak['wall_s']:.1f}s)"))
    if args.json:
        _write_json(args.json, soak)
    return 0 if soak["ok"] else 1


def _cmd_tech(args) -> int:
    from repro.tech import ALIASES, BUILTIN
    if args.action == "ls":
        rows = []
        for name in sorted(BUILTIN):
            d = BUILTIN[name]
            aliases = sorted(a for a, target in ALIASES.items()
                             if target == name)
            rows.append([name, format_area(d.cell_area_l2),
                         "2I" if d.dual_input_columns else "I",
                         d.digest()[:12],
                         ", ".join(aliases) or "-"])
        if args.json:
            _write_json(args.json, {
                name: BUILTIN[name].to_json() for name in sorted(BUILTIN)})
            return 0
        print(render_table(
            ["name", "cell (L^2)", "input cols", "digest", "aliases"],
            rows, title="Technology registry (REPRO_TECH / --tech also "
                        "take a .json/.toml descriptor path)"))
        return 0
    # show
    if not args.name:
        raise ReproInputError("tech show needs a NAME (registry name or "
                              "descriptor path)")
    descriptor = resolve_tech(args.name)
    if args.json:
        data = descriptor.to_json()
        data["digest"] = descriptor.digest()
        _write_json(args.json, data)
        return 0
    rows = [["digest", descriptor.digest()]]
    for key, value in sorted(descriptor.to_json().items()):
        if key != "name":
            rows.append([key, value])
    print(render_table(["parameter", "value"], rows,
                       title=f"Technology: {descriptor.name}"))
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis.characterize import (CharacterizeSettings,
                                             characterize)
    from repro.analysis.export import write_datasheet
    if (args.benchmark is None) == (args.cell is None):
        raise ReproInputError(
            "pass exactly one of --benchmark or --cell")
    if args.cell is not None:
        from repro import workloads
        args.benchmark = workloads.PREFIX \
            + workloads.strip_prefix(args.cell)
    spares = []
    for spec in (args.spares or ["2,1"]):
        try:
            rows_str, cols_str = spec.split(",")
            spares.append((int(rows_str), int(cols_str)))
        except ValueError:
            raise ReproInputError(
                f"bad --spares {spec!r} (expected ROWS,COLS)")
    settings = CharacterizeSettings(
        benchmark=args.benchmark, seed=args.seed,
        techs=args.tech or CharacterizeSettings.techs,
        power_vectors=args.power_vectors,
        variation_trials=args.variation_trials,
        yield_samples=args.yield_samples, spares=spares)
    checkpoint = args.checkpoint or _default_checkpoint(
        "characterize", args.benchmark.replace(":", "_"),
        len(settings.techs), args.seed)
    datasheet = characterize(settings, jobs=args.jobs,
                             checkpoint=checkpoint, resume=args.resume,
                             retries=args.retries)

    fn = datasheet["function"]
    rows = []
    for entry in datasheet["technologies"]:
        rows.append([
            entry["tech"]["name"],
            format_area(entry["area"]["total_l2"]),
            f"{entry['timing']['cycle_time_ps']:.1f}",
            f"{entry['power']['energy_per_cycle_j']:.3e}",
            f"{entry['variation']['cycle_p95_ps']:.1f}",
        ])
    print(render_table(
        ["technology", "area (L^2)", "cycle (ps)", "E/cycle (J)",
         "p95 cycle (ps)"],
        rows, title=f"Characterization: {fn['name']} I={fn['inputs']} "
                    f"O={fn['outputs']} P={fn['products']}"))
    yrows = []
    for entry in datasheet["yield"]:
        report = entry["report"]
        lo, hi = report["repaired_ci95"]
        yrows.append([
            entry["tech"], f"+{entry['spare_rows']}r/+{entry['spare_cols']}c",
            f"{report['raw_yield']:.4f}",
            f"{report['repaired_yield']:.4f} [{lo:.4f}, {hi:.4f}]",
        ])
    print(render_table(
        ["technology", "spares", "raw yield", "repaired yield [ci95]"],
        yrows, title=f"Manufacturing yield ({settings.yield_samples} "
                     f"samples, seed {settings.seed})"))
    if args.output:
        path = write_datasheet(args.output, datasheet)
        print(f"wrote datasheet {path}", file=sys.stderr)
    return 0


def _cmd_workload(args) -> int:
    from repro import workloads

    if args.action == "ls":
        rows = []
        for info in workloads.list_workloads():
            if info["family"] == "clf":
                detail = f"{info['dataset']} x {info['algorithm']}"
            else:
                detail = f"width {info['width']}"
            rows.append([info["spec"], info["family"], detail])
        print(render_table(["spec", "family", "detail"], rows,
                           title="Workload registry (generators accept "
                                 "any in-range width)"))
        if args.json:
            _write_json(args.json, {"workloads": workloads.list_workloads()})
        return 0

    if args.spec is None:
        raise ReproInputError(f"workload {args.action} needs a spec "
                              f"(see `repro workload ls`)")
    spec = workloads.strip_prefix(args.spec)
    if args.action == "build":
        raw = workloads.raw_function(spec)
        compiled = workloads.workload_function(spec)
        rows = [["inputs", compiled.n_inputs],
                ["outputs", compiled.n_outputs],
                ["raw products", raw.on_set.n_cubes()],
                ["products", compiled.on_set.n_cubes()],
                ["literals", compiled.on_set.n_literals()],
                ["model digest", workloads.model_digest(spec)[:16]]]
        print(render_table(["field", "value"], rows,
                           title=f"Workload: {compiled.name}"))
        if args.output:
            from repro.logic.pla_format import write_pla
            with open(args.output, "w") as handle:
                handle.write(write_pla(compiled))
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    if args.action == "eval":
        from repro.store.service import get_service

        check = workloads.oracle_check(spec, args.words, args.seed)
        compiled = workloads.workload_function(spec)
        mismatches = check["mismatches"]
        print(f"{compiled.name}: {check['vectors']} vectors, "
              f"{mismatches} oracle mismatches")
        info = workloads.parse_workload(spec)
        if info["family"] == "clf":
            from repro.workloads import datasets
            dataset = datasets.get_dataset(info["dataset"])
            rows_stream = datasets.dataset_stream_spec(dataset.name)
            row_masks = get_service().evaluate_batch(
                [compiled.on_set], stream=rows_stream)[0]
            model = workloads._model_of(spec)
            disagree = sum(
                1 for (x, _y), mask in zip(dataset.rows, row_masks)
                if mask != model.predict(x))
            print(f"{dataset.name}: {len(dataset.rows)} rows, "
                  f"{disagree} model disagreements")
            mismatches += disagree
        return 0 if mismatches == 0 else 1

    # action == "curve"
    from repro.analysis.export import write_curve_report
    from repro.workloads.curves import CurveSettings, run_curve

    settings = CurveSettings(spec=spec,
                             techs=args.tech or CurveSettings.techs,
                             rates=args.rate or CurveSettings.rates,
                             samples=args.samples, seed=args.seed,
                             stream_words=args.words)
    report = run_curve(settings, jobs=args.jobs)
    fn = report["function"]
    title = (f"Curve: {fn['name']} I={fn['inputs']} O={fn['outputs']} "
             f"P={fn['products']} ({settings.samples} samples/point)")
    rows = []
    for point in report["points"]:
        acc = point["accuracy"]
        lo, hi = point["yield"]["repaired_ci95"]
        if "expected_accuracy" in acc:
            alo, ahi = acc["expected_accuracy_ci95"]
            last = f"{acc['expected_accuracy']:.4f} [{alo:.4f}, {ahi:.4f}]"
        else:
            last = f"{acc['expected_correct_fraction']:.4f}"
        rows.append([f"{point['p_stuck_off']:g}",
                     f"{point['yield']['raw_yield']:.4f}",
                     f"{point['yield']['repaired_yield']:.4f} "
                     f"[{lo:.4f}, {hi:.4f}]", last])
    print(render_table(
        ["p_stuck_off", "raw yield", "repaired yield [ci95]",
         "expected accuracy" if "dataset" in report["clean"]
         else "expected correct"], rows, title=title))
    arows = [[entry["tech"], format_area(entry["area_l2"])]
             for entry in report["technologies"]]
    print(render_table(["technology", "area (L^2)"], arows,
                       title="Compiled array area"))
    if args.output:
        path = write_curve_report(args.output, report)
        print(f"wrote curve report {path}", file=sys.stderr)
    return 0


#: Performance knobs, shown in ``repro --help`` and mirrored in the
#: README "Performance" section (keep the two in sync).
PERFORMANCE_EPILOG = """\
technology:
  REPRO_TECH=NAME|FILE
        the technology descriptor every model constant derives from:
        a registry name (`repro tech ls`: flash, eeprom, cnfet) or a
        path to a JSON/TOML descriptor file; commands accepting
        --tech override it per invocation.  Artifact-store keys
        include the descriptor's content digest, so two technologies
        never share cached results
  repro tech ls|show NAME
        census of the built-in registry / resolved parameters +
        content digest of one descriptor (both take --json)
  repro characterize --benchmark B [--tech SPEC]...
        sweep one benchmark across technologies (minimize -> map ->
        area/delay/power -> variation + manufacturing yield with
        Wilson CIs) on the resilient runner; -o FILE exports the
        schema-versioned machine-readable datasheet

workloads:
  repro workload ls
        census of the generated-cell registry: parameterized adders /
        comparators / popcounts (any in-range width) and classifiers
        compiled from deterministically trained threshold and
        decision-list models on the bundled datasets
  repro workload build|eval SPEC
        compile one cell through minimize -> map (build; -o FILE
        exports the cover as .pla) or differentially check it against
        its integer-arithmetic / direct-model oracle on an LFSR
        stream (eval; nonzero exit on any mismatch)
  repro workload curve SPEC [--rate R]... [--tech T]...
        accuracy-vs-area/defect-rate analysis: clean accuracy on the
        batched evaluation arena, then one Monte Carlo yield
        experiment per defect rate with Wilson CIs projected onto the
        accuracy axis; -o FILE exports the schema-versioned curve
        report (served through the artifact store, so re-runs are
        cache hits)
  repro characterize --cell SPEC
        full datasheet of a workload cell (same sweep as --benchmark)

performance:
  REPRO_KERNEL=numpy|python
        backend for the bit-sliced evaluation kernels, the batched
        evaluation arena, the cover-matrix cube algebra and the
        array-backed FPGA grid engine — `repro table2` places and
        routes on the selected backend (default: numpy; python runs
        the scalar oracles; results are identical either way)
  --jobs N
        `suite`, `yield` and `table2` accept parallel worker processes
        (crash-isolated, retried, see repro.runner); results are
        identical for any job count

robustness:
  REPRO_TASK_TIMEOUT=SECONDS
        per-task wall-clock limit for parallel runs; a worker past the
        limit is recycled and the task retried
  --checkpoint FILE / --resume
        `suite` and `yield` checkpoint completed tasks to a JSONL
        file; --resume after a crash reuses them and yields a
        bit-identical final report

caching:
  REPRO_CACHE=off
        disable the content-addressed artifact store; every command
        recomputes from scratch (results are bit-identical either way)
  REPRO_CACHE_DIR=PATH
        store root (default .repro/store); entries are keyed by
        inputs + config + REPRO_KERNEL backend + schema version, so
        backends and incompatible versions never share artifacts
  REPRO_CACHE_DISK_BYTES=N
        cap the disk tier: every put opportunistically evicts
        oldest-access-first down to N bytes (disk hits refresh the
        access stamp; locked-in-use entries are skipped)
  repro cache stats|ls|clear|verify|gc
        inspect, list, wipe, digest-check or shrink the store;
        `verify` quarantines corrupt entries (they also read as
        misses), `gc --max-bytes N` evicts down to a one-off cap;
        `stats --json [FILE]` emits machine-readable counters

serving:
  repro serve [--port N | --stdio]
        newline-delimited JSON endpoints (minimize, place_route,
        evaluate, evaluate_batch, yield_run, stats) over the caching
        synthesis service; SIGINT/SIGTERM drains gracefully

fault injection (testing only):
  REPRO_FAULTS="site:kind@arm[,key=value][;...]"
        arm deterministic failpoints (repro.faults); arms are a
        probability in (0,1], `after=N` (fire on the Nth check) or
        `every=N`. Sites: store.disk_write (torn|io_error),
        store.fsync (io_error), store.disk_read (corrupt),
        store.lock (stall), store.publish (hang|crash),
        worker.task (crash|hang), worker.result (poison),
        serve.conn (reset), serve.flush (delay), serve.overload
        (force). Example:
        REPRO_FAULTS="store.disk_read:corrupt@0.05;worker.task:crash@0.02"
  REPRO_FAULTS_SEED=N
        failpoint RNG seed (default 0); (seed, spec) fully determines
        the schedule — FaultPlan.key() content-addresses it
  repro chaos [--seed N] [--json]
        the seeded chaos soak: a store segment and a serve segment
        under the default fault diet, gated on zero hangs and byte
        identity vs fault-free oracle runs (`repro serve --faults
        SPEC` arms failpoints on a live server instead)
"""


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ambipolar-CNFET PLA toolkit (DAC 2008 reproduction)",
        epilog=PERFORMANCE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print a PLA file's statistics")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("minimize", help="Espresso-minimize a PLA file")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write result here (default stdout)")
    p.add_argument("--phase", action="store_true",
                   help="also assign output phases (free on GNOR PLAs)")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("area", help="Table 1 areas of a PLA file")
    p.add_argument("file")
    p.add_argument("--minimize", action="store_true",
                   help="minimize before measuring")
    p.add_argument("--tech", default=None, metavar="SPEC",
                   help="also show this technology (registry name or "
                        "descriptor path)")
    p.set_defaults(handler=_cmd_area)

    p = sub.add_parser("simulate", help="evaluate input vectors")
    p.add_argument("file")
    p.add_argument("vectors", nargs="+", metavar="VECTOR",
                   help="input bits, e.g. 1011")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("map", help="emit a GNOR configuration bitstream")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("fsm", help="synthesize a KISS2 FSM onto a GNOR PLA")
    p.add_argument("file")
    p.add_argument("--encoding", choices=("binary", "gray", "one-hot"),
                   default="binary")
    p.add_argument("-o", "--output",
                   help="write the combinational logic as a .pla file")
    p.set_defaults(handler=_cmd_fsm)

    p = sub.add_parser("atpg", help="deterministic test generation for a "
                                    "programmed PLA")
    p.add_argument("file")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("-o", "--output", help="write test vectors here")
    p.set_defaults(handler=_cmd_atpg)

    p = sub.add_parser("suite", help="evaluate the whole benchmark registry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1; results are "
                        "identical for any job count)")
    p.add_argument("--csv", help="also export the rows as CSV")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per benchmark (default 2)")
    p.add_argument("--checkpoint", help="JSONL checkpoint file (default: "
                                        ".repro/suite-<seed>.ckpt.jsonl "
                                        "when --resume is given)")
    p.add_argument("--resume", action="store_true",
                   help="skip benchmarks already in the checkpoint")
    p.add_argument("--verify", action="store_true",
                   help="also BIST-check every GNOR mapping against its "
                        "cover on a shared LFSR vector stream")
    p.set_defaults(handler=_cmd_suite)

    p = sub.add_parser("yield", help="Monte Carlo manufacturing yield of a "
                                     "benchmark's GNOR fabric, with "
                                     "spare-aware repair")
    p.add_argument("--benchmark", required=True,
                   help="registry benchmark name (max46, apla, t2, syn_*)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=None,
                   help="total per-device defect rate, split 70/30 into "
                        "stuck-off/stuck-on (overrides --p-stuck-*)")
    p.add_argument("--p-stuck-off", type=float, default=0.0014)
    p.add_argument("--p-stuck-on", type=float, default=0.0006)
    p.add_argument("--spare-rows", type=int, default=2,
                   help="spare product rows for repair (default 2)")
    p.add_argument("--spare-cols", type=int, default=1,
                   help="spare input columns for repair (default 1)")
    p.add_argument("--correlated", action="store_true",
                   help="cluster defects along tube rows")
    p.add_argument("--no-reminimize", action="store_true",
                   help="disable the EXPAND/IRREDUNDANT repair fallback")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1; the report "
                        "is identical for any job count)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per sample chunk (default 2)")
    p.add_argument("--checkpoint",
                   help="JSONL checkpoint file (default: "
                        ".repro/yield-<bench>-<samples>-<seed>.ckpt.jsonl)")
    p.add_argument("--resume", action="store_true",
                   help="reuse chunks checkpointed by an interrupted run; "
                        "the final report is bit-identical")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(handler=_cmd_yield)

    p = sub.add_parser("cache", help="inspect / manage the artifact store")
    p.add_argument("action", choices=("stats", "ls", "clear", "verify",
                                      "gc"),
                   help="stats: census + counters; ls: list entries; "
                        "clear: delete all entries; verify: digest-check "
                        "and quarantine corrupt entries; gc: evict "
                        "oldest-access-first down to the byte cap")
    p.add_argument("--dir", help="store root (default: REPRO_CACHE_DIR "
                                 "or .repro/store)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="stats/verify: write the result as JSON to FILE "
                        "(bare --json = stdout) for load generators and "
                        "CI to scrape")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="gc: disk-tier byte cap (default: "
                        "REPRO_CACHE_DISK_BYTES)")
    p.set_defaults(handler=_cmd_cache)

    p = sub.add_parser("serve", help="serve synthesis over newline-"
                                     "delimited JSON (TCP or stdio)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7929,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "printed on stderr)")
    p.add_argument("--stdio", action="store_true",
                   help="serve one session over stdin/stdout instead "
                        "of TCP")
    p.add_argument("--jobs", type=int, default=None,
                   help="warm worker processes, kept alive across "
                        "requests (default: cpu count)")
    p.add_argument("--batch", type=int, default=None,
                   help="evaluate micro-batch size: concurrent requests "
                        "share one arena pass; 1 serves each alone "
                        "(default 64)")
    p.add_argument("--linger-us", type=int, default=None,
                   help="most microseconds an evaluate request waits "
                        "for batch-mates (default 1000)")
    p.add_argument("--queue", type=int, default=None,
                   help="admission budget: requests beyond it are shed "
                        "with an `overloaded` reply (default 256)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="arm deterministic failpoints for this server "
                        "(spec grammar: site:kind@arm[,k=v][;...], see "
                        "the fault-injection epilog); equivalent to "
                        "REPRO_FAULTS=SPEC")
    p.add_argument("--faults-seed", type=int, default=0,
                   help="failpoint RNG seed (default 0)")
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser("chaos", help="run the seeded chaos soak against "
                                     "the store and serving stack")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--store-ops", type=int, default=80,
                   help="store-segment operations (default 80)")
    p.add_argument("--requests", type=int, default=160,
                   help="serve-segment requests (default 160)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent pipelined connections (default 4)")
    p.add_argument("--jobs", type=int, default=2,
                   help="warm worker processes (default 2)")
    p.add_argument("--store-faults", default=None, metavar="SPEC",
                   help="override the store-segment fault schedule")
    p.add_argument("--serve-faults", default=None, metavar="SPEC",
                   help="override the serve-segment fault schedule")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="write the full soak record as JSON to FILE "
                        "(bare --json = stdout)")
    p.set_defaults(handler=_cmd_chaos)

    p = sub.add_parser("tech", help="list / inspect technology descriptors")
    p.add_argument("action", choices=("ls", "show"),
                   help="ls: registry census; show: resolved parameters "
                        "+ content digest of one descriptor")
    p.add_argument("name", nargs="?", default=None,
                   help="show: registry name, alias, or a .json/.toml "
                        "descriptor file path")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="emit machine-readable JSON to FILE (bare "
                        "--json = stdout)")
    p.set_defaults(handler=_cmd_tech)

    p = sub.add_parser("characterize",
                       help="sweep one benchmark across technologies: "
                            "area/delay/power/variation + Monte Carlo "
                            "yield, emitting a machine-readable datasheet")
    p.add_argument("--benchmark", default=None,
                   help="registry benchmark name (max46, apla, t2, syn_*, "
                        "workload:<spec>)")
    p.add_argument("--cell", default=None, metavar="SPEC",
                   help="characterize a generated workload cell instead "
                        "of a registry benchmark (spec such as add8 or "
                        "clf-majority9-perceptron; `repro workload ls`)")
    p.add_argument("--tech", action="append", default=None, metavar="SPEC",
                   help="technology to include (registry name or "
                        "descriptor path); repeatable (default: flash, "
                        "eeprom, cnfet)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--power-vectors", type=int, default=256,
                   help="LFSR vectors for the activity-based energy "
                        "model (default 256)")
    p.add_argument("--variation-trials", type=int, default=200,
                   help="Monte Carlo samples of the parametric timing "
                        "distribution (default 200)")
    p.add_argument("--yield-samples", type=int, default=400,
                   help="Monte Carlo samples per yield experiment "
                        "(default 400)")
    p.add_argument("--spares", action="append", default=None,
                   metavar="ROWS,COLS",
                   help="spare-fabric point for the yield sweep; "
                        "repeatable (default 2,1)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1; the "
                        "datasheet is identical for any job count)")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--checkpoint",
                   help="JSONL checkpoint file (default: .repro/"
                        "characterize-<bench>-<ntechs>-<seed>.ckpt.jsonl)")
    p.add_argument("--resume", action="store_true",
                   help="reuse cells checkpointed by an interrupted "
                        "sweep; the datasheet is bit-identical")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the validated datasheet as sorted JSON")
    p.set_defaults(handler=_cmd_characterize)

    p = sub.add_parser("workload",
                       help="generate / evaluate arithmetic and "
                            "classifier workload cells")
    p.add_argument("action", choices=("ls", "build", "eval", "curve"),
                   help="ls: registry census; build: compile one cell; "
                        "eval: differential check against the integer / "
                        "model oracle; curve: accuracy-vs-defect-rate "
                        "analysis through the yield engine")
    p.add_argument("spec", nargs="?", default=None,
                   help="workload spec (add<w>, addc<w>, cmp<w>, lt<w>, "
                        "eq<w>, gt<w>, pop<w>, clf-<dataset>-<algo>); "
                        "the workload: prefix is optional")
    p.add_argument("--words", type=int, default=64,
                   help="64-vector LFSR words for eval/curve streams "
                        "(default 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=400,
                   help="curve: Monte Carlo samples per defect-rate "
                        "point (default 400)")
    p.add_argument("--rate", action="append", type=float, default=None,
                   help="curve: defect-rate point (p_stuck_off); "
                        "repeatable (default 0.0005 0.001 0.002 0.004)")
    p.add_argument("--tech", action="append", default=None, metavar="SPEC",
                   help="curve: technology for the area axis; the first "
                        "runs the yield sweep; repeatable (default cnfet)")
    p.add_argument("--jobs", type=int, default=1,
                   help="curve: parallel yield workers (default 1; the "
                        "report is identical for any job count)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="ls: emit machine-readable JSON to FILE (bare "
                        "--json = stdout)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="build: write the compiled cover as a .pla file; "
                        "curve: write the validated curve report JSON")
    p.set_defaults(handler=_cmd_workload)

    p = sub.add_parser("table1", help="reproduce the paper's Table 1")
    p.add_argument("--tech", default=None, metavar="SPEC",
                   help="append a fourth column for this technology "
                        "(registry name or descriptor path)")
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce the paper's Table 2")
    p.add_argument("--grid", type=int, default=8,
                   help="standard-fabric grid side (default 8)")
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for the two fabric "
                        "implementations (default 1; results are "
                        "identical for any job count)")
    p.set_defaults(handler=_cmd_table2)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
