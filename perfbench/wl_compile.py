"""``compile``: minimize, map and size freshly built functions.

Each operation builds one function, minimizes it into an empty
artifact store through ``SynthesisService.minimize`` (Espresso, plus a
store miss and a store write), maps the cover onto two GNOR planes and
evaluates the Table 1 area model and the ``PLATimingModel`` clock.

The round has three parts, in this order:

1. the eight registry functions (``max46``, ``apla``, ``t2`` and the
   five ``syn_*``), as synthetic covers with the registry's dimensions,
   drawn afresh for every round from the seed;
2. the registry functions of at most 12 inputs again, with output-phase
   assignment;
3. generated ``workload:`` cells — adders, comparators (``gt8`` among
   them), popcounts and the perceptron and decision-list classifiers.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import checks
from harness import Op, timed

#: Generated cells compiled in part 3 (the same in every round; the
#: registry covers of parts 1 and 2 come from the seed).  The four
#: smallest (a few ms each) put the median of a round's latencies among
#: the fixed ``pop6`` and ``add4`` operations; without them it sat at
#: the top of that band, next to a gap up to the seeded phase-assigned
#: covers, and moved by a third from seed to seed.
CELLS = ("add2", "cmp2", "eq4", "pop4",
         "add4", "addc4", "cmp4", "gt8", "pop6", "pop8",
         "clf-majority9-perceptron", "clf-blobs12-perceptron",
         "clf-mux6-dlist")

#: Part 2 repeats the registry functions with at most this many inputs.
PHASE_MAX_INPUTS = 12

#: Synthesis-layer times reported per round by the traced run.
LAYERS = ("espresso.expand_s", "espresso.reduce_s", "espresso.irredundant_s",
          "espresso.essential_s", "espresso.make_sparse_s",
          "espresso.phase_s", "logic.complement_s", "mapping.map_s",
          "store.get_s", "store.put_s")


class CompileWorkload:
    name = "compile"
    ROUND_S = 5.5
    known_failures: Tuple[str, ...] = ()

    def __init__(self, bench) -> None:
        self.bench = bench
        self.rounds: List[List[dict]] = []
        self._stores = 0

    # ------------------------------------------------------------------
    def setup(self, n_draws: int) -> None:
        from repro.bench.mcnc import EXTENDED_SUITE, synthesize_cover

        for draw in range(n_draws):
            registry = []
            for position, stats in enumerate(EXTENDED_SUITE):
                seed = (self.bench.seed * 1009 + draw * 101 + position) \
                    % 2 ** 31
                cover = synthesize_cover(stats, seed=seed)
                registry.append((stats, seed,
                                 [(c.inputs, c.outputs) for c in cover.cubes]))
            items = [{"kind": "registry", "name": f"{stats.name}@{seed}",
                      "n_in": stats.inputs, "n_out": stats.outputs,
                      "rows": rows, "phase": False}
                     for stats, seed, rows in registry]
            items += [{"kind": "registry+phase", "name": f"{stats.name}@{seed}",
                       "n_in": stats.inputs, "n_out": stats.outputs,
                       "rows": rows, "phase": True}
                      for stats, seed, rows in registry
                      if stats.inputs <= PHASE_MAX_INPUTS]
            items += [{"kind": "cell", "name": spec, "phase": False}
                      for spec in CELLS]
            self.rounds.append(items)

    def warm(self) -> None:
        done = set()
        for item in self.rounds[0]:
            if item["kind"] not in done:
                done.add(item["kind"])
                self._compile(item)

    def run_round(self, draw: int) -> List[Op]:
        ops = []
        for item in self.rounds[draw]:
            op = timed(item["kind"], self._compile, item)
            op.extra["item"] = item
            ops.append(op)
        return ops

    def _compile(self, item: dict) -> dict:
        from repro import workloads
        from repro.core.area import CNFET_AMBIPOLAR, pla_area
        from repro.core.timing import PLATimingModel
        from repro.logic.cover import Cover
        from repro.logic.cube import Cube
        from repro.logic.function import BooleanFunction
        from repro.mapping.gnor_map import map_cover_to_gnor
        from repro.store.service import SynthesisService
        from repro.store.store import ArtifactStore

        self._stores += 1
        store = ArtifactStore(os.path.join(self.bench.run_dir, "compile",
                                           str(self._stores)))
        service = SynthesisService(store)
        if item["kind"] == "cell":
            function = workloads.build_workload(item["name"])
        else:
            n, m = item["n_in"], item["n_out"]
            function = BooleanFunction(
                Cover(n, m, [Cube(n, i, o, m) for i, o in item["rows"]]),
                name=item["name"])
        if item["phase"]:
            cover, phases = service.minimize(function, {"phase": True})
        else:
            cover, phases = service.minimize(function), None
        plane = map_cover_to_gnor(cover, phases)
        dims = (plane.n_inputs, plane.n_outputs, plane.n_products)
        return {"cover": cover, "phases": phases, "plane": plane,
                "area": pla_area(CNFET_AMBIPOLAR, *dims),
                "fmax_mhz": PLATimingModel(*dims).max_frequency() / 1e6}

    # ------------------------------------------------------------------
    def _distinct(self, ops: List[Op]) -> Dict[tuple, dict]:
        """One output per distinct input; a repeated input (the generated
        cells recur in every round) must give the same output."""
        seen: Dict[tuple, dict] = {}
        for op in ops:
            if not op.ok:
                continue
            item = op.extra["item"]
            key = (item["kind"], item["name"])
            out = _plain(op.output)
            if key in seen and seen[key] != out:
                raise checks.CheckError(f"{key}: output differs between "
                                        f"rounds")
            seen.setdefault(key, out)
        return seen

    def check(self, ops: List[Op]) -> List[str]:
        from repro import workloads

        errors = []
        try:
            distinct = self._distinct(ops)
        except checks.CheckError as exc:
            return [str(exc)]
        items = {(i["kind"], i["name"]): i
                 for items in self.rounds for i in items}
        for key, out in distinct.items():
            item = items[key]
            try:
                n_in, n_out, n_p = out["dims"]
                if n_p != len(out["cover"]):
                    raise checks.CheckError(f"{key}: {n_p} rows for "
                                            f"{len(out['cover'])} cubes")
                checks.check_area(out["area"], "cnfet", n_in, n_out, n_p,
                                  f"{key} area")
                if item["kind"] == "cell":
                    _check_cell(item["name"], out, workloads)
                else:
                    checks.check_equivalent(n_in, n_out, out["cover"],
                                            item["rows"],
                                            phases=out["phases"],
                                            what=f"{key} cover")
                    checks.check_gnor(n_in, n_out, out["plane"],
                                      item["rows"], what=f"{key} GNOR")
            except checks.CheckError as exc:
                errors.append(str(exc))
        return errors

    def quality(self, ops: List[Op]) -> Tuple[float, float]:
        distinct = self._distinct(ops)
        return (sum(out["area"] for out in distinct.values()),
                checks.geomean([out["fmax_mhz"]
                                for out in distinct.values()]))

    # ------------------------------------------------------------------
    def trace(self, tracer) -> None:
        trace_synthesis(tracer)

    def layers(self, tracer, traced_ops: List[Op], n_rounds: int) -> dict:
        return synthesis_layers(tracer, n_rounds)

    def coverage(self, tracer, traced_ops: List[Op], wall: float) -> float:
        return tracer.top_seconds / wall if wall else 0.0

    def close(self) -> None:
        pass


def _plain(out: dict) -> dict:
    """An operation's output as plain data: positional-notation rows and
    device-mode names."""
    plane = out["plane"]
    return {
        "cover": [(c.inputs, c.outputs) for c in out["cover"].cubes],
        "phases": out["phases"],
        "plane": ([[d.value for d in row] for row in plane.and_plane],
                  [[d.value for d in row] for row in plane.or_plane],
                  list(plane.output_inverted)),
        "dims": (plane.n_inputs, plane.n_outputs, plane.n_products),
        "area": out["area"],
        "fmax_mhz": out["fmax_mhz"],
    }


def _check_cell(spec: str, out: dict, workloads) -> None:
    """A compiled cell matches its integer oracle or its model's rule."""
    info = workloads.parse_workload(spec)
    if info["family"] == "clf":
        model = workloads.train_model(info["dataset"],
                                      info["algorithm"]).to_json()
        n, table = checks.classifier_table(model)
        tables = [table]
    else:
        n, tables = checks.oracle_tables(info["family"], info["width"])
    n_in, n_out, _ = out["dims"]
    if (n_in, n_out) != (n, len(tables)):
        raise checks.CheckError(f"{spec}: array {n_in}x{n_out}, oracle "
                                f"{n}x{len(tables)}")
    got = checks.cover_tables(n_in, n_out, out["cover"])
    checks.check_tables(n_in, got, tables, what=f"{spec} cover")
    got = checks.gnor_tables(n_in, *out["plane"])
    checks.check_tables(n_in, got, tables, what=f"{spec} GNOR")


# ----------------------------------------------------------------------
# synthesis layers, shared with the fpga and yield workloads
# ----------------------------------------------------------------------
def _count_cubes(tracer, args, result) -> None:
    function = args[1]
    cover = result[0] if isinstance(result, tuple) else result
    tracer.count("espresso.cubes_in", function.on_set.n_cubes())
    tracer.count("espresso.cubes_out", cover.n_cubes())


def _bytes_written(tracer, args, result) -> None:
    tracer.count("store.bytes_written", os.path.getsize(result))


def trace_synthesis(tracer) -> None:
    """Espresso phases, complement, mapping and the store."""
    import repro.espresso.espresso  # noqa: F401 - modules patched below
    import repro.espresso.phase  # noqa: F401
    import repro.espresso.sparse  # noqa: F401
    import repro.logic.complement  # noqa: F401
    import repro.mapping.gnor_map  # noqa: F401
    from repro.store.service import SynthesisService
    from repro.store.store import ArtifactStore

    for module, attr, name in (
            ("repro.espresso.expand", "expand", "espresso.expand_s"),
            ("repro.espresso.reduce", "reduce_cover", "espresso.reduce_s"),
            ("repro.espresso.irredundant", "irredundant",
             "espresso.irredundant_s"),
            ("repro.espresso.essential", "essential_primes",
             "espresso.essential_s"),
            ("repro.espresso.sparse", "make_sparse",
             "espresso.make_sparse_s"),
            ("repro.espresso.phase", "assign_output_phases",
             "espresso.phase_s"),
            ("repro.logic.complement", "complement_cover",
             "logic.complement_s"),
            ("repro.mapping.gnor_map", "map_cover_to_gnor",
             "mapping.map_s")):
        tracer.function(module, attr, name)
    tracer.method(ArtifactStore, "get", "store.get_s")
    tracer.method(ArtifactStore, "put", "store.put_s",
                  after=_bytes_written)
    tracer.method(SynthesisService, "minimize", "service.minimize",
                  layer=False, after=_count_cubes)


def synthesis_layers(tracer, n_rounds: int) -> dict:
    """Per-round synthesis, store and tautology-memo figures."""
    def per(name: str) -> float:
        return tracer.seconds.get(name, 0.0) / n_rounds

    def counted(name: str) -> float:
        return tracer.counts.get(name, 0) / n_rounds

    hits = tracer.counts.get("perf:taut.memo_hit", 0)
    misses = tracer.counts.get("perf:taut.memo_miss", 0)
    metrics = {name: per(name) for name in LAYERS}
    metrics.update({
        "espresso.cubes_in": counted("espresso.cubes_in"),
        "espresso.cubes_out": counted("espresso.cubes_out"),
        "logic.taut_memo_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "store.hits": (counted("perf:store.hit_mem")
                       + counted("perf:store.hit_disk")),
        "store.misses": counted("perf:store.miss"),
        "store.bytes_written": counted("store.bytes_written"),
    })
    return metrics
