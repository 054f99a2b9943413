"""``fpga``: the Table 2 emulation, standard fabric against CNFET fabric.

Each operation is one ``run_emulation`` (``jobs=1``): partition a
generated workload into CLB blocks, build the netlist, anneal the
placement, route with negotiated congestion and time both the standard
fabric and the half-area CNFET fabric on the same die.  Operations have
their own seeds, drawn from the benchmark seed and the round, at grid
sides 8 and 10, and every round includes Table 2's own setting (seed 2,
grid 10).  Every round writes into a fresh store, so no operation is
served from the cache.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import checks
from harness import Op, timed
from wl_compile import synthesis_layers, trace_synthesis

#: Table 2's own setting, run in every round.
TABLE2 = (2, 10)
#: Seeded operations per round, by grid side.  Grid-8 designs cost about
#: half as much as grid-10 ones and vary less from seed to seed; with
#: four of them to two grid-10 operations (Table 2's and one seeded),
#: the median falls inside the grid-8 group.
SEEDED_GRIDS = (8, 8, 8, 8, 10)


class FpgaWorkload:
    name = "fpga"
    ROUND_S = 6.0
    known_failures: Tuple[str, ...] = ()

    def __init__(self, bench) -> None:
        self.bench = bench
        self.rounds: List[List[Tuple[int, int]]] = []
        self._stores = 0

    def setup(self, n_draws: int) -> None:
        for draw in range(n_draws):
            jobs = [TABLE2]
            for j, grid in enumerate(SEEDED_GRIDS):
                # the offset keeps seeded jobs away from Table 2's seed
                seed = 1000 + (self.bench.seed * 97 + draw * 11 + j) % 10 ** 6
                jobs.append((seed, grid))
            self.rounds.append(jobs)

    def _fresh_store(self) -> None:
        self._stores += 1
        os.environ["REPRO_CACHE_DIR"] = os.path.join(
            self.bench.run_dir, "fpga", str(self._stores))

    def warm(self) -> None:
        self._fresh_store()
        for grid in sorted(set(g for _s, g in self.rounds[0])):
            self._emulate((3, grid))

    def run_round(self, draw: int) -> List[Op]:
        self._fresh_store()
        ops = []
        for job in self.rounds[draw]:
            op = timed(f"grid{job[1]}", self._emulate, job)
            op.extra["job"] = job
            ops.append(op)
        return ops

    def _emulate(self, job: Tuple[int, int]):
        from repro.fpga.emulate import run_emulation

        seed, grid = job
        return run_emulation(seed=seed, grid_side=grid, jobs=1)

    @staticmethod
    def _plain(report) -> dict:
        """A report as plain data: sites, nets with their routed edges,
        clocks and the CLB block arrays."""
        from repro.core.area import CNFET_AMBIPOLAR, pla_area

        fabrics = {}
        for label, run in (("standard", report.standard),
                           ("cnfet", report.cnfet)):
            fabrics[label] = {
                "grid": (run.fabric.width, run.fabric.height),
                "blocks": sorted(run.netlist.blocks),
                "sites": dict(run.placement.sites),
                "pads": dict(run.placement.pads),
                "nets": [(net.name, net.source, list(net.sinks),
                          list(run.routing.routed[net.name].edges)
                          if net.name in run.routing.routed else None)
                         for net in run.netlist.nets],
                "fmax_mhz": run.frequency_mhz,
            }
        arrays = {}
        for name, block in report.standard.netlist.blocks.items():
            dims = (block.cover.n_inputs, block.cover.n_outputs,
                    block.cover.n_cubes())
            arrays[name] = (dims, pla_area(CNFET_AMBIPOLAR, *dims))
        return {"fabrics": fabrics, "arrays": arrays}

    # ------------------------------------------------------------------
    def check(self, ops: List[Op]) -> List[str]:
        errors = []
        first = {}
        for op in ops:
            if not op.ok:
                continue
            job, out = op.extra["job"], self._plain(op.output)
            what = f"seed {job[0]} grid {job[1]}"
            try:
                if first.setdefault(job, out) != out:
                    raise checks.CheckError(f"{what}: result differs "
                                            f"between rounds")
                if first[job] is not out:
                    continue  # identical to a result already checked
                for label, fabric in out["fabrics"].items():
                    width, height = fabric["grid"]
                    checks.check_placement(width, height, fabric["blocks"],
                                           fabric["sites"],
                                           f"{what} {label} placement")
                    for name, source, sinks, edges in fabric["nets"]:
                        terminals = checks.net_terminals(
                            source, sinks, name, fabric["sites"],
                            fabric["pads"])
                        if len(set(terminals)) >= 2 and edges is None:
                            raise checks.CheckError(f"{what} {label}: net "
                                                    f"{name} unrouted")
                        checks.check_route(width, height, terminals,
                                           edges or [],
                                           f"{what} {label} net {name}")
                std = out["fabrics"]["standard"]["fmax_mhz"]
                cnfet = out["fabrics"]["cnfet"]["fmax_mhz"]
                if not cnfet > std:
                    raise checks.CheckError(f"{what}: CNFET clock {cnfet} "
                                            f"MHz not above standard {std}")
                for name, (dims, area) in out["arrays"].items():
                    checks.check_area(area, "cnfet", *dims,
                                      what=f"{what} block {name}")
            except checks.CheckError as exc:
                errors.append(str(exc))
        return errors

    def quality(self, ops: List[Op]) -> Tuple[float, float]:
        runs = {op.extra["job"]: self._plain(op.output)
                for op in ops if op.ok}
        area = sum(area for out in runs.values()
                   for _dims, area in out["arrays"].values())
        clocks = [fabric["fmax_mhz"] for out in runs.values()
                  for fabric in out["fabrics"].values()]
        return area, checks.geomean(clocks)

    # ------------------------------------------------------------------
    def trace(self, tracer) -> None:
        import repro.fpga.netlist  # noqa: F401 - patched by name
        import repro.fpga.placement  # noqa: F401
        import repro.fpga.routing  # noqa: F401
        import repro.fpga.timing  # noqa: F401
        from repro.mapping.partition import Partitioner

        trace_synthesis(tracer)
        tracer.method(Partitioner, "partition", "mapping.partition_s")
        for module, attr, name in (
                ("repro.fpga.netlist", "build_netlist", "fpga.netlist_s"),
                ("repro.fpga.placement", "place", "fpga.place_s"),
                ("repro.fpga.routing", "route", "fpga.route_s"),
                ("repro.fpga.timing", "analyze_timing", "fpga.timing_s")):
            tracer.function(module, attr, name)

    def layers(self, tracer, traced_ops: List[Op], n_rounds: int) -> dict:
        metrics = synthesis_layers(tracer, n_rounds)
        metrics.update(fpga_layers(tracer, n_rounds))
        return metrics

    def coverage(self, tracer, traced_ops: List[Op], wall: float) -> float:
        return tracer.top_seconds / wall if wall else 0.0

    def close(self) -> None:
        pass


def fpga_layers(tracer, n_rounds: int) -> dict:
    """Partition, netlist, place, route and timing figures per round."""
    metrics = {name: tracer.seconds.get(name, 0.0) / n_rounds
               for name in ("mapping.partition_s", "fpga.netlist_s",
                            "fpga.place_s", "fpga.route_s",
                            "fpga.timing_s")}
    for name in ("fpga.place.moves_evaluated", "fpga.route.iterations",
                 "fpga.route.overflow_segments", "fpga.route.wirelength"):
        metrics[name] = tracer.counts.get("perf:" + name, 0) / n_rounds
    return metrics
