"""The Table 2 experiment: standard FPGA vs ambipolar-CNFET FPGA.

Protocol (Section 5 of the paper):

1. build a workload and split it into CLB-sized blocks "the same way
   standard FPGAs split large functions into different CLBs";
2. implement it on a **standard** fabric sized so the device is
   essentially full (the paper reports 99 % occupancy), routing *both*
   polarities of every consumed signal;
3. emulate the **ambipolar CNFET** FPGA as "a classical one with half
   of the area for every CLB" on the *same die*: the grid gains sites
   (occupancy halves), wires shrink with the tile pitch, and only one
   polarity per signal is routed;
4. measure occupancy and maximum frequency of both through the same
   place-and-route-and-timing code path.

Steps 1-3 are :func:`table2_problem`, the one set-up shared by
:func:`run_emulation` (``repro table2``) and the serve ``place_route``
op, which implements one of its two fabrics.

The flow runs on the backend ``REPRO_KERNEL`` selects: the array-backed
grid engine (:mod:`repro.fpga.grid`) or the scalar oracle loops.  Both
produce bit-identical placements, routes and Table 2 numbers for the
same seeds; the ``fpga.place`` / ``fpga.route`` / ``fpga.timing`` perf
timers and counters record where the flow's time went either way.

The two expensive phases are served through the synthesis service
(:mod:`repro.store.service`): the partitioned workload and each
fabric's place-and-route result are content-addressed artifacts, so a
repeated emulation (same seed/geometry/backend) reconstructs the same
report from the cache instead of re-annealing.  ``REPRO_CACHE=off``
restores the always-recompute behaviour; results are bit-identical
either way because the artifacts are complete encodings of the phase
outputs (timing is cheap and always recomputed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.fpga.clb import ambipolar_pla_clb, standard_pla_clb
from repro.fpga.fabric import FPGAFabric
from repro.fpga.netlist import Netlist, build_netlist
from repro.fpga.placement import Placement
from repro.fpga.routing import RoutingResult
from repro.fpga.timing import (DEFAULT_WIRE_DELAY, TimingReport,
                               WireDelayParameters, analyze_timing)
from repro.logic.function import BooleanFunction
from repro.mapping.partition import PartitionResult, Partitioner


@dataclass
class FabricRun:
    """One fabric's implementation results.

    Attributes
    ----------
    fabric:
        The fabric used.
    netlist:
        The (possibly polarity-expanded) netlist.
    occupancy_percent:
        Occupied area as the paper reports it.
    frequency_mhz:
        Maximum frequency from static timing.
    total_wirelength:
        Routed segments summed over all nets.
    overflow_segments:
        Channel segments left over capacity after negotiation.
    """

    fabric: FPGAFabric
    netlist: Netlist
    placement: Placement
    routing: RoutingResult
    timing: TimingReport
    occupancy_percent: float
    frequency_mhz: float
    total_wirelength: int
    overflow_segments: int


@dataclass
class EmulationReport:
    """The Table 2 comparison.

    ``standard`` and ``cnfet`` hold the two runs; convenience
    properties expose the paper's two table rows.
    """

    standard: FabricRun
    cnfet: FabricRun

    @property
    def frequency_gain(self) -> float:
        """CNFET frequency over standard frequency (paper: ~2.27x)."""
        return self.cnfet.frequency_mhz / self.standard.frequency_mhz

    @property
    def area_ratio(self) -> float:
        """CNFET occupancy over standard occupancy (paper: ~0.45)."""
        return (self.cnfet.occupancy_percent
                / self.standard.occupancy_percent)

    def table_rows(self) -> List[Tuple[str, str, str]]:
        """The two rows of Table 2, formatted."""
        return [
            ("Occupied area",
             f"{self.standard.occupancy_percent:.1f}%",
             f"{self.cnfet.occupancy_percent:.1f}%"),
            ("Frequency",
             f"{self.standard.frequency_mhz:.0f} MHz",
             f"{self.cnfet.frequency_mhz:.0f} MHz"),
        ]


def generate_workload(seed: int, n_blocks_target: int,
                      partitioner: Partitioner) -> List[PartitionResult]:
    """Random multi-function workload totalling ~``n_blocks_target`` blocks.

    Functions are drawn with supports larger than one CLB so the
    partitioner produces multi-block, multi-level structures (realistic
    inter-CLB nets rather than isolated blocks).
    """
    rng = random.Random(seed)
    partitions: List[PartitionResult] = []
    total_blocks = 0
    index = 0
    while total_blocks < n_blocks_target:
        n_inputs = rng.randint(partitioner.max_inputs + 1,
                               partitioner.max_inputs + 4)
        n_outputs = rng.randint(2, max(2, partitioner.max_outputs))
        n_cubes = rng.randint(8, 16)
        function = BooleanFunction.random(
            n_inputs, n_outputs, n_cubes,
            seed=seed * 7919 + index, name=f"f{index}",
            dash_probability=0.55)
        partition = partitioner.partition(function)
        if total_blocks + len(partition.blocks) > n_blocks_target:
            break
        partitions.append(partition)
        total_blocks += len(partition.blocks)
        index += 1
    # Top up with small single-block functions to hit the occupancy target
    # (the paper's standard fabric is reported full at 99 %).
    while total_blocks < n_blocks_target:
        n_inputs = rng.randint(3, partitioner.max_inputs)
        function = BooleanFunction.random(
            n_inputs, 1, rng.randint(2, max(2, partitioner.max_products // 3)),
            seed=seed * 7919 + index, name=f"f{index}",
            dash_probability=0.5)
        partition = partitioner.partition(function)
        if total_blocks + len(partition.blocks) > n_blocks_target:
            index += 1
            continue
        partitions.append(partition)
        total_blocks += len(partition.blocks)
        index += 1
    return partitions


def implement(partitions: Sequence[PartitionResult], fabric: FPGAFabric,
              seed: int,
              wire_params: WireDelayParameters = DEFAULT_WIRE_DELAY
              ) -> FabricRun:
    """Place, route and time one fabric implementation.

    Each phase accumulates its ``fpga.*`` perf timer/counters, so the
    benchmark drivers can embed a where-did-the-time-go snapshot.
    """
    from repro.store.service import get_service
    netlist = build_netlist(partitions,
                            dual_polarity=fabric.clb.dual_polarity_inputs)
    placement, routing = get_service().place_route(netlist, fabric, seed)
    timing = analyze_timing(netlist, routing, fabric, wire_params)
    return FabricRun(
        fabric=fabric,
        netlist=netlist,
        placement=placement,
        routing=routing,
        timing=timing,
        occupancy_percent=100.0 * fabric.occupancy(netlist.n_blocks()),
        frequency_mhz=timing.max_frequency_mhz(),
        total_wirelength=routing.total_wirelength,
        overflow_segments=len(routing.overflow),
    )


def table2_problem(seed: int, grid_side: int, target_occupancy: float = 0.99,
                   clb_inputs: int = 9, clb_outputs: int = 4,
                   clb_products: int = 20, channel_capacity: int = 28,
                   clb_area_factor: float = 0.5
                   ) -> Tuple[List[PartitionResult], FPGAFabric, FPGAFabric]:
    """``(partitions, standard_fabric, cnfet_fabric)`` of Table 2: the
    workload (store kind ``table2_workload``) filling the standard
    fabric to ``target_occupancy``, and the same die with CNFET CLBs."""
    std_clb = standard_pla_clb(clb_inputs, clb_outputs, clb_products)
    amb_clb = ambipolar_pla_clb(clb_inputs, clb_outputs, clb_products,
                                area_factor=clb_area_factor)
    partitioner = Partitioner(clb_inputs, clb_outputs, clb_products)

    from repro.store import codecs
    from repro.store.service import get_service
    service = get_service()

    n_blocks_target = int(round(grid_side * grid_side * target_occupancy))
    partitions = service.get_or_compute(
        "table2_workload",
        {"seed": seed, "n_blocks": n_blocks_target,
         "partitioner": {"max_inputs": partitioner.max_inputs,
                         "max_outputs": partitioner.max_outputs,
                         "max_products": partitioner.max_products}},
        lambda: generate_workload(seed, n_blocks_target, partitioner),
        encode=codecs.encode_partitions, decode=codecs.decode_partitions)

    std_fabric = FPGAFabric(grid_side, grid_side, std_clb, channel_capacity)
    amb_fabric = FPGAFabric.same_die(std_fabric, amb_clb, channel_capacity)
    return partitions, std_fabric, amb_fabric


def run_emulation(seed: int = 2, grid_side: int = 10,
                  target_occupancy: float = 0.99,
                  clb_inputs: int = 9, clb_outputs: int = 4,
                  clb_products: int = 20,
                  channel_capacity: int = 28,
                  clb_area_factor: float = 0.5,
                  wire_params: WireDelayParameters = DEFAULT_WIRE_DELAY,
                  jobs: int = 1) -> EmulationReport:
    """Run the full Table 2 protocol on :func:`table2_problem`.

    Parameters
    ----------
    seed:
        Workload / placement seed (the experiment is deterministic).
    grid_side:
        Standard-fabric grid side; the workload is generated to fill it
        to ``target_occupancy``.
    clb_*:
        CLB capacity shared by both variants.
    channel_capacity:
        Routing tracks per channel segment.
    clb_area_factor:
        The paper's emulation ratio (0.5 = "half of the area for every
        CLB").
    jobs:
        With ``jobs > 1`` the two fabric implementations (standard and
        CNFET) run in separate worker processes.  They are independent
        place-and-route problems over the same workload, so the report
        is identical for any job count.
    """
    partitions, std_fabric, amb_fabric = table2_problem(
        seed, grid_side, target_occupancy, clb_inputs, clb_outputs,
        clb_products, channel_capacity, clb_area_factor)

    if jobs > 1:
        # resilient fan-out: the two independent place-and-route runs
        # are crash-isolated and retried (see repro.runner)
        from repro.runner import run_tasks
        tasks = [("standard", (partitions, std_fabric, seed, wire_params)),
                 ("cnfet", (partitions, amb_fabric, seed, wire_params))]
        standard, cnfet = run_tasks(_implement_task, tasks, jobs=2).values()
    else:
        standard = implement(partitions, std_fabric, seed, wire_params)
        cnfet = implement(partitions, amb_fabric, seed, wire_params)
    return EmulationReport(standard=standard, cnfet=cnfet)


def _implement_task(payload):
    """Top-level (picklable) wrapper for the resilient runner."""
    partitions, fabric, seed, wire_params = payload
    return implement(partitions, fabric, seed, wire_params)
