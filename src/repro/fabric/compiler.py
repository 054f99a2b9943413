"""Compiling partitioned logic onto the cascaded PLA/crossbar fabric.

Each stage hosts one :class:`~repro.core.pla.AmbipolarPLA` per block;
each stage boundary hosts one :class:`~repro.core.interconnect.
CrosspointArray` whose horizontal wires carry the live bus and whose
vertical wires are the next stage's PLA input pins (plus feed-through
lanes for signals that must survive to a later bus).  Simulation
actually drives the crossbars (:meth:`CrosspointArray.propagate`), so a
mis-programmed crosspoint shows up as a functional failure — the same
observability the physical fabric would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.area import CNFET_AMBIPOLAR, Technology, interconnect_area, pla_area
from repro.core.device import DEFAULT_PARAMETERS, DeviceParameters
from repro.core.interconnect import CrosspointArray
from repro.core.pla import AmbipolarPLA
from repro.fabric.layout import FabricLayout, levelize
from repro.mapping.partition import Block, PartitionResult
from repro.tech import TechDescriptor


@dataclass
class FabricStage:
    """One stage: its PLAs and the crossbar feeding them.

    Attributes
    ----------
    plas:
        ``(block, pla)`` pairs executing at this stage.
    crossbar:
        The crosspoint array between the incoming bus and this stage's
        PLA input pins + feed-through lanes.
    bus_in:
        Signal names on the crossbar's horizontal wires.
    pin_signals:
        Signal names expected on each vertical wire (PLA pins first,
        then feed-through lanes).
    n_pla_pins:
        Vertical wires consumed by PLA inputs (the rest feed through).
    """

    plas: List[Tuple[Block, AmbipolarPLA]]
    crossbar: CrosspointArray
    bus_in: List[str]
    pin_signals: List[str]
    n_pla_pins: int


class CompiledFabric:
    """A fully-programmed cascaded PLA/crossbar fabric."""

    def __init__(self, layout: FabricLayout, stages: List[FabricStage],
                 params: DeviceParameters):
        self.layout = layout
        self.stages = stages
        self.params = params

    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of PLA stages."""
        return len(self.stages)

    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Evaluate primary outputs from named primary-input values.

        Every stage boundary is crossed through its programmed
        crossbar: the live bus drives the horizontal wires and the PLA
        pins / feed-through lanes are *read back* from the vertical
        wires.
        """
        values: Dict[str, int] = {}
        for signal in self.layout.primary_inputs:
            values[signal] = int(assignment[signal])

        for stage in self.stages:
            driven = {("h", i): values[signal]
                      for i, signal in enumerate(stage.bus_in)}
            routed = stage.crossbar.propagate(driven)
            pin_values: List[int] = []
            for v, signal in enumerate(stage.pin_signals):
                wire = ("v", v)
                if wire not in routed:
                    raise RuntimeError(
                        f"crossbar left pin {v} ({signal}) floating")
                pin_values.append(routed[wire])
            # feed-through lanes really carry their signals: overwrite the
            # value map from the far side of the crossbar so a missing
            # crosspoint is observable as a floating wire
            for v in range(stage.n_pla_pins, len(stage.pin_signals)):
                values[stage.pin_signals[v]] = pin_values[v]
            offset = 0
            for block, pla in stage.plas:
                vector = pin_values[offset:offset + block.n_inputs]
                offset += block.n_inputs
                outputs = pla.evaluate(vector)
                for signal, bit in zip(block.output_signals, outputs):
                    values[signal] = bit

        return {signal: values[signal]
                for signal in self.layout.primary_outputs}

    def evaluate_vector(self, vector: Sequence[int]) -> List[int]:
        """Positional evaluation (primary inputs in declaration order)."""
        assignment = dict(zip(self.layout.primary_inputs, vector))
        result = self.evaluate(assignment)
        return [result[signal] for signal in self.layout.primary_outputs]

    # ------------------------------------------------------------------
    def pla_cells(self) -> int:
        """Crosspoints in all PLA planes."""
        return sum(pla.n_cells()
                   for stage in self.stages for _b, pla in stage.plas)

    def crossbar_cells(self) -> int:
        """Crosspoints in all interconnect arrays."""
        return sum(stage.crossbar.n_cells() for stage in self.stages)

    def total_cells(self) -> int:
        """All fabric crosspoints (PLA + interconnect)."""
        return self.pla_cells() + self.crossbar_cells()

    def area_l2(self, technology: Technology = CNFET_AMBIPOLAR) -> float:
        """Total fabric area under the Table 1 cell model.

        ``technology`` may be a :class:`Technology` or a
        :class:`~repro.tech.TechDescriptor`.
        """
        total = 0.0
        for stage in self.stages:
            for _block, pla in stage.plas:
                total += pla_area(technology, pla.n_inputs, pla.n_outputs,
                                  pla.n_products)
            total += interconnect_area(technology,
                                       stage.crossbar.n_horizontal,
                                       stage.crossbar.n_vertical)
        return total

    def stage_summaries(self) -> List[Dict[str, int]]:
        """Per-stage accounting for reports."""
        summaries = []
        for s, stage in enumerate(self.stages):
            summaries.append({
                "stage": s,
                "blocks": len(stage.plas),
                "bus_width": len(stage.bus_in),
                "pla_cells": sum(pla.n_cells() for _b, pla in stage.plas),
                "crossbar_cells": stage.crossbar.n_cells(),
            })
        return summaries

    def __repr__(self) -> str:
        return (f"CompiledFabric(stages={self.n_stages}, "
                f"cells={self.total_cells()})")


def compile_fabric(partition: PartitionResult,
                   params: DeviceParameters = DEFAULT_PARAMETERS
                   ) -> CompiledFabric:
    """Program the cascaded fabric for a partitioned function.

    ``params`` may also be a :class:`~repro.tech.TechDescriptor`, in
    which case the device parameters derive from it.
    """
    if isinstance(params, TechDescriptor):
        params = DeviceParameters.from_tech(params)
    layout = levelize(partition)
    stages: List[FabricStage] = []

    for s, blocks in enumerate(layout.stages):
        bus_in = layout.buses[s]
        bus_index = {signal: i for i, signal in enumerate(bus_in)}

        plas: List[Tuple[Block, AmbipolarPLA]] = []
        pin_signals: List[str] = []
        for block in blocks:
            plas.append((block, AmbipolarPLA.from_cover(block.cover,
                                                        params=params)))
            pin_signals.extend(block.input_signals)
        n_pla_pins = len(pin_signals)

        # feed-through lanes: bus signals still needed past this stage
        # that are not produced here
        produced_here = {signal for block in blocks
                         for signal in block.output_signals}
        next_bus = layout.buses[s + 1]
        for signal in next_bus:
            if signal not in produced_here:
                pin_signals.append(signal)

        crossbar = CrosspointArray(max(1, len(bus_in)),
                                   max(1, len(pin_signals)), params)
        for v, signal in enumerate(pin_signals):
            if signal not in bus_index:
                raise ValueError(
                    f"stage {s} pin {signal!r} is not on the incoming bus "
                    f"(layout bug)")
            crossbar.connect(bus_index[signal], v)
        stages.append(FabricStage(plas=plas, crossbar=crossbar,
                                  bus_in=bus_in, pin_signals=pin_signals,
                                  n_pla_pins=n_pla_pins))

    return CompiledFabric(layout, stages, params)
