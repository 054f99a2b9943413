"""Block/net netlists for the FPGA flow.

A :class:`Netlist` is the placement/routing currency: named blocks
(CLB-sized logic from :class:`repro.mapping.partition.Partitioner`)
connected by named nets.  ``build_netlist`` performs the one expansion
Table 2 hinges on: on a *standard* fabric every signal consumed by a
PLA CLB must arrive in **both polarities**, so each logical signal
becomes two routed nets; the ambipolar fabric routes one net per signal
because the GNOR planes invert internally ("the inverted signals are
not routed but generated internally").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.mapping.partition import Block, PartitionResult


@dataclass
class Net:
    """One routed signal.

    Attributes
    ----------
    name:
        Unique net name (complement nets get a ``#inv`` suffix).
    source:
        Driving block name, or ``None`` for a primary input.
    sinks:
        Consuming block names (primary outputs have no sink block).
    is_complement:
        True for the extra inverted-polarity copy routed on standard
        fabrics.
    """

    name: str
    source: Optional[str]
    sinks: List[str] = field(default_factory=list)
    is_complement: bool = False

    def n_terminals(self) -> int:
        """Pin count of the net (source + sinks)."""
        return (1 if self.source is not None else 0) + len(self.sinks)


@dataclass
class Netlist:
    """Blocks plus the nets connecting them.

    Attributes
    ----------
    blocks:
        name -> :class:`Block`, in dependency order.
    nets:
        All routed nets.
    primary_inputs, primary_outputs:
        Global I/O signal names.
    """

    blocks: Dict[str, Block]
    nets: List[Net]
    primary_inputs: List[str]
    primary_outputs: List[str]

    def n_blocks(self) -> int:
        """Number of CLBs required."""
        return len(self.blocks)

    def n_nets(self) -> int:
        """Number of routed signals (Table 2's signal-count factor)."""
        return len(self.nets)

    def block_order(self) -> List[str]:
        """Block names in insertion (dependency) order."""
        return list(self.blocks)

    def nets_of_block(self, name: str) -> List[Net]:
        """Nets touching a block (as source or sink)."""
        return [net for net in self.nets
                if net.source == name or name in net.sinks]

    def fanin_nets(self, name: str) -> List[Net]:
        """Nets feeding a block."""
        return [net for net in self.nets if name in net.sinks]

    def driver_of(self, signal_prefix: str) -> Optional[str]:
        """The block driving nets named ``signal_prefix`` (or None)."""
        for net in self.nets:
            if net.name == signal_prefix:
                return net.source
        return None


def build_netlist(partitions: Sequence[PartitionResult],
                  dual_polarity: bool) -> Netlist:
    """Assemble one netlist from partitioned functions.

    Parameters
    ----------
    partitions:
        One :class:`PartitionResult` per workload function; block and
        signal names are already globally unique (function-name
        prefixed).
    dual_polarity:
        True for the standard fabric: every signal with at least one
        block sink is doubled into a complement net (the standard PLA
        CLB consumes both polarities).
    """
    blocks: Dict[str, Block] = {}
    primary_inputs: List[str] = []
    primary_outputs: List[str] = []
    driver: Dict[str, Optional[str]] = {}
    sinks: Dict[str, List[str]] = {}

    for partition in partitions:
        primary_inputs.extend(partition.primary_inputs)
        primary_outputs.extend(partition.primary_outputs)
        for signal in partition.primary_inputs:
            driver.setdefault(signal, None)
        for block in partition.blocks:
            if block.name in blocks:
                raise ValueError(f"duplicate block name {block.name}")
            blocks[block.name] = block
            for signal in block.output_signals:
                driver[signal] = block.name
            for signal in block.input_signals:
                sinks.setdefault(signal, []).append(block.name)

    nets: List[Net] = []
    for signal, source in driver.items():
        signal_sinks = sinks.get(signal, [])
        is_primary_output = signal in primary_outputs
        if not signal_sinks and not is_primary_output:
            continue  # dangling signal (e.g. unused primary input)
        nets.append(Net(signal, source, list(signal_sinks)))
        if dual_polarity and signal_sinks:
            # The complemented copy is consumed by the same sinks; it is
            # generated at the source (or an input pad inverter) and
            # routed in parallel — the wiring the GNOR fabric avoids.
            nets.append(Net(f"{signal}#inv", source, list(signal_sinks),
                            is_complement=True))

    return Netlist(blocks, nets, primary_inputs, primary_outputs)
