"""Levelization of partitioned logic for the cascaded-PLA fabric.

Blocks from :class:`repro.mapping.partition.PartitionResult` form a
DAG; the fabric executes them in *stages* (all blocks of a level share
one PLA column of the fabric).  Between consecutive stages a crosspoint
array carries the **live bus**: every signal that is still needed by a
later stage or is a primary output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.mapping.partition import Block, PartitionResult


@dataclass
class FabricLayout:
    """Stage assignment plus per-boundary live buses.

    Attributes
    ----------
    stages:
        ``stages[s]`` — blocks executing at stage ``s``.
    buses:
        ``buses[s]`` — ordered signal names crossing the boundary
        *into* stage ``s`` (bus 0 carries the primary inputs).  There
        is one final bus after the last stage carrying the primary
        outputs.
    primary_inputs, primary_outputs:
        Global I/O names.
    """

    stages: List[List[Block]]
    buses: List[List[str]]
    primary_inputs: List[str]
    primary_outputs: List[str]

    @property
    def n_stages(self) -> int:
        """Number of PLA stages."""
        return len(self.stages)

    def stage_of(self, block_name: str) -> int:
        """The stage index executing a block."""
        for s, blocks in enumerate(self.stages):
            if any(b.name == block_name for b in blocks):
                return s
        raise KeyError(block_name)


def levelize(partition: PartitionResult) -> FabricLayout:
    """Assign blocks to stages and compute the live buses.

    A block's level is one past the deepest block driving any of its
    inputs (primary inputs are level 0), so stage ``s`` only consumes
    signals available on bus ``s``.
    """
    producer: Dict[str, Block] = {}
    for block in partition.blocks:
        for signal in block.output_signals:
            producer[signal] = block

    level: Dict[str, int] = {}

    def block_level(block: Block) -> int:
        if block.name in level:
            return level[block.name]
        depth = 0
        for signal in block.input_signals:
            if signal in producer:
                depth = max(depth, block_level(producer[signal]) + 1)
        level[block.name] = depth
        return depth

    n_stages = 0
    for block in partition.blocks:
        n_stages = max(n_stages, block_level(block) + 1)

    stages: List[List[Block]] = [[] for _ in range(n_stages)]
    for block in partition.blocks:
        stages[level[block.name]].append(block)

    # Liveness: a signal is on bus s when it is produced before stage s
    # (or is a primary input) and consumed at stage >= s (or is a
    # primary output).
    consumed_at: Dict[str, List[int]] = {}
    for s, blocks in enumerate(stages):
        for block in blocks:
            for signal in block.input_signals:
                consumed_at.setdefault(signal, []).append(s)

    buses: List[List[str]] = []
    for s in range(n_stages + 1):
        bus: List[str] = []
        for signal in _all_signals(partition):
            born = -1 if signal in partition.primary_inputs else \
                level[producer[signal].name] if signal in producer else None
            if born is None or born >= s:
                continue
            last_use = max(consumed_at.get(signal, [-1]), default=-1)
            is_po = signal in partition.primary_outputs
            if last_use >= s or (is_po and s <= n_stages):
                bus.append(signal)
        buses.append(bus)

    return FabricLayout(
        stages=stages,
        buses=buses,
        primary_inputs=list(partition.primary_inputs),
        primary_outputs=list(partition.primary_outputs),
    )


def _all_signals(partition: PartitionResult) -> List[str]:
    signals: List[str] = list(partition.primary_inputs)
    seen: Set[str] = set(signals)
    for block in partition.blocks:
        for signal in block.output_signals:
            if signal not in seen:
                seen.add(signal)
                signals.append(signal)
    return signals
