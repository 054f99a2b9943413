"""Splitting functions into CLB-sized blocks.

FPGAs implement "any function within a limited number of inputs"
(Section 5), so a large function must be split across several CLBs —
the paper expects the PLA-based FPGA to split functions "the same way
standard FPGAs split large functions into different CLBs".  The
:class:`Partitioner` reproduces that flow:

1. every output is minimized on its own and outputs are greedily
   grouped into blocks by support affinity, under the block's input /
   output / product-term capacity;
2. an output whose support alone exceeds the input capacity is Shannon
   decomposed (``f = ~x f0 + x f1``) into sub-blocks plus a small
   2:1-multiplexer combiner block;
3. a cover with too many product terms for one block is split into row
   chunks OR-ed together by a combiner block.

The result is a list of :class:`Block` plus the signal graph the FPGA
netlist builder consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.espresso.espresso import minimize
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.function import BooleanFunction


@dataclass
class Block:
    """One CLB-sized piece of logic.

    Attributes
    ----------
    name:
        Unique block name.
    cover:
        The block's minimized cover over its *local* inputs.
    input_signals:
        Global signal names feeding the block, in local input order.
    output_signals:
        Global signal names the block drives, in local output order.
    """

    name: str
    cover: Cover
    input_signals: List[str]
    output_signals: List[str]

    @property
    def n_inputs(self) -> int:
        """Local input count."""
        return len(self.input_signals)

    @property
    def n_outputs(self) -> int:
        """Local output count."""
        return len(self.output_signals)

    @property
    def n_products(self) -> int:
        """Product-term count of the block's cover."""
        return self.cover.n_cubes()


@dataclass
class PartitionResult:
    """Outcome of partitioning one function.

    Attributes
    ----------
    blocks:
        All blocks, in dependency order (drivers before sinks).
    primary_inputs, primary_outputs:
        Global signal names of the function's I/O.
    """

    blocks: List[Block]
    primary_inputs: List[str]
    primary_outputs: List[str]

    def intermediate_signals(self) -> List[str]:
        """Signals produced by one block and consumed by another."""
        produced = [s for b in self.blocks for s in b.output_signals]
        return [s for s in produced if s not in self.primary_outputs]

    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Evaluate the whole block graph on named primary-input values."""
        values = dict(assignment)
        for block in self.blocks:
            vector = [values[s] for s in block.input_signals]
            result = block.cover.evaluate(vector)
            for signal, bit in zip(block.output_signals, result):
                values[signal] = 1 if bit else 0
        return {s: values[s] for s in self.primary_outputs}


class PartitionError(ValueError):
    """Raised when a function cannot fit the block capacity at all."""


class Partitioner:
    """Splits a function into blocks of bounded size.

    Parameters
    ----------
    max_inputs, max_outputs, max_products:
        Capacity of one block (CLB).  ``max_inputs`` must be at least 3
        so the Shannon-recombination multiplexer fits in a block.
    """

    def __init__(self, max_inputs: int = 9, max_outputs: int = 4,
                 max_products: int = 20):
        if max_inputs < 3:
            raise PartitionError("max_inputs must be >= 3 (mux blocks need 3)")
        if max_outputs < 1 or max_products < 2:
            raise PartitionError("block capacity too small")
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.max_products = max_products
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    def partition(self, function: BooleanFunction) -> PartitionResult:
        """Partition ``function`` into capacity-respecting blocks."""
        primary_inputs = [f"{function.name}.x{i}" for i in range(function.n_inputs)]
        primary_outputs = [f"{function.name}.y{k}" for k in range(function.n_outputs)]
        blocks: List[Block] = []

        # Synthesize every output to a signal, then group what fits.
        pending: List[Tuple[str, Cover, List[str]]] = []
        for k in range(function.n_outputs):
            single = function.restricted_to_output(k)
            cover = minimize(single)
            signal = primary_outputs[k]
            pending.extend(self._synthesize(cover, primary_inputs, signal, blocks,
                                            function.name))

        grouped = self._group_outputs(pending, function.name)
        blocks.extend(grouped)
        blocks = _dependency_order(blocks, primary_inputs)
        return PartitionResult(blocks, primary_inputs, primary_outputs)

    # ------------------------------------------------------------------
    def _synthesize(self, cover: Cover, input_signals: List[str], target: str,
                    blocks: List[Block], prefix: str
                    ) -> List[Tuple[str, Cover, List[str]]]:
        """Reduce a single-output cover until it fits one block.

        Returns leaf (signal, cover, inputs) triples to be grouped;
        helper blocks created along the way are appended to ``blocks``.
        """
        support = _support_of(cover)
        local_cover, local_inputs = _project(cover, support, input_signals)

        if len(local_inputs) > self.max_inputs:
            return self._shannon_split(local_cover, local_inputs, target,
                                       blocks, prefix)
        if local_cover.n_cubes() > self.max_products:
            return self._row_split(local_cover, local_inputs, target,
                                   blocks, prefix)
        return [(target, local_cover, local_inputs)]

    def _shannon_split(self, cover: Cover, input_signals: List[str],
                       target: str, blocks: List[Block], prefix: str
                       ) -> List[Tuple[str, Cover, List[str]]]:
        """``f = ~x f0 + x f1`` on the most binate variable."""
        var = cover.most_binate_variable()
        if var is None:
            var = 0
        leaves: List[Tuple[str, Cover, List[str]]] = []
        branch_signals = []
        for value in (False, True):
            sub = cover.cofactor_var(var, value).single_cube_containment()
            signal = f"{prefix}.n{next(self._counter)}"
            branch_signals.append(signal)
            leaves.extend(self._synthesize(sub, input_signals, signal,
                                           blocks, prefix))
        # Multiplexer leaf: target = ~sel & f0 | sel & f1 over
        # (f0_signal, f1_signal, select_signal).
        mux = Cover.from_strings(["1-0 1", "-11 1"])
        leaves.append((target, mux,
                       [branch_signals[0], branch_signals[1], input_signals[var]]))
        return leaves

    def _row_split(self, cover: Cover, input_signals: List[str], target: str,
                   blocks: List[Block], prefix: str
                   ) -> List[Tuple[str, Cover, List[str]]]:
        """Split an over-tall cover into OR-ed row chunks."""
        chunk_signals = []
        leaves: List[Tuple[str, Cover, List[str]]] = []
        cubes = list(cover.cubes)
        for start in range(0, len(cubes), self.max_products):
            chunk = Cover(cover.n_inputs, 1, cubes[start:start + self.max_products])
            signal = f"{prefix}.n{next(self._counter)}"
            chunk_signals.append(signal)
            leaves.extend(self._synthesize(chunk, input_signals, signal,
                                           blocks, prefix))
        # OR combiner over the chunk signals (split again if too wide).
        while len(chunk_signals) > self.max_inputs:
            grouped = []
            for start in range(0, len(chunk_signals), self.max_inputs):
                part = chunk_signals[start:start + self.max_inputs]
                if len(part) == 1:
                    grouped.extend(part)
                    continue
                signal = f"{prefix}.n{next(self._counter)}"
                leaves.append((signal, _or_cover(len(part)), part))
                grouped.append(signal)
            chunk_signals = grouped
        leaves.append((target, _or_cover(len(chunk_signals)), chunk_signals))
        return leaves

    # ------------------------------------------------------------------
    def _group_outputs(self, pending: List[Tuple[str, Cover, List[str]]],
                       prefix: str) -> List[Block]:
        """Greedy affinity grouping of single-output leaves into blocks.

        Leaves are grouped only within the same dependency level
        (distance from primary inputs through other leaves), which
        guarantees the resulting block graph stays acyclic: a leaf can
        never share a block with one of its own (transitive) drivers.
        """
        levels = _leaf_levels(pending)
        blocks: List[Block] = []
        for level in sorted(set(levels.values())):
            level_pending = [leaf for leaf in pending
                             if levels[leaf[0]] == level]
            blocks.extend(self._group_level(level_pending, prefix))
        return blocks

    def _group_level(self, pending: List[Tuple[str, Cover, List[str]]],
                     prefix: str) -> List[Block]:
        """Affinity grouping among same-level leaves."""
        remaining = list(pending)
        blocks: List[Block] = []
        while remaining:
            seed = remaining.pop(0)
            group = [seed]
            inputs: List[str] = list(seed[2])
            products = seed[1].n_cubes()
            changed = True
            while changed and len(group) < self.max_outputs:
                changed = False
                best_idx = None
                best_new = None
                for idx, (signal, cover, sig_in) in enumerate(remaining):
                    new_inputs = [s for s in sig_in if s not in inputs]
                    if len(inputs) + len(new_inputs) > self.max_inputs:
                        continue
                    if products + cover.n_cubes() > self.max_products:
                        continue
                    if best_new is None or len(new_inputs) < best_new:
                        best_new = len(new_inputs)
                        best_idx = idx
                if best_idx is not None:
                    signal, cover, sig_in = remaining.pop(best_idx)
                    group.append((signal, cover, sig_in))
                    inputs.extend(s for s in sig_in if s not in inputs)
                    products += cover.n_cubes()
                    changed = True
            blocks.append(self._build_block(group, inputs, prefix))
        return blocks

    def _build_block(self, group: List[Tuple[str, Cover, List[str]]],
                     inputs: List[str], prefix: str) -> Block:
        """Merge grouped single-output covers into one multi-output block."""
        n_in = len(inputs)
        n_out = len(group)
        index = {s: i for i, s in enumerate(inputs)}
        merged = Cover(n_in, n_out)
        output_signals = []
        for k, (signal, cover, sig_in) in enumerate(group):
            output_signals.append(signal)
            remap = [index[s] for s in sig_in]
            for cube in cover.cubes:
                lits = [(remap[var], positive) for var, positive in cube.literals()]
                merged.append(Cube.from_literals(n_in, lits, n_out, outputs=1 << k))
        name = f"{prefix}.blk{next(self._counter)}"
        return Block(name, merged.merge_identical_inputs(), inputs, output_signals)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _leaf_levels(pending: List[Tuple[str, Cover, List[str]]]) -> Dict[str, int]:
    """Dependency level of each leaf's output signal.

    Primary-input signals are level 0; a leaf sits one level above the
    deepest leaf driving one of its inputs.
    """
    producer = {signal: (cover, inputs) for signal, cover, inputs in pending}
    levels: Dict[str, int] = {}

    def level_of(signal: str) -> int:
        if signal not in producer:
            return 0  # primary input
        if signal in levels:
            return levels[signal]
        levels[signal] = 0  # cycle guard; the leaf graph is acyclic by construction
        _cover, inputs = producer[signal]
        value = 1 + max((level_of(s) for s in inputs), default=0)
        levels[signal] = value
        return value

    for signal, _cover, _inputs in pending:
        level_of(signal)
    return {signal: levels[signal] for signal, _c, _i in pending}


def _support_of(cover: Cover) -> List[int]:
    support: Set[int] = set()
    for cube in cover.cubes:
        for var, _ in cube.literals():
            support.add(var)
    return sorted(support)


def _project(cover: Cover, support: Sequence[int],
             input_signals: Sequence[str]) -> Tuple[Cover, List[str]]:
    """Re-express a cover over only its support variables."""
    if not support:
        # constant function: keep one dummy input so the block is well-formed
        support = [0]
    index = {var: i for i, var in enumerate(support)}
    projected = Cover(len(support), 1)
    for cube in cover.cubes:
        lits = [(index[var], positive) for var, positive in cube.literals()]
        projected.append(Cube.from_literals(len(support), lits, 1))
    signals = [input_signals[var] for var in support]
    return projected, signals


def _or_cover(width: int) -> Cover:
    """The ``width``-input OR as a cover."""
    cover = Cover(width, 1)
    for i in range(width):
        cover.append(Cube.from_literals(width, [(i, True)], 1))
    return cover


def _dependency_order(blocks: List[Block],
                      primary_inputs: Sequence[str]) -> List[Block]:
    """Topologically sort blocks so drivers precede sinks."""
    available: Set[str] = set(primary_inputs)
    ordered: List[Block] = []
    remaining = list(blocks)
    while remaining:
        progressed = False
        for block in list(remaining):
            if all(s in available for s in block.input_signals):
                ordered.append(block)
                available.update(block.output_signals)
                remaining.remove(block)
                progressed = True
        if not progressed:
            raise PartitionError("cyclic block dependencies (internal error)")
    return ordered
