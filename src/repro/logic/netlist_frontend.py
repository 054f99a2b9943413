"""A tiny netlist front end: named multi-level expression modules.

Lets examples and workloads describe realistic multi-level circuits
textually instead of as flat covers::

    module alu_slice
    input a b cin op
    output sum cout
    p    = a ^ b
    g    = a & b
    sel  = p & ~op | g & op
    sum  = p ^ cin
    cout = g | p & cin

Wires are single-assignment; every right-hand side is a Boolean
expression over inputs and previously-defined wires (the module is a
DAG by construction).  The parsed :class:`Module` evaluates directly,
flattens to a single :class:`~repro.logic.cover.Cover`, or converts to
a :class:`~repro.mapping.partition.PartitionResult` (one block per
assignment) for the fabric and FPGA flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.espresso.espresso import minimize
from repro.logic.complement import complement_cover
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.expr import parse_expression
from repro.logic.function import BooleanFunction
from repro.mapping.partition import Block, PartitionResult


class NetlistError(ValueError):
    """Raised on malformed module text."""


@dataclass
class Assignment:
    """One ``wire = expression`` statement."""

    target: str
    expression: str
    cover: Cover            # over the assignment's support signals
    support: List[str]      # signal names, in the cover's input order


@dataclass
class Module:
    """A parsed multi-level module.

    Attributes
    ----------
    name:
        Module name.
    inputs, outputs:
        Port lists (outputs must be assigned wires).
    assignments:
        Statements in definition order (topological by construction).
    """

    name: str
    inputs: List[str]
    outputs: List[str]
    assignments: List[Assignment]

    # ------------------------------------------------------------------
    def evaluate(self, values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate all outputs from named input values."""
        signals = {name: int(values[name]) for name in self.inputs}
        for assignment in self.assignments:
            vector = [signals[s] for s in assignment.support]
            signals[assignment.target] = \
                1 if assignment.cover.evaluate(vector)[0] else 0
        return {name: signals[name] for name in self.outputs}

    def evaluate_vector(self, vector: Sequence[int]) -> List[int]:
        """Positional evaluation in port order."""
        values = dict(zip(self.inputs, vector))
        result = self.evaluate(values)
        return [result[name] for name in self.outputs]

    # ------------------------------------------------------------------
    def flatten(self) -> BooleanFunction:
        """Collapse to a single flat function over the primary inputs.

        Wires are eliminated by substitution (AND of covers through the
        expression layer); practical for the module sizes examples use.
        """
        index = {name: i for i, name in enumerate(self.inputs)}
        n = len(self.inputs)
        flat: Dict[str, Cover] = {}
        for name in self.inputs:
            flat[name] = Cover(n, 1, [Cube.from_literals(n, [(index[name],
                                                              True)])])
        for assignment in self.assignments:
            cover = Cover(n, 1)
            for cube in assignment.cover.cubes:
                term = Cover.universe(n)
                for var, positive in cube.literals():
                    signal_cover = flat[assignment.support[var]]
                    factor = signal_cover if positive else \
                        complement_cover(signal_cover)
                    term = _and_covers(term, factor)
                cover = (cover + term)
            flat[assignment.target] = cover.single_cube_containment()

        on = Cover(n, len(self.outputs))
        for k, name in enumerate(self.outputs):
            for cube in flat[name].cubes:
                on.append(Cube(n, cube.inputs, 1 << k, len(self.outputs)))
        function = BooleanFunction(on.merge_identical_inputs(),
                                   name=self.name,
                                   input_labels=self.inputs,
                                   output_labels=self.outputs)
        return function

    def to_partition(self, do_minimize: bool = True) -> PartitionResult:
        """One fabric/FPGA block per assignment (signals become nets)."""
        rename = {name: f"{self.name}.x{i}"
                  for i, name in enumerate(self.inputs)}
        for k, name in enumerate(self.outputs):
            rename[name] = f"{self.name}.y{k}"
        counter = 0
        for assignment in self.assignments:
            if assignment.target not in rename:
                rename[assignment.target] = f"{self.name}.n{counter}"
                counter += 1

        blocks: List[Block] = []
        for i, assignment in enumerate(self.assignments):
            cover = assignment.cover
            if do_minimize:
                cover = minimize(BooleanFunction(cover))
            blocks.append(Block(
                name=f"{self.name}.blk{i}",
                cover=cover,
                input_signals=[rename[s] for s in assignment.support],
                output_signals=[rename[assignment.target]],
            ))
        return PartitionResult(
            blocks=blocks,
            primary_inputs=[rename[s] for s in self.inputs],
            primary_outputs=[rename[s] for s in self.outputs],
        )


def _and_covers(a: Cover, b: Cover) -> Cover:
    result = Cover(a.n_inputs, 1)
    for ca in a.cubes:
        for cb in b.cubes:
            inter = ca.intersection(cb)
            if inter is not None:
                result.append(inter)
    return result.single_cube_containment()


def parse_module(text: str) -> Module:
    """Parse module text (see the module docstring for the grammar)."""
    name = "module"
    inputs: List[str] = []
    outputs: List[str] = []
    assignments: List[Assignment] = []
    defined: List[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("module "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("input "):
            inputs.extend(line.split()[1:])
        elif line.startswith("output "):
            outputs.extend(line.split()[1:])
        elif "=" in line:
            target, expression = (part.strip()
                                  for part in line.split("=", 1))
            if not target.isidentifier():
                raise NetlistError(f"line {line_no}: bad wire name "
                                   f"{target!r}")
            if target in defined or target in inputs:
                raise NetlistError(f"line {line_no}: {target!r} assigned "
                                   f"twice (wires are single-assignment)")
            available = inputs + defined
            support = [s for s in available
                       if _mentions(expression, s)]
            if not support:
                support = available[:1] if available else []
            if not support:
                raise NetlistError(f"line {line_no}: no inputs declared "
                                   f"before first assignment")
            try:
                cover = parse_expression(expression, support)
            except ValueError as exc:
                raise NetlistError(f"line {line_no}: {exc}") from exc
            assignments.append(Assignment(target, expression, cover,
                                          support))
            defined.append(target)
        else:
            raise NetlistError(f"line {line_no}: cannot parse {line!r}")

    if not inputs:
        raise NetlistError("module declares no inputs")
    if not outputs:
        raise NetlistError("module declares no outputs")
    for out in outputs:
        if out not in defined:
            raise NetlistError(f"output {out!r} is never assigned")
    return Module(name, inputs, outputs, assignments)


def _mentions(expression: str, signal: str) -> bool:
    from repro.logic.expr import tokenize
    return signal in tokenize(expression)
