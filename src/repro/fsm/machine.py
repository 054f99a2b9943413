"""Symbolic finite-state machine specifications.

A (Mealy) FSM is a set of named states and guarded transitions; guards
are input patterns in PLA cube notation (``"1-"`` = first input high,
second don't-care), so an FSM spec reads like a KISS2 state table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Transition:
    """One guarded transition.

    Attributes
    ----------
    source, target:
        State names.
    guard:
        Input pattern over the FSM's inputs (``0``/``1``/``-`` per bit).
    outputs:
        Output pattern asserted while taking this transition (``0``/``1``
        per output bit, Mealy semantics).
    """

    source: str
    guard: str
    target: str
    outputs: str


class FSM:
    """A Mealy machine over binary inputs/outputs.

    Parameters
    ----------
    n_inputs, n_outputs:
        Bit widths.
    reset_state:
        Initial state name.
    name:
        Used in reports and signal names.
    """

    def __init__(self, n_inputs: int, n_outputs: int, reset_state: str,
                 name: str = "fsm"):
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.reset_state = reset_state
        self.name = name
        self.states: List[str] = [reset_state]
        self.transitions: List[Transition] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self, state: str) -> None:
        """Declare a state (idempotent)."""
        if state not in self.states:
            self.states.append(state)

    def add_transition(self, source: str, guard: str, target: str,
                       outputs: str) -> None:
        """Add a guarded transition, declaring unseen states."""
        if len(guard) != self.n_inputs:
            raise ValueError(f"guard {guard!r} must have {self.n_inputs} bits")
        if len(outputs) != self.n_outputs:
            raise ValueError(
                f"outputs {outputs!r} must have {self.n_outputs} bits")
        if any(ch not in "01-" for ch in guard):
            raise ValueError(f"bad guard character in {guard!r}")
        if any(ch not in "01" for ch in outputs):
            raise ValueError(f"bad output character in {outputs!r}")
        self.add_state(source)
        self.add_state(target)
        self.transitions.append(Transition(source, guard, target, outputs))

    # ------------------------------------------------------------------
    # reference semantics (the synthesis oracle)
    # ------------------------------------------------------------------
    @staticmethod
    def _guard_matches(guard: str, inputs: Sequence[int]) -> bool:
        for ch, bit in zip(guard, inputs):
            if ch == "1" and not bit:
                return False
            if ch == "0" and bit:
                return False
        return True

    def step(self, state: str, inputs: Sequence[int]) -> Tuple[str, List[int]]:
        """Reference next-state/output: first matching transition wins.

        With no matching transition the machine self-loops emitting
        all-zero outputs (the implicit default of a PLA implementation:
        unprogrammed product terms assert nothing).
        """
        if len(inputs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} input bits")
        for transition in self.transitions:
            if transition.source == state and \
                    self._guard_matches(transition.guard, inputs):
                outputs = [int(ch) for ch in transition.outputs]
                return transition.target, outputs
        return state, [0] * self.n_outputs

    def run(self, input_stream: Sequence[Sequence[int]]
            ) -> List[Tuple[str, List[int]]]:
        """Run from reset; returns (next_state, outputs) per cycle."""
        state = self.reset_state
        trace = []
        for inputs in input_stream:
            state, outputs = self.step(state, inputs)
            trace.append((state, outputs))
        return trace

    def is_deterministic(self) -> bool:
        """True when no state has overlapping guards.

        Synthesis requires determinism (a PLA ORs all matching rows).
        """
        for i, a in enumerate(self.transitions):
            for b in self.transitions[i + 1:]:
                if a.source != b.source:
                    continue
                if all(x == "-" or y == "-" or x == y
                       for x, y in zip(a.guard, b.guard)):
                    if (a.target, a.outputs) != (b.target, b.outputs):
                        return False
        return True

    def transitions_from(self, state: str) -> List[Transition]:
        """All transitions leaving ``state``."""
        return [t for t in self.transitions if t.source == state]

    def __repr__(self) -> str:
        return (f"FSM({self.name!r}, states={len(self.states)}, "
                f"transitions={len(self.transitions)})")


def sequence_detector(pattern: str, name: str = "seqdet") -> FSM:
    """The classic 1-input overlapping sequence detector for ``pattern``.

    Output goes high for one cycle whenever the input history ends with
    ``pattern`` (overlaps allowed) — a standard FSM benchmark.
    """
    if not pattern or any(ch not in "01" for ch in pattern):
        raise ValueError("pattern must be a non-empty 0/1 string")
    fsm = FSM(1, 1, reset_state="s0", name=name)
    # state s_k = "k bits of the pattern matched"
    for k in range(len(pattern)):
        state = f"s{k}"
        for bit in "01":
            matched = pattern[:k] + bit
            # longest suffix of `matched` that is a prefix of `pattern`
            next_k = 0
            for length in range(min(len(matched), len(pattern)), 0, -1):
                if matched.endswith(pattern[:length]):
                    next_k = length
                    break
            emit = "0"
            if next_k == len(pattern):
                emit = "1"
                # overlap continuation: longest *proper* suffix of the
                # full match that is again a prefix of the pattern
                next_k = 0
                for length in range(len(pattern) - 1, 0, -1):
                    if matched.endswith(pattern[:length]):
                        next_k = length
                        break
            fsm.add_transition(state, bit, f"s{next_k}", emit)
    return fsm
