"""State encodings for FSM synthesis.

The encoding decides the PLA's state-register width and, through the
minimizer, its product-term count: binary is narrow, one-hot trades
register bits for simpler next-state logic, gray minimizes register
toggling (dynamic energy on the fabric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class StateEncoding:
    """A state-name -> bit-vector assignment.

    Attributes
    ----------
    n_bits:
        Register width.
    codes:
        state name -> tuple of 0/1 bits (LSB first).
    style:
        ``"binary"`` / ``"gray"`` / ``"one-hot"`` (reports only).
    """

    n_bits: int
    codes: Dict[str, tuple]
    style: str

    def code_of(self, state: str) -> tuple:
        """The bit vector of a state."""
        return self.codes[state]

    def state_of(self, bits: Sequence[int]) -> str:
        """Inverse lookup (raises ``KeyError`` for unused codes)."""
        key = tuple(bits)
        for state, code in self.codes.items():
            if code == key:
                return state
        raise KeyError(f"no state encoded as {key}")


def binary_encoding(states: Sequence[str]) -> StateEncoding:
    """Dense binary encoding in declaration order."""
    n_bits = max(1, (len(states) - 1).bit_length())
    codes = {state: tuple((i >> b) & 1 for b in range(n_bits))
             for i, state in enumerate(states)}
    return StateEncoding(n_bits, codes, "binary")


def gray_encoding(states: Sequence[str]) -> StateEncoding:
    """Gray-code encoding: consecutive states differ in one bit."""
    n_bits = max(1, (len(states) - 1).bit_length())
    codes = {}
    for i, state in enumerate(states):
        gray = i ^ (i >> 1)
        codes[state] = tuple((gray >> b) & 1 for b in range(n_bits))
    return StateEncoding(n_bits, codes, "gray")


def one_hot_encoding(states: Sequence[str]) -> StateEncoding:
    """One flip-flop per state; exactly one bit high."""
    n_bits = len(states)
    codes = {state: tuple(1 if b == i else 0 for b in range(n_bits))
             for i, state in enumerate(states)}
    return StateEncoding(n_bits, codes, "one-hot")
