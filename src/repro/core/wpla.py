"""Whirlpool PLAs on GNOR planes (Section 5, reference [1]).

A Whirlpool PLA arranges **four** NOR planes in a ring; the outputs are
split into two groups, each realized by one opposite pair of planes, so
each half-array is narrower than a monolithic two-plane PLA.  The
paper's observation is that a cascade of four GNOR planes makes WPLAs
directly implementable on the ambipolar-CNFET fabric, with
Doppio-Espresso ([1]) as the natural minimizer.

:class:`WhirlpoolPLA` composes two :class:`~repro.core.pla.AmbipolarPLA`
halves produced by :func:`repro.espresso.doppio.doppio_espresso` and
restores the original output order on evaluation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.pla import AmbipolarPLA


class WhirlpoolPLA:
    """A 4-plane (two half-PLA) Whirlpool arrangement.

    Parameters
    ----------
    half_a, half_b:
        The two programmed half-PLAs (planes 1-2 and planes 3-4).
    group_a, group_b:
        Original output indices realized by each half.
    n_outputs:
        Total outputs of the original function.
    """

    def __init__(self, half_a: AmbipolarPLA, half_b: AmbipolarPLA,
                 group_a: Sequence[int], group_b: Sequence[int],
                 n_outputs: int):
        if sorted(list(group_a) + list(group_b)) != list(range(n_outputs)):
            raise ValueError("output groups must partition the outputs")
        if half_a.n_inputs != half_b.n_inputs:
            raise ValueError("both halves must share the primary inputs")
        self.half_a = half_a
        self.half_b = half_b
        self.group_a = list(group_a)
        self.group_b = list(group_b)
        self.n_outputs = n_outputs

    @property
    def n_inputs(self) -> int:
        """Primary input count."""
        return self.half_a.n_inputs

    @property
    def n_planes(self) -> int:
        """Always four: the whirlpool ring."""
        return 4

    def n_cells(self) -> int:
        """Total crosspoints of the four planes."""
        return self.half_a.n_cells() + self.half_b.n_cells()

    def n_products(self) -> int:
        """Product rows across both halves."""
        return self.half_a.n_products + self.half_b.n_products

    def evaluate(self, inputs: Sequence[int]) -> List[int]:
        """Evaluate both halves and interleave outputs back in order."""
        values_a = self.half_a.evaluate(inputs)
        values_b = self.half_b.evaluate(inputs)
        outputs = [0] * self.n_outputs
        for local, original in enumerate(self.group_a):
            outputs[original] = values_a[local]
        for local, original in enumerate(self.group_b):
            outputs[original] = values_b[local]
        return outputs

    def truth_table(self) -> List[int]:
        """Output bitmask per minterm.

        With the kernels enabled, each half's table is enumerated
        bit-sliced and the halves are interleaved back into the
        original output order; the scalar path evaluates every minterm
        through the switch-level halves.
        """
        from repro import kernels
        if kernels.enabled() and self.n_outputs <= kernels.bitslice.WORD:
            table_a = self.half_a.truth_table()
            table_b = self.half_b.truth_table()
            table = []
            for mask_a, mask_b in zip(table_a, table_b):
                mask = 0
                for local, original in enumerate(self.group_a):
                    mask |= ((mask_a >> local) & 1) << original
                for local, original in enumerate(self.group_b):
                    mask |= ((mask_b >> local) & 1) << original
                table.append(mask)
            return table
        table = []
        for minterm in range(1 << self.n_inputs):
            vector = [(minterm >> i) & 1 for i in range(self.n_inputs)]
            mask = 0
            for k, bit in enumerate(self.evaluate(vector)):
                if bit:
                    mask |= 1 << k
            table.append(mask)
        return table

    def __repr__(self) -> str:
        return (f"WhirlpoolPLA(i={self.n_inputs}, o={self.n_outputs}, "
                f"p={self.n_products()}, cells={self.n_cells()})")
