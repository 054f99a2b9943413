"""Structured synthetic workload generators.

These functions provide non-random, *shaped* workloads: decoders are
OR-free and wide, majority is symmetric and prime-rich, parity is the
two-level worst case, and the adder carry chain exercises cascades.
They complement :func:`repro.logic.function.BooleanFunction.random`
throughout the tests, examples and ablation benches.
"""

from __future__ import annotations

from typing import Optional

from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.function import BooleanFunction


def address_decoder(n_address_bits: int) -> BooleanFunction:
    """A full ``n -> 2^n`` address decoder (one minterm per output)."""
    if n_address_bits < 1:
        raise ValueError("need at least one address bit")
    n_outputs = 1 << n_address_bits
    on = Cover(n_address_bits, n_outputs)
    for minterm in range(n_outputs):
        on.append(Cube.from_minterm(minterm, n_address_bits, n_outputs,
                                    outputs=1 << minterm))
    return BooleanFunction(on, name=f"dec{n_address_bits}")


def majority_function(n_inputs: int, threshold: Optional[int] = None
                      ) -> BooleanFunction:
    """Majority (or general threshold) function of ``n_inputs`` bits."""
    if threshold is None:
        threshold = n_inputs // 2 + 1
    table = [1 if bin(m).count("1") >= threshold else 0
             for m in range(1 << n_inputs)]
    return BooleanFunction.from_truth_table(table, n_inputs,
                                            name=f"maj{n_inputs}")


def parity_function(n_inputs: int) -> BooleanFunction:
    """Odd parity of ``n_inputs`` bits — the two-level worst case
    (its minimum SOP needs ``2^(n-1)`` product terms)."""
    table = [bin(m).count("1") % 2 for m in range(1 << n_inputs)]
    return BooleanFunction.from_truth_table(table, n_inputs,
                                            name=f"par{n_inputs}")


def adder_carry(n_bits: int) -> BooleanFunction:
    """Carry-out of an ``n_bits + n_bits`` ripple adder.

    Inputs are ``a0..a(n-1), b0..b(n-1)`` (interleaved a, then b); the
    single output is the final carry — a deep, reconvergent function
    that stresses partitioning.
    """
    if n_bits < 1:
        raise ValueError("need at least one bit")
    n_inputs = 2 * n_bits
    table = []
    for m in range(1 << n_inputs):
        a = m & ((1 << n_bits) - 1)
        b = m >> n_bits
        table.append(1 if a + b >= (1 << n_bits) else 0)
    return BooleanFunction.from_truth_table(table, n_inputs,
                                            name=f"cout{n_bits}")


def random_sop(n_inputs: int, n_outputs: int, n_cubes: int, seed: int,
               dash_probability: float = 0.4) -> BooleanFunction:
    """Seeded random SOP (thin wrapper kept for discoverability)."""
    return BooleanFunction.random(n_inputs, n_outputs, n_cubes, seed,
                                  name=f"rnd{n_inputs}x{n_outputs}",
                                  dash_probability=dash_probability)
