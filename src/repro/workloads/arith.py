"""Arithmetic cell generators: adders, comparators, popcount.

Each generator emits a *multi-output* two-level cover for any bit
width, built structurally — never by truth-table enumeration — so a
16-input cell costs milliseconds to generate even though its minterm
space has 65536 points.

The construction tracks every internal signal in **dual-rail SOP**
form: a :class:`Sig` carries both the ON-set and the OFF-set of the
signal as lists of positional-notation input masks (the same two-bits-
per-variable encoding :mod:`repro.logic.cube` uses).  Gate algebra is
then pure cube algebra —

* ``AND``: ON = pairwise intersection of the operand ON-sets,
  OFF = union of the operand OFF-sets;
* ``OR``: the dual;
* ``NOT``: swap the rails;

— with a single-cube-containment sweep after every union to keep the
lists irredundant.  Because both rails are maintained exactly, the
generator knows each output's *structural complement* for free; the
emitted :class:`~repro.logic.function.BooleanFunction` gets it
pre-seeded, so downstream minimization skips the (potentially
expensive) unate-recursive complement of a many-cube ON-set.

Every generator has a matching integer-arithmetic **oracle**
(:func:`adder_oracle`, :func:`comparator_oracle`, :func:`popcount_oracle`)
mapping an input minterm to the expected output bitmask; the
differential tests and ``repro workload eval`` verify the covers
bit-identically against these across widths and kernel backends.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.logic.cover import Cover
from repro.logic.cube import BIT_ONE, BIT_ZERO, Cube, full_input_mask
from repro.logic.function import BooleanFunction


# ----------------------------------------------------------------------
# dual-rail SOP signals
# ----------------------------------------------------------------------
def _mask_contains(a: int, b: int) -> bool:
    """True when input mask ``a`` covers input mask ``b``."""
    return (a | b) == a


def _sweep(masks: Sequence[int]) -> Tuple[int, ...]:
    """Drop masks covered by another mask of the list (deterministic).

    Sorting by descending dash count first makes the sweep order — and
    therefore the surviving list — a pure function of the set.
    """
    ordered = sorted(set(masks), key=lambda m: (-bin(m).count("1"), m))
    kept: List[int] = []
    for mask in ordered:
        if not any(_mask_contains(other, mask) for other in kept):
            kept.append(mask)
    return tuple(sorted(kept))


def _intersect(a: int, b: int, n: int) -> int:
    """AND of two input masks; 0 when the product is empty."""
    masked = a & b
    probe = masked
    for _ in range(n):
        if probe & 0b11 == 0:
            return 0
        probe >>= 2
    return masked


class Sig:
    """A Boolean signal over ``n`` inputs in dual-rail SOP form.

    ``on`` and ``off`` are tuples of positional-notation input masks
    whose unions are exact complements: every minterm lies in exactly
    one rail.  All gate algebra returns new signals.
    """

    __slots__ = ("n", "on", "off")

    def __init__(self, n: int, on: Sequence[int], off: Sequence[int]):
        self.n = n
        self.on = _sweep(on)
        self.off = _sweep(off)

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, n: int, value: bool) -> "Sig":
        full = full_input_mask(n)
        return cls(n, (full,), ()) if value else cls(n, (), (full,))

    @classmethod
    def var(cls, n: int, index: int) -> "Sig":
        full = full_input_mask(n)
        hi = (full & ~(0b11 << (2 * index))) | (BIT_ONE << (2 * index))
        lo = (full & ~(0b11 << (2 * index))) | (BIT_ZERO << (2 * index))
        return cls(n, (hi,), (lo,))

    # -- gate algebra --------------------------------------------------
    def __invert__(self) -> "Sig":
        return Sig(self.n, self.off, self.on)

    def __and__(self, other: "Sig") -> "Sig":
        on = [m for a in self.on for b in other.on
              if (m := _intersect(a, b, self.n))]
        return Sig(self.n, on, self.off + other.off)

    def __or__(self, other: "Sig") -> "Sig":
        off = [m for a in self.off for b in other.off
               if (m := _intersect(a, b, self.n))]
        return Sig(self.n, self.on + other.on, off)

    def __xor__(self, other: "Sig") -> "Sig":
        return (self & ~other) | (~self & other)

    def is_const(self) -> bool:
        return not self.on or not self.off


def majority(a: Sig, b: Sig, c: Sig) -> Sig:
    """Three-input majority (the full-adder carry)."""
    return (a & b) | (a & c) | (b & c)


def xor3(a: Sig, b: Sig, c: Sig) -> Sig:
    """Three-input parity (the full-adder sum)."""
    return (a ^ b) ^ c


def signals_to_function(signals: Sequence[Sig], n_inputs: int,
                        name: str,
                        input_labels: Sequence[str],
                        output_labels: Sequence[str]) -> BooleanFunction:
    """Fold per-output dual-rail signals into one multi-output function.

    Rows asserting several outputs are merged
    (:meth:`~repro.logic.cover.Cover.merge_identical_inputs`), and the
    OFF rails seed the function's structural complement.
    """
    m = len(signals)
    on = Cover(n_inputs, m)
    off = Cover(n_inputs, m)
    for k, sig in enumerate(signals):
        for mask in sig.on:
            on.append(Cube(n_inputs, mask, 1 << k, m))
        for mask in sig.off:
            off.append(Cube(n_inputs, mask, 1 << k, m))
    function = BooleanFunction(on.merge_identical_inputs(), name=name,
                               input_labels=input_labels,
                               output_labels=output_labels)
    # The rails are exact complements by construction, so hand the
    # lazily-computed OFF-set over instead of letting BooleanFunction
    # re-derive it with the unate-recursive complement.
    function._off_set = off.merge_identical_inputs()
    return function


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def adder_function(width: int, carry_in: bool = False) -> BooleanFunction:
    """A ripple/carry ``width``-bit adder as a multi-output cover.

    Inputs: ``a0..a{w-1}`` at indices ``0..w-1``, ``b0..b{w-1}`` at
    ``w..2w-1`` and, with ``carry_in``, ``cin`` at ``2w``.  Outputs:
    ``s0..s{w-1}`` then ``cout``.
    """
    if width < 1:
        raise ValueError("adder width must be >= 1")
    n = 2 * width + (1 if carry_in else 0)
    carry = Sig.var(n, 2 * width) if carry_in else Sig.const(n, False)
    outputs = []
    for i in range(width):
        a = Sig.var(n, i)
        b = Sig.var(n, width + i)
        outputs.append(xor3(a, b, carry))
        carry = majority(a, b, carry)
    outputs.append(carry)
    labels = ([f"a{i}" for i in range(width)]
              + [f"b{i}" for i in range(width)]
              + (["cin"] if carry_in else []))
    out_labels = [f"s{i}" for i in range(width)] + ["cout"]
    name = f"workload:{'addc' if carry_in else 'add'}{width}"
    return signals_to_function(outputs, n, name, labels, out_labels)


def adder_oracle(width: int, minterm: int,
                 carry_in: bool = False) -> int:
    """Expected output bitmask of the adder on an input minterm."""
    a = minterm & ((1 << width) - 1)
    b = (minterm >> width) & ((1 << width) - 1)
    cin = (minterm >> (2 * width)) & 1 if carry_in else 0
    return a + b + cin  # bits 0..w-1 are the sum, bit w the carry


#: Comparator output order: bit 0 = lt, bit 1 = eq, bit 2 = gt.
COMPARATOR_OUTPUTS = ("lt", "eq", "gt")


def comparator_function(width: int,
                        outputs: Sequence[str] = COMPARATOR_OUTPUTS
                        ) -> BooleanFunction:
    """An unsigned magnitude comparator (``a`` vs ``b``).

    ``outputs`` selects any subset of ``lt`` / ``eq`` / ``gt`` (in the
    given order); single-relation cells (``gt8``) stay much smaller
    than the three-output form.  Input layout matches the adder:
    ``a`` at ``0..w-1``, ``b`` at ``w..2w-1``.
    """
    if width < 1:
        raise ValueError("comparator width must be >= 1")
    for label in outputs:
        if label not in COMPARATOR_OUTPUTS:
            raise ValueError(f"unknown comparator output {label!r}")
    if not outputs:
        raise ValueError("need at least one comparator output")
    n = 2 * width
    lt = Sig.const(n, False)
    gt = Sig.const(n, False)
    eq = Sig.const(n, True)
    # walk from the most significant bit down
    for i in reversed(range(width)):
        a = Sig.var(n, i)
        b = Sig.var(n, width + i)
        gt = gt | (eq & a & ~b)
        lt = lt | (eq & ~a & b)
        eq = eq & ~(a ^ b)
    rails = {"lt": lt, "eq": eq, "gt": gt}
    labels = [f"a{i}" for i in range(width)] + \
             [f"b{i}" for i in range(width)]
    tag = "cmp" if tuple(outputs) == COMPARATOR_OUTPUTS else \
        "".join(outputs)
    return signals_to_function([rails[o] for o in outputs], n,
                               f"workload:{tag}{width}", labels,
                               list(outputs))


def comparator_oracle(width: int, minterm: int,
                      outputs: Sequence[str] = COMPARATOR_OUTPUTS) -> int:
    """Expected comparator output bitmask on an input minterm."""
    a = minterm & ((1 << width) - 1)
    b = (minterm >> width) & ((1 << width) - 1)
    flags = {"lt": a < b, "eq": a == b, "gt": a > b}
    mask = 0
    for k, label in enumerate(outputs):
        if flags[label]:
            mask |= 1 << k
    return mask


def popcount_function(width: int) -> BooleanFunction:
    """A ``width``-input population-count cell.

    Outputs the binary count of asserted inputs on
    ``ceil(log2(width + 1))`` outputs, built as a ripple of dual-rail
    half/full adders over the input column.
    """
    if width < 1:
        raise ValueError("popcount width must be >= 1")
    n = width
    # accumulate the count in binary, LSB first
    acc: List[Sig] = []
    for i in range(width):
        carry = Sig.var(n, i)
        for k in range(len(acc)):
            acc[k], carry = acc[k] ^ carry, acc[k] & carry
        if not carry.is_const() or carry.on:
            acc.append(carry)
    # drop constant-0 high bits that never materialized
    while acc and not acc[-1].on:
        acc.pop()
    labels = [f"x{i}" for i in range(width)]
    out_labels = [f"c{k}" for k in range(len(acc))]
    return signals_to_function(acc, n, f"workload:pop{width}", labels,
                               out_labels)


def popcount_oracle(width: int, minterm: int) -> int:
    """Expected popcount output bitmask on an input minterm."""
    return bin(minterm & ((1 << width) - 1)).count("1")


#: Oracle registry used by ``repro workload eval`` and the tests:
#: name -> (n_inputs of ``f(width)``, oracle callable).
ORACLES: Dict[str, Callable[[int, int], int]] = {
    "add": lambda width, m: adder_oracle(width, m),
    "addc": lambda width, m: adder_oracle(width, m, carry_in=True),
    "cmp": lambda width, m: comparator_oracle(width, m),
    "lt": lambda width, m: comparator_oracle(width, m, ("lt",)),
    "eq": lambda width, m: comparator_oracle(width, m, ("eq",)),
    "gt": lambda width, m: comparator_oracle(width, m, ("gt",)),
    "pop": lambda width, m: popcount_oracle(width, m),
}


__all__ = ["COMPARATOR_OUTPUTS", "ORACLES", "Sig", "adder_function",
           "adder_oracle", "comparator_function", "comparator_oracle",
           "majority", "popcount_function", "popcount_oracle",
           "signals_to_function", "xor3"]
