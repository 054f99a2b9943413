"""Bit-sliced NumPy evaluation kernels.

Truth-table-sized computations dominate the library's runtime: cover
equivalence, exhaustive simulation, PLA response enumeration, ATPG
fault dropping and prime/minterm expansion all walk ``range(1 << n)``
one minterm at a time in pure Python.  This module replaces those walks
with *bit-sliced* array operations: 64 input vectors are processed per
machine word, and NumPy broadcasts the per-cube literal tests across
all cubes at once.

Representation
--------------
A cube accepts an input vector iff no variable *blocks* it.  For each
cube ``j`` and variable ``i`` we precompute two uint64 masks

* ``block0[j, i]`` — all-ones when value 0 of variable ``i`` is **not**
  allowed (the positional field lacks ``BIT_ZERO``),
* ``block1[j, i]`` — all-ones when value 1 is not allowed,

so with ``x_i`` a word holding the value of variable ``i`` for 64
vectors (bit ``t`` = vector ``t``), the rejected vectors of cube ``j``
accumulate as ``(x_i & block1) | (~x_i & block0)`` and the accepted
ones are the complement.  A cube with an empty field (``00``) blocks
everything — matching the scalar semantics where an empty cube asserts
nothing.

For *exhaustive* enumeration the variable words need never be packed:
variable ``i < 6`` is a constant pattern inside every word (0xAAAA…,
0xCCCC…, …) and variable ``i >= 6`` is constant *per* word (all-ones
when bit ``i - 6`` of the word index is set).  Arbitrary (sampled)
minterm batches are packed once with vectorized shifts.

Everything here is deliberately free of imports from ``repro.logic``
beyond the positional-notation bit constants, so the logic layer can
depend on the kernels without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.logic.cube import BIT_ONE, BIT_ZERO

#: Bits per machine word of the bit-sliced representation.
WORD = 64

#: Words per chunk of an exhaustive sweep (2**18 minterms); bounds peak
#: memory and gives early exits a fast path out.
CHUNK_WORDS = 4096

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Within-word value patterns of variables 0..5: bit ``t`` of pattern
#: ``i`` is ``(t >> i) & 1``.
_LOW_PATTERNS = np.array(
    [0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
     0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000],
    dtype=np.uint64)


class KernelUnsupported(Exception):
    """Raised when an instance falls outside the kernel's envelope."""


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
@dataclass
class PackedCover:
    """A cover packed into per-cube uint64 literal masks.

    Attributes
    ----------
    n_inputs, n_outputs:
        Cover dimensions (``n_outputs <= 64``).
    block0, block1:
        ``(n_cubes, n_inputs)`` uint64 — all-ones where value 0 / 1 of
        the variable is *rejected* by the cube.
    outputs:
        ``(n_cubes,)`` uint64 output bitmasks.
    """

    n_inputs: int
    n_outputs: int
    block0: np.ndarray
    block1: np.ndarray
    outputs: np.ndarray

    @property
    def n_cubes(self) -> int:
        return self.block0.shape[0]


def _build_packed(n_inputs: int, n_outputs: int,
                  cubes: Sequence) -> PackedCover:
    if n_outputs > WORD:
        raise KernelUnsupported(
            f"{n_outputs} outputs exceeds the {WORD}-bit output word")
    c = len(cubes)
    block0 = np.zeros((c, n_inputs), dtype=np.uint64)
    block1 = np.zeros((c, n_inputs), dtype=np.uint64)
    outputs = np.zeros(c, dtype=np.uint64)
    for j, cube in enumerate(cubes):
        inputs = cube.inputs
        for i in range(n_inputs):
            field = inputs & 0b11
            if not field & BIT_ZERO:
                block0[j, i] = _ALL_ONES
            if not field & BIT_ONE:
                block1[j, i] = _ALL_ONES
            inputs >>= 2
        outputs[j] = cube.outputs
    return PackedCover(n_inputs, n_outputs, block0, block1, outputs)


def pack_cover(cover) -> PackedCover:
    """Pack (and cache) a :class:`~repro.logic.cover.Cover`.

    The pack is cached on the cover and invalidated through the cover's
    mutation version counter (bumped by ``Cover.append``), so repeated
    kernel calls on the same cover pay the packing cost once.
    """
    version = getattr(cover, "_version", None)
    if version is not None and getattr(cover, "_pack_version", -1) == version:
        pack = getattr(cover, "_pack", None)
        if pack is not None:
            return pack
    pack = _build_packed(cover.n_inputs, cover.n_outputs, cover.cubes)
    if version is not None:
        try:
            cover._pack = pack
            cover._pack_version = version
        except AttributeError:  # duck-typed cover without cache slots
            pass
    return pack


# ----------------------------------------------------------------------
# input slices
# ----------------------------------------------------------------------
def exhaustive_slices(n_inputs: int, word_lo: int, word_hi: int) -> np.ndarray:
    """Variable words for minterms ``[64*word_lo, 64*word_hi)``.

    Returns shape ``(n_inputs, word_hi - word_lo)``; bit ``t`` of word
    ``w`` of row ``i`` is ``((64*(word_lo+w) + t) >> i) & 1``.
    """
    n_words = word_hi - word_lo
    x = np.empty((max(n_inputs, 1), n_words), dtype=np.uint64)
    words = np.arange(word_lo, word_hi, dtype=np.uint64)
    for i in range(n_inputs):
        if i < 6:
            x[i] = _LOW_PATTERNS[i]
        else:
            high = ((words >> np.uint64(i - 6)) & np.uint64(1)).astype(bool)
            x[i] = np.where(high, _ALL_ONES, np.uint64(0))
    return x[:n_inputs]


def pack_minterms(minterms: Sequence[int], n_inputs: int) -> np.ndarray:
    """Bit-slice an arbitrary minterm batch into variable words.

    Returns shape ``(n_inputs, ceil(len(minterms)/64))``; bit ``t`` of
    word ``w`` of row ``i`` is bit ``i`` of ``minterms[64*w + t]``.
    """
    ms = np.asarray(list(minterms), dtype=np.uint64)
    n_vectors = ms.size
    n_words = max(1, -(-n_vectors // WORD))
    if n_inputs == 0:
        return np.zeros((0, n_words), dtype=np.uint64)
    shifts = np.arange(n_inputs, dtype=np.uint64)[:, None]
    bits = (ms[None, :] >> shifts) & np.uint64(1)          # (n, N)
    padded = np.zeros((n_inputs, n_words * WORD), dtype=np.uint64)
    padded[:, :n_vectors] = bits
    weights = np.uint64(1) << np.arange(WORD, dtype=np.uint64)
    return (padded.reshape(n_inputs, n_words, WORD) * weights).sum(
        axis=2, dtype=np.uint64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """The first ``n_bits`` bits of a word array, as a uint64 0/1 array."""
    shifts = np.arange(WORD, dtype=np.uint64)
    bits = (words[:, None] >> shifts) & np.uint64(1)
    return bits.reshape(-1)[:n_bits]


# ----------------------------------------------------------------------
# cover evaluation
# ----------------------------------------------------------------------
def cube_accepts(pack: PackedCover, x: np.ndarray) -> np.ndarray:
    """Acceptance words of every cube: shape ``(n_cubes, n_words)``.

    Bit ``t`` of ``result[j, w]`` is 1 iff cube ``j``'s input part
    contains vector ``64*w + t`` of the slice ``x``.
    """
    n_words = x.shape[1] if x.ndim == 2 else 1
    reject = np.zeros((pack.n_cubes, n_words), dtype=np.uint64)
    for i in range(pack.n_inputs):
        xi = x[i]
        reject |= (xi & pack.block1[:, i, None]) | \
                  (~xi & pack.block0[:, i, None])
    return ~reject


def output_words(pack: PackedCover, accept: np.ndarray) -> np.ndarray:
    """Per-output asserted words: shape ``(n_outputs, n_words)``.

    Output ``k``'s word is the OR of the acceptance words of every cube
    asserting output ``k`` — exactly ``Cover.output_mask_for`` lifted to
    64 minterms per word.
    """
    n_words = accept.shape[1]
    out = np.zeros((pack.n_outputs, n_words), dtype=np.uint64)
    for k in range(pack.n_outputs):
        sel = ((pack.outputs >> np.uint64(k)) & np.uint64(1)).astype(bool)
        if sel.any():
            out[k] = np.bitwise_or.reduce(accept[sel], axis=0)
    return out


def _masks_from_output_words(out: np.ndarray, n_vectors: int) -> np.ndarray:
    """Collapse per-output words into per-vector output bitmasks."""
    masks = np.zeros(n_vectors, dtype=np.uint64)
    for k in range(out.shape[0]):
        masks |= unpack_bits(out[k], n_vectors) << np.uint64(k)
    return masks


def eval_minterms(cover, minterms: Sequence[int]) -> np.ndarray:
    """Output bitmask per minterm of an arbitrary batch (uint64 array)."""
    pack = pack_cover(cover)
    minterms = list(minterms)
    x = pack_minterms(minterms, pack.n_inputs)
    out = output_words(pack, cube_accepts(pack, x))
    return _masks_from_output_words(out, len(minterms))


def cover_truth_table(cover) -> List[int]:
    """Exhaustive truth table, identical to ``Cover.truth_table()``."""
    pack = pack_cover(cover)
    n = pack.n_inputs
    total = 1 << n
    n_words = max(1, -(-total // WORD))
    masks = np.empty(total, dtype=np.uint64)
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(n, lo, hi)
        out = output_words(pack, cube_accepts(pack, x))
        chunk_bits = min(total - lo * WORD, (hi - lo) * WORD)
        masks[lo * WORD:lo * WORD + chunk_bits] = \
            _masks_from_output_words(out, chunk_bits)
    return [int(m) for m in masks]


def true_minterms(cover, output: int = 0) -> np.ndarray:
    """Sorted minterm indices where ``output`` is asserted (exhaustive)."""
    pack = pack_cover(cover)
    n = pack.n_inputs
    total = 1 << n
    n_words = max(1, -(-total // WORD))
    found: List[np.ndarray] = []
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(n, lo, hi)
        out = output_words(pack, cube_accepts(pack, x))[output]
        chunk_bits = min(total - lo * WORD, (hi - lo) * WORD)
        bits = unpack_bits(out, chunk_bits)
        found.append(np.flatnonzero(bits) + lo * WORD)
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------
def exhaustive_difference(a, b, dc=None) -> Optional[Tuple[int, int, int]]:
    """First ``(minterm, mask_a, mask_b)`` where the covers differ.

    Walks the whole 2**n space chunk by chunk with early exit; the
    returned triple matches the scalar loop exactly (lowest differing
    minterm first).  ``None`` means equivalent modulo the DC-set.
    """
    pack_a = pack_cover(a)
    pack_b = pack_cover(b)
    pack_dc = pack_cover(dc) if dc is not None else None
    n = pack_a.n_inputs
    total = 1 << n
    n_words = max(1, -(-total // WORD))
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(n, lo, hi)
        out_a = output_words(pack_a, cube_accepts(pack_a, x))
        out_b = output_words(pack_b, cube_accepts(pack_b, x))
        diff = out_a ^ out_b
        if pack_dc is not None:
            dc_out = output_words(pack_dc, cube_accepts(pack_dc, x))
            diff &= ~dc_out
        combined = np.bitwise_or.reduce(diff, axis=0) if diff.shape[0] \
            else np.zeros(hi - lo, dtype=np.uint64)
        if hi == n_words and total % WORD:
            tail = np.uint64((1 << (total % WORD)) - 1)
            combined[-1] &= tail
        nonzero = np.flatnonzero(combined)
        if nonzero.size:
            w = int(nonzero[0])
            word = int(combined[w])
            bit = (word & -word).bit_length() - 1
            minterm = (lo + w) * WORD + bit
            mask_a = mask_b = 0
            for k in range(out_a.shape[0]):
                mask_a |= ((int(out_a[k, w]) >> bit) & 1) << k
                mask_b |= ((int(out_b[k, w]) >> bit) & 1) << k
            return (minterm, mask_a, mask_b)
    return None


def sampled_difference(a, b, minterms: Sequence[int],
                       dc=None) -> Optional[Tuple[int, int, int]]:
    """First difference over an explicit minterm batch (scalar-ordered)."""
    minterms = list(minterms)
    if not minterms:
        return None
    masks_a = eval_minterms(a, minterms)
    masks_b = eval_minterms(b, minterms)
    diff = masks_a ^ masks_b
    if dc is not None:
        diff &= ~eval_minterms(dc, minterms)
    nonzero = np.flatnonzero(diff)
    if nonzero.size:
        t = int(nonzero[0])
        return (minterms[t], int(masks_a[t]), int(masks_b[t]))
    return None


def cover_is_tautology(cover) -> bool:
    """Exhaustive tautology: every output asserted on every minterm."""
    pack = pack_cover(cover)
    n = pack.n_inputs
    total = 1 << n
    n_words = max(1, -(-total // WORD))
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(n, lo, hi)
        out = output_words(pack, cube_accepts(pack, x))
        holes = ~out
        if hi == n_words and total % WORD:
            tail = np.uint64((1 << (total % WORD)) - 1)
            holes[:, -1] &= tail
        if holes.any():
            return False
    return True


def prime_cover_matrix(prime_cover, minterms: Sequence[int]) -> np.ndarray:
    """Boolean ``(n_primes, n_minterms)`` containment matrix.

    Entry ``[j, t]`` is True when prime cube ``j``'s input part contains
    ``minterms[t]`` — the covering table of exact minimization as one
    array op instead of a double Python loop.
    """
    pack = pack_cover(prime_cover)
    minterms = list(minterms)
    x = pack_minterms(minterms, pack.n_inputs)
    accept = cube_accepts(pack, x)
    shifts = np.arange(WORD, dtype=np.uint64)
    bits = (accept[:, :, None] >> shifts) & np.uint64(1)
    return bits.reshape(pack.n_cubes, -1)[:, :len(minterms)].astype(bool)


# ----------------------------------------------------------------------
# NOR-plane (GNOR / classical) evaluation
# ----------------------------------------------------------------------
def nor_pull_words(pass_mask: np.ndarray, invert_mask: np.ndarray,
                   signals: np.ndarray) -> np.ndarray:
    """Pull-down words of a bank of NOR gates.

    ``pass_mask`` / ``invert_mask`` are ``(n_gates, n_signals)`` uint64
    0-or-all-ones device masks; ``signals`` is ``(n_signals, n_words)``.
    A PASS device conducts when its signal is high, an INVERT device
    when it is low; bit ``t`` of ``result[g, w]`` is 1 iff any device of
    gate ``g`` conducts on vector ``64*w + t``.
    """
    n_gates = pass_mask.shape[0]
    n_words = signals.shape[1] if signals.ndim == 2 else 1
    pulled = np.zeros((n_gates, n_words), dtype=np.uint64)
    for s in range(pass_mask.shape[1]):
        sig = signals[s]
        pulled |= (sig & pass_mask[:, s, None]) | \
                  (~sig & invert_mask[:, s, None])
    return pulled


def _selection_masks(plane, is_pass, is_invert) -> Tuple[np.ndarray, np.ndarray]:
    """Device masks of a config plane via caller-provided predicates."""
    rows = len(plane)
    cols = len(plane[0]) if rows else 0
    pass_mask = np.zeros((rows, cols), dtype=np.uint64)
    invert_mask = np.zeros((rows, cols), dtype=np.uint64)
    for r, row in enumerate(plane):
        for c, device in enumerate(row):
            if is_pass(device):
                pass_mask[r, c] = _ALL_ONES
            elif is_invert(device):
                invert_mask[r, c] = _ALL_ONES
    return pass_mask, invert_mask


@dataclass
class PackedConfig:
    """A GNOR plane configuration packed into device masks."""

    n_inputs: int
    n_outputs: int
    n_products: int
    and_pass: np.ndarray     # (P, I)
    and_invert: np.ndarray   # (P, I)
    or_pass: np.ndarray      # (O, P)
    or_invert: np.ndarray    # (O, P)
    inverted: np.ndarray     # (O,) bool


def pack_config(config) -> PackedConfig:
    """Pack a :class:`~repro.mapping.gnor_map.GNORPlaneConfig`."""
    from repro.core.gnor import InputConfig

    def is_pass(d):
        return d is InputConfig.PASS

    def is_invert(d):
        return d is InputConfig.INVERT

    and_pass, and_invert = _selection_masks(config.and_plane,
                                            is_pass, is_invert)
    or_pass, or_invert = _selection_masks(config.or_plane,
                                          is_pass, is_invert)
    if and_pass.size == 0:
        and_pass = and_pass.reshape(config.n_products, config.n_inputs)
        and_invert = and_invert.reshape(config.n_products, config.n_inputs)
    if or_pass.size == 0:
        or_pass = or_pass.reshape(config.n_outputs, config.n_products)
        or_invert = or_invert.reshape(config.n_outputs, config.n_products)
    return PackedConfig(config.n_inputs, config.n_outputs, config.n_products,
                        and_pass, and_invert, or_pass, or_invert,
                        np.asarray(config.output_inverted, dtype=bool))


def config_product_words(pc: PackedConfig, x: np.ndarray) -> np.ndarray:
    """AND-plane row words (1 = product term holds) for an input slice."""
    pulled = nor_pull_words(pc.and_pass, pc.and_invert, x)
    return ~pulled


def config_output_words(pc: PackedConfig, rows: np.ndarray) -> np.ndarray:
    """OR-plane output words from product-row words (buffers applied)."""
    pulled = nor_pull_words(pc.or_pass, pc.or_invert, rows)
    out = np.empty_like(pulled)
    for k in range(pc.n_outputs):
        out[k] = pulled[k] if pc.inverted[k] else ~pulled[k]
    return out


def config_eval_words(pc: PackedConfig, x: np.ndarray) -> np.ndarray:
    """Two-plane evaluation: per-output words for an input slice."""
    return config_output_words(pc, config_product_words(pc, x))


def config_truth_table(config) -> List[int]:
    """Exhaustive output-bitmask table of a GNOR configuration."""
    pc = pack_config(config)
    total = 1 << pc.n_inputs
    n_words = max(1, -(-total // WORD))
    masks = np.empty(total, dtype=np.uint64)
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(pc.n_inputs, lo, hi)
        out = config_eval_words(pc, x)
        chunk_bits = min(total - lo * WORD, (hi - lo) * WORD)
        masks[lo * WORD:lo * WORD + chunk_bits] = \
            _masks_from_output_words(out, chunk_bits)
    return [int(m) for m in masks]


def nor_gate_truth_table(pass_sel: Sequence[bool], invert_sel: Sequence[bool],
                         n_inputs: int) -> List[int]:
    """Exhaustive 0/1 table of a single GNOR gate.

    ``pass_sel[i]`` / ``invert_sel[i]`` select how input ``i`` enters
    the NOR (both False = dropped).
    """
    pass_mask = np.where(np.asarray(pass_sel, dtype=bool),
                         _ALL_ONES, np.uint64(0))[None, :]
    invert_mask = np.where(np.asarray(invert_sel, dtype=bool),
                           _ALL_ONES, np.uint64(0))[None, :]
    total = 1 << n_inputs
    n_words = max(1, -(-total // WORD))
    x = exhaustive_slices(n_inputs, 0, n_words)
    out = ~nor_pull_words(pass_mask, invert_mask, x)
    return [int(b) for b in unpack_bits(out[0], total)]


def classical_truth_table(and_plane: Sequence[Sequence[bool]],
                          or_plane: Sequence[Sequence[bool]],
                          n_inputs: int) -> List[int]:
    """Exhaustive table of a classical dual-column NOR-NOR PLA.

    ``and_plane[r][c]`` connects product row ``r`` to physical column
    ``c`` (even = true literal column, odd = complemented); the fixed
    output inverter after the OR plane makes output ``k`` the OR of its
    connected product rows.
    """
    n_products = len(and_plane)
    n_outputs = len(or_plane)
    n_cols = 2 * n_inputs
    and_pass = np.zeros((n_products, n_cols), dtype=np.uint64)
    for r, row in enumerate(and_plane):
        for c, connected in enumerate(row):
            if connected:
                and_pass[r, c] = _ALL_ONES
    or_pass = np.zeros((n_outputs, n_products), dtype=np.uint64)
    for k, row in enumerate(or_plane):
        for r, connected in enumerate(row):
            if connected:
                or_pass[k, r] = _ALL_ONES
    no_invert_and = np.zeros_like(and_pass)
    no_invert_or = np.zeros_like(or_pass)

    total = 1 << n_inputs
    n_words = max(1, -(-total // WORD))
    masks = np.empty(total, dtype=np.uint64)
    for lo in range(0, n_words, CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, n_words)
        x = exhaustive_slices(n_inputs, lo, hi)
        # physical columns: x0, ~x0, x1, ~x1, ...
        cols = np.empty((n_cols, hi - lo), dtype=np.uint64)
        for i in range(n_inputs):
            cols[2 * i] = x[i]
            cols[2 * i + 1] = ~x[i]
        rows = ~nor_pull_words(and_pass, no_invert_and, cols)
        # out_k = 1 - NOR(connected rows) = OR(connected rows)
        out = nor_pull_words(or_pass, no_invert_or, rows)
        chunk_bits = min(total - lo * WORD, (hi - lo) * WORD)
        masks[lo * WORD:lo * WORD + chunk_bits] = \
            _masks_from_output_words(out, chunk_bits)
    return [int(m) for m in masks]


# ----------------------------------------------------------------------
# single-stuck fault simulation
# ----------------------------------------------------------------------
def detection_words(config, faults, vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Per-fault detection words over a vector pool.

    Bit ``t`` of ``result[f, w]`` is 1 iff fault ``faults[f]`` changes
    at least one output on vector ``64*w + t``.  Faults are the objects
    of :func:`repro.testgen.faults.enumerate_faults`; only the affected
    row / output column is re-evaluated per fault.
    """
    from repro.testgen.faults import FaultSite

    pc = pack_config(config)
    minterms = [sum(bit << i for i, bit in enumerate(v)) for v in vectors]
    x = pack_minterms(minterms, pc.n_inputs)
    n_words = x.shape[1]

    rows = config_product_words(pc, x)                      # (P, W)
    healthy_pulled = nor_pull_words(pc.or_pass, pc.or_invert, rows)

    def or_pulled_without(k: int, skip_row: int) -> np.ndarray:
        """OR-plane pull of output ``k`` excluding product ``skip_row``."""
        pulled = np.zeros(n_words, dtype=np.uint64)
        for r in range(pc.n_products):
            if r == skip_row:
                continue
            pulled |= (rows[r] & pc.or_pass[k, r]) | \
                      (~rows[r] & pc.or_invert[k, r])
        return pulled

    def and_row_without(r: int, skip_col: int) -> np.ndarray:
        """Row ``r`` word with input column ``skip_col`` disconnected."""
        pulled = np.zeros(n_words, dtype=np.uint64)
        for i in range(pc.n_inputs):
            if i == skip_col:
                continue
            pulled |= (x[i] & pc.and_pass[r, i]) | \
                      (~x[i] & pc.and_invert[r, i])
        return ~pulled

    detection = np.zeros((len(faults), n_words), dtype=np.uint64)
    for fi, fault in enumerate(faults):
        if fault.site is FaultSite.AND:
            r = fault.row
            if fault.stuck_on:
                new_row = np.zeros(n_words, dtype=np.uint64)  # pinned low
            else:
                new_row = and_row_without(r, fault.column)
            diff = np.zeros(n_words, dtype=np.uint64)
            for k in range(pc.n_outputs):
                if not (pc.or_pass[k, r] or pc.or_invert[k, r]):
                    continue  # output does not tap the faulty row
                pulled = or_pulled_without(k, r) | \
                    ((new_row & pc.or_pass[k, r]) |
                     (~new_row & pc.or_invert[k, r]))
                # output buffers cancel in the XOR: compare pulls directly
                diff |= pulled ^ healthy_pulled[k]
            detection[fi] = diff
        else:
            k, r = fault.column, fault.row
            if fault.stuck_on:
                pulled = np.full(n_words, _ALL_ONES, dtype=np.uint64)
            else:
                pulled = or_pulled_without(k, r)
            detection[fi] = pulled ^ healthy_pulled[k]
    return detection


def detection_sets(config, faults,
                   vectors: Sequence[Sequence[int]]) -> dict:
    """``{vector_index: set(fault_indices)}`` — the ATPG drop table.

    Matches the scalar double loop bit for bit, including insertion
    order (ascending vector index), so greedy compaction picks the same
    tests.
    """
    words = detection_words(config, faults, vectors)
    n_vectors = len(vectors)
    shifts = np.arange(WORD, dtype=np.uint64)
    bits = ((words[:, :, None] >> shifts) & np.uint64(1))
    bits = bits.reshape(len(faults), -1)[:, :n_vectors].astype(bool)
    detection = {}
    for vi in range(n_vectors):
        caught = np.flatnonzero(bits[:, vi])
        if caught.size:
            detection[vi] = {int(fi) for fi in caught}
    return detection
