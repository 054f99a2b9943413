"""Batched evaluation arenas.

:mod:`repro.kernels.bitslice` made *one* function fast; every hot
caller still round-trips one Python ``Cover``/``PackedConfig`` object
per evaluation.  The Monte Carlo yield engine is the worst offender: a
chunk of 100 defect trials re-packs the same configuration 100+ times
(``pack_config`` is a Python ``P x I`` double loop) and then issues
hundreds of tiny NumPy calls, so the per-call overhead dominates the
actual bit arithmetic.

This module changes the *batch shape*: N covers (or N NOR-plane
configurations) are packed once into a CSR-style **arena** — one
contiguous uint64 matrix per field, rows of all members concatenated,
with a per-member offset table — and all ``(member_i, input_block_j)``
pairs are evaluated in a single vectorized pass.  Per-member results
fall out of a segmented OR (``np.bitwise_or.reduceat`` over the offset
table) instead of a Python loop over members.

Arena layout (CSR analogy: members are rows, cubes/products are the
nonzeros)::

    CoverArena                          ConfigArena
    ----------                          -----------
    block0  (total_cubes, max_inputs)   and_pass    (total_products, max_inputs)
    block1  (total_cubes, max_inputs)   and_invert  (total_products, max_inputs)
    outputs (total_cubes,)              or_pass_bits   (total_products,)
    offsets (n_members + 1,)            or_invert_bits (total_products,)
    n_inputs / n_outputs (n_members,)   inverted    (n_members,)
                                        offsets     (n_members + 1,)

Members narrower than ``max_inputs`` are padded with zero masks: a
zero ``block0``/``block1`` column never rejects a vector and a zero
device mask never conducts, so padding is behaviourally invisible and
results stay bit-identical to the per-member kernels (the differential
tests assert it).  The OR plane of a ``ConfigArena`` is stored
*transposed* relative to ``PackedConfig``: bit ``k`` of
``or_pass_bits[p]`` says product row ``p`` feeds output ``k`` as a
PASS device — one uint64 per product instead of an ``(O, P)`` matrix,
which is what lets trial-specific defect patches touch single words.

Arenas live and are evaluated in the process that packed them; code
that fans work out over processes ships whole tasks (a yield chunk, a
suite row), never an arena.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.kernels import bitslice as bs

_ALL_ONES = bs._ALL_ONES
_ONE = np.uint64(1)

#: Element budget of one evaluation chunk (rows x words); bounds peak
#: memory of the widest intermediate, ``(total_rows, chunk_words)``.
CHUNK_ELEMENTS = 1 << 21


def _segment_or(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment OR along axis 0: CSR rows -> per-member words.

    ``values`` is ``(total_rows, n_words)``; ``offsets`` is the CSR
    offset table (``n_members + 1``).  Empty segments produce zero rows
    (an empty cover asserts nothing; a productless config never pulls).
    ``reduceat`` cannot express empty segments directly, so their start
    indices are dropped — each surviving segment then spans exactly to
    the next surviving start, which is its own end.
    """
    n_segments = len(offsets) - 1
    out = np.zeros((n_segments,) + values.shape[1:], dtype=np.uint64)
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    if values.shape[0] and nonempty.any():
        out[nonempty] = np.bitwise_or.reduceat(values, starts[nonempty],
                                               axis=0)
    return out


def _rows_popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D uint64 array (int64 result)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words).sum(axis=1).astype(np.int64)
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8.reshape(words.shape[0], -1),
                         axis=1).sum(axis=1).astype(np.int64)


def _bits_to_masks(words: np.ndarray, n_vectors: int) -> np.ndarray:
    """Expand ``(n_members, n_words)`` words to per-vector 0/1 bits."""
    shifts = np.arange(bs.WORD, dtype=np.uint64)
    bits = (words[:, :, None] >> shifts) & _ONE
    return bits.reshape(words.shape[0], -1)[:, :n_vectors]


def _chunk_words(total_rows: int, n_words: int) -> int:
    """Words per evaluation chunk under the element budget."""
    budget = max(1, CHUNK_ELEMENTS // max(total_rows, 1))
    return max(1, min(bs.CHUNK_WORDS, budget, n_words))


# ----------------------------------------------------------------------
# cover arena
# ----------------------------------------------------------------------
class CoverArena:
    """N covers packed into one contiguous rejection-mask arena.

    Evaluating the arena on an input slice yields every cover's output
    bitmask for every vector of the slice — the batched equivalent of
    :meth:`Cover.output_mask_for` / :func:`bitslice.eval_minterms`.
    Covers may differ in ``n_inputs``/``n_outputs``; input slices are
    ``max_inputs`` wide and each cover ignores the rows above its own
    width (padding masks never reject).
    """

    def __init__(self, block0, block1, outputs, offsets,
                 n_inputs, n_outputs):
        self.block0 = block0
        self.block1 = block1
        self.outputs = outputs
        self.offsets = offsets
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs

    @classmethod
    def from_covers(cls, covers) -> "CoverArena":
        """Pack a sequence of :class:`~repro.logic.cover.Cover`."""
        with perf.timer("eval.batch.pack"):
            packs = [bs.pack_cover(cover) for cover in covers]
            max_inputs = max((p.n_inputs for p in packs), default=1)
            offsets = np.zeros(len(packs) + 1, dtype=np.int64)
            for c, pack in enumerate(packs):
                offsets[c + 1] = offsets[c] + pack.n_cubes
            total = int(offsets[-1])
            block0 = np.zeros((total, max_inputs), dtype=np.uint64)
            block1 = np.zeros((total, max_inputs), dtype=np.uint64)
            outputs = np.zeros(total, dtype=np.uint64)
            for c, pack in enumerate(packs):
                lo, hi = int(offsets[c]), int(offsets[c + 1])
                block0[lo:hi, :pack.n_inputs] = pack.block0
                block1[lo:hi, :pack.n_inputs] = pack.block1
                outputs[lo:hi] = pack.outputs
            arena = cls(block0, block1, outputs, offsets,
                        np.array([p.n_inputs for p in packs],
                                 dtype=np.int64),
                        np.array([p.n_outputs for p in packs],
                                 dtype=np.int64))
        perf.count("eval.batch.covers", len(packs))
        return arena

    @property
    def n_covers(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_cubes(self) -> int:
        return int(self.offsets[-1])

    @property
    def max_inputs(self) -> int:
        return self.block0.shape[1]

    @property
    def max_outputs(self) -> int:
        return int(self.n_outputs.max()) if self.n_covers else 0

    def accept_words(self, x: np.ndarray) -> np.ndarray:
        """Acceptance words of every cube row: ``(total_cubes, n_words)``."""
        n_words = x.shape[1]
        reject = np.zeros((self.total_cubes, n_words), dtype=np.uint64)
        for i in range(self.max_inputs):
            xi = x[i]
            reject |= (xi & self.block1[:, i, None]) | \
                      (~xi & self.block0[:, i, None])
        return ~reject

    def eval_slices(self, x: np.ndarray, n_vectors: int) -> np.ndarray:
        """Output bitmask of every (cover, vector) pair.

        ``x`` is a ``(max_inputs, n_words)`` input slice (from
        :meth:`GaloisLFSR.word_slices` or ``bitslice.pack_minterms``);
        the result is ``(n_covers, n_vectors)`` uint64 masks, row ``c``
        identical to ``bitslice.eval_minterms(covers[c], ...)``.
        """
        with perf.timer("eval.batch.eval"):
            accept = self.accept_words(x)
            masks = np.zeros((self.n_covers, n_vectors), dtype=np.uint64)
            for k in range(self.max_outputs):
                asserts_k = ((self.outputs >> np.uint64(k)) & _ONE) \
                    .astype(bool)
                words = _segment_or(
                    np.where(asserts_k[:, None], accept, np.uint64(0)),
                    self.offsets)
                masks |= _bits_to_masks(words, n_vectors) << np.uint64(k)
        perf.count("eval.batch.vectors", n_vectors)
        perf.count("eval.batch.pairs", n_vectors * self.n_covers)
        return masks

    def eval_minterms(self, minterms) -> np.ndarray:
        """Output bitmasks over an explicit minterm batch."""
        minterms = list(minterms)
        x = bs.pack_minterms(minterms, self.max_inputs)
        return self.eval_slices(x, len(minterms))


# ----------------------------------------------------------------------
# config arena
# ----------------------------------------------------------------------
class ConfigArena:
    """N GNOR plane configurations in one contiguous device-mask arena.

    Built by tiling one base configuration (the yield engine's shape:
    one programming, N defect trials), from per-member product row
    subsets of it (degraded-mode placements), or from heterogeneous
    configurations (:meth:`from_configs`, the suite's batched
    equivalence check).  Defect overlays are patched directly into the
    arena's masks with :meth:`patch_overlay` — same single-word
    semantics as ``defective._patched_pack``, no re-packing.

    Heterogeneous members are padded to the widest geometry:
    ``n_inputs``/``n_outputs`` become maxima, zero device masks never
    conduct, and ``out_valid`` masks each member's real output bits
    (:meth:`eval_slices` zeroes the padded ones).
    :meth:`error_counts_vs` requires uniform members — the yield
    engine's tiled/row-subset arenas always are.
    """

    def __init__(self, and_pass, and_invert, or_pass_bits, or_invert_bits,
                 inverted, offsets, n_inputs, n_outputs, out_valid=None):
        self.and_pass = and_pass
        self.and_invert = and_invert
        self.or_pass_bits = or_pass_bits
        self.or_invert_bits = or_invert_bits
        self.inverted = inverted          # (n_configs,) output bitmask
        self.offsets = offsets
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        if out_valid is None:
            out_valid = np.full(len(offsets) - 1,
                                np.uint64((1 << self.n_outputs) - 1),
                                dtype=np.uint64)
        self.out_valid = out_valid        # (n_configs,) valid-output mask

    @staticmethod
    def _or_bits(pc: "bs.PackedConfig"):
        """The ``(O, P)`` or-plane masks as per-product output bitmasks."""
        pass_bits = np.zeros(pc.n_products, dtype=np.uint64)
        invert_bits = np.zeros(pc.n_products, dtype=np.uint64)
        for k in range(pc.n_outputs):
            bit = _ONE << np.uint64(k)
            pass_bits |= np.where(pc.or_pass[k] != 0, bit, np.uint64(0))
            invert_bits |= np.where(pc.or_invert[k] != 0, bit, np.uint64(0))
        return pass_bits, invert_bits

    @classmethod
    def from_config(cls, config, copies: int = 1) -> "ConfigArena":
        """Tile one configuration ``copies`` times (pack cost paid once)."""
        with perf.timer("eval.batch.pack"):
            pc = bs.pack_config(config)
            pass_bits, invert_bits = cls._or_bits(pc)
            inverted_mask = np.uint64(sum(
                1 << k for k in range(pc.n_outputs) if pc.inverted[k]))
            offsets = np.arange(copies + 1, dtype=np.int64) * pc.n_products
            arena = cls(np.tile(pc.and_pass, (copies, 1)),
                        np.tile(pc.and_invert, (copies, 1)),
                        np.tile(pass_bits, copies),
                        np.tile(invert_bits, copies),
                        np.full(copies, inverted_mask, dtype=np.uint64),
                        offsets, pc.n_inputs, pc.n_outputs)
        perf.count("eval.batch.configs", copies)
        return arena

    @classmethod
    def from_row_subsets(cls, config, subsets) -> "ConfigArena":
        """One member per product-row subset of ``config``.

        ``subsets`` is a sequence of kept-row index lists (ascending);
        member ``t`` is ``_subset_config(config, subsets[t])`` without
        the Python re-pack — rows are gathered from the base pack.
        """
        with perf.timer("eval.batch.pack"):
            pc = bs.pack_config(config)
            pass_bits, invert_bits = cls._or_bits(pc)
            inverted_mask = np.uint64(sum(
                1 << k for k in range(pc.n_outputs) if pc.inverted[k]))
            offsets = np.zeros(len(subsets) + 1, dtype=np.int64)
            for t, kept in enumerate(subsets):
                offsets[t + 1] = offsets[t] + len(kept)
            gather = np.array([r for kept in subsets for r in kept],
                              dtype=np.int64)
            arena = cls(pc.and_pass[gather], pc.and_invert[gather],
                        pass_bits[gather], invert_bits[gather],
                        np.full(len(subsets), inverted_mask,
                                dtype=np.uint64),
                        offsets, pc.n_inputs, pc.n_outputs)
        perf.count("eval.batch.configs", len(subsets))
        return arena

    @classmethod
    def from_configs(cls, configs) -> "ConfigArena":
        """Pack heterogeneous configurations into one arena.

        Members may differ in ``n_inputs``/``n_outputs``; evaluation
        pads inputs with never-conducting masks and clips each member's
        outputs to its own ``out_valid`` bits, so row ``c`` of
        :meth:`eval_slices` is bit-identical to evaluating
        ``configs[c]`` alone.
        """
        with perf.timer("eval.batch.pack"):
            packs = [bs.pack_config(config) for config in configs]
            max_inputs = max((p.n_inputs for p in packs), default=1)
            max_outputs = max((p.n_outputs for p in packs), default=1)
            offsets = np.zeros(len(packs) + 1, dtype=np.int64)
            for c, pack in enumerate(packs):
                offsets[c + 1] = offsets[c] + pack.n_products
            total = int(offsets[-1])
            and_pass = np.zeros((total, max_inputs), dtype=np.uint64)
            and_invert = np.zeros((total, max_inputs), dtype=np.uint64)
            pass_bits = np.zeros(total, dtype=np.uint64)
            invert_bits = np.zeros(total, dtype=np.uint64)
            inverted = np.zeros(len(packs), dtype=np.uint64)
            out_valid = np.zeros(len(packs), dtype=np.uint64)
            for c, pc in enumerate(packs):
                lo, hi = int(offsets[c]), int(offsets[c + 1])
                and_pass[lo:hi, :pc.n_inputs] = pc.and_pass
                and_invert[lo:hi, :pc.n_inputs] = pc.and_invert
                pass_bits[lo:hi], invert_bits[lo:hi] = cls._or_bits(pc)
                inverted[c] = np.uint64(sum(
                    1 << k for k in range(pc.n_outputs) if pc.inverted[k]))
                out_valid[c] = np.uint64((1 << pc.n_outputs) - 1)
            arena = cls(and_pass, and_invert, pass_bits, invert_bits,
                        inverted, offsets, max_inputs, max_outputs,
                        out_valid)
        perf.count("eval.batch.configs", len(packs))
        return arena

    @property
    def n_configs(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_products(self) -> int:
        return int(self.offsets[-1])

    def patch_overlay(self, member: int, overlay) -> None:
        """Inject a defect overlay into member ``member``'s masks.

        Same table as ``defective._patched_pack``: a stuck-on AND
        device conducts on both polarities (row pinned low), a
        stuck-off / PG-leak device on neither; a stuck-on OR device
        sets output ``k``'s bit in both or-plane bitmasks, a stuck-off
        one clears it.
        """
        from repro.core.defects import DefectType
        base = int(self.offsets[member])
        for (site, r, c), defect in overlay.items():
            stuck_on = defect is DefectType.STUCK_ON
            if site == "and":
                value = _ALL_ONES if stuck_on else np.uint64(0)
                self.and_pass[base + r, c] = value
                self.and_invert[base + r, c] = value
            else:  # ("or", row r, output c)
                bit = _ONE << np.uint64(c)
                if stuck_on:
                    self.or_pass_bits[base + r] |= bit
                    self.or_invert_bits[base + r] |= bit
                else:
                    self.or_pass_bits[base + r] &= ~bit
                    self.or_invert_bits[base + r] &= ~bit

    def product_words(self, x: np.ndarray) -> np.ndarray:
        """AND-plane row words of every product row (1 = term holds)."""
        n_words = x.shape[1]
        pulled = np.zeros((self.total_products, n_words), dtype=np.uint64)
        for i in range(self.and_pass.shape[1]):
            xi = x[i]
            pulled |= (xi & self.and_pass[:, i, None]) | \
                      (~xi & self.and_invert[:, i, None])
        return ~pulled

    def _output_words_k(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Output ``k``'s words for every member: ``(n_configs, W)``."""
        bit = _ONE << np.uint64(k)
        pass_k = np.where(self.or_pass_bits & bit, _ALL_ONES, np.uint64(0))
        invert_k = np.where(self.or_invert_bits & bit, _ALL_ONES,
                            np.uint64(0))
        contrib = (rows & pass_k[:, None]) | (~rows & invert_k[:, None])
        pulled = _segment_or(contrib, self.offsets)
        inv_k = ((self.inverted >> np.uint64(k)) & _ONE).astype(bool)
        return np.where(inv_k[:, None], pulled, ~pulled)

    def eval_slices(self, x: np.ndarray, n_vectors: int) -> np.ndarray:
        """Output bitmask of every (member, vector) pair."""
        with perf.timer("eval.batch.eval"):
            rows = self.product_words(x)
            masks = np.zeros((self.n_configs, n_vectors), dtype=np.uint64)
            for k in range(self.n_outputs):
                words = self._output_words_k(rows, k)
                valid_k = ((self.out_valid >> np.uint64(k)) & _ONE) \
                    .astype(bool)
                if not valid_k.all():  # pad outputs of narrower members
                    words = np.where(valid_k[:, None], words, np.uint64(0))
                masks |= _bits_to_masks(words, n_vectors) << np.uint64(k)
        perf.count("eval.batch.vectors", n_vectors)
        perf.count("eval.batch.pairs", n_vectors * self.n_configs)
        return masks

    def error_counts_vs(self, golden_words: np.ndarray) -> np.ndarray:
        """Differing (minterm, output) pairs of every member vs golden.

        ``golden_words`` is the exhaustive ``(n_outputs, n_words)``
        response of :class:`~repro.robustness.defective.GoldenRef`
        (tail word already masked).  Walks the whole ``2**n_inputs``
        space chunk by chunk; entry ``t`` equals
        ``GoldenRef.errors_of`` for member ``t``'s patched config.
        """
        with perf.timer("eval.batch.eval"):
            total = 1 << self.n_inputs
            n_words = max(1, -(-total // bs.WORD))
            tail = np.uint64((1 << (total % bs.WORD)) - 1) \
                if total % bs.WORD else None
            errors = np.zeros(self.n_configs, dtype=np.int64)
            step = _chunk_words(self.total_products, n_words)
            for lo in range(0, n_words, step):
                hi = min(lo + step, n_words)
                x = bs.exhaustive_slices(self.n_inputs, lo, hi)
                rows = self.product_words(x)
                for k in range(self.n_outputs):
                    diff = self._output_words_k(rows, k)
                    diff ^= golden_words[k, lo:hi][None, :]
                    if tail is not None and hi == n_words:
                        diff[:, -1] &= tail
                    errors += _rows_popcount(diff)
        perf.count("eval.batch.vectors", total)
        perf.count("eval.batch.pairs", total * self.n_configs)
        return errors


__all__ = ["CHUNK_ELEMENTS", "ConfigArena", "CoverArena"]
