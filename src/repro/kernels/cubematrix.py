"""Matrix-form cube algebra: whole covers as packed uint64 field matrices.

The bit-sliced kernels of :mod:`repro.kernels.bitslice` accelerate
*evaluation* (many minterms against one cover).  The minimization
pipeline is dominated by a different shape of work — *cube algebra*
over whole covers: EXPAND tests every candidate raise against every
OFF-set cube, REDUCE and tautology cofactor the cover cube by cube,
and single-cube containment scans are quadratic.  This module gives
those loops a matrix form.

Representation
--------------
A :class:`CubeMatrix` packs a cover's positional notation row-wise:

* ``words[c, w]`` — cube ``c``'s input bitmask (two bits per variable,
  exactly :attr:`repro.logic.cube.Cube.inputs`) split into 64-bit words
  (:data:`VARS_PER_WORD` variables per word, low variables first);
* ``outputs[c]`` — cube ``c``'s output bitmask (``n_outputs <= 64``).

All primitives are whole-cover NumPy expressions built on two
identities of the positional notation:

* the AND of two cubes has an *empty field* (``00``) exactly where the
  cubes conflict, so ``distance`` is "number of empty fields" — one
  ``popcount`` of the even-bit projection per word pair;
* containment is the bitwise test ``(a | b) == a``, unchanged from the
  scalar code but broadcast over all pairs at once.

Like :mod:`~repro.kernels.bitslice`, the module is importable without
the rest of the logic layer (only the positional bit constants are
shared), every consumer keeps its scalar loop as the
``REPRO_KERNEL=python`` fallback and differential-test oracle, and all
tie-breaking (candidate order, sorted-by-size processing order) is
inherited from the caller so results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.logic.cube import BIT_ONE, BIT_ZERO

#: Input variables per 64-bit word (two bits per variable).
VARS_PER_WORD = 32

#: Output-width ceiling (output parts ride in one uint64).
MAX_OUTPUTS = 64

#: Below this cube count the scalar loops win (packing overhead);
#: callers use this as their default gate.
MIN_CUBES = 8

_ONE = np.uint64(1)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Even-bit projection mask: bit ``2v`` per variable ``v`` of a word.
_LOW_BITS = np.uint64(0x5555555555555555)


class MatrixUnsupported(Exception):
    """Raised when a cover falls outside the matrix engine's envelope."""


if hasattr(np, "bitwise_count"):
    def popcount(a: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array."""
        return np.bitwise_count(a)
else:  # pragma: no cover - NumPy < 2.0
    def popcount(a: np.ndarray) -> np.ndarray:
        """Per-element population count (SWAR fallback for old NumPy)."""
        a = a - ((a >> _ONE) & np.uint64(0x5555555555555555))
        a = (a & np.uint64(0x3333333333333333)) + \
            ((a >> np.uint64(2)) & np.uint64(0x3333333333333333))
        a = (a + (a >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (a * np.uint64(0x0101010101010101)) >> np.uint64(56)


def n_words(n_inputs: int) -> int:
    """Words needed for ``n_inputs`` two-bit fields."""
    return max(1, -(-n_inputs // VARS_PER_WORD))


def input_word_masks(n_inputs: int) -> np.ndarray:
    """Per-word valid-field masks (the split of ``full_input_mask``)."""
    w = n_words(n_inputs)
    masks = np.empty(w, dtype=np.uint64)
    remaining = n_inputs
    for i in range(w):
        vars_here = min(VARS_PER_WORD, max(remaining, 0))
        masks[i] = np.uint64((1 << (2 * vars_here)) - 1)
        remaining -= VARS_PER_WORD
    return masks


@dataclass
class CubeMatrix:
    """A cover packed row-wise into positional-notation word matrices.

    Attributes
    ----------
    n_inputs, n_outputs:
        Cover dimensions (``n_outputs <= 64``).
    words:
        ``(n_cubes, n_words)`` uint64 — each row is the cube's input
        bitmask split into 64-bit words, low variables first.
    outputs:
        ``(n_cubes,)`` uint64 output bitmasks.
    """

    n_inputs: int
    n_outputs: int
    words: np.ndarray
    outputs: np.ndarray
    _fields: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_cubes(self) -> int:
        return self.words.shape[0]

    def fields(self) -> np.ndarray:
        """Lazy ``(n_cubes, n_inputs)`` uint8 matrix of two-bit fields."""
        if self._fields is None:
            self._fields = unpack_fields(self.words, self.n_inputs)
        return self._fields


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
def split_mask(inputs: int, w: int) -> List[int]:
    """Split a Python-int input bitmask into ``w`` 64-bit words."""
    return [(inputs >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(w)]


def join_mask(words_row: np.ndarray) -> int:
    """Rejoin one word row into the Python-int input bitmask."""
    mask = 0
    for i in range(words_row.shape[0]):
        mask |= int(words_row[i]) << (64 * i)
    return mask


def pack_cubes(cubes: Sequence, n_inputs: int, n_outputs: int) -> CubeMatrix:
    """Pack a cube sequence (anything with ``.inputs`` / ``.outputs``)."""
    if n_outputs > MAX_OUTPUTS:
        raise MatrixUnsupported(
            f"{n_outputs} outputs exceeds the {MAX_OUTPUTS}-bit output word")
    w = n_words(n_inputs)
    c = len(cubes)
    words = np.zeros((c, w), dtype=np.uint64)
    outputs = np.zeros(c, dtype=np.uint64)
    for j, cube in enumerate(cubes):
        words[j] = split_mask(cube.inputs, w)
        outputs[j] = cube.outputs
    return CubeMatrix(n_inputs, n_outputs, words, outputs)


def matrix_of(cover) -> CubeMatrix:
    """Pack (and cache) a :class:`~repro.logic.cover.Cover`.

    Caching mirrors :func:`repro.kernels.bitslice.pack_cover`: the
    matrix is stored on the cover and validated against the cover's
    mutation version counter, so the whole-cover matrices of long-lived
    covers (the OFF-set during EXPAND, the DC-set during REDUCE) are
    built once.
    """
    version = getattr(cover, "_version", None)
    if version is not None and getattr(cover, "_matrix_version", -1) == version:
        matrix = getattr(cover, "_matrix", None)
        if matrix is not None:
            return matrix
    matrix = pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
    if version is not None:
        try:
            cover._matrix = matrix
            cover._matrix_version = version
        except AttributeError:  # duck-typed cover without cache slots
            pass
    return matrix


def unpack_fields(words: np.ndarray, n_inputs: int) -> np.ndarray:
    """Explode word rows into a ``(n_cubes, n_inputs)`` uint8 field matrix."""
    var_idx = np.arange(n_inputs)
    word_idx = var_idx // VARS_PER_WORD
    shifts = (2 * (var_idx % VARS_PER_WORD)).astype(np.uint64)
    return ((words[:, word_idx] >> shifts[None, :]) & np.uint64(3)) \
        .astype(np.uint8)


def pack_fields(fields: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unpack_fields`: field matrix back to word rows."""
    c, n = fields.shape
    w = n_words(n)
    var_idx = np.arange(n)
    shifts = (2 * (var_idx % VARS_PER_WORD)).astype(np.uint64)
    contrib = fields.astype(np.uint64) << shifts[None, :]
    words = np.zeros((c, w), dtype=np.uint64)
    for i in range(w):
        sel = (var_idx // VARS_PER_WORD) == i
        if sel.any():
            words[:, i] = np.bitwise_or.reduce(contrib[:, sel], axis=1)
    return words


# ----------------------------------------------------------------------
# pairwise relations
# ----------------------------------------------------------------------
def _nonempty_field_counts(anded: np.ndarray) -> np.ndarray:
    """Count non-empty fields of AND-ed word rows (last axis = words).

    A field is non-empty when either of its two bits is set; the OR of
    the odd bits into the even positions makes that one popcount.
    """
    present = (anded | (anded >> _ONE)) & _LOW_BITS
    return popcount(present).sum(axis=-1, dtype=np.int64)


def distance_matrix(a: CubeMatrix, b: CubeMatrix) -> np.ndarray:
    """All pairwise cube distances: ``(a.n_cubes, b.n_cubes)`` int64.

    Entry ``[i, j]`` equals ``a[i].distance(b[j])``: the number of
    input variables where the cubes conflict, plus one when the output
    parts are disjoint.
    """
    anded = a.words[:, None, :] & b.words[None, :, :]
    dist = a.n_inputs - _nonempty_field_counts(anded)
    dist += ((a.outputs[:, None] & b.outputs[None, :]) == 0)
    return dist


def containment_matrix(m: CubeMatrix) -> np.ndarray:
    """Boolean ``(C, C)`` matrix: ``[i, j]`` iff row ``i`` contains row ``j``.

    The test is the scalar :meth:`~repro.logic.cube.Cube.contains`
    bitwise identity ``(a | b) == a`` broadcast over all pairs.
    """
    unioned = m.words[:, None, :] | m.words[None, :, :]
    inp_ok = (unioned == m.words[:, None, :]).all(axis=2)
    out_ok = (m.outputs[:, None] | m.outputs[None, :]) == m.outputs[:, None]
    return inp_ok & out_ok


def cube_contains_rows(m: CubeMatrix, inputs: int, outputs: int) -> np.ndarray:
    """Boolean ``(C,)``: does the given cube contain each row?"""
    w = np.array(split_mask(inputs, m.words.shape[1]), dtype=np.uint64)
    o = np.uint64(outputs)
    inp_ok = ((w[None, :] | m.words) == w[None, :]).all(axis=1)
    return inp_ok & ((o | m.outputs) == o)


# ----------------------------------------------------------------------
# cofactor
# ----------------------------------------------------------------------
def cofactor_rows(m: CubeMatrix, inputs: int, outputs: int) \
        -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shannon cofactor of every row with respect to one cube.

    Returns ``(keep, words, outs)``: ``keep[j]`` flags rows that
    intersect the cube (the others have an empty cofactor and are
    dropped by the caller), and ``words[j] / outs[j]`` apply the
    positional rule — fields where the cube is specific are raised to
    don't-care.  Exactly :meth:`repro.logic.cube.Cube.cofactor`.
    """
    full_out = np.uint64((1 << m.n_outputs) - 1)
    valid = input_word_masks(m.n_inputs)
    w = np.array(split_mask(inputs, m.words.shape[1]), dtype=np.uint64)
    o = np.uint64(outputs)

    anded = m.words & w[None, :]
    keep = (m.outputs & o) != 0
    keep &= _nonempty_field_counts(anded) == m.n_inputs

    words = (m.words | ~w[None, :]) & valid[None, :]
    outs = m.outputs | (~o & full_out)
    return keep, words, outs


def cofactor_pairs(m: CubeMatrix, inputs: int,
                   outputs: int) -> List[Tuple[int, int]]:
    """Cofactor every row and return the surviving ``(inputs, outputs)``
    mask pairs as Python ints, in row order (the :class:`Cover`-facing
    form of :func:`cofactor_rows`)."""
    keep, words, outs = cofactor_rows(m, inputs, outputs)
    idx = np.flatnonzero(keep)
    if words.shape[1] == 1:
        col = words[:, 0]
        return [(int(col[j]), int(outs[j])) for j in idx]
    return [(join_mask(words[j]), int(outs[j])) for j in idx]


# ----------------------------------------------------------------------
# cover-level helpers
# ----------------------------------------------------------------------
def scc_keep(m: CubeMatrix, order: Sequence[int],
             nonempty: np.ndarray) -> np.ndarray:
    """Single-cube-containment survivors, scalar-order exact.

    ``order`` is the processing order (descending size); a cube is
    dropped iff some cube earlier in that order bitwise-contains it.
    This closed form equals the scalar kept-list scan: containment is
    transitive, so a cube contained in a *dropped* earlier cube is also
    contained in the kept cube that dropped it.
    """
    contains = containment_matrix(m)
    rank = np.empty(m.n_cubes, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(m.n_cubes)
    earlier = rank[:, None] < rank[None, :]
    dropped = (contains & earlier & nonempty[:, None]).any(axis=0)
    return ~dropped & nonempty


def scc_indices(m: CubeMatrix, order: Sequence[int]) -> List[int]:
    """Single-cube-containment survivors as original indices, listed in
    processing order (the :class:`Cover`-facing form of :func:`scc_keep`)."""
    keep = scc_keep(m, order, ~empty_rows(m))
    return [i for i in order if keep[i]]


def column_counts(m: CubeMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Per-variable ``(zeros, ones)`` literal counts (int64 arrays)."""
    fields = m.fields()
    zeros = (fields == BIT_ZERO).sum(axis=0, dtype=np.int64)
    ones = (fields == BIT_ONE).sum(axis=0, dtype=np.int64)
    return zeros, ones


def unate_signs(m: CubeMatrix) -> List[Optional[bool]]:
    """Per-variable unateness: True / False / None as in
    :func:`repro.espresso.unate.unate_variables`."""
    zeros, ones = column_counts(m)
    result: List[Optional[bool]] = []
    for v in range(m.n_inputs):
        if zeros[v] == 0:
            result.append(True)
        elif ones[v] == 0:
            result.append(False)
        else:
            result.append(None)
    return result


def empty_rows(m: CubeMatrix) -> np.ndarray:
    """Boolean ``(C,)``: rows that contain no (minterm, output) pair."""
    nonempty_inputs = _nonempty_field_counts(m.words) == m.n_inputs
    return ~(nonempty_inputs & (m.outputs != 0))


# ----------------------------------------------------------------------
# raw input-mask primitives (unate-recursive complement)
# ----------------------------------------------------------------------
def pack_masks(masks: Sequence[int], n_inputs: int) -> np.ndarray:
    """Pack raw input-part bitmasks into ``(len(masks), n_words)`` words.

    The complement recursion works on bare Python-int masks (no
    :class:`~repro.logic.cube.Cube` objects, no output parts), so its
    kernels pack from ints directly instead of via :func:`pack_cubes`.
    """
    w = n_words(n_inputs)
    words = np.empty((len(masks), w), dtype=np.uint64)
    for j, mask in enumerate(masks):
        words[j] = split_mask(mask, w)
    return words


def mask_containment_cleanup(ordered: Sequence[int],
                             n_inputs: int) -> List[int]:
    """Containment cleanup of raw input masks, scalar-order exact.

    ``ordered`` must already be deduplicated and sorted largest-first
    (descending dash count), as in
    :func:`repro.logic.complement._containment_cleanup`.  A mask is
    dropped iff it is contained in ANY earlier mask of the order: this
    closed form equals the scalar kept-list scan because strict
    containment strictly increases the dash count — a mask contained in
    a *dropped* earlier mask is, by transitivity, also contained in the
    kept earlier mask that dropped it.
    """
    words = pack_masks(ordered, n_inputs)
    unioned = words[:, None, :] | words[None, :, :]
    contains = (unioned == words[:, None, :]).all(axis=2)
    c = len(ordered)
    idx = np.arange(c)
    dropped = (contains & (idx[:, None] < idx[None, :])).any(axis=0)
    return [mask for mask, drop in zip(ordered, dropped) if not drop]


def mask_column_counts(masks: Sequence[int],
                       n_inputs: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-variable ``(zeros, ones)`` literal counts of raw input masks
    (the binate-variable statistics of the complement recursion)."""
    fields = unpack_fields(pack_masks(masks, n_inputs), n_inputs)
    zeros = (fields == BIT_ZERO).sum(axis=0, dtype=np.int64)
    ones = (fields == BIT_ONE).sum(axis=0, dtype=np.int64)
    return zeros, ones


# ----------------------------------------------------------------------
# covering-table dominance (exact minimization)
# ----------------------------------------------------------------------
def subset_matrix(sets: Sequence[frozenset], universe: Sequence) -> np.ndarray:
    """Boolean ``(K, K)`` matrix: ``[i, j]`` iff ``sets[i] <= sets[j]``.

    Used by the exact minimizer's covering-table reduction: the column
    dominance pass asks this question for every pair of primes, which
    as a membership-matrix product is one ``matmul`` instead of a
    quadratic loop of Python set comparisons.
    """
    index = {element: i for i, element in enumerate(universe)}
    member = np.zeros((len(sets), len(universe)), dtype=bool)
    for i, s in enumerate(sets):
        for element in s:
            member[i, index[element]] = True
    sizes = member.sum(axis=1)
    shared = member.astype(np.int64) @ member.astype(np.int64).T
    return shared == sizes[:, None]
