"""Unate-recursive cover complementation.

``complement_cover(cover)`` returns a cover of the complement — for
every output, the set of input minterms the original cover does *not*
assert.  Complementation gives the minimizer its OFF-sets (needed by
EXPAND) and powers the REDUCE step.

The single-output core recurses on the most binate variable with the
merge rule ``~F = x'~F_x' + x~F_x`` and the single-cube sharp as a
terminal case, with single-cube-containment cleanup at each merge.

The two quadratic-ish pieces of the recursion — the containment
cleanup at each merge and the column statistics that pick the binate
split variable — run matrix-form on the NumPy backend
(:func:`repro.kernels.cubematrix.mask_containment_cleanup` /
``mask_column_counts``) once the mask list clears the packing
threshold; the scalar loops below stay as the ``REPRO_KERNEL=python``
fallback and differential-test oracle, and both paths produce the
same masks in the same order.
"""

from __future__ import annotations

from typing import List

from repro import kernels
from repro.logic.cube import BIT_ONE, BIT_ZERO, Cube, full_input_mask
from repro.logic.cover import Cover


def complement_cover(cover: Cover) -> Cover:
    """The complement of a (possibly multi-output) cover.

    Output ``k`` of the result asserts exactly the minterms output ``k``
    of ``cover`` does not.  Cubes with identical input parts across
    outputs are merged afterwards.
    """
    if cover.n_outputs == 1:
        return _complement_single(cover)
    result = Cover(cover.n_inputs, cover.n_outputs)
    for output in range(cover.n_outputs):
        single = _complement_single(cover.restrict_output(output))
        for cube in single.cubes:
            result.append(Cube(cover.n_inputs, cube.inputs,
                               1 << output, cover.n_outputs))
    return result.merge_identical_inputs()


def complement_output(cover: Cover, output: int) -> Cover:
    """Single-output complement of one output of a multi-output cover."""
    return _complement_single(cover.restrict_output(output))


def _complement_single(cover: Cover) -> Cover:
    n = cover.n_inputs
    masks = [c.inputs for c in cover.cubes if not c.is_empty() and c.outputs]
    result_masks = _complement_masks(masks, n, full_input_mask(n))
    return Cover(n, 1, [Cube(n, mask, 1, 1) for mask in result_masks])


def _complement_masks(masks: List[int], n: int, full: int) -> List[int]:
    """Complement on raw input-part bitmasks; returns result bitmasks."""
    # Terminal: empty cover -> universe; universal row -> empty complement.
    if not masks:
        return [full]
    for mask in masks:
        if mask == full:
            return []
    if len(masks) == 1:
        return _sharp_single(masks[0], n, full)

    # Column statistics (matrix-form on the kernel backend).
    if kernels.enabled() and len(masks) >= kernels.cubematrix.MIN_CUBES:
        zeros, ones = kernels.cubematrix.mask_column_counts(masks, n)
    else:
        zeros = [0] * n
        ones = [0] * n
        for mask in masks:
            m = mask
            for v in range(n):
                field = m & 0b11
                if field == BIT_ZERO:
                    zeros[v] += 1
                elif field == BIT_ONE:
                    ones[v] += 1
                m >>= 2

    best_var = None
    best_key = None
    for v in range(n):
        if zeros[v] + ones[v] == 0:
            continue
        key = (min(zeros[v], ones[v]), zeros[v] + ones[v])
        if best_key is None or key > best_key:
            best_key = key
            best_var = v
    if best_var is None:
        # no variable appears and no universal row: impossible unless masks
        # contains only empty fields, which were filtered by the caller.
        return []

    shift = 2 * best_var
    results: List[int] = []
    for value_bit, literal_bit in ((BIT_ZERO, BIT_ZERO), (BIT_ONE, BIT_ONE)):
        branch = []
        for mask in masks:
            field = (mask >> shift) & 0b11
            if field & value_bit:
                branch.append(mask | (0b11 << shift))
        sub = _complement_masks(branch, n, full)
        literal_mask = (full & ~(0b11 << shift)) | (literal_bit << shift)
        for mask in sub:
            results.append(mask & literal_mask)

    return _containment_cleanup(results, n)


def _sharp_single(mask: int, n: int, full: int) -> List[int]:
    """Disjoint sharp: complement of a single cube's input part."""
    results = []
    prefix = full
    for v in range(n):
        field = (mask >> (2 * v)) & 0b11
        if field in (BIT_ZERO, BIT_ONE):
            flipped = BIT_ONE if field == BIT_ZERO else BIT_ZERO
            results.append((prefix & ~(0b11 << (2 * v))) | (flipped << (2 * v)))
            prefix = (prefix & ~(0b11 << (2 * v))) | (field << (2 * v))
    return results


def _containment_cleanup(masks: List[int], n: int) -> List[int]:
    """Drop input-part masks contained in another mask of the list.

    Both paths share the largest-first processing order and return the
    same masks in the same order: the matrix form's "contained in any
    earlier mask" drop rule equals this greedy kept-list scan because
    containment is transitive (see
    :func:`repro.kernels.cubematrix.mask_containment_cleanup`).
    """
    order = sorted(set(masks), key=_dash_count_key(n), reverse=True)
    if kernels.enabled() and len(order) >= kernels.cubematrix.MIN_CUBES:
        return kernels.cubematrix.mask_containment_cleanup(order, n)
    kept: List[int] = []
    for mask in order:
        if not any((other | mask) == other for other in kept):
            kept.append(mask)
    return kept


def _dash_count_key(n: int):
    def key(mask: int) -> int:
        count = 0
        m = mask
        for _ in range(n):
            if m & 0b11 == 0b11:
                count += 1
            m >>= 2
        return count
    return key
