"""Unate-recursive tautology checking.

``is_tautology(cover)`` decides whether a cover equals the constant-1
function, the workhorse predicate behind cover containment, redundancy
testing and essential-prime detection in :mod:`repro.espresso`.

The implementation follows the classical unate recursive paradigm
(Brayton et al., *Logic Minimization Algorithms for VLSI Synthesis*):

1. terminal cases (empty cover, row of all dashes, single variable);
2. a cheap minterm-count upper bound;
3. unate reduction — a cover unate in some variable is a tautology iff
   the subcover of cubes with a dash in that variable is;
4. Shannon expansion about the most binate variable.

Multi-output covers are checked per output: a multi-output cover is a
tautology iff each output's input-part cover is.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.logic.cube import (BIT_DASH, BIT_ONE, BIT_ZERO, Cube,
                              full_input_mask)
from repro.logic.cover import Cover


def is_tautology(cover: Cover) -> bool:
    """True when ``cover`` evaluates to 1 for every (minterm, output) pair."""
    if cover.n_outputs == 1:
        return _taut_single(cover)
    for output in range(cover.n_outputs):
        if not _taut_single(cover.restrict_output(output)):
            return False
    return True


def covers_cube(cover: Cover, cube) -> bool:
    """True when ``cover`` contains every (minterm, output) pair of ``cube``.

    Implemented as a tautology check of the cofactor, the standard
    containment reduction.
    """
    return is_tautology(cover.cofactor(cube))


#: Above this input count the recursive procedure wins over the
#: exhaustive bit-sliced sweep (which is O(2^n / 64) per cube).
_KERNEL_TAUT_INPUT_LIMIT = 14
#: Below this cube count the recursion terminates fast enough that
#: packing for the kernel is not worth it.
_KERNEL_TAUT_MIN_CUBES = 8

#: Memo of tautology verdicts keyed on the cover's semantic signature
#: (input count + the *set* of non-empty input masks — tautology is
#: order- and duplicate-insensitive).  Only consulted on the kernel
#: backend, so the scalar path stays a pure, memo-free oracle for the
#: differential tests.  Hits come from covers re-tested unchanged, as
#: by the per-cube ``covers_cube`` probes of covers too large for
#: :mod:`repro.espresso.coverage`'s truth table.
_TAUT_MEMO: "OrderedDict" = OrderedDict()
#: Verdicts kept in the LRU memo (bounds memory).  Eviction is
#: least-recently-used, one entry at a time — the old clear-at-limit
#: reset threw away the whole working set exactly when the Espresso
#: loop was hottest.
_TAUT_MEMO_LIMIT = 1 << 15
#: Below this cube count the verdict is cheaper than the lookup.
_TAUT_MEMO_MIN_CUBES = 4


def _taut_single(cover: Cover) -> bool:
    """Tautology for a single-output cover (recursive or bit-sliced)."""
    n = cover.n_inputs
    full = full_input_mask(n)
    cubes = [c.inputs for c in cover.cubes if not c.is_empty() and c.outputs]

    memo_key = None
    if len(cubes) >= _TAUT_MEMO_MIN_CUBES:
        from repro import kernels
        if kernels.enabled():
            memo_key = (n, frozenset(cubes))
            cached = _TAUT_MEMO.get(memo_key)
            if cached is not None:
                from repro import perf
                perf.count("taut.memo_hit")
                _TAUT_MEMO.move_to_end(memo_key)
                return cached

    result = _taut_single_uncached(cubes, n, full)
    if memo_key is not None:
        from repro import perf
        perf.count("taut.memo_miss")
        while len(_TAUT_MEMO) >= _TAUT_MEMO_LIMIT:
            _TAUT_MEMO.popitem(last=False)
        _TAUT_MEMO[memo_key] = result
    return result


def _taut_single_uncached(cubes, n: int, full: int) -> bool:
    """The memo-free verdict (recursive or bit-sliced)."""
    # Terminal cases stay scalar; the kernel only takes over when the
    # recursion would actually have work to do.
    if (len(cubes) >= _KERNEL_TAUT_MIN_CUBES
            and n <= _KERNEL_TAUT_INPUT_LIMIT
            and not any(mask == full for mask in cubes)):
        from repro import kernels
        if kernels.enabled():
            single = Cover(n, 1, [Cube(n, mask, 1, 1) for mask in cubes])
            return kernels.bitslice.cover_is_tautology(single)
    return _taut_masks(cubes, n, full)


def _taut_masks(cubes, n: int, full: int) -> bool:
    """Tautology on raw input-part bitmasks."""
    # Terminal: a universal row is present.
    for mask in cubes:
        if mask == full:
            return True
    if not cubes:
        return False

    # Cheap necessary condition: the cubes must contain >= 2^n minterms.
    total = 0
    target = 1 << n
    for mask in cubes:
        dashes = 0
        m = mask
        for _ in range(n):
            if m & 0b11 == 0b11:
                dashes += 1
            m >>= 2
        total += 1 << dashes
        if total >= target:
            break
    if total < target:
        return False

    # Column statistics for unate reduction and splitting choice.
    zeros = [0] * n
    ones = [0] * n
    for mask in cubes:
        m = mask
        for v in range(n):
            field = m & 0b11
            if field == BIT_ZERO:
                zeros[v] += 1
            elif field == BIT_ONE:
                ones[v] += 1
            m >>= 2

    # Unate reduction: keep only rows with a dash in every unate column.
    unate_vars = [v for v in range(n)
                  if (zeros[v] + ones[v]) > 0 and min(zeros[v], ones[v]) == 0]
    if unate_vars:
        reduced = []
        for mask in cubes:
            if all((mask >> (2 * v)) & 0b11 == BIT_DASH for v in unate_vars):
                reduced.append(mask)
        return _taut_masks(reduced, n, full)

    # Shannon expansion about the most binate variable.
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
        # every cube all-dash would have matched the terminal case
        return False

    shift = 2 * best_var
    for value_bit in (BIT_ZERO, BIT_ONE):
        branch = []
        for mask in cubes:
            field = (mask >> shift) & 0b11
            if field & value_bit:
                branch.append(mask | (0b11 << shift))
        if not _taut_masks(branch, n, full):
            return False
    return True
