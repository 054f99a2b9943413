"""One coverage table for IRREDUNDANT, essential primes, MAKE_SPARSE
and REDUCE.

Each pass asks whether the rest of the live cubes plus the DC-set cover
cube ``i`` (or its slice on output ``k``) while it removes cubes or
output taps; REDUCE asks what of cube ``i`` the rest leaves uncovered,
and replaces the cube by its reduction.  On the NumPy backend each
question is one masked AND on the whole truth table,
``accept_i & ~mask_k``, ``mask_k`` being the minterms of any DC cube or
of two or more live cubes; above :data:`MAX_WORDS`, and on the scalar
backend, ``covers_cube`` and ``reduce_cube`` answer instead.  The
answers, and so the covers, are identical (DESIGN.md, "coverage
table").
"""

from __future__ import annotations

from typing import List, Sequence

from repro import perf
from repro.logic.cover import Cover
from repro.logic.cube import BIT_ONE, BIT_ZERO, Cube
from repro.logic.tautology import covers_cube

#: Largest table built (2 MiB): its rows, one per cube, DC cube and
#: output, times ``max(1, 2**n / 64)`` words each.
MAX_WORDS = 1 << 18


def coverage_table(cubes: Sequence[Cube], dc_set: Cover,
                   n_inputs: int, n_outputs: int):
    """The coverage engine for ``cubes`` against ``dc_set``."""
    from repro import kernels
    rows = len(cubes) + len(dc_set.cubes) + n_outputs
    if (kernels.enabled() and n_outputs <= kernels.bitslice.WORD
            and rows * max(1, (1 << n_inputs) // 64) <= MAX_WORDS):
        perf.count("espresso.coverage.table")
        return _TruthTable(cubes, dc_set, n_inputs, n_outputs)
    perf.count("espresso.coverage.scalar")
    return _ScalarTable(cubes, dc_set, n_inputs, n_outputs)


class _ScalarTable:
    """``covers_cube`` per question."""

    def __init__(self, cubes, dc_set, n_inputs, n_outputs):
        self._cubes = list(cubes)
        self._dc = list(dc_set.cubes)
        self._live = [True] * len(self._cubes)
        self._dims = (n_inputs, n_outputs)

    def covered_by_rest(self) -> List[bool]:
        return [self.covered(i) for i in range(len(self._cubes))]

    def _rest(self, i: int) -> Cover:
        return Cover(*self._dims, [c for j, c in enumerate(self._cubes)
                                   if j != i and self._live[j]] + self._dc)

    def covered(self, i: int) -> bool:
        return self._live[i] and covers_cube(self._rest(i), self._cubes[i])

    def slice_covered(self, i: int, k: int) -> bool:
        rest = [c if j != i else c.with_outputs(c.outputs & ~(1 << k))
                for j, c in enumerate(self._cubes) if self._live[j]]
        return covers_cube(Cover(*self._dims, rest + self._dc),
                           self._cubes[i].with_outputs(1 << k))

    def reduced(self, i: int) -> Cube:
        from repro.espresso.reduce import reduce_cube
        return reduce_cube(self._cubes[i], self._rest(i))

    def remove(self, i: int) -> None:
        self._live[i] = False

    def drop_output(self, i: int, k: int) -> None:
        cube = self._cubes[i]
        self._cubes[i] = cube.with_outputs(cube.outputs & ~(1 << k))

    def replace(self, i: int, cube: Cube) -> None:
        self._cubes[i] = cube


class _TruthTable:
    """Acceptance words over the whole truth table."""

    def __init__(self, cubes, dc_set, n_inputs, n_outputs):
        import numpy as np
        from repro.kernels.bitslice import exhaustive_accepts
        self._cubes, self._n_inputs = list(cubes), n_inputs
        pool = self._cubes + list(dc_set.cubes)  # cube rows, then DC rows
        # the bits of a word that are minterms (fewer when n < 6)
        self._tail = np.uint64((1 << (1 << min(n_inputs, 6))) - 1)
        self._accept = exhaustive_accepts(pool, n_inputs) & self._tail
        outputs = np.array([c.outputs for c in pool], dtype=np.uint64)
        self._taps = (outputs[:, None] >> np.arange(
            n_outputs, dtype=np.uint64) & np.uint64(1)).astype(bool)
        self._n = len(cubes)
        self._mask = np.zeros((n_outputs, self._accept.shape[1]), np.uint64)
        self._hit = self._accept != 0  # words a row accepts in
        for k in range(n_outputs):  # mask_k matters where its cubes hit
            hit = self._hit[:self._n][self._taps[:self._n, k]].any(axis=0)
            self._derive(k, np.flatnonzero(hit))

    def _derive(self, k: int, words) -> None:
        """Re-derive ``mask_k`` on the given word indices."""
        import numpy as np
        rows = np.flatnonzero(self._taps[:, k])
        table = self._accept[np.ix_(rows, words)]
        live = int(np.searchsorted(rows, self._n))
        mask = np.bitwise_or.reduce(table[live:], axis=0)
        if live > 1:
            seen = np.bitwise_or.accumulate(table[:live - 1], axis=0)
            mask |= np.bitwise_or.reduce(table[1:live] & seen, axis=0)
        self._mask[k, words] = mask

    def covered_by_rest(self) -> List[bool]:
        return [self.covered(i) for i in range(self._n)]

    def covered(self, i: int) -> bool:
        taps = self._taps[i]  # none, or an empty input field: not covered
        return bool(taps.any() and self._accept[i].any()) and \
            not (self._accept[i] & ~self._mask[taps]).any()

    def slice_covered(self, i: int, k: int) -> bool:
        return bool(self._accept[i].any()) and \
            not (self._accept[i] & ~self._mask[k]).any()

    def remove(self, i: int) -> None:
        for k in self._taps[i].nonzero()[0]:
            self.drop_output(i, k)

    def drop_output(self, i: int, k: int) -> None:
        self._taps[i, k] = False
        self._derive(k, self._hit[i].nonzero()[0])

    def reduced(self, i: int) -> Cube:
        """Cube ``i`` cut down to the supercube of the minterms that no
        other live cube or DC cube covers, on the outputs that keep any;
        the empty cube when none does."""
        cube, taps = self._cubes[i], self._taps[i].nonzero()[0]
        left = self._accept[i] & ~self._mask[taps]
        kept = left.any(axis=1)
        if not kept.any():
            return Cube(cube.n_inputs, 0, 0, cube.n_outputs)
        inputs = supercube_inputs(left[kept], self._n_inputs)
        return Cube(cube.n_inputs, cube.inputs & inputs,
                    sum(1 << int(k) for k in taps[kept]), cube.n_outputs)

    def replace(self, i: int, cube: Cube) -> None:
        import numpy as np
        from repro.kernels.bitslice import exhaustive_accepts
        accept = exhaustive_accepts([cube], self._n_inputs)[0] & self._tail
        taps = np.array([cube.outputs >> k & 1
                         for k in range(len(self._mask))], dtype=bool)
        words = (self._hit[i] | (accept != 0)).nonzero()[0]
        changed = (self._taps[i] | taps).nonzero()[0]
        self._cubes[i] = cube
        self._accept[i], self._taps[i], self._hit[i] = accept, taps, accept != 0
        for k in changed:
            self._derive(k, words)


def supercube_inputs(words, n_inputs: int) -> int:
    """Input part of the smallest cube holding every minterm set in
    ``words`` (acceptance words, one row or a stack; not all zero).

    Variables 0..5 are read off the OR of the words against their
    patterns, variables 6 and up off the OR of the indices of the
    nonzero words and the OR of their complements.
    """
    import numpy as np
    from repro.kernels.bitslice import _LOW_PATTERNS
    words = np.atleast_2d(words)
    low = int(np.bitwise_or.reduce(words, axis=None))
    if n_inputs < 6:
        low &= (1 << (1 << n_inputs)) - 1
    index = np.flatnonzero(words.any(axis=0))
    ones = int(np.bitwise_or.reduce(index))
    zeros = int(np.bitwise_or.reduce(~index & (words.shape[1] - 1)))
    inputs = 0
    for v in range(n_inputs):
        if v < 6:
            pattern = int(_LOW_PATTERNS[v])
            one, zero = low & pattern, low & ~pattern
        else:
            one, zero = ones >> (v - 6) & 1, zeros >> (v - 6) & 1
        inputs |= ((BIT_ONE if one else 0) | (BIT_ZERO if zero else 0)) \
            << (2 * v)
    return inputs
