"""Covers — ordered collections of cubes representing sums of products.

A :class:`Cover` is the central currency of the library: minimizers
consume and produce covers, PLA planes are programmed from covers, and
area models count their rows and columns.  Covers are *mostly*
immutable in use; mutating helpers return new covers.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube, full_output_mask


class Cover:
    """A list of :class:`~repro.logic.cube.Cube` with shared dimensions.

    Parameters
    ----------
    n_inputs, n_outputs:
        Dimensions shared by every cube.
    cubes:
        Initial cube iterable; dimension-checked.
    """

    __slots__ = ("n_inputs", "n_outputs", "cubes",
                 "_version", "_mask_cache", "_mask_version",
                 "_pack", "_pack_version",
                 "_matrix", "_matrix_version")

    #: Entries kept in the per-cover minterm->mask memo before it is
    #: reset (bounds memory on huge sampled sweeps).
    _MASK_CACHE_LIMIT = 1 << 18

    def __init__(self, n_inputs: int, n_outputs: int = 1,
                 cubes: Optional[Iterable[Cube]] = None):
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.cubes: List[Cube] = []
        # Mutation counter: bumped by append(), the cover's only
        # mutator.  Both evaluation caches (the scalar minterm memo and
        # the kernels' packed-array form) validate against it.
        self._version = 0
        self._mask_cache: Optional[dict] = None
        self._mask_version = -1
        self._pack = None
        self._pack_version = -1
        self._matrix = None
        self._matrix_version = -1
        if cubes is not None:
            for cube in cubes:
                self.append(cube)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        """Build from Berkeley-style rows, e.g. ``["10- 1", "0-1 1"]``."""
        cubes = []
        for row in rows:
            parts = row.split()
            if len(parts) == 1:
                parts.append("1")
            cubes.append(Cube.from_string(parts[0], parts[1]))
        if not cubes:
            raise ValueError("cannot infer dimensions from an empty row list")
        return cls(cubes[0].n_inputs, cubes[0].n_outputs, cubes)

    @classmethod
    def empty(cls, n_inputs: int, n_outputs: int = 1) -> "Cover":
        """The empty cover (constant 0 everywhere)."""
        return cls(n_inputs, n_outputs)

    @classmethod
    def universe(cls, n_inputs: int, n_outputs: int = 1) -> "Cover":
        """The single-full-cube cover (constant 1 everywhere)."""
        return cls(n_inputs, n_outputs, [Cube.full(n_inputs, n_outputs)])

    @classmethod
    def random(cls, n_inputs: int, n_outputs: int, n_cubes: int,
               rng: random.Random, dash_probability: float = 0.4) -> "Cover":
        """A random cover (seeded); useful for property tests and workloads."""
        cubes = []
        for _ in range(n_cubes):
            inputs = 0
            for v in range(n_inputs):
                roll = rng.random()
                if roll < dash_probability:
                    field = BIT_DASH
                elif roll < dash_probability + (1 - dash_probability) / 2:
                    field = BIT_ZERO
                else:
                    field = BIT_ONE
                inputs |= field << (2 * v)
            outputs = rng.randrange(1, full_output_mask(n_outputs) + 1)
            cubes.append(Cube(n_inputs, inputs, outputs, n_outputs))
        return cls(n_inputs, n_outputs, cubes)

    def copy(self) -> "Cover":
        """A shallow copy (cubes are immutable, so this is a full copy)."""
        return Cover(self.n_inputs, self.n_outputs, self.cubes)

    # ------------------------------------------------------------------
    # list protocol
    # ------------------------------------------------------------------
    def append(self, cube: Cube) -> None:
        """Append a cube after dimension-checking it."""
        if cube.n_inputs != self.n_inputs or cube.n_outputs != self.n_outputs:
            raise ValueError(
                f"cube dimensions ({cube.n_inputs}, {cube.n_outputs}) do not match "
                f"cover dimensions ({self.n_inputs}, {self.n_outputs})")
        self.cubes.append(cube)
        self._version += 1

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, index: int) -> Cube:
        return self.cubes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (self.n_inputs == other.n_inputs and self.n_outputs == other.n_outputs
                and self.cubes == other.cubes)

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.n_inputs, self.n_outputs, tuple(self.cubes)))

    def __repr__(self) -> str:
        return (f"Cover(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
                f"cubes={len(self.cubes)})")

    def __add__(self, other: "Cover") -> "Cover":
        """Concatenation (logical OR of the two covers)."""
        if (other.n_inputs, other.n_outputs) != (self.n_inputs, self.n_outputs):
            raise ValueError("cover dimensions do not match")
        return Cover(self.n_inputs, self.n_outputs, list(self.cubes) + list(other.cubes))

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def n_cubes(self) -> int:
        """Number of product terms (PLA rows)."""
        return len(self.cubes)

    def n_literals(self) -> int:
        """Total input-literal count across all cubes."""
        return sum(cube.n_literals() for cube in self.cubes)

    def cost(self) -> Tuple[int, int, int]:
        """Minimization cost: (cubes, input literals, output literals)."""
        out_lits = sum(bin(cube.outputs).count("1") for cube in self.cubes)
        return (len(self.cubes), self.n_literals(), out_lits)

    def is_empty(self) -> bool:
        """True when the cover contains no non-empty cube."""
        return all(cube.is_empty() for cube in self.cubes)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Sequence[int]) -> List[bool]:
        """Evaluate every output on a 0/1 input vector."""
        result_mask = 0
        for cube in self.cubes:
            if result_mask == full_output_mask(self.n_outputs):
                break
            if cube.evaluate(assignment):
                result_mask |= cube.outputs
        return [(result_mask >> k) & 1 == 1 for k in range(self.n_outputs)]

    def evaluate_minterm(self, minterm: int) -> int:
        """Evaluate on an integer minterm; returns the output bitmask."""
        return self.output_mask_for(minterm)

    @staticmethod
    def _input_part_contains(cube: Cube, minterm: int) -> bool:
        for i in range(cube.n_inputs):
            bit = BIT_ONE if (minterm >> i) & 1 else BIT_ZERO
            if not cube.field(i) & bit:
                return False
        return True

    def output_mask_for(self, minterm: int) -> int:
        """Bitmask of outputs asserted for the given input minterm.

        Results are memoized per cover (the memo is invalidated by
        :meth:`append` through the mutation counter), so repeated walks
        over the same cover — truth tables, sampled sweeps, the exact
        minimizer's covering table — pay the cube scan once per
        minterm.
        """
        cache = self._mask_cache
        if cache is None or self._mask_version != self._version:
            cache = self._mask_cache = {}
            self._mask_version = self._version
        elif len(cache) > self._MASK_CACHE_LIMIT:
            cache.clear()
        result = cache.get(minterm)
        if result is None:
            result = 0
            for cube in self.cubes:
                if self._input_part_contains(cube, minterm):
                    result |= cube.outputs
            cache[minterm] = result
        return result

    def truth_table(self) -> List[int]:
        """Output bitmask for every input minterm (exponential; small n only)."""
        from repro import kernels
        if kernels.enabled() and self.n_outputs <= kernels.bitslice.WORD:
            return kernels.bitslice.cover_truth_table(self)
        return [self.output_mask_for(m) for m in range(1 << self.n_inputs)]

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def restrict_output(self, output: int) -> "Cover":
        """The single-output input-part cover of ``output`` (n_outputs becomes 1)."""
        cubes = [Cube(self.n_inputs, cube.inputs, 1, 1)
                 for cube in self.cubes if (cube.outputs >> output) & 1]
        return Cover(self.n_inputs, 1, cubes)

    def _cube_matrix(self):
        """The packed :class:`~repro.kernels.cubematrix.CubeMatrix` when
        the matrix engine applies to this cover, else ``None``.

        The engine is skipped for small covers (packing overhead beats
        the win below :data:`~repro.kernels.cubematrix.MIN_CUBES` cubes)
        and for covers wider than one output word.
        """
        from repro import kernels
        if not kernels.enabled():
            return None
        cm = kernels.cubematrix
        if self.n_outputs > cm.MAX_OUTPUTS or len(self.cubes) < cm.MIN_CUBES:
            return None
        return cm.matrix_of(self)

    def cofactor(self, cube: Cube) -> "Cover":
        """The cover's Shannon cofactor with respect to ``cube``."""
        matrix = self._cube_matrix()
        if matrix is not None:
            from repro.kernels import cubematrix as cm
            pairs = cm.cofactor_pairs(matrix, cube.inputs, cube.outputs)
            cubes = [Cube(self.n_inputs, inp, out, self.n_outputs)
                     for inp, out in pairs]
            return Cover(self.n_inputs, self.n_outputs, cubes)
        cubes = []
        for c in self.cubes:
            cf = c.cofactor(cube)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.n_inputs, self.n_outputs, cubes)

    def cofactor_var(self, var: int, value: bool) -> "Cover":
        """Cofactor with respect to a single variable's value."""
        field = BIT_ONE if value else BIT_ZERO
        literal = Cube.full(self.n_inputs, self.n_outputs).with_field(var, field)
        return self.cofactor(literal)

    def without(self, index: int) -> "Cover":
        """A copy omitting the cube at ``index``."""
        cubes = self.cubes[:index] + self.cubes[index + 1:]
        return Cover(self.n_inputs, self.n_outputs, cubes)

    def single_cube_containment(self) -> "Cover":
        """Drop every cube contained in another single cube of the cover.

        Cheap (quadratic) cleanup pass used throughout the minimizer.
        """
        order = sorted(range(len(self.cubes)),
                       key=lambda i: -self.cubes[i].size())
        matrix = self._cube_matrix()
        if matrix is not None:
            from repro.kernels import cubematrix as cm
            kept_idx = cm.scc_indices(matrix, order)
            return Cover(self.n_inputs, self.n_outputs,
                         [self.cubes[i] for i in kept_idx])
        kept: List[Cube] = []
        for i in order:
            cube = self.cubes[i]
            if cube.is_empty():
                continue
            if not any(other.contains(cube) for other in kept):
                kept.append(cube)
        return Cover(self.n_inputs, self.n_outputs, kept)

    def merge_identical_inputs(self) -> "Cover":
        """OR together the output parts of cubes with identical input parts."""
        merged = {}
        order = []
        for cube in self.cubes:
            if cube.inputs in merged:
                merged[cube.inputs] |= cube.outputs
            else:
                merged[cube.inputs] = cube.outputs
                order.append(cube.inputs)
        cubes = [Cube(self.n_inputs, inputs, merged[inputs], self.n_outputs)
                 for inputs in order]
        return Cover(self.n_inputs, self.n_outputs, cubes)

    def sorted_by(self, key: Callable[[Cube], object]) -> "Cover":
        """A copy with cubes sorted by ``key``."""
        return Cover(self.n_inputs, self.n_outputs, sorted(self.cubes, key=key))

    # ------------------------------------------------------------------
    # variable statistics (used by the unate-recursive procedures)
    # ------------------------------------------------------------------
    def column_counts(self) -> List[Tuple[int, int]]:
        """Per variable, ``(count of 0-literals, count of 1-literals)``."""
        matrix = self._cube_matrix()
        if matrix is not None:
            from repro.kernels import cubematrix as cm
            zeros_a, ones_a = cm.column_counts(matrix)
            return list(zip(zeros_a.tolist(), ones_a.tolist()))
        zeros = [0] * self.n_inputs
        ones = [0] * self.n_inputs
        for cube in self.cubes:
            inputs = cube.inputs
            for v in range(self.n_inputs):
                field = inputs & 0b11
                if field == BIT_ZERO:
                    zeros[v] += 1
                elif field == BIT_ONE:
                    ones[v] += 1
                inputs >>= 2
        return list(zip(zeros, ones))

    def most_binate_variable(self) -> Optional[int]:
        """The splitting variable: most binate, ties broken by total count.

        Returns ``None`` when every cube is all-dashes (no variable
        appears in any cube).
        """
        counts = self.column_counts()
        best_var = None
        best_key = None
        for var, (zeros, ones) in enumerate(counts):
            if zeros + ones == 0:
                continue
            binate = min(zeros, ones)
            key = (binate, zeros + ones)
            if best_key is None or key > best_key:
                best_key = key
                best_var = var
        return best_var

    def is_unate_in(self, var: int) -> bool:
        """True when variable ``var`` appears in only one polarity."""
        zeros, ones = self.column_counts()[var]
        return zeros == 0 or ones == 0

    def is_unate(self) -> bool:
        """True when the cover is unate in every variable."""
        return all(min(z, o) == 0 for z, o in self.column_counts())

    # ------------------------------------------------------------------
    # I/O helpers
    # ------------------------------------------------------------------
    def to_strings(self) -> List[str]:
        """Berkeley-style rows (input part, space, output part)."""
        return [str(cube) for cube in self.cubes]
