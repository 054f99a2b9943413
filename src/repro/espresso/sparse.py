"""MAKE_SPARSE and LAST_GASP — the Espresso finishing passes.

* :func:`make_sparse` lowers redundant output taps: an OR-plane
  connection whose (cube, output) slice is already covered by the rest
  of the cover is removed.  The cube count is unchanged but the number
  of *programmed* devices drops — directly fewer conducting crosspoints
  on the paper's fabric (and less OR-plane load/energy).

* :func:`last_gasp` is the classical escape hatch when the main loop
  stalls: reduce every cube *independently* (not sequentially), expand
  the reductions looking for primes that cover two or more of them, and
  accept the result only when it improves the cover.
"""

from __future__ import annotations

from typing import List, Optional

from repro.espresso.coverage import coverage_table
from repro.espresso.expand import expand_cube
from repro.espresso.irredundant import irredundant
from repro.espresso.reduce import reduce_cube
from repro.logic.cover import Cover
from repro.logic.cube import Cube


def make_sparse(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Lower redundant output taps of every cube.

    For each cube ``c`` and each output ``k`` it asserts: drop ``k``
    from ``c`` when the remaining cover (plus DC) still covers the
    ``(c.inputs, k)`` slice.  The function is preserved exactly; only
    OR-plane programming gets sparser.
    """
    if dc_set is None:
        dc_set = Cover.empty(cover.n_inputs, cover.n_outputs)

    cubes: List[Cube] = list(cover.cubes)
    table = None  # built at the first multi-output cube
    for i, cube in enumerate(cubes):
        outputs = cube.outputs
        if bin(outputs).count("1") <= 1:
            continue
        if table is None:
            table = coverage_table(cubes, dc_set, cover.n_inputs,
                                   cover.n_outputs)
        for k in list(cube.output_indices()):
            if bin(outputs).count("1") <= 1:
                break  # keep the cube alive on at least one output
            if table.slice_covered(i, k):
                table.drop_output(i, k)
                outputs &= ~(1 << k)
        cubes[i] = Cube(cube.n_inputs, cube.inputs, outputs, cube.n_outputs)

    return Cover(cover.n_inputs, cover.n_outputs,
                 [c for c in cubes if not c.is_empty()])


def last_gasp(cover: Cover, off_set: Cover,
              dc_set: Optional[Cover] = None) -> Cover:
    """One desperate pass: independent reduce -> expand -> irredundant.

    Returns the better of the input cover and the attempt (by the usual
    (cubes, literals) cost), so it never loses ground.
    """
    if dc_set is None:
        dc_set = Cover.empty(cover.n_inputs, cover.n_outputs)
    if len(cover) < 2:
        return cover

    # maximal reduction of every cube against the *original* cover
    reduced_cubes: List[Cube] = []
    for i, cube in enumerate(cover.cubes):
        rest = Cover(cover.n_inputs, cover.n_outputs,
                     cover.cubes[:i] + cover.cubes[i + 1:]
                     + list(dc_set.cubes))
        reduced = reduce_cube(cube, rest)
        if not reduced.is_empty():
            reduced_cubes.append(reduced)

    # expand the reductions; keep primes that swallow >= 2 reductions
    candidates: List[Cube] = []
    for cube in reduced_cubes:
        prime = expand_cube(cube, off_set)
        swallowed = sum(1 for other in reduced_cubes if prime.contains(other))
        if swallowed >= 2:
            candidates.append(prime)

    if not candidates:
        return cover

    attempt = Cover(cover.n_inputs, cover.n_outputs,
                    list(cover.cubes) + candidates)
    attempt = irredundant(attempt.single_cube_containment(), dc_set)
    return attempt if attempt.cost() < cover.cost() else cover
