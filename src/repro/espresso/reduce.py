"""REDUCE — shrink each cube to its maximal reduction.

REDUCE gives EXPAND room to escape local minima: each cube is replaced
by the smallest cube that still covers the part of the ON-set no other
cube covers.  The classical formula is::

    c~ = c  ∩  supercube( complement( (F \\ {c} ∪ D) cofactored by c ) )

:func:`reduce_cover` asks it of the shared coverage table
(:mod:`repro.espresso.coverage`).  On the NumPy backend the table reads
the minterms that only ``c`` covers straight off the whole truth table
and takes their supercube from the acceptance words.  Above the table
bound, and on the scalar backend, :func:`reduce_cube` answers with the
formula above: the complement is computed per output in the cofactor
space by the unate-recursive complementation of
:mod:`repro.logic.complement`.  Both give the same cube.
"""

from __future__ import annotations

from typing import Optional

from repro import perf
from repro.espresso.coverage import coverage_table
from repro.logic.complement import complement_cover
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.tautology import is_tautology


def reduce_cover(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Maximally reduce every cube, in descending-size order.

    Reduction is order-dependent (each cube is reduced against the
    *current* cover, with earlier reductions already applied); Espresso's
    heuristic of processing large cubes first is used here too.
    """
    n, m = cover.n_inputs, cover.n_outputs
    if not len(cover):
        return Cover(n, m)
    if dc_set is None:
        dc_set = Cover.empty(n, m)

    cubes = list(cover.cubes)
    table = coverage_table(cubes, dc_set, n, m)
    for i in sorted(range(len(cubes)), key=lambda i: -cubes[i].size()):
        cubes[i] = table.reduced(i)
        table.replace(i, cubes[i])
    return Cover(n, m, [c for c in cubes if not c.is_empty()])


def reduce_cube(cube: Cube, rest: Cover) -> Cube:
    """The maximal reduction of ``cube`` against cover ``rest``.

    An empty result means the rest of the cover already covers the cube
    entirely.
    """
    cofactored = rest.cofactor(cube)
    if is_tautology(cofactored):
        # Everything under the cube is covered elsewhere: reduce to nothing.
        perf.count("reduce.vanished")
        return Cube(cube.n_inputs, 0, 0, cube.n_outputs)
    perf.count("reduce.complemented")

    n = cube.n_inputs
    super_inputs = 0
    super_outputs = 0
    for output in cube.output_indices():
        per_output = cofactored.restrict_output(output)
        comp = complement_cover(per_output)
        if not comp.cubes:
            # output fully covered by the rest: drop it from the cube
            continue
        sc_inputs = 0
        for comp_cube in comp.cubes:
            sc_inputs |= comp_cube.inputs
        super_inputs |= sc_inputs
        super_outputs |= 1 << output

    if super_outputs == 0:
        return Cube(cube.n_inputs, 0, 0, cube.n_outputs)

    reduced = Cube(n, cube.inputs & super_inputs, cube.outputs & super_outputs,
                   cube.n_outputs)
    if reduced.is_empty():
        return Cube(cube.n_inputs, 0, 0, cube.n_outputs)
    return reduced
