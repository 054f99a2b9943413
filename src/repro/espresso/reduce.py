"""REDUCE — shrink each cube to its maximal reduction.

REDUCE gives EXPAND room to escape local minima: each cube is replaced
by the smallest cube that still covers the part of the ON-set no other
cube covers.  The classical formula is::

    c~ = c  ∩  supercube( complement( (F \\ {c} ∪ D) cofactored by c ) )

The complement is computed per output in the cofactor space using the
unate-recursive complementation of :mod:`repro.logic.complement`.

On the kernel backend the cofactor step runs on the matrix engine
(:meth:`repro.logic.cover.Cover.cofactor` packs ``rest`` and cofactors
all rows at once) and the tautology pre-test hits the memoized kernel
path; the unate-recursive complement itself is still scalar (a known
remaining hot spot — see the ROADMAP open items).
"""

from __future__ import annotations

from typing import Optional

from repro import perf
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
    if dc_set is None:
        dc_set = Cover.empty(cover.n_inputs, cover.n_outputs)

    cubes = list(cover.cubes)
    order = sorted(range(len(cubes)), key=lambda i: -cubes[i].size())
    for i in order:
        rest = Cover(cover.n_inputs, cover.n_outputs,
                     [cubes[j] for j in range(len(cubes)) if j != i]
                     + list(dc_set.cubes))
        reduced = reduce_cube(cubes[i], rest)
        if reduced is not None:
            cubes[i] = reduced
    kept = [c for c in cubes if not c.is_empty()]
    return Cover(cover.n_inputs, cover.n_outputs, kept)


def reduce_cube(cube: Cube, rest: Cover) -> Optional[Cube]:
    """The maximal reduction of ``cube`` against cover ``rest``.

    Returns ``None`` (caller keeps the original) when the reduction is
    ill-defined, or an (possibly empty) cube otherwise.  An empty result
    means the rest of the cover already covers the cube entirely.
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
