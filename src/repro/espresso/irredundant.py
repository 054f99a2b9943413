"""IRREDUNDANT — drop cubes covered by the rest of the cover.

The pass first removes cubes totally redundant against the relatively
essential set, then sequentially tests the partially redundant cubes
(largest first, so small cubes get eliminated in favour of large ones)
and deletes any cube still covered by the remaining cover plus the
DC-set.  The result contains no redundant cube, though like Espresso's
heuristic it is not guaranteed to be a *minimum* irredundant subcover.

Every probe asks "does the cover minus cube *i* still cover cube *i*";
one :func:`~repro.espresso.coverage.coverage_table` answers them all,
on the whole truth table when it is small enough and through
``covers_cube`` otherwise, with identical decisions either way.
"""

from __future__ import annotations

from typing import List, Optional

from repro.espresso.coverage import coverage_table
from repro.logic.cover import Cover
from repro.logic.cube import Cube


def irredundant(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """An irredundant subcover of ``cover`` (same function modulo DC)."""
    if dc_set is None:
        dc_set = Cover.empty(cover.n_inputs, cover.n_outputs)

    cubes: List[Cube] = [c for c in cover.cubes if not c.is_empty()]
    if len(cubes) <= 1:
        return Cover(cover.n_inputs, cover.n_outputs, cubes)

    table = coverage_table(cubes, dc_set, cover.n_inputs, cover.n_outputs)
    # Relatively essential cubes can never be removed; identify them once
    # so the sequential pass below can skip their re-tests.
    essential_flags = [not covered for covered in table.covered_by_rest()]

    # Sequentially remove redundant cubes, smallest first so that large
    # cubes survive (fewer literals on the PLA rows).
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].size())
    removed = [False] * len(cubes)
    for i in order:
        if not essential_flags[i] and table.covered(i):
            table.remove(i)
            removed[i] = True

    kept = [cubes[i] for i in range(len(cubes)) if not removed[i]]
    return Cover(cover.n_inputs, cover.n_outputs, kept)
