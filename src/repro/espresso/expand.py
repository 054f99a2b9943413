"""EXPAND — raise every cube of the cover to a prime implicant.

A cube is expanded by raising lowered positions (missing halves of
input fields, missing output bits) one at a time, as long as the grown
cube stays disjoint from the OFF-set.  Raises are attempted in a
heuristic order: positions blocked by the fewest OFF-set cubes first,
ties broken in favour of raises that swallow other cubes of the cover.
After each successful expansion, covered sibling cubes are dropped.

This is the minimizer's hottest loop — every candidate raise is tested
against every OFF-set cube — so the distance sweep runs on the
:mod:`repro.kernels.cubematrix` engine when the kernel backend is
active: all candidate raises of a cube are packed into one matrix and
a single ``(raises x off_cubes)`` distance matrix replaces the nested
Python loops.  Candidate construction order, the blocked test and the
tightness tie-breaker are identical to the scalar path, so the chosen
primes are bit-identical either way.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.espresso.unate import cube_literal_positions


def expand(cover: Cover, off_set: Cover) -> Cover:
    """Expand every cube of ``cover`` against ``off_set``.

    Returns a cover of prime implicants (with respect to ON + DC, whose
    complement ``off_set`` must be) in which no cube is singly
    contained in another.
    """
    order = sorted(range(len(cover.cubes)),
                   key=lambda i: cover.cubes[i].size())
    covered = [False] * len(cover.cubes)
    result: List[Cube] = []
    sibling_matrix = cover._cube_matrix()

    for idx in order:
        if covered[idx]:
            continue
        cube = expand_cube(cover.cubes[idx], off_set)
        # Mark any not-yet-expanded sibling the prime now covers.
        if sibling_matrix is not None:
            from repro.kernels import cubematrix as cm
            swallowed = cm.cube_contains_rows(
                sibling_matrix, cube.inputs, cube.outputs)
            for j in range(len(cover.cubes)):
                if j != idx and not covered[j] and swallowed[j]:
                    covered[j] = True
        else:
            for j in range(len(cover.cubes)):
                if j != idx and not covered[j] and cube.contains(cover.cubes[j]):
                    covered[j] = True
        result.append(cube)

    return Cover(cover.n_inputs, cover.n_outputs, result).single_cube_containment()


def expand_cube(cube: Cube, off_set: Cover) -> Cube:
    """Expand a single cube into a prime against the OFF-set."""
    off_matrix = off_set._cube_matrix()
    current = cube
    while True:
        candidates = _feasible_raises(current, off_set, off_matrix)
        if not candidates:
            return current
        # Raise the position blocked by the fewest remaining constraints:
        # candidates are already feasible, so pick the one leaving the most
        # freedom — approximate by choosing the raise whose resulting cube
        # has the fewest OFF-set cubes at Hamming distance 1.
        best = min(candidates, key=lambda item: item[1])
        current = best[0]


def _raised_cubes(cube: Cube) -> List[Cube]:
    """All single-position raises of ``cube``, in canonical order."""
    raised: List[Cube] = []
    for kind, position in cube_literal_positions(cube):
        if kind == "input":
            raised.append(Cube(cube.n_inputs, cube.inputs | (1 << position),
                               cube.outputs, cube.n_outputs))
        else:
            raised.append(Cube(cube.n_inputs, cube.inputs,
                               cube.outputs | (1 << position), cube.n_outputs))
    return raised


def _feasible_raises(cube: Cube, off_set: Cover,
                     off_matrix=None) -> List[Tuple[Cube, int]]:
    """All single-position raises keeping the cube OFF-disjoint.

    Each entry is ``(raised_cube, tightness)`` where ``tightness`` counts
    OFF-set cubes at distance 1 from the raised cube (a proxy for how
    much future freedom the raise forfeits).
    """
    if off_matrix is None:
        off_matrix = off_set._cube_matrix()
    if off_matrix is not None:
        raised = _raised_cubes(cube)
        if not raised:
            return []
        from repro.kernels import cubematrix as cm
        raised_matrix = cm.pack_cubes(raised, cube.n_inputs, cube.n_outputs)
        dist = cm.distance_matrix(raised_matrix, off_matrix)
        blocked = (dist == 0).any(axis=1)
        tightness = (dist == 1).sum(axis=1)
        return [(raised[k], int(tightness[k]))
                for k in range(len(raised)) if not blocked[k]]

    results: List[Tuple[Cube, int]] = []
    for raised_cube in _raised_cubes(cube):
        blocked = False
        tightness = 0
        for off_cube in off_set.cubes:
            dist = raised_cube.distance(off_cube)
            if dist == 0:
                blocked = True
                break
            if dist == 1:
                tightness += 1
        if not blocked:
            results.append((raised_cube, tightness))
    return results


def is_prime(cube: Cube, off_set: Cover) -> bool:
    """True when no single raise of ``cube`` stays OFF-disjoint."""
    return not _feasible_raises(cube, off_set)
