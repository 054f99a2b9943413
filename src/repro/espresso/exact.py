"""Exact two-level minimization (Quine-McCluskey + branch-and-bound).

The heuristic Espresso loop is near-optimal but not guaranteed; this
module provides the exact minimum for *single-output* functions of
modest size (≲ 12 inputs), used by the minimizer-quality ablation to
measure how far the heuristic lands from the true optimum.

Pipeline: enumerate all prime implicants by iterated merging
(Quine-McCluskey over ON ∪ DC), build the prime-vs-ON-minterm covering
table, reduce it (essential primes, row and column dominance), then
branch and bound with a maximal-independent-set lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.logic.cover import Cover
from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube
from repro.logic.function import BooleanFunction


@dataclass
class ExactResult:
    """Outcome of exact minimization.

    Attributes
    ----------
    cover:
        A minimum-cardinality prime cover of the function.
    n_primes:
        How many prime implicants the function has.
    optimum:
        The minimum cover size (== ``len(cover)``).
    nodes_explored:
        Branch-and-bound search nodes visited.
    """

    cover: Cover
    n_primes: int
    optimum: int
    nodes_explored: int


class ExactMinimizationError(ValueError):
    """Raised for unsupported instances (multi-output, too many inputs)."""


def _care_minterms(function: BooleanFunction) -> List[int]:
    """Minterms of ON ∪ DC (output 0), bit-sliced when available."""
    from repro import kernels
    n = function.n_inputs
    if kernels.enabled():
        on = set(int(m) for m in
                 kernels.bitslice.true_minterms(function.on_set, 0))
        on.update(int(m) for m in
                  kernels.bitslice.true_minterms(function.dc_set, 0))
        return sorted(on)
    return [m for m in range(1 << n)
            if (function.on_set.output_mask_for(m)
                | function.dc_set.output_mask_for(m)) & 1]


def _on_minterms(function: BooleanFunction) -> List[int]:
    """Minterms of the ON-set (output 0), bit-sliced when available."""
    from repro import kernels
    if kernels.enabled():
        return [int(m) for m in
                kernels.bitslice.true_minterms(function.on_set, 0)]
    return [m for m in range(1 << function.n_inputs)
            if function.on_set.output_mask_for(m) & 1]


def all_primes(function: BooleanFunction) -> List[int]:
    """All prime-implicant input masks of a single-output function.

    Classical Quine-McCluskey: start from the ON ∪ DC minterm cubes,
    repeatedly merge pairs differing in one variable, and keep cubes
    that never merged.
    """
    n = function.n_inputs
    current: Set[int] = set()
    for minterm in _care_minterms(function):
        current.add(Cube.from_minterm(minterm, n).inputs)

    primes: Set[int] = set()
    while current:
        merged_away: Set[int] = set()
        next_level: Set[int] = set()
        current_list = sorted(current)
        current_set = current
        for mask in current_list:
            for var in range(n):
                field = (mask >> (2 * var)) & 0b11
                if field == BIT_DASH:
                    continue
                partner = mask ^ (0b11 << (2 * var))  # flip 01 <-> 10
                if partner in current_set:
                    merged = mask | (0b11 << (2 * var))
                    next_level.add(merged)
                    merged_away.add(mask)
                    merged_away.add(partner)
        primes |= current - merged_away
        current = next_level
    return sorted(primes)


def exact_minimize(function: BooleanFunction, max_inputs: int = 12,
                   max_nodes: int = 200000) -> ExactResult:
    """Minimum-cardinality SOP of a single-output function.

    Raises :class:`ExactMinimizationError` on multi-output functions or
    above ``max_inputs`` (the method is exponential).
    """
    if function.n_outputs != 1:
        raise ExactMinimizationError("exact minimization is single-output; "
                                     "minimize each output separately")
    if function.n_inputs > max_inputs:
        raise ExactMinimizationError(
            f"{function.n_inputs} inputs exceeds the exact limit "
            f"{max_inputs}")

    n = function.n_inputs
    primes = all_primes(function)
    on_minterms = _on_minterms(function)
    if not on_minterms:
        return ExactResult(Cover.empty(n, 1), len(primes), 0, 0)

    # covering table: minterm -> set of prime indices covering it
    from repro import kernels
    prime_cubes = [Cube(n, mask, 1, 1) for mask in primes]
    coverers: Dict[int, FrozenSet[int]] = {}
    if kernels.enabled() and prime_cubes:
        import numpy as np
        matrix = kernels.bitslice.prime_cover_matrix(
            Cover(n, 1, prime_cubes), on_minterms)
        for t, m in enumerate(on_minterms):
            coverers[m] = frozenset(int(i) for i in
                                    np.flatnonzero(matrix[:, t]))
    else:
        for m in on_minterms:
            coverers[m] = frozenset(i for i, cube in enumerate(prime_cubes)
                                    if _input_contains(cube, m))

    chosen, nodes = _solve_covering(coverers, len(prime_cubes), max_nodes)
    cover = Cover(n, 1, [prime_cubes[i] for i in sorted(chosen)])
    return ExactResult(cover, len(primes), len(chosen), nodes)


def _input_contains(cube: Cube, minterm: int) -> bool:
    for i in range(cube.n_inputs):
        bit = BIT_ONE if (minterm >> i) & 1 else BIT_ZERO
        if not cube.field(i) & bit:
            return False
    return True


#: Below this column count the plain Python subset loop beats packing
#: the membership matrix for :func:`repro.kernels.cubematrix.subset_matrix`.
_SUBSET_MATRIX_MIN_COLUMNS = 16


def _column_subset_matrix(columns: Dict[int, Set[int]],
                          order: Sequence[int]):
    """Pairwise subset matrix over ``order`` — ``[j][i]`` iff
    ``columns[order[j]] <= columns[order[i]]`` — or ``None`` when the
    scalar comparison loop should run instead."""
    from repro import kernels
    if not kernels.enabled() or len(order) < _SUBSET_MATRIX_MIN_COLUMNS:
        return None
    universe = sorted({m for col in columns.values() for m in col})
    return kernels.cubematrix.subset_matrix(
        [columns[p] for p in order], universe)


def _solve_covering(coverers: Dict[int, FrozenSet[int]], n_primes: int,
                    max_nodes: int) -> Tuple[Set[int], int]:
    """Minimum unate covering via reduction + branch and bound."""
    best: Optional[Set[int]] = None
    nodes = 0

    def lower_bound(remaining: Dict[int, FrozenSet[int]]) -> int:
        """Greedy maximal independent set of rows (disjoint coverer sets)."""
        used: Set[int] = set()
        bound = 0
        for m in sorted(remaining, key=lambda m: len(remaining[m])):
            if remaining[m] & used:
                continue
            used |= remaining[m]
            bound += 1
        return bound

    def reduce_table(remaining: Dict[int, FrozenSet[int]],
                     chosen: Set[int]) -> Optional[Dict[int, FrozenSet[int]]]:
        """Apply essentials + column dominance until fixpoint."""
        remaining = dict(remaining)
        changed = True
        while changed:
            changed = False
            # essential primes: a minterm with one coverer
            for m, cov in list(remaining.items()):
                if not cov:
                    return None  # uncoverable
                if len(cov) == 1:
                    (prime,) = cov
                    chosen.add(prime)
                    remaining = {mm: cc for mm, cc in remaining.items()
                                 if prime not in cc}
                    changed = True
                    break
            if changed:
                continue
            # column dominance: drop primes whose row set is a subset of
            # another prime's
            columns: Dict[int, Set[int]] = {}
            for m, cov in remaining.items():
                for prime in cov:
                    columns.setdefault(prime, set()).add(m)
            order = sorted(columns, key=lambda p: -len(columns[p]))
            dominated: Set[int] = set()
            subset = _column_subset_matrix(columns, order)
            for i, p in enumerate(order):
                if p in dominated:
                    continue
                for j in range(i + 1, len(order)):
                    q = order[j]
                    if q in dominated:
                        continue
                    if (subset[j][i] if subset is not None
                            else columns[q] <= columns[p]):
                        dominated.add(q)
            if dominated:
                new_remaining = {m: frozenset(c - dominated)
                                 for m, c in remaining.items()}
                if new_remaining != remaining:
                    remaining = new_remaining
                    changed = True
        return remaining

    def branch(remaining: Dict[int, FrozenSet[int]], chosen: Set[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            return
        reduced = reduce_table(remaining, chosen)
        if reduced is None:
            return
        if best is not None and len(chosen) + lower_bound(reduced) >= len(best):
            return
        if not reduced:
            if best is None or len(chosen) < len(best):
                best = set(chosen)
            return
        # branch on the hardest minterm's coverers
        target = min(reduced, key=lambda m: len(reduced[m]))
        for prime in sorted(reduced[target]):
            new_chosen = set(chosen)
            new_chosen.add(prime)
            new_remaining = {m: c for m, c in reduced.items()
                             if prime not in c}
            branch(new_remaining, new_chosen)

    branch(coverers, set())
    if best is None:
        # max_nodes exhausted before any full solution: fall back to greedy
        best = set()
        remaining = dict(coverers)
        while remaining:
            counts: Dict[int, int] = {}
            for cov in remaining.values():
                for prime in cov:
                    counts[prime] = counts.get(prime, 0) + 1
            pick = max(counts, key=lambda p: counts[p])
            best.add(pick)
            remaining = {m: c for m, c in remaining.items() if pick not in c}
    return best, nodes
