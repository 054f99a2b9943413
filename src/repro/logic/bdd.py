"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

Truth tables cap exact equivalence checking at ~16 inputs; the `t2`
benchmark alone has 17.  This module provides a small, classical ROBDD
engine — hash-consed nodes, the `ite` apply operator with memoization,
cover conversion and model counting — giving the test suite and the
verification helpers an exact oracle that scales to every function in
this repository.

The manager owns all nodes; BDD references are plain integers
(0 = constant false, 1 = constant true), so sets/dicts of functions are
cheap.  Variable order is the identity (variable ``i`` at level ``i``);
the functions here are small enough that ordering heuristics are not
needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.cover import Cover
from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube

#: Terminal node ids.
FALSE = 0
TRUE = 1


class BDDManager:
    """Owns the shared node store of a family of ROBDDs.

    Nodes are triples ``(level, low, high)`` hash-consed into
    :attr:`_unique`; node 0 and 1 are the constants.  All operations are
    memoized per manager.
    """

    def __init__(self, n_vars: int):
        if n_vars < 0:
            raise ValueError("variable count must be non-negative")
        self.n_vars = n_vars
        # node id -> (level, low, high); terminals get sentinel level n_vars
        self._nodes: List[Tuple[int, int, int]] = [
            (n_vars, FALSE, FALSE), (n_vars, TRUE, TRUE)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def node(self, level: int, low: int, high: int) -> int:
        """The (hash-consed, reduced) node for ``(level, low, high)``."""
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    def var(self, index: int) -> int:
        """The BDD of variable ``index``."""
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable {index} out of range")
        return self.node(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD of ``~variable``."""
        return self.node(index, TRUE, FALSE)

    def level_of(self, f: int) -> int:
        """The decision level of node ``f`` (``n_vars`` for constants)."""
        return self._nodes[f][0]

    def cofactors(self, f: int, level: int) -> Tuple[int, int]:
        """(low, high) cofactors of ``f`` with respect to ``level``."""
        node_level, low, high = self._nodes[f]
        if node_level == level:
            return low, high
        return f, f

    # ------------------------------------------------------------------
    # the ite operator (all Boolean connectives reduce to it)
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else: ``f ? g : h`` (the universal BDD operation)."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if (g, h) == (TRUE, FALSE):
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self.level_of(f), self.level_of(g), self.level_of(h))
        f0, f1 = self.cofactors(f, level)
        g0, g1 = self.cofactors(g, level)
        h0, h1 = self.cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self.node(level, low, high)
        self._ite_cache[key] = result
        return result

    # connectives ------------------------------------------------------
    def apply_and(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.apply_not(g), g)

    def apply_not(self, f: int) -> int:
        """Negation."""
        return self.ite(f, FALSE, TRUE)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def from_cube_inputs(self, cube: Cube) -> int:
        """BDD of a cube's input part (product of its literals)."""
        result = TRUE
        for var in reversed(range(cube.n_inputs)):
            field = cube.field(var)
            if field == BIT_ONE:
                result = self.node(var, FALSE, result)
            elif field == BIT_ZERO:
                result = self.node(var, result, FALSE)
            elif field != BIT_DASH:
                return FALSE  # empty field: empty cube
        return result

    def from_cover_output(self, cover: Cover, output: int = 0) -> int:
        """BDD of one output of a cover (OR of its cubes' input parts)."""
        result = FALSE
        for cube in cover.cubes:
            if (cube.outputs >> output) & 1:
                result = self.apply_or(result, self.from_cube_inputs(cube))
        return result

    def from_cover(self, cover: Cover) -> List[int]:
        """One BDD per output of a multi-output cover."""
        return [self.from_cover_output(cover, k)
                for k in range(cover.n_outputs)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment) -> bool:
        """Evaluate a BDD on a 0/1 assignment vector."""
        node = f
        while node not in (FALSE, TRUE):
            level, low, high = self._nodes[node]
            node = high if assignment[level] else low
        return node == TRUE

    def satcount(self, f: int) -> int:
        """Number of satisfying assignments over all ``n_vars`` variables.

        The classical weighted count: each edge that skips levels
        multiplies its child's count by 2 per skipped variable.
        """
        cache: Dict[int, int] = {}

        def count(node: int) -> int:
            # assignments of variables strictly below node's level
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            if node in cache:
                return cache[node]
            level, low, high = self._nodes[node]
            low_count = count(low) << (self.level_of(low) - level - 1)
            high_count = count(high) << (self.level_of(high) - level - 1)
            cache[node] = low_count + high_count
            return cache[node]

        return count(f) << self.level_of(f)

    def any_sat(self, f: int) -> Optional[List[int]]:
        """One satisfying assignment (as a 0/1 list), or ``None``."""
        if f == FALSE:
            return None
        assignment = [0] * self.n_vars
        node = f
        while node != TRUE:
            level, low, high = self._nodes[node]
            if high != FALSE:
                assignment[level] = 1
                node = high
            else:
                assignment[level] = 0
                node = low
        return assignment

    def size(self, f: int) -> int:
        """Number of decision nodes reachable from ``f``."""
        seen = set()

        def walk(node: int) -> None:
            if node in (FALSE, TRUE) or node in seen:
                return
            seen.add(node)
            _level, low, high = self._nodes[node]
            walk(low)
            walk(high)

        walk(f)
        return len(seen)


def covers_equivalent_bdd(a: Cover, b: Cover,
                          dc: Optional[Cover] = None) -> bool:
    """Exact multi-output cover equivalence via BDDs.

    Scales to ~30+ inputs, far beyond the truth-table oracle; used for
    the 17-input ``t2`` benchmark.  With a DC-set, the covers may differ
    only inside it.
    """
    if (a.n_inputs, a.n_outputs) != (b.n_inputs, b.n_outputs):
        return False
    manager = BDDManager(a.n_inputs)
    for output in range(a.n_outputs):
        fa = manager.from_cover_output(a, output)
        fb = manager.from_cover_output(b, output)
        diff = manager.apply_xor(fa, fb)
        if dc is not None:
            care = manager.apply_not(manager.from_cover_output(dc, output))
            diff = manager.apply_and(diff, care)
        if diff != FALSE:
            return False
    return True
