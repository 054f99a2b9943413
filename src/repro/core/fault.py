"""Fault-tolerant PLA design (Section 5, reference [6]).

The paper points out that the regular, per-device-programmable GNOR
array suits PLA-style fault tolerance: a defective crosspoint does not
kill the chip because product terms can be *re-mapped* onto healthy
physical rows, with spare rows provisioned for repair.

A logical product row is **compatible** with a physical row when every
column's required state is achievable there:

* a device needed as PASS/INVERT must not be stuck off (or leaking);
* a device needed as DROP must not be stuck on;
* stuck-off devices in DROP positions are harmless — the regular
  fabric's built-in slack.

Repair is then a bipartite matching from logical rows to physical rows
(Kuhn's augmenting paths, :func:`_max_matching`, on one bitset of
compatible physical rows per logical row and an explicit stack, so any
array height works); the chip is repairable iff a perfect matching on
the logical side exists.  The device rule and the matcher defined here
are the ones :mod:`repro.robustness.repair` builds its spare-aware
repair flow on.  Monte-Carlo sampling over defect maps gives the
yield-vs-redundancy curves of ``benchmarks/bench_ablation_yield.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.defects import DefectMap, DefectModel, DefectType
from repro.core.gnor import InputConfig
from repro.mapping.gnor_map import GNORPlaneConfig


@dataclass
class RepairResult:
    """Outcome of one repair attempt.

    Attributes
    ----------
    success:
        True when every logical row found a healthy physical row.
    assignment:
        logical row -> physical row (complete only on success).
    unassigned:
        Logical rows left without a compatible physical row.
    spare_rows_used:
        How many rows beyond the logical count the assignment touches.
    """

    success: bool
    assignment: Dict[int, int]
    unassigned: List[int]
    spare_rows_used: int


def row_requirements(config: GNORPlaneConfig) -> List[List[InputConfig]]:
    """Per logical row, the required device state across *all* columns
    (AND-plane inputs then OR-plane output taps)."""
    rows = []
    for r in range(config.n_products):
        row = list(config.and_plane[r])
        row.extend(config.or_plane[k][r] for k in range(config.n_outputs))
        rows.append(row)
    return rows


def _device_tolerates(needed: InputConfig,
                      defect: Optional[DefectType]) -> bool:
    """Whether a device with ``defect`` can serve requirement ``needed``."""
    if defect is None:
        return True
    if defect is DefectType.STUCK_ON:
        # unconditional conduction pins the dynamic row low: fatal in
        # every position (an active device must switch with its input,
        # a dropped device must stay off)
        return False
    # stuck off / PG leak: harmless exactly where nothing must conduct
    return needed is InputConfig.DROP


def row_compatible(requirements: Sequence[InputConfig],
                   defects: Dict[int, DefectType]) -> bool:
    """Whether a physical row with ``defects`` can host ``requirements``."""
    return all(_device_tolerates(requirements[column], defect)
               for column, defect in defects.items()
               if column < len(requirements))


def _max_matching(compat: Sequence[int]) -> Dict[int, int]:
    """Kuhn's augmenting-path maximum bipartite matching on bitsets.

    ``compat[r]`` is logical row ``r``'s candidate set: bit ``q`` is set
    when it may use physical row ``q``.  The result maps logical ->
    physical row, in ascending physical row.  Logical rows and their
    candidates are tried in ascending index order, so the result is
    deterministic across processes (no hash-order dependence, which
    matters because the degraded-mode placement — hence the reported
    correct fraction — depends on which maximum matching gets picked).

    Each row's search is a depth-first search on an explicit stack, so
    no array is too tall for it.  The next candidate is the lowest set
    bit of ``compat[row]`` not yet visited; every physical row already
    tried is visited, so the stack holds only the path (the rows, and
    the physical row each took), written back to the owners on success.

    Each new row claims the lowest candidate it can free and pushes the
    earlier rows one step up, so a clean array comes out
    *anti*-identity: ``[0b1111] * 3`` gives ``{2: 0, 1: 1, 0: 2}``.
    """
    n_physical = max((c.bit_length() for c in compat), default=0)
    owner = [-1] * n_physical  # physical row -> logical row
    everything = (1 << n_physical) - 1
    for r in range(len(compat)):
        unvisited = everything
        path: List[Tuple[int, int]] = []  # (row, physical row it took)
        row = r
        while True:
            free = compat[row] & unvisited
            if free:
                bit = free & -free
                unvisited ^= bit
                q = bit.bit_length() - 1
                path.append((row, q))
                holder = owner[q]
                if holder < 0:
                    for row, q in path:
                        owner[q] = row
                    break
                row = holder
            elif path:
                row = path.pop()[0]  # back to the row that took it
            else:
                break  # row r stays unmatched
    return {r: q for q, r in enumerate(owner) if r >= 0}


class FaultTolerantPLA:
    """A GNOR PLA with spare rows and matching-based repair.

    Parameters
    ----------
    config:
        The logical plane programming to realize.
    spare_rows:
        Extra physical rows beyond ``config.n_products``.
    """

    def __init__(self, config: GNORPlaneConfig, spare_rows: int = 0):
        if spare_rows < 0:
            raise ValueError("spare_rows must be non-negative")
        self.config = config
        self.spare_rows = spare_rows
        self.n_physical_rows = config.n_products + spare_rows
        self.n_columns = config.n_inputs + config.n_outputs
        self._requirements = row_requirements(config)

    # ------------------------------------------------------------------
    def repair(self, defect_map: DefectMap) -> RepairResult:
        """Find a defect-avoiding row assignment by bipartite matching."""
        if (defect_map.n_rows, defect_map.n_columns) != \
                (self.n_physical_rows, self.n_columns):
            raise ValueError("defect map does not match the physical array")

        row_defects = [defect_map.row_defects(q)
                       for q in range(self.n_physical_rows)]
        compat = [sum(1 << q for q, defects in enumerate(row_defects)
                      if row_compatible(requirements, defects))
                  for requirements in self._requirements]
        assignment = _max_matching(compat)
        unassigned = [r for r in range(self.config.n_products)
                      if r not in assignment]
        spare_used = sum(1 for q in assignment.values()
                         if q >= self.config.n_products)
        return RepairResult(
            success=not unassigned,
            assignment=assignment,
            unassigned=unassigned,
            spare_rows_used=spare_used,
        )

    # ------------------------------------------------------------------
    def yield_estimate(self, model: DefectModel, trials: int = 200,
                       seed: int = 0) -> float:
        """Monte-Carlo repair yield under a defect model."""
        successes = 0
        for trial in range(trials):
            defect_map = DefectMap.sample(self.n_physical_rows, self.n_columns,
                                          model, seed=seed * 100003 + trial)
            if self.repair(defect_map).success:
                successes += 1
        return successes / trials

    def unprotected_yield(self, model: DefectModel, trials: int = 200,
                          seed: int = 0) -> float:
        """Yield *without* remapping: identity assignment must work.

        The baseline of [6]-style comparisons — a raw array survives
        only when every logical row's own physical row is compatible.
        """
        successes = 0
        for trial in range(trials):
            defect_map = DefectMap.sample(self.n_physical_rows, self.n_columns,
                                          model, seed=seed * 100003 + trial)
            ok = all(row_compatible(self._requirements[r],
                                    defect_map.row_defects(r))
                     for r in range(self.config.n_products))
            if ok:
                successes += 1
        return successes / trials

    def __repr__(self) -> str:
        return (f"FaultTolerantPLA(logical_rows={self.config.n_products}, "
                f"spares={self.spare_rows}, columns={self.n_columns})")


@dataclass
class SpareAllocation:
    """Outcome of classical row/column spare allocation.

    Attributes
    ----------
    success:
        True when every fatal defect is covered by a replaced row or
        column within the spare budget.
    replaced_rows, replaced_columns:
        Physical rows / columns retired to spares.
    fatal_defects:
        The (row, column) positions that needed covering.
    """

    success: bool
    replaced_rows: List[int]
    replaced_columns: List[int]
    fatal_defects: List[Tuple[int, int]]


def fatal_positions(config: GNORPlaneConfig,
                    defect_map: DefectMap) -> List[Tuple[int, int]]:
    """Defects incompatible with the identity layout's requirements.

    A defect is *harmless* when the device at its position tolerates it
    (stuck-off under a DROP requirement); everything else must be
    repaired.  Defects on spare rows (beyond the logical row count) are
    ignored here — the allocator only retires rows it replaces.
    """
    requirements = row_requirements(config)
    fatal = []
    for row, column, defect in defect_map.iter_defects():
        if row >= config.n_products or column >= len(requirements[0]):
            continue
        if not _device_tolerates(requirements[row][column], defect):
            fatal.append((row, column))
    return fatal


def allocate_spares(config: GNORPlaneConfig, defect_map: DefectMap,
                    spare_rows: int, spare_columns: int) -> SpareAllocation:
    """Classical spare allocation: cover every fatal defect with a
    replaced row or column (branch and bound over the defect list).

    This is the redundancy-analysis formulation used for repairable
    memories and PLAs: each fatal position (r, c) is repaired by
    retiring row ``r`` *or* column ``c``; the allocator searches for an
    assignment within the (spare_rows, spare_columns) budget.
    """
    fatal = fatal_positions(config, defect_map)
    best: List[Optional[Tuple[Set[int], Set[int]]]] = [None]

    def branch(index: int, rows: Set[int], cols: Set[int]) -> None:
        if best[0] is not None:
            return  # first feasible solution is enough (budget check only)
        if len(rows) > spare_rows or len(cols) > spare_columns:
            return
        if index == len(fatal):
            best[0] = (set(rows), set(cols))
            return
        r, c = fatal[index]
        if r in rows or c in cols:
            branch(index + 1, rows, cols)
            return
        # must-repair reductions: if one resource is exhausted, forced
        if len(rows) < spare_rows:
            rows.add(r)
            branch(index + 1, rows, cols)
            rows.discard(r)
        if best[0] is None and len(cols) < spare_columns:
            cols.add(c)
            branch(index + 1, rows, cols)
            cols.discard(c)

    branch(0, set(), set())
    if best[0] is None:
        return SpareAllocation(False, [], [], fatal)
    rows, cols = best[0]
    return SpareAllocation(True, sorted(rows), sorted(cols), fatal)
