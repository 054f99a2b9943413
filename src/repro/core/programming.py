"""The configuration-phase programming protocol (Fig 4, Section 4).

Storing one more wire per device for every polarity gate would destroy
the array's density, so the paper programs the PGs like a memory: a
global ``VPG`` line connects all polarity gates; during configuration
each device is *selected individually* by its row and column select
signals (``VSelR,i`` and ``VSelC,j``) and the charge corresponding to
its wished polarity is stored on its PG.

:class:`ProgrammingController` emulates that walk over a device grid:
it drives the selects, applies the VPG level for the target polarity,
counts programming cycles, can model half-select disturb on devices
sharing a row or column with the victim, and verifies the array by
reading every PG back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.device import AmbipolarCNFET, Polarity


@dataclass
class ProgrammingLogEntry:
    """One programming cycle: which device was selected, with what level."""

    cycle: int
    row: int
    column: int
    vpg: float
    target: Polarity


@dataclass
class ProgrammingReport:
    """Outcome of programming a full array.

    Attributes
    ----------
    cycles:
        Total select cycles used (one per device in the sequential walk).
    verified:
        True when the read-back pass found every device in its target
        state.
    mismatches:
        (row, column, expected, found) for every failed device.
    disturb_events:
        Number of half-select disturbances applied (0 for ideal cells).
    """

    cycles: int
    verified: bool
    mismatches: List[Tuple[int, int, Polarity, Polarity]]
    disturb_events: int
    log: List[ProgrammingLogEntry] = field(default_factory=list)


class ProgrammingController:
    """Sequential row/column-select programmer for a device grid.

    Parameters
    ----------
    grid:
        ``grid[row][column]`` of :class:`AmbipolarCNFET` (e.g. the AND
        plane of an :class:`~repro.core.pla.AmbipolarPLA`, or a
        :class:`~repro.core.interconnect.CrosspointArray`'s devices).
    disturb_per_halfselect:
        Voltage drift applied to every *half-selected* device (same row
        or same column as the victim) per cycle, modelling imperfect
        select isolation.  0 (default) is the ideal cell.
    keep_log:
        Record a :class:`ProgrammingLogEntry` per cycle (benches only;
        costs memory on big arrays).
    """

    def __init__(self, grid: Sequence[Sequence[AmbipolarCNFET]],
                 disturb_per_halfselect: float = 0.0,
                 keep_log: bool = False):
        if not grid or not grid[0]:
            raise ValueError("the device grid must be non-empty")
        self.grid = grid
        self.n_rows = len(grid)
        self.n_columns = len(grid[0])
        if any(len(row) != self.n_columns for row in grid):
            raise ValueError("the device grid must be rectangular")
        self.disturb_per_halfselect = disturb_per_halfselect
        self.keep_log = keep_log
        self._cycle = 0
        self._disturbs = 0
        self._log: List[ProgrammingLogEntry] = []

    # ------------------------------------------------------------------
    # single-device cycle
    # ------------------------------------------------------------------
    def select_and_program(self, row: int, column: int,
                           polarity: Polarity) -> None:
        """One configuration cycle: select (row, column), drive VPG.

        The selected device's PG takes the full VPG level; with a
        non-zero disturb model, every half-selected device drifts toward
        ``V0`` by ``disturb_per_halfselect`` volts.
        """
        device = self.grid[row][column]
        vpg = device.params.pg_voltage(polarity)
        device.program_voltage(vpg)
        self._cycle += 1
        if self.keep_log:
            self._log.append(ProgrammingLogEntry(self._cycle, row, column,
                                                 vpg, polarity))
        if self.disturb_per_halfselect > 0.0:
            self._apply_disturb(row, column)

    def _apply_disturb(self, sel_row: int, sel_col: int) -> None:
        for r in range(self.n_rows):
            for c in range(self.n_columns):
                if (r == sel_row) == (c == sel_col):
                    continue  # fully selected or fully unselected
                victim = self.grid[r][c]
                v0 = victim.params.v_zero
                drift = self.disturb_per_halfselect
                if victim.pg_charge > v0:
                    victim.pg_charge = max(v0, victim.pg_charge - drift)
                elif victim.pg_charge < v0:
                    victim.pg_charge = min(v0, victim.pg_charge + drift)
                self._disturbs += 1

    # ------------------------------------------------------------------
    # whole-array operations
    # ------------------------------------------------------------------
    def program_array(self, targets: Sequence[Sequence[Polarity]],
                      verify: bool = True) -> ProgrammingReport:
        """Program every device to ``targets`` with the sequential walk.

        The walk visits devices row-major, one select cycle each —
        ``rows x columns`` cycles total, the cost Fig 4's architecture
        implies.  A read-back pass then verifies the stored states.
        """
        if len(targets) != self.n_rows or \
                any(len(row) != self.n_columns for row in targets):
            raise ValueError("target matrix does not match the grid")
        for r in range(self.n_rows):
            for c in range(self.n_columns):
                self.select_and_program(r, c, targets[r][c])
        mismatches: List[Tuple[int, int, Polarity, Polarity]] = []
        if verify:
            mismatches = self.verify(targets)
        return ProgrammingReport(
            cycles=self._cycle,
            verified=not mismatches,
            mismatches=mismatches,
            disturb_events=self._disturbs,
            log=list(self._log),
        )

    def verify(self, targets: Sequence[Sequence[Polarity]]
               ) -> List[Tuple[int, int, Polarity, Polarity]]:
        """Read back every device; returns the mismatching cells."""
        mismatches = []
        for r in range(self.n_rows):
            for c in range(self.n_columns):
                found = self.grid[r][c].polarity
                expected = targets[r][c]
                if found is not expected:
                    mismatches.append((r, c, expected, found))
        return mismatches

    def reprogram_mismatches(self, targets: Sequence[Sequence[Polarity]],
                             max_passes: int = 3) -> ProgrammingReport:
        """Program-verify-reprogram loop: re-select only failed cells.

        Converges in one pass for ideal cells; with disturb enabled it
        models the refresh strategy a real configuration controller
        would need.
        """
        report = self.program_array(targets, verify=True)
        passes = 0
        while report.mismatches and passes < max_passes:
            passes += 1
            for r, c, expected, _found in report.mismatches:
                self.select_and_program(r, c, expected)
            mismatches = self.verify(targets)
            report = ProgrammingReport(
                cycles=self._cycle,
                verified=not mismatches,
                mismatches=mismatches,
                disturb_events=self._disturbs,
                log=list(self._log),
            )
        return report

    @property
    def cycles_used(self) -> int:
        """Select cycles issued so far."""
        return self._cycle
