"""Crosspoint fault model and symbolic fault simulation.

Faults are modelled on the *programmed* array: every crosspoint device
of a :class:`~repro.mapping.gnor_map.GNORPlaneConfig` can be stuck off
(open tubes / lost PG charge) or stuck on (metallic short).  The
simulator evaluates the two-plane GNOR semantics directly on the
configuration — no device objects — so sweeping thousands of
(vector, fault) pairs stays fast.

Effect of each fault:

=============  =========================  =================================
plane          stuck off                  stuck on
=============  =========================  =================================
AND (r, i)     input ``i`` dropped from   row ``r`` pinned low (product
               product ``r``              term dead)
OR (k, r)      product ``r`` dropped      output column ``k``'s NOR pinned
               from output ``k``          low
=============  =========================  =================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.gnor import InputConfig
from repro.mapping.gnor_map import GNORPlaneConfig


class FaultSite(enum.Enum):
    """Which plane the faulty crosspoint sits in."""

    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class Fault:
    """One single-crosspoint fault.

    Attributes
    ----------
    site:
        AND or OR plane.
    row:
        Product row of the crosspoint.
    column:
        AND plane: input column; OR plane: output column.
    stuck_on:
        True = metallic short (always conducts); False = stuck off.
    """

    site: FaultSite
    row: int
    column: int
    stuck_on: bool

    def __str__(self) -> str:
        kind = "stuck-on" if self.stuck_on else "stuck-off"
        return f"{self.site.value}[{self.row},{self.column}] {kind}"


def enumerate_faults(config: GNORPlaneConfig,
                     include_redundant: bool = False) -> List[Fault]:
    """All single faults of a programmed configuration.

    By default, trivially-redundant faults are skipped: a stuck-off
    device at a DROP position changes nothing (it never conducted), so
    no test can — or needs to — detect it.
    """
    faults: List[Fault] = []
    for r in range(config.n_products):
        for i in range(config.n_inputs):
            programmed = config.and_plane[r][i]
            faults.append(Fault(FaultSite.AND, r, i, stuck_on=True))
            if include_redundant or programmed is not InputConfig.DROP:
                faults.append(Fault(FaultSite.AND, r, i, stuck_on=False))
    for k in range(config.n_outputs):
        for r in range(config.n_products):
            programmed = config.or_plane[k][r]
            faults.append(Fault(FaultSite.OR, r, k, stuck_on=True))
            if include_redundant or programmed is not InputConfig.DROP:
                faults.append(Fault(FaultSite.OR, r, k, stuck_on=False))
    return faults


class FaultSimulator:
    """Fast symbolic evaluation of a configuration, healthy or faulty."""

    def __init__(self, config: GNORPlaneConfig):
        self.config = config

    # ------------------------------------------------------------------
    def _device_conducts(self, programmed: InputConfig, value: int) -> bool:
        if programmed is InputConfig.PASS:
            return bool(value)
        if programmed is InputConfig.INVERT:
            return not value
        return False

    def product_rows(self, vector: Sequence[int],
                     fault: Optional[Fault] = None) -> List[int]:
        """AND-plane row values under an optional fault."""
        rows: List[int] = []
        for r in range(self.config.n_products):
            pulled = False
            for i in range(self.config.n_inputs):
                if fault is not None and fault.site is FaultSite.AND \
                        and fault.row == r and fault.column == i:
                    if fault.stuck_on:
                        pulled = True
                        break
                    continue  # stuck off: contributes nothing
                if self._device_conducts(self.config.and_plane[r][i],
                                         vector[i]):
                    pulled = True
                    break
            rows.append(0 if pulled else 1)
        return rows

    def evaluate(self, vector: Sequence[int],
                 fault: Optional[Fault] = None) -> List[int]:
        """Output vector under an optional single fault."""
        if len(vector) != self.config.n_inputs:
            raise ValueError(f"expected {self.config.n_inputs} inputs")
        rows = self.product_rows(vector, fault)
        outputs: List[int] = []
        for k in range(self.config.n_outputs):
            pulled = False
            for r in range(self.config.n_products):
                if fault is not None and fault.site is FaultSite.OR \
                        and fault.column == k and fault.row == r:
                    if fault.stuck_on:
                        pulled = True
                        break
                    continue
                if self._device_conducts(self.config.or_plane[k][r],
                                         rows[r]):
                    pulled = True
                    break
            nor_value = 0 if pulled else 1
            outputs.append(1 - nor_value if self.config.output_inverted[k]
                           else nor_value)
        return outputs

    def detects(self, vector: Sequence[int], fault: Fault) -> bool:
        """Whether ``vector`` distinguishes the faulty machine."""
        return self.evaluate(vector) != self.evaluate(vector, fault)

    def fault_signature(self, vectors: Sequence[Sequence[int]],
                        fault: Fault) -> tuple:
        """Per-vector detection bits (used for fault *location*)."""
        return tuple(1 if self.detects(vector, fault) else 0
                     for vector in vectors)
