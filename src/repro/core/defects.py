"""Device-level defect models for CNFET arrays (Section 5, [5]/[6]).

Carbon-nanotube arrays are "unreliable devices" (the paper's words):
tubes can be missing (open channel), metallic (a short the polarity
gate cannot turn off), or the PG storage node can leak.  The defect
machinery here feeds the fault-tolerant PLA flow of
:mod:`repro.core.fault`:

* :class:`DefectModel` — per-device failure probabilities, either given
  directly or derived from per-tube statistics;
* :class:`DefectMap` — a sampled defect assignment for an ``R x C``
  array, with injection into live device grids.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.device import AmbipolarCNFET, Polarity
from repro.errors import ReproInputError


class DefectType(enum.Enum):
    """What is wrong with a crosspoint device."""

    #: Channel never conducts regardless of PG/CG (open tubes).
    STUCK_OFF = "stuck_off"
    #: Channel always conducts (metallic tube short).
    STUCK_ON = "stuck_on"
    #: PG storage leaks to ``V0``: the device drifts to the off state.
    PG_LEAK = "pg_leak"


@dataclass(frozen=True)
class DefectModel:
    """Per-device defect probabilities.

    Attributes
    ----------
    p_stuck_off, p_stuck_on, p_pg_leak:
        Independent per-device probabilities of each defect type; a
        device suffers at most one (sampled in this priority order).
        Each must lie in [0, 1] and their sum must not exceed 1
        (:class:`~repro.errors.ReproInputError` otherwise).
    """

    p_stuck_off: float = 0.0
    p_stuck_on: float = 0.0
    p_pg_leak: float = 0.0

    def __post_init__(self):
        for name in ("p_stuck_off", "p_stuck_on", "p_pg_leak"):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
                    or not 0.0 <= rate <= 1.0:
                raise ReproInputError(f"{name} must be a probability in "
                                      f"[0, 1], got {rate!r}")
        if self.total_rate() > 1.0:
            raise ReproInputError("defect probabilities must sum to <= 1")

    @classmethod
    def from_tube_statistics(cls, tubes_per_device: int, p_tube_open: float,
                             p_tube_metallic: float) -> "DefectModel":
        """Derive device probabilities from per-tube statistics ([5]).

        A device is stuck off when *every* tube is open; it is shorted
        (stuck on) when *any* tube is metallic — the misaligned/metallic
        tube failure modes of Patil et al.
        """
        if tubes_per_device < 1:
            raise ValueError("need at least one tube per device")
        p_off = p_tube_open ** tubes_per_device
        p_on = 1.0 - (1.0 - p_tube_metallic) ** tubes_per_device
        # Shorted wins over open when both would occur.
        p_off = p_off * (1.0 - p_on)
        return cls(p_stuck_off=p_off, p_stuck_on=p_on)

    def total_rate(self) -> float:
        """Overall per-device defect probability."""
        return self.p_stuck_off + self.p_stuck_on + self.p_pg_leak

    def scaled(self, factor: float) -> "DefectModel":
        """The model with every rate multiplied by ``factor``.

        Used for correlated sampling (a "bad" tube row is the same
        failure physics at an elevated rate).  Rates are renormalized
        when the scaled total would exceed 1.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        off = self.p_stuck_off * factor
        on = self.p_stuck_on * factor
        leak = self.p_pg_leak * factor
        total = off + on + leak
        if total > 1.0:
            off, on, leak = off / total, on / total, leak / total
        return DefectModel(p_stuck_off=off, p_stuck_on=on, p_pg_leak=leak)

    def sample(self, rng: random.Random) -> Optional[DefectType]:
        """Draw the defect (or ``None``) of one device."""
        roll = rng.random()
        if roll < self.p_stuck_off:
            return DefectType.STUCK_OFF
        roll -= self.p_stuck_off
        if roll < self.p_stuck_on:
            return DefectType.STUCK_ON
        roll -= self.p_stuck_on
        if roll < self.p_pg_leak:
            return DefectType.PG_LEAK
        return None


class DefectMap:
    """A sampled defect assignment for an ``R x C`` device array."""

    def __init__(self, n_rows: int, n_columns: int,
                 defects: Optional[Dict[Tuple[int, int], DefectType]] = None):
        self.n_rows = n_rows
        self.n_columns = n_columns
        self.defects: Dict[Tuple[int, int], DefectType] = dict(defects or {})

    @classmethod
    def sample(cls, n_rows: int, n_columns: int, model: DefectModel,
               seed: int) -> "DefectMap":
        """Sample a map with independent per-device draws (seeded)."""
        rng = random.Random(seed)
        defects = {}
        for r in range(n_rows):
            for c in range(n_columns):
                defect = model.sample(rng)
                if defect is not None:
                    defects[(r, c)] = defect
        return cls(n_rows, n_columns, defects)

    @classmethod
    def sample_row_correlated(cls, n_rows: int, n_columns: int,
                              model: DefectModel, seed: int,
                              p_bad_row: float = 0.02,
                              boost: float = 8.0) -> "DefectMap":
        """Sample a map with defects clustered along tube rows.

        CNT growth defects correlate along the tube direction: a
        misaligned or contaminated growth region degrades a whole row.
        Each row is independently "bad" with probability ``p_bad_row``;
        bad rows sample from ``model.scaled(boost)``, healthy rows from
        ``model`` itself.  ``boost <= 1`` (or ``p_bad_row = 0``) reduces
        to :meth:`sample`'s independent statistics.
        """
        if not 0.0 <= p_bad_row <= 1.0:
            raise ValueError("p_bad_row must be a probability")
        rng = random.Random(seed)
        boosted = model.scaled(boost)
        defects = {}
        for r in range(n_rows):
            row_model = boosted if rng.random() < p_bad_row else model
            for c in range(n_columns):
                defect = row_model.sample(rng)
                if defect is not None:
                    defects[(r, c)] = defect
        return cls(n_rows, n_columns, defects)

    def defect_at(self, row: int, column: int) -> Optional[DefectType]:
        """The defect of a device, or ``None`` when healthy."""
        return self.defects.get((row, column))

    def n_defects(self) -> int:
        """Total defective devices."""
        return len(self.defects)

    def defective_rows(self) -> List[int]:
        """Rows containing at least one defect."""
        return sorted({r for (r, _c) in self.defects})

    def row_defects(self, row: int) -> Dict[int, DefectType]:
        """Column -> defect for one row."""
        return {c: d for (r, c), d in self.defects.items() if r == row}

    def iter_defects(self) -> Iterator[Tuple[int, int, DefectType]]:
        """Yield (row, column, defect) triples."""
        for (r, c), defect in sorted(self.defects.items()):
            yield r, c, defect

    def inject(self, grid: Sequence[Sequence[AmbipolarCNFET]]) -> None:
        """Apply the map to a live device grid.

        Stuck-on devices are forced n-type with their conduction pinned;
        stuck-off and PG-leak devices are pinned to the off state.  The
        pinning monkey-patches ``conducts`` on the *instance*, leaving
        the class untouched.
        """
        for (r, c), defect in self.defects.items():
            device = grid[r][c]
            if defect is DefectType.STUCK_ON:
                device.program(Polarity.N_TYPE)
                device.conducts = (lambda cg_high=True: True)  # type: ignore[method-assign]
            else:
                device.program(Polarity.OFF)
                device.conducts = (lambda cg_high=True: False)  # type: ignore[method-assign]

    def __repr__(self) -> str:
        return (f"DefectMap({self.n_rows}x{self.n_columns}, "
                f"{self.n_defects()} defects)")
