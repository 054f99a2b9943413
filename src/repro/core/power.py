"""Energy model for dynamic GNOR PLAs.

The paper's planes are dynamic logic: every cycle precharges the
product-row and output-column wires, and evaluation selectively
discharges them.  The dominant energy is therefore ``C V^2`` per
discharged wire per cycle — an *activity-dependent* quantity this
module measures by actually simulating the PLA on a vector stream.

The GNOR architecture wins twice: rows span ``I + O`` cells instead of
``2I + O`` (less capacitance per discharge), and the input inverters of
the classical PLA (one rail pair per input, switching every time the
input toggles) disappear entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.classical_pla import ClassicalPLA
from repro.core.pla import AmbipolarPLA
from repro.core.timing import DEFAULT_TIMING, PLATimingModel, TimingParameters


@dataclass
class EnergyReport:
    """Per-workload energy accounting.

    Attributes
    ----------
    cycles:
        Vectors simulated (one dynamic cycle each).
    row_discharges, column_discharges:
        Total discharge events per plane.
    inverter_toggles:
        Input-rail inverter switching events (classical PLA only).
    energy_j:
        Total switching energy [J].
    """

    cycles: int
    row_discharges: int
    column_discharges: int
    inverter_toggles: int
    energy_j: float

    def energy_per_cycle(self) -> float:
        """Average switching energy per cycle [J]."""
        return self.energy_j / self.cycles if self.cycles else 0.0


class PLAPowerModel:
    """Switching-energy estimator for a programmed PLA.

    Parameters
    ----------
    timing:
        Supplies the wire capacitances and the supply voltage.
    """

    def __init__(self, timing: TimingParameters = DEFAULT_TIMING):
        self.timing = timing

    # ------------------------------------------------------------------
    def gnor_energy(self, pla: AmbipolarPLA,
                    vectors: Sequence[Sequence[int]]) -> EnergyReport:
        """Simulate ``vectors`` through a GNOR PLA and account energy.

        A product row that evaluates low was discharged and must be
        precharged next cycle: one ``C_row V^2`` event.  Likewise for
        each OR-plane column that discharges.
        """
        model = PLATimingModel(pla.n_inputs, pla.n_outputs, pla.n_products,
                               self.timing)
        return self._accumulate(
            vectors,
            evaluate=lambda v: (pla.product_terms(v), self._or_discharges(pla, v)),
            c_row=model.row_wire_capacitance(),
            c_col=model.column_wire_capacitance(),
            inverter_toggles_of=None,
        )

    def classical_energy(self, pla: ClassicalPLA,
                         vectors: Sequence[Sequence[int]]) -> EnergyReport:
        """Same accounting for the dual-column baseline.

        Adds the input-inverter rail energy: every input toggle switches
        one inverter driving a full column of gate loads.
        """
        from repro.core.timing import classical_timing
        model = classical_timing(pla.n_inputs, pla.n_outputs, pla.n_products,
                                 self.timing)

        def inverter_toggles_of(prev, vector):
            if prev is None:
                return 0
            return sum(1 for a, b in zip(prev, vector) if a != b)

        return self._accumulate(
            vectors,
            evaluate=lambda v: (pla.product_terms(v),
                                self._classical_or_discharges(pla, v)),
            c_row=model.row_wire_capacitance(),
            c_col=model.column_wire_capacitance(),
            inverter_toggles_of=inverter_toggles_of,
        )

    # ------------------------------------------------------------------
    def _accumulate(self, vectors, evaluate, c_row, c_col,
                    inverter_toggles_of):
        vdd = self.timing.device.vdd
        row_events = 0
        column_events = 0
        inverter_events = 0
        previous = None
        for vector in vectors:
            products, or_discharges = evaluate(vector)
            # a row evaluating HIGH means its wire was pulled down? No:
            # NOR row output low = discharged dynamic node
            row_events += sum(1 for p in products if p == 0)
            column_events += or_discharges
            if inverter_toggles_of is not None:
                inverter_events += inverter_toggles_of(previous, vector)
            previous = list(vector)

        # inverter load: one column of gate capacitance (P cells)
        c_inverter = self.timing.device.c_gate * 4  # buffer + rail segment
        energy = (row_events * c_row + column_events * c_col) * vdd ** 2
        energy += inverter_events * c_inverter * vdd ** 2
        return EnergyReport(
            cycles=len(list(vectors)) if not hasattr(vectors, "__len__")
            else len(vectors),
            row_discharges=row_events,
            column_discharges=column_events,
            inverter_toggles=inverter_events,
            energy_j=energy,
        )

    @staticmethod
    def _or_discharges(pla: AmbipolarPLA, vector) -> int:
        products = pla.product_terms(vector)
        count = 0
        for gate in pla.or_columns:
            if gate.pull_down_active(products):
                count += 1
        return count

    @staticmethod
    def _classical_or_discharges(pla: ClassicalPLA, vector) -> int:
        products = pla.product_terms(vector)
        count = 0
        for row in pla.personality.or_plane:
            if any(connected and products[r]
                   for r, connected in enumerate(row)):
                count += 1
        return count


def compare_energy(gnor: AmbipolarPLA, classical: ClassicalPLA,
                   vectors: Sequence[Sequence[int]],
                   timing: TimingParameters = DEFAULT_TIMING
                   ) -> dict:
    """Energy comparison dict for reports: GNOR vs classical on a stream."""
    model = PLAPowerModel(timing)
    gnor_report = model.gnor_energy(gnor, vectors)
    classical_report = model.classical_energy(classical, vectors)
    ratio = (classical_report.energy_j / gnor_report.energy_j
             if gnor_report.energy_j else float("inf"))
    return {
        "gnor": gnor_report,
        "classical": classical_report,
        "classical_over_gnor": ratio,
    }
