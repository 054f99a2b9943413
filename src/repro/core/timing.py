"""Delay models for dynamic GNOR planes and whole PLAs.

The paper's performance argument is relative (fewer columns, fewer
routed signals => shorter wires => higher frequency), so the timing
model is a first-order RC one:

* a dynamic GNOR row evaluates through one pull-down device and the
  evaluate transistor, discharging the row wire whose capacitance grows
  with the number of attached cells;
* a PLA's critical path is AND-plane evaluate + OR-plane evaluate +
  the output buffer, and the cycle adds the precharge phase;
* wire capacitance per crossed cell scales with the cell pitch, which
  is where the CNFET's narrower array pays off.

All constants live in :class:`TimingParameters` so the FPGA model
(:mod:`repro.fpga.timing`) shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.device import (DEFAULT_PARAMETERS, DeviceParameters,
                               _DEFAULT_TECH)
from repro.tech import TechDescriptor


@dataclass(frozen=True)
class TimingParameters:
    """First-order RC constants of the dynamic-logic timing model.

    Defaults derive from the ``cnfet`` technology descriptor
    (:mod:`repro.tech`); :meth:`from_tech` builds the set for any
    other descriptor.

    Attributes
    ----------
    device:
        Device parameters supplying on-resistance and capacitances.
    c_wire_per_cell:
        Wire capacitance added per crossed basic cell [F].
    buffer_delay:
        Fixed delay of an output (inverting) buffer [s].
    ln2:
        RC-to-50 %-swing factor (``ln 2``); exposed for tests.
    """

    device: DeviceParameters = DEFAULT_PARAMETERS
    c_wire_per_cell: float = _DEFAULT_TECH.c_wire_per_cell
    buffer_delay: float = _DEFAULT_TECH.buffer_delay
    ln2: float = math.log(2.0)

    @classmethod
    def from_tech(cls, descriptor: TechDescriptor) -> "TimingParameters":
        """The timing-parameter view of a technology descriptor."""
        return cls(device=DeviceParameters.from_tech(descriptor),
                   c_wire_per_cell=descriptor.c_wire_per_cell,
                   buffer_delay=descriptor.buffer_delay)


#: Shared default timing constants.
DEFAULT_TIMING = TimingParameters()


def as_timing(params) -> TimingParameters:
    """Accept :class:`TimingParameters` or a tech descriptor.

    Consumers (fabric/FPGA timing, power, variation) take either so a
    caller holding only a :class:`~repro.tech.TechDescriptor` never has
    to know about the intermediate parameter dataclasses.
    """
    if isinstance(params, TechDescriptor):
        return TimingParameters.from_tech(params)
    return params


class PLATimingModel:
    """Delay and cycle-time estimates for a two-plane GNOR PLA.

    Parameters
    ----------
    n_inputs, n_outputs, n_products:
        The array dimensions (one input column per input: the CNFET
        architecture.  For the dual-column baseline pass
        ``n_inputs * 2`` as ``n_input_columns``.)
    params:
        Timing constants.
    n_input_columns:
        Physical AND-plane columns; defaults to ``n_inputs``.
    """

    def __init__(self, n_inputs: int, n_outputs: int, n_products: int,
                 params: TimingParameters = DEFAULT_TIMING,
                 n_input_columns: int = None):  # type: ignore[assignment]
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.n_products = n_products
        self.params = params
        self.n_input_columns = (n_input_columns if n_input_columns is not None
                                else n_inputs)

    # ------------------------------------------------------------------
    # plane-level delays
    # ------------------------------------------------------------------
    def row_wire_capacitance(self) -> float:
        """Capacitance of one AND-plane row wire (spans all columns)."""
        cells = self.n_input_columns + self.n_outputs
        return (cells * self.params.c_wire_per_cell
                + self.n_input_columns * self.params.device.c_junction)

    def column_wire_capacitance(self) -> float:
        """Capacitance of one OR-plane column wire (spans all rows)."""
        return (self.n_products * self.params.c_wire_per_cell
                + self.n_products * self.params.device.c_junction)

    def and_plane_delay(self) -> float:
        """Worst-case evaluate delay of an AND-plane row [s].

        Discharge through one conducting device in series with the
        evaluate transistor (2 on-resistances) into the row wire.
        """
        r = 2 * self._r_on()
        return self.params.ln2 * r * self.row_wire_capacitance()

    def or_plane_delay(self) -> float:
        """Worst-case evaluate delay of an OR-plane column [s]."""
        r = 2 * self._r_on()
        return self.params.ln2 * r * self.column_wire_capacitance()

    def precharge_delay(self) -> float:
        """Precharge time: the slower of the two planes' precharge RCs."""
        r = self._r_on()
        c = max(self.row_wire_capacitance(), self.column_wire_capacitance())
        return self.params.ln2 * r * c

    # ------------------------------------------------------------------
    # PLA-level figures
    # ------------------------------------------------------------------
    def evaluate_delay(self) -> float:
        """Input-to-output evaluate delay [s]."""
        return (self.and_plane_delay() + self.or_plane_delay()
                + self.params.buffer_delay)

    def cycle_time(self) -> float:
        """Dynamic-logic cycle: precharge + evaluate [s]."""
        return self.precharge_delay() + self.evaluate_delay()

    def max_frequency(self) -> float:
        """Achievable clock frequency [Hz]."""
        return 1.0 / self.cycle_time()

    def _r_on(self) -> float:
        device = self.params.device
        return device.r_on / max(device.tubes_per_device, 1)


def classical_timing(n_inputs: int, n_outputs: int, n_products: int,
                     params: TimingParameters = DEFAULT_TIMING) -> PLATimingModel:
    """Timing model of the dual-column baseline (``2I`` input columns)."""
    return PLATimingModel(n_inputs, n_outputs, n_products, params,
                          n_input_columns=2 * n_inputs)
