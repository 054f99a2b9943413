"""Configurable Logic Block (CLB) specifications.

A PLA-based CLB wraps one PLA plus its routing interface.  Two variants
matter for Table 2:

* the **standard** CLB: a dual-column PLA (Flash-style cells) that must
  receive *both* polarities of every input from the routing fabric;
* the **ambipolar** CLB: a GNOR PLA (CNFET cells, one column per
  input) that generates inversions internally.

The paper's emulation protocol simply halves the CLB area; we keep
that as the default (``area_factor=0.5``) and also expose the
first-principles estimate (logic-array cells + per-routed-pin switch
area) used by the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.area import (CNFET_AMBIPOLAR, FLASH, Technology,
                             _as_technology, pla_area)
from repro.core.timing import (DEFAULT_TIMING, PLATimingModel,
                               TimingParameters, as_timing)


@dataclass(frozen=True)
class CLBSpec:
    """Capacity, area and delay of one CLB.

    Attributes
    ----------
    name:
        Variant name for reports.
    max_inputs, max_outputs, max_products:
        Logic capacity handed to the partitioner.
    area_l2:
        CLB footprint in ``L**2`` (sets the fabric's tile pitch).
    dual_polarity_inputs:
        True when the fabric must route both polarities of every input
        signal to this CLB (standard PLAs).
    technology:
        Cell technology of the internal PLA (for delay modelling).
    """

    name: str
    max_inputs: int
    max_outputs: int
    max_products: int
    area_l2: float
    dual_polarity_inputs: bool
    technology: Technology

    def tile_pitch_l(self) -> float:
        """Tile pitch in L units: the square root of the CLB footprint."""
        return self.area_l2 ** 0.5

    def logic_delay(self, timing: TimingParameters = DEFAULT_TIMING) -> float:
        """Worst-case evaluate delay of a fully-used internal PLA [s].

        ``timing`` may also be a :class:`~repro.tech.TechDescriptor`.
        """
        timing = as_timing(timing)
        columns = (2 * self.max_inputs if self.dual_polarity_inputs
                   else self.max_inputs)
        model = PLATimingModel(self.max_inputs, self.max_outputs,
                               self.max_products, timing,
                               n_input_columns=columns)
        return model.evaluate_delay()

    def routed_pins(self) -> int:
        """Signals the fabric must deliver/collect at this CLB."""
        inputs = (2 * self.max_inputs if self.dual_polarity_inputs
                  else self.max_inputs)
        return inputs + self.max_outputs


#: Per-routed-pin connection-block switch area [L**2] used by the
#: first-principles CLB area estimate.
PIN_SWITCH_AREA_L2 = 160.0


def first_principles_area(max_inputs: int, max_outputs: int,
                          max_products: int, technology: Technology,
                          dual_polarity: bool) -> float:
    """Logic array + pin interface estimate of a CLB footprint."""
    array = pla_area(technology, max_inputs, max_outputs, max_products)
    pins = (2 * max_inputs if dual_polarity else max_inputs) + max_outputs
    return array + pins * PIN_SWITCH_AREA_L2


def standard_pla_clb(max_inputs: int = 9, max_outputs: int = 4,
                     max_products: int = 20,
                     technology: Technology = FLASH) -> CLBSpec:
    """The standard (dual-polarity, Flash-cell) CLB of the Table 2 baseline.

    ``technology`` (a :class:`Technology` or a
    :class:`~repro.tech.TechDescriptor`) selects the cell library; the
    default reproduces the Table 2 baseline.
    """
    technology = _as_technology(technology)
    area = first_principles_area(max_inputs, max_outputs, max_products,
                                 technology, dual_polarity=True)
    return CLBSpec(
        name="standard-pla",
        max_inputs=max_inputs,
        max_outputs=max_outputs,
        max_products=max_products,
        area_l2=area,
        dual_polarity_inputs=True,
        technology=technology,
    )


def ambipolar_pla_clb(max_inputs: int = 9, max_outputs: int = 4,
                      max_products: int = 20,
                      area_factor: float = 0.5,
                      technology: Technology = CNFET_AMBIPOLAR) -> CLBSpec:
    """The ambipolar-CNFET CLB, emulated per the paper's protocol.

    The paper emulates the CNFET FPGA as a classical one "with half of
    the area for every CLB"; ``area_factor`` applies that ratio to the
    standard CLB's footprint (pass ``None`` to use the first-principles
    estimate instead).  ``technology`` (a :class:`Technology` or a
    :class:`~repro.tech.TechDescriptor`) selects the single-column cell
    library for the first-principles path and delay modelling.
    """
    technology = _as_technology(technology)
    if area_factor is not None:
        base = standard_pla_clb(max_inputs, max_outputs, max_products)
        area = base.area_l2 * area_factor
    else:
        area = first_principles_area(max_inputs, max_outputs, max_products,
                                     technology, dual_polarity=False)
    return CLBSpec(
        name="ambipolar-pla",
        max_inputs=max_inputs,
        max_outputs=max_outputs,
        max_products=max_products,
        area_l2=area,
        dual_polarity_inputs=False,
        technology=technology,
    )
