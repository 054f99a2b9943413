"""The analytical area model behind Table 1.

The paper estimates PLA area by counting contacted basic cells: the
array is ``P`` product rows by a column per plane input, so

* a classical (Flash / EEPROM) PLA occupies ``cell x P x (2I + O)``
  because both polarities of every input need a column, while
* the ambipolar-CNFET GNOR PLA occupies ``cell x P x (I + O)`` — one
  column per input, the polarity being programmed per device.

Basic-cell areas (Table 1, first row, in units of the lithography
resolution squared ``L**2``): Flash 40, EEPROM 100, ambipolar CNFET 60
— the CNFET cell is "50 % larger than the Flash and 40 % smaller than
the EEPROM basic cell".  Those constants live in the declarative
technology registry (:mod:`repro.tech`); this module *derives* its
:class:`Technology` objects from the descriptors, so the paper's
values and any user-supplied ones flow through the same area model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

from repro.tech import TechDescriptor, get_tech


@dataclass(frozen=True)
class Technology:
    """A PLA implementation technology.

    Attributes
    ----------
    name:
        Display name used in reports.
    cell_area_l2:
        Contacted basic-cell area in ``L**2``.
    dual_input_columns:
        True when the technology needs both polarities of each input
        distributed on separate columns (everything except the
        ambipolar-CNFET GNOR architecture).
    """

    name: str
    cell_area_l2: float
    dual_input_columns: bool

    def input_columns(self, n_inputs: int) -> int:
        """Physical input columns for ``n_inputs`` logical inputs."""
        return 2 * n_inputs if self.dual_input_columns else n_inputs


#: Display names of the Table 1 technologies (the registry uses the
#: lowercase slugs; reports keep the paper's capitalization).
_DISPLAY_NAMES = {"flash": "Flash", "eeprom": "EEPROM", "cnfet": "CNFET"}


def technology_from(descriptor: TechDescriptor) -> Technology:
    """The area-model view of a technology descriptor."""
    return Technology(
        name=_DISPLAY_NAMES.get(descriptor.name, descriptor.name),
        cell_area_l2=descriptor.cell_area_l2,
        dual_input_columns=descriptor.dual_input_columns,
    )


def _as_technology(tech: Union[Technology, TechDescriptor]) -> Technology:
    """Accept either a :class:`Technology` or a descriptor."""
    if isinstance(tech, TechDescriptor):
        return technology_from(tech)
    return tech


#: Flash floating-gate PLA cell (ITRS-derived, Table 1).
FLASH = technology_from(get_tech("flash"))
#: EEPROM PLA cell (ITRS-derived, Table 1).
EEPROM = technology_from(get_tech("eeprom"))
#: Ambipolar-CNFET GNOR cell (scaling rules of [5], Table 1).
CNFET_AMBIPOLAR = technology_from(get_tech("cnfet"))

#: The Table 1 technology line-up, in column order.
TABLE1_TECHNOLOGIES = (FLASH, EEPROM, CNFET_AMBIPOLAR)


def pla_area(technology: Union[Technology, TechDescriptor], n_inputs: int,
             n_outputs: int, n_products: int) -> float:
    """PLA area in ``L**2`` for a minimized cover's dimensions.

    ``cell x P x (columns + O)`` with the technology's input-column
    rule; this is exactly the Table 1 model (verified bit-exact against
    all nine published entries in ``benchmarks/bench_table1.py``).
    ``technology`` may be a :class:`Technology` or a
    :class:`~repro.tech.TechDescriptor`.
    """
    technology = _as_technology(technology)
    if min(n_inputs, n_outputs, n_products) < 0:
        raise ValueError("dimensions must be non-negative")
    columns = technology.input_columns(n_inputs) + n_outputs
    return technology.cell_area_l2 * n_products * columns


def area_saving_percent(area: float, baseline: float) -> float:
    """Percentage saving of ``area`` relative to ``baseline``.

    Positive = smaller than the baseline; negative = overhead (the
    paper's "small area overhead (3 %)" for ``apla`` vs Flash).
    """
    if baseline <= 0:
        raise ValueError("baseline area must be positive")
    return 100.0 * (1.0 - area / baseline)


def crossover_inputs(n_outputs: int,
                     cnfet: Technology = CNFET_AMBIPOLAR,
                     baseline: Technology = FLASH) -> float:
    """Input count above which the CNFET PLA beats ``baseline``.

    Solving ``c_a (I + O) < c_b (2I + O)`` for ``I`` gives
    ``I > O (c_a - c_b) / (2 c_b - c_a)``; with the Table 1 constants
    (60 vs 40) the threshold is exactly ``I > O`` — the paper's "can
    only save area compared to Flash if the PLA has a large number of
    inputs".
    """
    denom = 2 * baseline.cell_area_l2 - cnfet.cell_area_l2
    if denom <= 0:
        return float("inf")
    return n_outputs * (cnfet.cell_area_l2 - baseline.cell_area_l2) / denom


def area_table(benchmarks: Iterable, technologies=TABLE1_TECHNOLOGIES
               ) -> List[Dict[str, float]]:
    """Areas of benchmark stats across technologies (Table 1 body).

    ``benchmarks`` yields objects with ``name``, ``inputs``, ``outputs``
    and ``products`` attributes (see :mod:`repro.bench.mcnc`).
    """
    rows = []
    for bench in benchmarks:
        row: Dict[str, float] = {"name": bench.name}
        for tech in technologies:
            row[tech.name] = pla_area(tech, bench.inputs, bench.outputs,
                                      bench.products)
        rows.append(row)
    return rows


def interconnect_area(technology: Union[Technology, TechDescriptor],
                      n_horizontal: int, n_vertical: int) -> float:
    """Area of a crosspoint interconnect array (Section 4's fabric)."""
    return _as_technology(technology).cell_area_l2 \
        * n_horizontal * n_vertical
