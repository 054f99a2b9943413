"""The ambipolar-CNFET PLA: two cascaded GNOR planes (Figs 3-4).

An :class:`AmbipolarPLA` instantiates real :class:`~repro.core.gnor.GNORGate`
columns for both planes and simulates input vectors switch-by-switch,
so its behaviour is the *circuit's*, not a re-evaluation of the cover
it was programmed from — the two are property-tested against each
other.  The array needs one input column per input (the paper's key
saving) and exposes the device grid to the programming controller and
the defect/fault machinery.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.device import DEFAULT_PARAMETERS, DeviceParameters
from repro.core.gnor import GNORGate
from repro.espresso.espresso import minimize
from repro.espresso.phase import assign_output_phases
from repro.logic.cover import Cover
from repro.logic.function import BooleanFunction
from repro.mapping.gnor_map import GNORPlaneConfig, map_cover_to_gnor


class AmbipolarPLA:
    """A programmed two-plane GNOR PLA.

    Parameters
    ----------
    config:
        Complete plane programming (see
        :func:`repro.mapping.gnor_map.map_cover_to_gnor`).
    params:
        Device parameters used for every transistor in the array.
    """

    def __init__(self, config: GNORPlaneConfig,
                 params: DeviceParameters = DEFAULT_PARAMETERS):
        self.config = config
        self.params = params
        # AND plane: one GNOR gate per product row, inputs = PLA inputs.
        self.and_rows: List[GNORGate] = []
        for row in config.and_plane:
            gate = GNORGate(config.n_inputs, row, params)
            self.and_rows.append(gate)
        # OR plane: one GNOR gate per output, inputs = product rows.
        self.or_columns: List[GNORGate] = []
        if config.n_products:
            for row in config.or_plane:
                gate = GNORGate(config.n_products, row, params)
                self.or_columns.append(gate)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_cover(cls, cover: Cover,
                   output_phases: Optional[Sequence[bool]] = None,
                   params: DeviceParameters = DEFAULT_PARAMETERS) -> "AmbipolarPLA":
        """Program a PLA directly from a cover (no minimization)."""
        return cls(map_cover_to_gnor(cover, output_phases), params)

    @classmethod
    def from_function(cls, function: BooleanFunction, do_minimize: bool = True,
                      phase_optimize: bool = False,
                      params: DeviceParameters = DEFAULT_PARAMETERS) -> "AmbipolarPLA":
        """Synthesize a PLA for ``function``.

        ``do_minimize`` runs the Espresso loop first; ``phase_optimize``
        additionally chooses per-output phases (free on this
        architecture — only the output buffer polarity changes).
        """
        if phase_optimize:
            result = assign_output_phases(function)
            return cls.from_cover(result.cover, result.phases, params)
        cover = minimize(function) if do_minimize else function.on_set
        return cls.from_cover(cover, None, params)

    # ------------------------------------------------------------------
    # dimensions (Table 1 inputs)
    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        """Number of PLA inputs (= input columns: the paper's saving)."""
        return self.config.n_inputs

    @property
    def n_outputs(self) -> int:
        """Number of PLA outputs."""
        return self.config.n_outputs

    @property
    def n_products(self) -> int:
        """Number of product rows."""
        return self.config.n_products

    def n_columns(self) -> int:
        """Total array columns: one per input plus one per output."""
        return self.n_inputs + self.n_outputs

    def n_cells(self) -> int:
        """Crosspoint count ``P x (I + O)`` — the area-model basis."""
        return self.n_products * self.n_columns()

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def product_terms(self, inputs: Sequence[int]) -> List[int]:
        """Evaluate the AND plane: the product-row values for a vector."""
        return [gate.evaluate(inputs) for gate in self.and_rows]

    def product_terms_complemented(self, inputs: Sequence[int]) -> List[int]:
        """The complemented product terms, also available on this
        architecture (Section 5: both polarities of the first-plane
        outputs can be tapped by configuring the next plane's
        polarity)."""
        return [1 - p for p in self.product_terms(inputs)]

    def evaluate(self, inputs: Sequence[int]) -> List[int]:
        """Full two-plane, switch-level evaluation of one input vector."""
        if len(inputs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs")
        products = self.product_terms(inputs)
        outputs = []
        for k in range(self.n_outputs):
            if not self.or_columns:
                nor_value = 1  # empty OR plane: NOR of nothing is high
            else:
                nor_value = self.or_columns[k].evaluate(products)
            if self.config.output_inverted[k]:
                outputs.append(1 - nor_value)
            else:
                outputs.append(nor_value)
        return outputs

    def truth_table(self) -> List[int]:
        """Output bitmask per input minterm (exponential).

        Bit-sliced over the plane configuration when the kernels are
        enabled; the scalar path (``REPRO_KERNEL=python``) walks every
        minterm through the switch-level gates.
        """
        from repro import kernels
        if kernels.enabled() and self.n_outputs <= kernels.bitslice.WORD:
            return kernels.bitslice.config_truth_table(self.config)
        table = []
        for minterm in range(1 << self.n_inputs):
            vector = [(minterm >> i) & 1 for i in range(self.n_inputs)]
            mask = 0
            for k, bit in enumerate(self.evaluate(vector)):
                if bit:
                    mask |= 1 << k
            table.append(mask)
        return table

    # ------------------------------------------------------------------
    # device access (programming / fault machinery)
    # ------------------------------------------------------------------
    def device_at(self, plane: str, row: int, column: int):
        """The device at a crosspoint; ``plane`` is ``"and"`` or ``"or"``.

        AND-plane coordinates are (product row, input column); OR-plane
        coordinates are (product row, output column).
        """
        if plane == "and":
            return self.and_rows[row].devices[column]
        if plane == "or":
            return self.or_columns[column].devices[row]
        raise ValueError("plane must be 'and' or 'or'")

    def __repr__(self) -> str:
        return (f"AmbipolarPLA(i={self.n_inputs}, o={self.n_outputs}, "
                f"p={self.n_products})")
