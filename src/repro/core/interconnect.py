"""Crosspoint interconnect arrays from ambipolar CNFETs (Section 4).

Every crosspoint of the array connects one horizontal and one vertical
wire through an ambipolar CNFET used as a pass transistor.  All control
gates are tied to the same high level, so the *polarity gate alone*
decides connectivity: ``V+`` (n-type, conducting under a high CG) makes
the connection, ``V0`` (off) breaks it.  Interleaving these arrays with
GNOR PLAs (Fig 3) lets product terms cascade through arbitrarily many
NOR planes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.device import (AmbipolarCNFET, DEFAULT_PARAMETERS,
                               DeviceParameters, Polarity)


class CrosspointArray:
    """A programmable crossbar of pass-transistor crosspoints.

    Parameters
    ----------
    n_horizontal, n_vertical:
        Wire counts of the two layers.
    params:
        Device parameters for every crosspoint CNFET.
    """

    def __init__(self, n_horizontal: int, n_vertical: int,
                 params: DeviceParameters = DEFAULT_PARAMETERS):
        if n_horizontal < 1 or n_vertical < 1:
            raise ValueError("the array needs at least one wire per layer")
        self.n_horizontal = n_horizontal
        self.n_vertical = n_vertical
        self.params = params
        self.devices: List[List[AmbipolarCNFET]] = [
            [AmbipolarCNFET(params=params) for _ in range(n_vertical)]
            for _ in range(n_horizontal)]

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------
    def connect(self, horizontal: int, vertical: int) -> None:
        """Program crosspoint (h, v) conducting (PG to ``V+``)."""
        self.devices[horizontal][vertical].program(Polarity.N_TYPE)

    def disconnect(self, horizontal: int, vertical: int) -> None:
        """Program crosspoint (h, v) off (PG to ``V0``)."""
        self.devices[horizontal][vertical].program(Polarity.OFF)

    def is_connected(self, horizontal: int, vertical: int) -> bool:
        """Whether the crosspoint conducts (all CGs are tied high)."""
        return self.devices[horizontal][vertical].conducts(cg_high=True)

    def clear(self) -> None:
        """Disconnect every crosspoint."""
        for row in self.devices:
            for device in row:
                device.program(Polarity.OFF)

    def program_pattern(self, pattern: Sequence[Sequence[bool]]) -> None:
        """Program the whole array from a boolean matrix."""
        if len(pattern) != self.n_horizontal or \
                any(len(row) != self.n_vertical for row in pattern):
            raise ValueError("pattern dimensions do not match the array")
        for h, row in enumerate(pattern):
            for v, on in enumerate(row):
                if on:
                    self.connect(h, v)
                else:
                    self.disconnect(h, v)

    def connections(self) -> List[Tuple[int, int]]:
        """All conducting crosspoints as (horizontal, vertical) pairs."""
        return [(h, v)
                for h in range(self.n_horizontal)
                for v in range(self.n_vertical)
                if self.is_connected(h, v)]

    # ------------------------------------------------------------------
    # connectivity analysis
    # ------------------------------------------------------------------
    def _wire_components(self) -> Dict[Tuple[str, int], int]:
        """Union-find over wires; conducting crosspoints merge components."""
        parent: Dict[Tuple[str, int], Tuple[str, int]] = {}

        def find(node):
            root = node
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        def union(a, b):
            parent[find(a)] = find(b)

        for h in range(self.n_horizontal):
            find(("h", h))
        for v in range(self.n_vertical):
            find(("v", v))
        for h, v in self.connections():
            union(("h", h), ("v", v))

        labels: Dict[Tuple[str, int], int] = {}
        next_label = 0
        result = {}
        for node in list(parent):
            root = find(node)
            if root not in labels:
                labels[root] = next_label
                next_label += 1
            result[node] = labels[root]
        return result

    def wires_connected(self, wire_a: Tuple[str, int],
                        wire_b: Tuple[str, int]) -> bool:
        """Whether two wires (e.g. ``("h", 0)`` and ``("v", 3)``) are
        electrically joined through any chain of crosspoints."""
        components = self._wire_components()
        return components[wire_a] == components[wire_b]

    def propagate(self, driven: Dict[Tuple[str, int], int]) -> Dict[Tuple[str, int], int]:
        """Propagate driven wire values through the programmed fabric.

        ``driven`` maps wires to 0/1.  Every wire in a component with a
        driver takes the driver's value; conflicting drivers in one
        component raise ``ValueError`` (a programming short).
        Undriven components float and are omitted from the result.
        """
        components = self._wire_components()
        component_value: Dict[int, int] = {}
        for wire, value in driven.items():
            comp = components[wire]
            if comp in component_value and component_value[comp] != value:
                raise ValueError(f"conflicting drivers on component {comp}")
            component_value[comp] = value
        result = {}
        for wire, comp in components.items():
            if comp in component_value:
                result[wire] = component_value[comp]
        return result

    def path_resistance(self, wire_a: Tuple[str, int],
                        wire_b: Tuple[str, int]) -> Optional[float]:
        """Series resistance of the cheapest crosspoint path joining two
        wires, or ``None`` when disconnected (simple BFS over hops —
        each conducting crosspoint adds one on-resistance)."""
        if wire_a == wire_b:
            return 0.0
        adjacency: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
        for h, v in self.connections():
            adjacency.setdefault(("h", h), set()).add(("v", v))
            adjacency.setdefault(("v", v), set()).add(("h", h))
        frontier = [wire_a]
        seen = {wire_a: 0}
        while frontier:
            next_frontier = []
            for wire in frontier:
                for neighbor in adjacency.get(wire, ()):
                    if neighbor not in seen:
                        seen[neighbor] = seen[wire] + 1
                        if neighbor == wire_b:
                            r_on = self.devices[0][0].on_resistance()
                            return seen[neighbor] * r_on
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def n_cells(self) -> int:
        """Crosspoint count (for area accounting)."""
        return self.n_horizontal * self.n_vertical

    def __repr__(self) -> str:
        return (f"CrosspointArray({self.n_horizontal}x{self.n_vertical}, "
                f"{len(self.connections())} connected)")
