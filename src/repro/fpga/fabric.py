"""The FPGA fabric: a square grid of CLB tiles and routing channels.

The fabric is an island-style array: ``width x height`` CLB sites,
with horizontal and vertical routing channels between neighbouring
tiles.  Each channel segment (grid edge) has a track ``channel_capacity``;
the router negotiates over-subscribed segments.  Physical geometry
(tile pitch, die side) derives from the CLB footprint so that shrinking
the CLB shrinks every wire — the mechanism behind Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.fpga.clb import CLBSpec

#: A tile coordinate (column, row).
Site = Tuple[int, int]
#: A routing segment between two adjacent tiles (canonical order).
Edge = Tuple[Site, Site]


@dataclass
class FPGAFabric:
    """An island-style FPGA fabric.

    Attributes
    ----------
    width, height:
        Grid dimensions in tiles.
    clb:
        The CLB variant populating every site.
    channel_capacity:
        Routing tracks per channel segment.
    """

    width: int
    height: int
    clb: CLBSpec
    channel_capacity: int = 12

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("fabric must have at least one tile")
        if self.channel_capacity < 1:
            raise ValueError("channel capacity must be positive")

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def n_sites(self) -> int:
        """Total CLB sites."""
        return self.width * self.height

    def sites(self) -> Iterator[Site]:
        """All tile coordinates, row-major."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def contains(self, site: Site) -> bool:
        """Whether a coordinate is on the grid."""
        x, y = site
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbors(self, site: Site) -> List[Site]:
        """4-connected neighbouring tiles."""
        x, y = site
        candidates = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        return [s for s in candidates if self.contains(s)]

    def edge(self, a: Site, b: Site) -> Edge:
        """The canonical (sorted) edge between two adjacent sites."""
        return (a, b) if a <= b else (b, a)

    def edges(self) -> Iterator[Edge]:
        """All channel segments of the grid."""
        for x, y in self.sites():
            if x + 1 < self.width:
                yield ((x, y), (x + 1, y))
            if y + 1 < self.height:
                yield ((x, y), (x, y + 1))

    # ------------------------------------------------------------------
    # physical scale
    # ------------------------------------------------------------------
    def tile_pitch_l(self) -> float:
        """Tile pitch in lithography units (from the CLB footprint)."""
        return self.clb.tile_pitch_l()

    def die_area_l2(self) -> float:
        """Total die area in ``L**2``."""
        return self.n_sites() * self.clb.area_l2

    def occupancy(self, n_blocks: int) -> float:
        """Fraction of die area occupied by ``n_blocks`` CLBs."""
        if n_blocks > self.n_sites():
            raise ValueError("more blocks than sites")
        return n_blocks / self.n_sites()

    # ------------------------------------------------------------------
    # sizing helpers
    # ------------------------------------------------------------------
    @classmethod
    def sized_for(cls, n_blocks: int, clb: CLBSpec, target_occupancy: float,
                  channel_capacity: int = 12) -> "FPGAFabric":
        """The smallest square fabric with occupancy <= ``target_occupancy``."""
        if not 0 < target_occupancy <= 1:
            raise ValueError("target occupancy must be in (0, 1]")
        side = 1
        while side * side * target_occupancy < n_blocks:
            side += 1
        return cls(side, side, clb, channel_capacity)

    @classmethod
    def same_die(cls, reference: "FPGAFabric", clb: CLBSpec,
                 channel_capacity: int = None) -> "FPGAFabric":  # type: ignore[assignment]
        """A fabric with a different CLB on (approximately) the same die.

        A smaller CLB yields more sites on the same silicon: the grid
        side grows by ``sqrt(area_ratio)`` — exactly the paper's
        emulation of the CNFET FPGA (half-area CLBs on the same die).
        """
        ratio = (reference.clb.area_l2 / clb.area_l2) ** 0.5
        side = max(1, round(reference.width * ratio))
        capacity = (channel_capacity if channel_capacity is not None
                    else reference.channel_capacity)
        return cls(side, side, clb, capacity)

    def __repr__(self) -> str:
        return (f"FPGAFabric({self.width}x{self.height}, clb={self.clb.name}, "
                f"cap={self.channel_capacity})")
