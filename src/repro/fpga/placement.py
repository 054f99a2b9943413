"""Simulated-annealing placement.

Blocks are assigned to fabric sites minimizing total half-perimeter
wirelength (HPWL) over all nets.  The annealer uses swap/move
perturbations with a geometric cooling schedule; everything is seeded,
so placements (and therefore Table 2) are reproducible.
Primary I/O is modelled as perimeter pads spread around the die.

The accept/reject loop is shared; what differs per ``REPRO_KERNEL``
backend is the cost model behind it.  The scalar oracle re-scores every
net a move touches (the original implementation, kept for differential
testing); the array backend (:class:`repro.fpga.grid.IncrementalHPWL`)
keeps per-net cached bounding boxes with O(1) delta updates per move.
HPWL is integer tile arithmetic, so both models return identical deltas
and the same RNG stream drives identical placements on both backends.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernels, perf
from repro.fpga.fabric import FPGAFabric, Site
from repro.fpga.netlist import Net, Netlist


@dataclass
class Placement:
    """A complete block-to-site assignment.

    Attributes
    ----------
    sites:
        block name -> tile coordinate.
    pads:
        primary I/O signal -> perimeter coordinate (may lie on the grid
        border tiles).
    wirelength:
        Final HPWL in tile units.
    moves_evaluated:
        Annealer statistics (for ablation benches; also accumulated
        into the ``fpga.place.moves_evaluated`` perf counter).
    """

    sites: Dict[str, Site]
    pads: Dict[str, Site]
    wirelength: float
    moves_evaluated: int = 0

    def site_of(self, terminal: str) -> Site:
        """Tile of a block or pad terminal."""
        if terminal in self.sites:
            return self.sites[terminal]
        return self.pads[terminal]


class _ScalarHPWL:
    """The original re-score-per-move cost model (the scalar oracle).

    Kept verbatim from the pre-array implementation for differential
    testing: a staged move applies to a private position copy and
    re-scores every touched net in full (and again on commit, exactly
    as the original annealer did).
    """

    def __init__(self, nets: Sequence[Net], sites: Dict[str, Site],
                 pads: Dict[str, Site]):
        self.nets = list(nets)
        self.pos = dict(sites)
        self.pads = pads
        self.touching: Dict[str, List[int]] = {}
        for index, net in enumerate(self.nets):
            for terminal in _block_terminals(net, self.pos):
                self.touching.setdefault(terminal, []).append(index)
        self.net_costs = [self._net_hpwl(net) for net in self.nets]
        self._staged: Optional[Tuple[list, set]] = None

    def _net_hpwl(self, net: Net) -> float:
        xs: List[int] = []
        ys: List[int] = []
        for terminal in ([net.source] if net.source else []) + net.sinks:
            site = self.pos.get(terminal)
            if site is not None:
                xs.append(site[0])
                ys.append(site[1])
        base_signal = net.name.split("#", 1)[0]
        pad = self.pads.get(base_signal)
        if pad is not None:
            # primary-input nets start at a pad; primary-output nets end
            # at one (duplicates do not change the bounding box)
            xs.append(pad[0])
            ys.append(pad[1])
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def move_delta(self, mover: str, new_site: Site,
                   swap_with: Optional[str], old_site: Site) -> float:
        affected = set(self.touching.get(mover, []))
        if swap_with is not None:
            affected |= set(self.touching.get(swap_with, []))
        before = sum(self.net_costs[i] for i in affected)
        undo_pos = [(mover, self.pos[mover])]
        self.pos[mover] = new_site
        if swap_with is not None:
            undo_pos.append((swap_with, self.pos[swap_with]))
            self.pos[swap_with] = old_site
        after = sum(self._net_hpwl(self.nets[i]) for i in affected)
        self._staged = (undo_pos, affected)
        return after - before

    def commit(self) -> None:
        _undo_pos, affected = self._staged
        for index in affected:
            self.net_costs[index] = self._net_hpwl(self.nets[index])
        self._staged = None

    def rollback(self) -> None:
        undo_pos, _affected = self._staged
        for name, site in undo_pos:
            self.pos[name] = site
        self._staged = None

    def total(self) -> float:
        return float(sum(self.net_costs))

    def final_total(self) -> float:
        return float(sum(self._net_hpwl(net) for net in self.nets))


def _make_cost_engine(nets: Sequence[Net], sites: Dict[str, Site],
                      pads: Dict[str, Site]):
    """The backend-selected HPWL engine (array-backed or scalar oracle)."""
    if kernels.enabled():
        from repro.fpga.grid import IncrementalHPWL
        return IncrementalHPWL(nets, sites, pads)
    return _ScalarHPWL(nets, sites, pads)


def place(netlist: Netlist, fabric: FPGAFabric, seed: int = 0,
          moves_per_block: int = 200,
          initial_temperature: float = 2.0,
          cooling: float = 0.93) -> Placement:
    """Anneal a placement of ``netlist`` onto ``fabric``.

    Raises ``ValueError`` when the netlist needs more sites than the
    fabric offers.
    """
    with perf.timer("fpga.place"):
        placement = _place(netlist, fabric, seed, moves_per_block,
                           initial_temperature, cooling)
    perf.count("fpga.place.moves_evaluated", placement.moves_evaluated)
    return placement


def _place(netlist: Netlist, fabric: FPGAFabric, seed: int,
           moves_per_block: int, initial_temperature: float,
           cooling: float) -> Placement:
    block_names = netlist.block_order()
    if len(block_names) > fabric.n_sites():
        raise ValueError(
            f"{len(block_names)} blocks do not fit {fabric.n_sites()} sites")

    rng = random.Random(seed)
    all_sites = list(fabric.sites())
    rng.shuffle(all_sites)
    sites: Dict[str, Site] = {name: all_sites[i]
                              for i, name in enumerate(block_names)}
    free_sites: List[Site] = all_sites[len(block_names):]
    pads = _assign_pads(netlist, fabric, rng)

    nets = [net for net in netlist.nets if net.n_terminals() >= 2]
    engine = _make_cost_engine(nets, sites, pads)
    total = engine.total()

    temperature = initial_temperature
    moves = 0
    n_moves = max(1, moves_per_block * max(len(block_names), 1))
    occupied: Dict[Site, str] = {site: name for name, site in sites.items()}

    while temperature > 0.01 and moves < n_moves:
        stage_moves = max(1, len(block_names) * 10)
        for _ in range(stage_moves):
            moves += 1
            mover = rng.choice(block_names)
            old_site = sites[mover]
            if free_sites and rng.random() < 0.3:
                new_site = rng.choice(free_sites)
                swap_with: Optional[str] = None
            else:
                new_site = rng.choice(all_sites)
                swap_with = occupied.get(new_site)
                if swap_with == mover:
                    continue

            delta = engine.move_delta(mover, new_site, swap_with, old_site)

            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                engine.commit()
                sites[mover] = new_site
                occupied[new_site] = mover
                if swap_with is not None:
                    sites[swap_with] = old_site
                    occupied[old_site] = swap_with
                else:
                    del occupied[old_site]
                    free_sites.remove(new_site)
                    free_sites.append(old_site)
                total += delta
            else:
                engine.rollback()
        temperature *= cooling

    total = engine.final_total()
    return Placement(sites=sites, pads=pads, wirelength=total,
                     moves_evaluated=moves)


def evaluate_moves_batch(placement: Placement, netlist: Netlist,
                         blocks: Sequence[str],
                         sites: Sequence[Site]) -> List[float]:
    """HPWL deltas of single-block move proposals, scored in one batch.

    A read-only what-if evaluator over a finished placement: proposal
    ``i`` moves ``blocks[i]`` to ``sites[i]`` with everything else
    fixed.  On the array backend the whole batch is one vectorized
    pass over per-net extreme statistics; the scalar oracle scores the
    proposals one by one.  Both return identical (integer) deltas.
    """
    nets = [net for net in netlist.nets if net.n_terminals() >= 2]
    engine = _make_cost_engine(nets, placement.sites, placement.pads)
    if kernels.enabled():
        return [float(d) for d in
                engine.evaluate_moves_batch(blocks, sites)]
    deltas = []
    for name, site in zip(blocks, sites):
        deltas.append(float(engine.move_delta(name, site, None,
                                              placement.sites[name])))
        engine.rollback()
    return deltas


def _block_terminals(net: Net, sites: Dict[str, Site]) -> List[str]:
    terminals = []
    if net.source is not None:
        terminals.append(net.source)
    terminals.extend(net.sinks)
    return [t for t in terminals if t in sites]


def _assign_pads(netlist: Netlist, fabric: FPGAFabric,
                 rng: random.Random) -> Dict[str, Site]:
    """Spread primary I/O pads around the fabric perimeter."""
    perimeter: List[Site] = []
    w, h = fabric.width, fabric.height
    for x in range(w):
        perimeter.append((x, 0))
        perimeter.append((x, h - 1))
    for y in range(1, h - 1):
        perimeter.append((0, y))
        perimeter.append((w - 1, y))
    if not perimeter:
        perimeter = [(0, 0)]
    signals = list(netlist.primary_inputs) + list(netlist.primary_outputs)
    pads = {}
    for i, signal in enumerate(signals):
        pads[signal] = perimeter[i % len(perimeter)]
    return pads
