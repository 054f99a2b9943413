"""FPGA timing analysis: wire + logic delays, critical path, frequency.

Net delay follows a buffered-segment model: every channel segment
crossed contributes one segment delay proportional to the **tile
pitch** (shrinking the CLB shrinks the wires — the paper's mechanism),
inflated by a congestion penalty on over-utilized segments.  Block
delay comes from the CLB's internal PLA timing model.  The critical
path is found by longest-path propagation over the block DAG, and the
maximum frequency is its reciprocal.

Constants are calibrated once so the *standard* Table 2 fabric lands
near the paper's 154 MHz; the ambipolar fabric is then measured through
the identical code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import kernels, perf
from repro.fpga.fabric import Edge, FPGAFabric
from repro.fpga.netlist import Net, Netlist
from repro.fpga.routing import RoutingResult
from repro.tech import TechDescriptor, get_tech

#: Descriptor supplying the calibrated wire-model defaults.
_DEFAULT_TECH = get_tech("cnfet")


@dataclass(frozen=True)
class WireDelayParameters:
    """Constants of the buffered-wire delay model.

    Defaults come from the ``cnfet`` technology descriptor
    (:mod:`repro.tech`); :meth:`from_tech` builds the set for any
    other descriptor.

    Attributes
    ----------
    segment_delay_per_l:
        Delay of one routed channel segment, per unit of tile pitch
        [s / L].  Calibrated against the Table 2 standard fabric.
    congestion_beta:
        Quadratic congestion penalty coefficient: a segment at
        utilization ``u`` is slowed by ``1 + beta * max(0, u - 0.5)**2``.
    connection_delay:
        Fixed delay of entering/leaving the routing fabric per net [s]
        (connection-block switches).
    """

    segment_delay_per_l: float = _DEFAULT_TECH.wire_segment_delay_per_l
    congestion_beta: float = _DEFAULT_TECH.wire_congestion_beta
    connection_delay: float = _DEFAULT_TECH.wire_connection_delay

    @classmethod
    def from_tech(cls, descriptor: TechDescriptor) -> "WireDelayParameters":
        """The wire-delay view of a technology descriptor."""
        return cls(
            segment_delay_per_l=descriptor.wire_segment_delay_per_l,
            congestion_beta=descriptor.wire_congestion_beta,
            connection_delay=descriptor.wire_connection_delay)


#: Calibrated defaults shared by the benches.
DEFAULT_WIRE_DELAY = WireDelayParameters()


@dataclass
class TimingReport:
    """Static timing analysis outcome.

    Attributes
    ----------
    critical_path_delay:
        Longest register-to-register (pad-to-pad) delay [s].
    max_frequency_hz:
        ``1 / critical_path_delay``.
    critical_path:
        Block names along the critical path, in order.
    net_delays:
        net name -> wire delay [s].
    block_delays:
        block name -> logic delay [s].
    """

    critical_path_delay: float
    max_frequency_hz: float
    critical_path: List[str]
    net_delays: Dict[str, float]
    block_delays: Dict[str, float]

    def max_frequency_mhz(self) -> float:
        """Frequency in MHz (the Table 2 unit)."""
        return self.max_frequency_hz / 1e6


def _congestion_penalties(usage: Dict[Edge, int], capacity: int,
                          beta: float) -> Dict[Edge, float]:
    """Per-segment congestion slowdown factors.

    A segment at utilization ``u`` is slowed by
    ``1 + beta * max(0, u - 0.5)**2``.  On the array backend the whole
    table is one vectorized pass over the usage values; the scalar
    fallback loops.  Both square via a plain multiply, so every factor
    is bit-identical across backends.
    """
    if kernels.enabled() and usage:
        import numpy as np
        used = np.fromiter(usage.values(), dtype=np.float64,
                           count=len(usage))
        slack = np.maximum(used / capacity - 0.5, 0.0)
        factors = 1.0 + beta * (slack * slack)
        return dict(zip(usage.keys(), factors.tolist()))
    penalties = {}
    for edge, used in usage.items():
        slack = max(0.0, used / capacity - 0.5)
        penalties[edge] = 1.0 + beta * (slack * slack)
    return penalties


def analyze_timing(netlist: Netlist, routing: RoutingResult,
                   fabric: FPGAFabric,
                   params: WireDelayParameters = DEFAULT_WIRE_DELAY
                   ) -> TimingReport:
    """Longest-path timing over the placed-and-routed design.

    ``params`` may also be a :class:`~repro.tech.TechDescriptor`.
    """
    if isinstance(params, TechDescriptor):
        params = WireDelayParameters.from_tech(params)
    with perf.timer("fpga.timing"):
        return _analyze_timing(netlist, routing, fabric, params)


def _analyze_timing(netlist: Netlist, routing: RoutingResult,
                    fabric: FPGAFabric,
                    params: WireDelayParameters) -> TimingReport:
    pitch = fabric.tile_pitch_l()
    capacity = fabric.channel_capacity
    penalties = _congestion_penalties(routing.usage, capacity,
                                      params.congestion_beta)

    net_delays: Dict[str, float] = {}
    for name, routed in routing.routed.items():
        delay = params.connection_delay
        for edge in routed.edges:
            delay += params.segment_delay_per_l * pitch \
                * penalties.get(edge, 1.0)
        net_delays[name] = delay

    logic_delay = fabric.clb.logic_delay()
    block_delays = {name: logic_delay for name in netlist.blocks}

    # Longest-path propagation in dependency order (blocks are already
    # topologically sorted by the netlist builder).
    arrival: Dict[str, Tuple[float, List[str]]] = {}

    def signal_arrival(net: Net) -> Tuple[float, List[str]]:
        wire = net_delays.get(net.name, params.connection_delay)
        if net.source is None:
            return (wire, [])
        source_arrival, path = arrival.get(net.source, (0.0, [net.source]))
        return (source_arrival + wire, path)

    nets_by_sink: Dict[str, List[Net]] = {}
    for net in netlist.nets:
        for sink in net.sinks:
            nets_by_sink.setdefault(sink, []).append(net)

    for name in netlist.block_order():
        best_arrival = 0.0
        best_path: List[str] = []
        for net in nets_by_sink.get(name, []):
            t, path = signal_arrival(net)
            if t > best_arrival:
                best_arrival = t
                best_path = path
        arrival[name] = (best_arrival + block_delays[name], best_path + [name])

    # Close the path through primary-output nets.
    critical_delay = 0.0
    critical_path: List[str] = []
    for net in netlist.nets:
        t, path = signal_arrival(net)
        if not net.sinks:  # primary-output net: t already includes the wire
            if t > critical_delay:
                critical_delay = t
                critical_path = path
    for name, (t, path) in arrival.items():
        if t > critical_delay:
            critical_delay = t
            critical_path = path

    if critical_delay <= 0.0:
        critical_delay = logic_delay or 1e-12
    return TimingReport(
        critical_path_delay=critical_delay,
        max_frequency_hz=1.0 / critical_delay,
        critical_path=critical_path,
        net_delays=net_delays,
        block_delays=block_delays,
    )
