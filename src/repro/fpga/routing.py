"""A PathFinder-style congestion-negotiating router.

Each net is routed as a tree over the tile grid: the first sink is
connected to the source by Dijkstra over the channel graph, and every
further sink connects to the cheapest node of the partially-built tree
(a standard Steiner approximation).  Over-subscribed channel segments
are resolved by negotiation: present-congestion and history costs grow
each iteration until demand fits capacity (or the iteration bound is
hit, in which case the residual overflow is reported — overflow also
feeds the timing model as a congestion penalty).

The negotiation loop is shared; the wavefront engine behind it is
selected per ``REPRO_KERNEL`` backend.  The scalar oracle (kept here
for differential testing) expands frontiers through site-tuple dicts;
the array backend (:class:`repro.fpga.grid.PackedRouteEngine`) runs
the same Dijkstra over flat node-indexed arrays with bulk congestion
updates.  Both key the wavefront heap by node index, so pop order —
and therefore every routed tree — is bit-identical across backends.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import kernels, perf
from repro.fpga.fabric import Edge, FPGAFabric, Site
from repro.fpga.netlist import Net, Netlist
from repro.fpga.placement import Placement


@dataclass
class RoutedNet:
    """One net's routing tree.

    Attributes
    ----------
    net:
        The routed net.
    edges:
        Channel segments used by the tree.
    wirelength:
        Tree size in segments.
    """

    net: Net
    edges: List[Edge]

    @property
    def wirelength(self) -> int:
        return len(self.edges)


@dataclass
class RoutingResult:
    """Outcome of routing a whole netlist.

    Attributes
    ----------
    routed:
        net name -> :class:`RoutedNet`.
    usage:
        Channel segment -> nets using it.
    overflow:
        Segments whose usage exceeds capacity, with the excess.
    iterations:
        Negotiation rounds performed (also accumulated into the
        ``fpga.route.iterations`` perf counter).
    total_wirelength:
        Sum of all tree sizes.
    """

    routed: Dict[str, RoutedNet]
    usage: Dict[Edge, int]
    overflow: Dict[Edge, int]
    iterations: int
    total_wirelength: int

    def max_channel_usage(self) -> int:
        """Peak segment demand."""
        return max(self.usage.values(), default=0)

    def congestion_of(self, edge: Edge, capacity: int) -> float:
        """Utilization of one segment (may exceed 1 on overflow)."""
        return self.usage.get(edge, 0) / capacity


class _ScalarRouteEngine:
    """The original dict-over-site-tuples wavefront (the scalar oracle)."""

    def __init__(self, fabric: FPGAFabric):
        self.fabric = fabric
        self.capacity = fabric.channel_capacity
        self.history: Dict[Edge, float] = {}
        self.usage: Dict[Edge, int] = {}
        self._present_factor = 0.0

    def begin_iteration(self, present_factor: float) -> None:
        self.usage = {}
        self._present_factor = present_factor

    def route_tree(self, terminals: Sequence[Site]) -> List[Edge]:
        """Steiner-approximate tree: connect each terminal to the grown
        tree; commits the tree's demand to the usage map."""
        fabric = self.fabric
        tree_nodes: Set[Site] = {terminals[0]}
        tree_edges: List[Edge] = []
        for target in terminals[1:]:
            if target in tree_nodes:
                continue
            path = self._dijkstra(tree_nodes, target, self._present_factor)
            for a, b in zip(path, path[1:]):
                edge = fabric.edge(a, b)
                if edge not in tree_edges:
                    tree_edges.append(edge)
                tree_nodes.add(a)
                tree_nodes.add(b)
        for edge in tree_edges:
            self.usage[edge] = self.usage.get(edge, 0) + 1
        return tree_edges

    def _dijkstra(self, sources: Set[Site], target: Site,
                  present_factor: float) -> List[Site]:
        """Cheapest path from any source node to ``target``.

        Heap entries are keyed ``(cost, node_index, site)`` — the same
        total order the packed engine uses, so equal-cost frontiers pop
        identically on both backends.
        """
        fabric = self.fabric
        width = fabric.width
        capacity = self.capacity
        usage, history = self.usage, self.history
        heap: List[Tuple[float, int, Site]] = []
        best: Dict[Site, float] = {}
        previous: Dict[Site, Optional[Site]] = {}
        for source in sources:
            heapq.heappush(heap, (0.0, source[1] * width + source[0], source))
            best[source] = 0.0
            previous[source] = None

        while heap:
            cost, _key, node = heapq.heappop(heap)
            if node == target:
                break
            if cost > best.get(node, float("inf")):
                continue
            for neighbor in fabric.neighbors(node):
                edge = fabric.edge(node, neighbor)
                used = usage.get(edge, 0)
                present = present_factor * max(0, used + 1 - capacity)
                edge_cost = 1.0 + present + history.get(edge, 0.0)
                new_cost = cost + edge_cost
                if new_cost < best.get(neighbor, float("inf")):
                    best[neighbor] = new_cost
                    previous[neighbor] = node
                    heapq.heappush(
                        heap,
                        (new_cost, neighbor[1] * width + neighbor[0],
                         neighbor))

        if target not in previous and target not in best:
            raise RuntimeError(
                "router failed to reach a target (disconnected grid?)")
        path = [target]
        node = target
        while previous.get(node) is not None:
            node = previous[node]
            path.append(node)
        path.reverse()
        return path

    def overflow_dict(self) -> Dict[Edge, int]:
        return {edge: used - self.capacity
                for edge, used in self.usage.items()
                if used > self.capacity}

    def apply_history(self, history_increment: float) -> None:
        for edge, excess in self.overflow_dict().items():
            self.history[edge] = self.history.get(edge, 0.0) \
                + history_increment * excess

    def usage_dict(self) -> Dict[Edge, int]:
        return dict(self.usage)


def _make_route_engine(fabric: FPGAFabric):
    """The backend-selected wavefront engine (packed or scalar oracle)."""
    if kernels.enabled():
        from repro.fpga.grid import PackedRouteEngine
        return PackedRouteEngine(fabric)
    return _ScalarRouteEngine(fabric)


def route(netlist: Netlist, placement: Placement, fabric: FPGAFabric,
          max_iterations: int = 8, history_increment: float = 0.4,
          present_factor: float = 0.6) -> RoutingResult:
    """Route every net of ``netlist`` over ``fabric``.

    Multi-terminal nets become Steiner-approximate trees; the
    negotiation loop reroutes all nets with updated congestion costs
    until no segment is over capacity or ``max_iterations`` is reached.
    """
    with perf.timer("fpga.route"):
        result = _route(netlist, placement, fabric, max_iterations,
                        history_increment, present_factor)
    perf.count("fpga.route.iterations", result.iterations)
    perf.count("fpga.route.overflow_segments", len(result.overflow))
    perf.count("fpga.route.wirelength", result.total_wirelength)
    return result


def _route(netlist: Netlist, placement: Placement, fabric: FPGAFabric,
           max_iterations: int, history_increment: float,
           present_factor: float) -> RoutingResult:
    nets = [net for net in netlist.nets if net.n_terminals() >= 1]
    terminals: Dict[str, List[Site]] = {}
    for net in nets:
        terms = _net_terminals(net, placement)
        if len(terms) >= 2:
            terminals[net.name] = terms

    engine = _make_route_engine(fabric)
    routed: Dict[str, RoutedNet] = {}
    iterations = 0

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        engine.begin_iteration(present_factor)
        routed = {}
        for net in nets:
            terms = terminals.get(net.name)
            if not terms:
                routed[net.name] = RoutedNet(net, [])
                continue
            edges = engine.route_tree(terms)
            routed[net.name] = RoutedNet(net, edges)
        overflow = engine.overflow_dict()
        if not overflow:
            break
        engine.apply_history(history_increment)

    overflow = engine.overflow_dict()
    total = sum(r.wirelength for r in routed.values())
    return RoutingResult(routed=routed, usage=engine.usage_dict(),
                         overflow=overflow, iterations=iterations,
                         total_wirelength=total)


def _net_terminals(net: Net, placement: Placement) -> List[Site]:
    """Tile coordinates of a net's source and sinks (pads included)."""
    terms: List[Site] = []
    if net.source is not None:
        terms.append(placement.sites[net.source])
    else:
        base = net.name.split("#", 1)[0]
        if base in placement.pads:
            terms.append(placement.pads[base])
    for sink in net.sinks:
        terms.append(placement.sites[sink])
    base = net.name.split("#", 1)[0]
    if net.source is not None and base in placement.pads:
        terms.append(placement.pads[base])  # primary-output pad
    # dedupe, preserving order
    seen: Set[Site] = set()
    unique = []
    for site in terms:
        if site not in seen:
            seen.add(site)
            unique.append(site)
    return unique
