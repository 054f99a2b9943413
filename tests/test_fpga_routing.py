"""Tests for the congestion-negotiating router."""

from repro.fpga.clb import standard_pla_clb
from repro.fpga.fabric import FPGAFabric
from repro.fpga.netlist import build_netlist
from repro.fpga.placement import place
from repro.fpga.routing import route
from repro.logic.function import BooleanFunction
from repro.mapping.partition import Partitioner


def routed_setup(seeds=(1, 2), capacity=12, side=6, dual=False, seed=0):
    partitioner = Partitioner(max_inputs=4, max_outputs=2, max_products=8)
    partitions = [partitioner.partition(
        BooleanFunction.random(6, 2, 5, seed=s, name=f"w{s}",
                               dash_probability=0.3))
        for s in seeds]
    netlist = build_netlist(partitions, dual_polarity=dual)
    fabric = FPGAFabric(side, side, standard_pla_clb(), capacity)
    placement = place(netlist, fabric, seed=seed)
    return netlist, fabric, placement, route(netlist, placement, fabric)


class TestTrees:
    def test_every_multi_terminal_net_routed(self):
        netlist, fabric, placement, result = routed_setup()
        for net in netlist.nets:
            assert net.name in result.routed

    def test_tree_connects_all_terminals(self):
        from collections import deque

        from repro.fpga.routing import _net_terminals
        netlist, fabric, placement, result = routed_setup((1, 2, 3))
        for routed in result.routed.values():
            terms = _net_terminals(routed.net, placement)
            if len(terms) < 2:
                continue
            neighbours = {}
            for a, b in routed.edges:
                neighbours.setdefault(a, []).append(b)
                neighbours.setdefault(b, []).append(a)
            component = {terms[0]}
            frontier = deque([terms[0]])
            while frontier:
                for nxt in neighbours.get(frontier.popleft(), []):
                    if nxt not in component:
                        component.add(nxt)
                        frontier.append(nxt)
            for term in terms[1:]:
                assert term in component

    def test_edges_are_grid_edges(self):
        netlist, fabric, placement, result = routed_setup()
        valid = set(fabric.edges())
        for routed in result.routed.values():
            for edge in routed.edges:
                assert edge in valid

    def test_same_site_terminals_need_no_wire(self):
        netlist, fabric, placement, result = routed_setup()
        for routed in result.routed.values():
            from repro.fpga.routing import _net_terminals
            terms = _net_terminals(routed.net, placement)
            if len(terms) <= 1:
                assert routed.edges == []


class TestCongestion:
    def test_usage_accounting(self):
        netlist, fabric, placement, result = routed_setup((1, 2, 3))
        recount = {}
        for routed in result.routed.values():
            for edge in routed.edges:
                recount[edge] = recount.get(edge, 0) + 1
        assert recount == result.usage

    def test_total_wirelength(self):
        netlist, fabric, placement, result = routed_setup()
        assert result.total_wirelength == sum(
            r.wirelength for r in result.routed.values())

    def test_ample_capacity_no_overflow(self):
        netlist, fabric, placement, result = routed_setup(capacity=60)
        assert result.overflow == {}
        assert result.iterations <= 2

    def test_tight_capacity_negotiates(self):
        netlist, fabric, placement, result = routed_setup(
            (1, 2, 3, 4), capacity=2, side=7, dual=True)
        # negotiation ran more than one round on a tight fabric
        assert result.iterations >= 1
        assert result.max_channel_usage() > 0

    def test_congestion_of(self):
        netlist, fabric, placement, result = routed_setup()
        edge = next(iter(result.usage), None)
        if edge is not None:
            assert result.congestion_of(edge, fabric.channel_capacity) == \
                result.usage[edge] / fabric.channel_capacity

    def test_deterministic(self):
        _n1, _f1, _p1, a = routed_setup(seed=5)
        _n2, _f2, _p2, b = routed_setup(seed=5)
        assert a.total_wirelength == b.total_wirelength
        assert a.usage == b.usage


class TestBackendEquivalence:
    """The packed wavefront must reproduce the scalar oracle's trees
    (the deep differential suite lives in ``test_fpga_grid.py``)."""

    def _both(self, fn):
        from repro import kernels
        with kernels.forced_backend("numpy"):
            kernel_result = fn()
        with kernels.forced_backend("python"):
            scalar_result = fn()
        return kernel_result, scalar_result

    def test_routes_identical_across_backends(self):
        netlist, fabric, placement, _ = routed_setup((1, 2, 3), dual=True)

        def run():
            result = route(netlist, placement, fabric)
            return ({n: r.edges for n, r in result.routed.items()},
                    result.usage, result.overflow, result.iterations)

        assert self._both(run)[0] == self._both(run)[1]

    def test_negotiation_identical_under_congestion(self):
        # capacity 2 forces several history-update rounds
        netlist, fabric, placement, _ = routed_setup(
            (1, 2, 3, 4), capacity=2, side=7, dual=True)

        def run():
            result = route(netlist, placement, fabric)
            return (result.usage, result.overflow, result.iterations,
                    result.total_wirelength)

        kernel_r, scalar_r = self._both(run)
        assert kernel_r == scalar_r
