"""Array-backed grid engine for the FPGA flow.

The scalar placement/routing code addresses the fabric through tuples
and dicts: every HPWL re-score walks terminal dicts, every wavefront
step builds ``(x, y)`` tuples and hashes edge pairs.  This module gives
the whole FPGA layer one packed representation built once per flow:

* :class:`GridIndex` — fabric sites and channel segments as contiguous
  index arrays.  Nodes are numbered row-major (``node = y*width + x``),
  segments get dense edge ids, and the 4-neighbourhood is a flat CSR
  adjacency (``adj_ptr`` / ``adj_node`` / ``adj_edge``, ``int32``).
* :class:`IncrementalHPWL` — the annealer's cost model with per-net
  cached bounding boxes and O(1) delta updates on swap/move (per-net
  point-slot lists; one C-speed axis re-scan only when a boundary
  point departs), plus :meth:`evaluate_moves_batch`, a
  vectorized evaluator that scores whole arrays of move proposals
  against second-extreme statistics without touching engine state.
* :class:`PackedRouteEngine` — PathFinder wavefronts over flat
  visited/cost/parent arrays keyed by node index (generation stamps
  instead of per-net reallocation), with present/history congestion
  stored as dense per-edge arrays and the history bump applied in bulk
  between negotiation iterations.

Both engines are exact mirrors of the scalar oracles in
:mod:`repro.fpga.placement` and :mod:`repro.fpga.routing`: same move
deltas (integer HPWL arithmetic), same wavefront pop order (heap keyed
by node index), same congestion arithmetic — so the two
``REPRO_KERNEL`` backends produce bit-identical placements, routes and
Table 2 numbers for the same seeds.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.fabric import Edge, FPGAFabric, Site

#: Instance attribute used to memoize one :class:`GridIndex` per fabric.
_GRID_CACHE_ATTR = "_grid_index_cache"


def grid_index(fabric: FPGAFabric) -> "GridIndex":
    """The (cached) :class:`GridIndex` of a fabric.

    Placement, routing and timing all run over the same arrays; the
    index is built once per fabric object and memoized on it.
    """
    cached = getattr(fabric, _GRID_CACHE_ATTR, None)
    if cached is None or cached.width != fabric.width \
            or cached.height != fabric.height:
        cached = GridIndex(fabric)
        setattr(fabric, _GRID_CACHE_ATTR, cached)
    return cached


class GridIndex:
    """Packed fabric geometry: node numbering, edge ids, CSR adjacency.

    Attributes
    ----------
    width, height, n_nodes, n_edges:
        Grid dimensions and element counts.
    edges:
        edge id -> canonical :data:`Edge` tuple (the reverse of
        ``edge_id``), in :meth:`FPGAFabric.edges` enumeration order.
    adj_ptr, adj_node, adj_edge:
        CSR adjacency over nodes (``int32``): the neighbours of node
        ``n`` are ``adj_node[adj_ptr[n]:adj_ptr[n+1]]`` and the
        segments to them ``adj_edge[...]``, in the same candidate
        order as :meth:`FPGAFabric.neighbors` (+x, -x, +y, -y).
    """

    def __init__(self, fabric: FPGAFabric):
        w, h = fabric.width, fabric.height
        self.width = w
        self.height = h
        self.n_nodes = w * h

        edge_id: Dict[Edge, int] = {}
        edges: List[Edge] = []
        for edge in fabric.edges():
            edge_id[edge] = len(edges)
            edges.append(edge)
        self.edges = edges
        self.edge_id = edge_id
        self.n_edges = len(edges)

        ptr: List[int] = [0]
        nodes: List[int] = []
        segs: List[int] = []
        for y in range(h):
            for x in range(w):
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nx < w and 0 <= ny < h:
                        nodes.append(ny * w + nx)
                        a, b = (x, y), (nx, ny)
                        segs.append(edge_id[(a, b) if a <= b else (b, a)])
                ptr.append(len(nodes))
        self.adj_ptr = np.asarray(ptr, dtype=np.int32)
        self.adj_node = np.asarray(nodes, dtype=np.int32)
        self.adj_edge = np.asarray(segs, dtype=np.int32)
        # unboxed copies for the wavefront inner loop (scalar indexing of
        # a list is cheaper than boxing numpy int32 scalars), plus the
        # per-node (neighbor, edge) pairs pre-merged for tight iteration
        self._adj_ptr = ptr
        self._adj_node = nodes
        self._adj_edge = segs
        self._adj = [tuple(zip(nodes[ptr[n]:ptr[n + 1]],
                               segs[ptr[n]:ptr[n + 1]]))
                     for n in range(self.n_nodes)]
        # step tables for O(path) cost walks: edge id from node to its
        # +x / +y neighbour (-1 on the far border)
        self._edge_right = [-1] * self.n_nodes
        self._edge_up = [-1] * self.n_nodes
        for y in range(h):
            for x in range(w):
                node = y * w + x
                if x + 1 < w:
                    self._edge_right[node] = edge_id[((x, y), (x + 1, y))]
                if y + 1 < h:
                    self._edge_up[node] = edge_id[((x, y), (x, y + 1))]

    def node_of(self, site: Site) -> int:
        """Row-major node index of a tile coordinate."""
        return site[1] * self.width + site[0]

    def site_of(self, node: int) -> Site:
        """Tile coordinate of a node index."""
        return (node % self.width, node // self.width)


# ----------------------------------------------------------------------
# placement: incremental HPWL
# ----------------------------------------------------------------------
class IncrementalHPWL:
    """Per-net cached bounding boxes with O(1) move deltas.

    The engine owns its own terminal coordinates: every net keeps flat
    per-point coordinate lists (one slot per terminal occurrence, pads
    included as fixed trailing slots) and a cached bounding box with
    its cost.  Moving a terminal is O(1) — a couple of comparisons per
    axis — unless the departing point sat on a bounding-box edge, in
    which case that one axis is re-scanned with a C-speed ``min``/
    ``max`` over the net's slot list; boxes that end up unchanged stage
    no undo entry at all.  All arithmetic is integer tile coordinates,
    so deltas equal the scalar oracle's re-score exactly.

    The protocol mirrors the annealer: :meth:`move_delta` stages a
    1-block move or 2-block swap and returns the exact HPWL delta;
    :meth:`commit` keeps it, :meth:`rollback` restores the previous
    state from the staged undo log.
    """

    def __init__(self, nets: Sequence, sites: Dict[str, Site],
                 pads: Dict[str, Site]):
        self.block_id = {name: i for i, name in enumerate(sites)}
        self.pos_x = [site[0] for site in sites.values()]
        self.pos_y = [site[1] for site in sites.values()]

        # Nets with the same terminal multiset and pad point have the
        # same bounding box under every placement — dual-polarity
        # fabrics duplicate almost every signal this way — so identical
        # nets collapse onto one weighted representative.
        # Per representative: one coordinate slot per terminal
        # occurrence (a block sourcing and sinking the same net holds
        # two slots, exactly as the scalar oracle's terminal list
        # counts it), pad slot last.
        self.pts_x: List[List[int]] = []
        self.pts_y: List[List[int]] = []
        self.weight: List[int] = []
        # per block: (representative index, slot) for every occurrence
        self.slots_of_block: List[List[Tuple[int, int]]] = [
            [] for _ in self.block_id]
        rep_of_key: Dict[Tuple, int] = {}
        for net in nets:
            terminals = ([net.source] if net.source else []) + net.sinks
            ids = [b for b in (self.block_id.get(t) for t in terminals)
                   if b is not None]
            base_signal = net.name.split("#", 1)[0]
            pad = pads.get(base_signal)
            key = (tuple(sorted(ids)), pad)
            rep = rep_of_key.get(key)
            if rep is not None:
                self.weight[rep] += 1
                continue
            rep_of_key[key] = len(self.pts_x)
            xs: List[int] = []
            ys: List[int] = []
            for block in ids:
                self.slots_of_block[block].append((len(self.pts_x),
                                                   len(xs)))
                xs.append(self.pos_x[block])
                ys.append(self.pos_y[block])
            if pad is not None:
                xs.append(pad[0])
                ys.append(pad[1])
            self.pts_x.append(xs)
            self.pts_y.append(ys)
            self.weight.append(1)
        # degenerate nets (fewer than two placed points) always cost 0,
        # exactly as the oracle scores them — drop their slots so moves
        # never touch their stats
        degenerate = {i for i, xs in enumerate(self.pts_x) if len(xs) < 2}
        if degenerate:
            self.slots_of_block = [
                [(n, s) for (n, s) in slots if n not in degenerate]
                for slots in self.slots_of_block]

        # cached per-net stats: (xmin, xmax, ymin, ymax, cost)
        self._stats: List[Tuple[int, ...]] = [
            self._full_stats(i) for i in range(len(self.pts_x))]
        self._undo_stats: List[Tuple[int, Tuple[int, ...]]] = []
        self._undo_blocks: List[Tuple[int, int, int]] = []
        self._batch_cache = None

    # -- construction / recompute --------------------------------------
    def _full_stats(self, index: int) -> Tuple[int, ...]:
        xs, ys = self.pts_x[index], self.pts_y[index]
        if len(xs) < 2:
            return (0, 0, 0, 0, 0)
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        return (xmin, xmax, ymin, ymax, (xmax - xmin) + (ymax - ymin))

    # -- cost queries ---------------------------------------------------
    def total(self) -> float:
        """Current total HPWL (exact, from the caches)."""
        return float(sum(stats[4] * w
                         for stats, w in zip(self._stats, self.weight)))

    def final_total(self) -> float:
        """Total HPWL re-derived from scratch (paranoia cross-check)."""
        return float(sum(self._full_stats(i)[4] * self.weight[i]
                         for i in range(len(self.pts_x))))

    # -- the annealer protocol ------------------------------------------
    def move_delta(self, mover: str, new_site: Site,
                   swap_with: Optional[str], old_site: Site) -> int:
        """Stage a move (or swap) and return the exact total-HPWL delta.

        ``mover`` goes to ``new_site``; with ``swap_with`` set, that
        block takes ``old_site`` (the mover's previous site).
        """
        block = self.block_id[mover]
        delta = self._shift_block(block, new_site[0], new_site[1])
        if swap_with is not None:
            partner = self.block_id[swap_with]
            delta += self._shift_block(partner, old_site[0], old_site[1])
        self._batch_cache = None
        return delta

    def _shift_block(self, block: int, new_x: int, new_y: int) -> int:
        """Move one block's slots; returns the HPWL delta contribution."""
        pos_x, pos_y = self.pos_x, self.pos_y
        pts_x, pts_y = self.pts_x, self.pts_y
        stats = self._stats
        undo_stats = self._undo_stats
        weight = self.weight
        old_x, old_y = pos_x[block], pos_y[block]
        self._undo_blocks.append((block, old_x, old_y))
        pos_x[block] = new_x
        pos_y[block] = new_y
        delta = 0
        for index, slot in self.slots_of_block[block]:
            xs = pts_x[index]
            ys = pts_y[index]
            # a swap partner may already have shifted this net's slots,
            # so the slot (not the block's old position) is the truth
            px, py = xs[slot], ys[slot]
            xs[slot] = new_x
            ys[slot] = new_y
            st = stats[index]
            oxmin, oxmax, oymin, oymax, cost = st
            # x axis: a departing boundary point forces one C-speed
            # re-scan of the slot list; anything else is O(1)
            if new_x < oxmin:
                xmin = new_x
                xmax = max(xs) if px == oxmax else oxmax
            elif new_x > oxmax:
                xmax = new_x
                xmin = min(xs) if px == oxmin else oxmin
            else:
                xmin = min(xs) if px == oxmin else oxmin
                xmax = max(xs) if px == oxmax else oxmax
            # y axis
            if new_y < oymin:
                ymin = new_y
                ymax = max(ys) if py == oymax else oymax
            elif new_y > oymax:
                ymax = new_y
                ymin = min(ys) if py == oymin else oymin
            else:
                ymin = min(ys) if py == oymin else oymin
                ymax = max(ys) if py == oymax else oymax
            if xmin != oxmin or xmax != oxmax \
                    or ymin != oymin or ymax != oymax:
                undo_stats.append((index, st))
                new_cost = (xmax - xmin) + (ymax - ymin)
                stats[index] = (xmin, xmax, ymin, ymax, new_cost)
                delta += (new_cost - cost) * weight[index]
        return delta

    def commit(self) -> None:
        """Keep the staged move."""
        self._undo_blocks.clear()
        self._undo_stats.clear()

    def rollback(self) -> None:
        """Restore coordinates and caches from the staged undo log."""
        pts_x, pts_y = self.pts_x, self.pts_y
        for block, x, y in self._undo_blocks:
            self.pos_x[block] = x
            self.pos_y[block] = y
            for index, slot in self.slots_of_block[block]:
                pts_x[index][slot] = x
                pts_y[index][slot] = y
        # reverse order: a swap may stage the same net twice
        for index, stats in reversed(self._undo_stats):
            self._stats[index] = stats
        self._undo_blocks.clear()
        self._undo_stats.clear()

    # -- vectorized batch evaluation ------------------------------------
    def _prepare_batch(self):
        """Second-extreme statistics for vectorized move scoring.

        For every net the two smallest / two largest x and y over all
        terminal points (pads included): removing one occurrence of a
        boundary value exposes the second extreme, which is all a
        single-terminal move can need.  Cached until the next staged
        move mutates the engine.
        """
        if self._batch_cache is not None:
            return self._batch_cache
        n_nets = len(self.pts_x)
        ext = np.zeros((n_nets, 8), dtype=np.int64)  # s0x s1x g0x g1x (y...)
        cost = np.zeros(n_nets, dtype=np.int64)
        weight = np.asarray(self.weight, dtype=np.int64)
        scorable = np.zeros(n_nets, dtype=bool)
        for index in range(n_nets):
            xs, ys = self.pts_x[index], self.pts_y[index]
            if len(xs) < 2:
                continue
            sx = sorted(xs)
            sy = sorted(ys)
            ext[index] = (sx[0], sx[1], sx[-1], sx[-2],
                          sy[0], sy[1], sy[-1], sy[-2])
            cost[index] = self._stats[index][4]
            scorable[index] = True
        # CSR over (block -> touched nets), one row per unique net
        ptr = [0]
        net_ids: List[int] = []
        occs: List[int] = []
        for block in range(len(self.block_id)):
            counts: Dict[int, int] = {}
            for index, _slot in self.slots_of_block[block]:
                counts[index] = counts.get(index, 0) + 1
            for index in sorted(counts):
                net_ids.append(index)
                occs.append(counts[index])
            ptr.append(len(net_ids))
        self._batch_cache = (ext, cost, weight, scorable,
                             np.asarray(ptr, dtype=np.int64),
                             np.asarray(net_ids, dtype=np.int64),
                             np.asarray(occs, dtype=np.int64))
        return self._batch_cache

    def evaluate_moves_batch(self, blocks: Sequence[str],
                             sites: Sequence[Site]) -> np.ndarray:
        """HPWL deltas for a whole array of single-block move proposals.

        Scores every ``(blocks[i] -> sites[i])`` move against the
        current state without mutating it; equals running
        :meth:`move_delta` + :meth:`rollback` per proposal.  Rare nets
        where the moved block holds several terminals fall back to the
        exact incremental path.
        """
        ext, cost, weight, scorable, ptr, net_ids, occs = \
            self._prepare_batch()
        block_idx = np.asarray([self.block_id[name] for name in blocks],
                               dtype=np.int64)
        new_x = np.asarray([site[0] for site in sites], dtype=np.int64)
        new_y = np.asarray([site[1] for site in sites], dtype=np.int64)
        old_x = np.asarray(self.pos_x, dtype=np.int64)[block_idx]
        old_y = np.asarray(self.pos_y, dtype=np.int64)[block_idx]

        counts = ptr[block_idx + 1] - ptr[block_idx]
        pair_move = np.repeat(np.arange(len(block_idx)), counts)
        # gather each proposal's touched-net rows from the CSR arrays
        offsets = (np.arange(len(pair_move))
                   - np.repeat(np.cumsum(counts) - counts, counts))
        pair_rows = ptr[block_idx][pair_move] + offsets
        pair_net = net_ids[pair_rows]
        pair_occ = occs[pair_rows]

        e = ext[pair_net]
        px0, py0 = old_x[pair_move], old_y[pair_move]
        px1, py1 = new_x[pair_move], new_y[pair_move]
        # bounding box with one occurrence of the old point removed...
        min_wo_x = np.where(px0 == e[:, 0], e[:, 1], e[:, 0])
        max_wo_x = np.where(px0 == e[:, 2], e[:, 3], e[:, 2])
        min_wo_y = np.where(py0 == e[:, 4], e[:, 5], e[:, 4])
        max_wo_y = np.where(py0 == e[:, 6], e[:, 7], e[:, 6])
        # ...then the new point folded back in
        new_cost = ((np.maximum(max_wo_x, px1) - np.minimum(min_wo_x, px1))
                    + (np.maximum(max_wo_y, py1) - np.minimum(min_wo_y, py1)))
        pair_delta = np.where(scorable[pair_net],
                              (new_cost - cost[pair_net])
                              * weight[pair_net], 0)

        # multi-occurrence pairs: the second-extreme trick only removes
        # one point, so score those few exactly against the slot lists
        multi = np.nonzero(pair_occ > 1)[0]
        for row in multi:
            move = int(pair_move[row])
            index = int(pair_net[row])
            block = int(block_idx[move])
            xs = list(self.pts_x[index])
            ys = list(self.pts_y[index])
            for net_index, slot in self.slots_of_block[block]:
                if net_index == index:
                    xs[slot] = int(new_x[move])
                    ys[slot] = int(new_y[move])
            if len(xs) < 2:
                pair_delta[row] = 0
            else:
                moved = (max(xs) - min(xs)) + (max(ys) - min(ys))
                pair_delta[row] = (moved - int(cost[index])) \
                    * self.weight[index]

        deltas = np.zeros(len(block_idx), dtype=np.int64)
        np.add.at(deltas, pair_move, pair_delta)
        return deltas


# ----------------------------------------------------------------------
# routing: packed PathFinder wavefronts
# ----------------------------------------------------------------------
class PackedRouteEngine:
    """PathFinder over flat node/edge arrays.

    One instance lives for a whole :func:`repro.fpga.routing.route`
    call.  Wavefront state (``best`` cost, ``parent`` node, parent
    edge) is allocated once over the grid and invalidated per Dijkstra
    with generation stamps; the heap holds ``(cost, node_index)``
    pairs, so pop order ties break on the node index — the same total
    order the scalar oracle uses.  The combined per-edge relaxation
    cost (wire + present congestion + history) is one dense table,
    rebuilt vectorized at each negotiation iteration and patched
    incrementally as trees commit demand; history costs live in a
    dense ``float64`` array bumped in one vectorized update between
    iterations.  Each probe is additionally bounded by a
    Manhattan-distance cutoff that provably never changes the result
    (see :meth:`_dijkstra`).
    """

    def __init__(self, fabric: FPGAFabric):
        self.grid = grid_index(fabric)
        self.capacity = fabric.channel_capacity
        n = self.grid.n_nodes
        self.history = np.zeros(self.grid.n_edges, dtype=np.float64)
        self._usage = [0] * self.grid.n_edges
        self._base = [1.0] * self.grid.n_edges
        self._history_list = [0.0] * self.grid.n_edges
        self._present_factor = 0.0
        self._best = [0.0] * n
        self._parent = [-1] * n
        self._parent_edge = [-1] * n
        self._stamp = [0] * n
        self._generation = 0
        # node coordinates, for the per-probe distance-to-target table
        nodes = np.arange(n, dtype=np.int64)
        self._node_x = nodes % self.grid.width
        self._node_y = nodes // self.grid.width

    # -- negotiation-loop hooks -----------------------------------------
    def begin_iteration(self, present_factor: float) -> None:
        """Reset per-iteration demand and the combined edge-cost table.

        ``_base[e]`` always equals the scalar oracle's per-relaxation
        cost ``1.0 + present + history[e]`` at the edge's *current*
        usage, evaluated in the same operation order; it is refreshed
        incrementally as trees commit demand.
        """
        self._usage = [0] * self.grid.n_edges
        self._present_factor = present_factor
        self._history_list = self.history.tolist()
        present0 = present_factor * max(0, 1 - self.capacity)
        self._base = ((1.0 + present0) + self.history).tolist()

    def usage_array(self) -> np.ndarray:
        """Current per-edge demand as a dense array."""
        return np.asarray(self._usage, dtype=np.int32)

    def overflow_ids(self) -> np.ndarray:
        """Edge ids over capacity (vectorized scan)."""
        usage = self.usage_array()
        return np.nonzero(usage > self.capacity)[0]

    def apply_history(self, history_increment: float) -> None:
        """Bulk history bump for every over-capacity segment."""
        usage = self.usage_array()
        excess = usage.astype(np.int64) - self.capacity
        over = excess > 0
        if over.any():
            self.history[over] += history_increment * excess[over]

    def usage_dict(self) -> Dict[Edge, int]:
        """Demand as the ``{edge: count}`` mapping the result exposes."""
        edges = self.grid.edges
        return {edges[e]: used for e, used in enumerate(self._usage) if used}

    def overflow_dict(self) -> Dict[Edge, int]:
        """Over-capacity segments with their excess."""
        edges = self.grid.edges
        capacity = self.capacity
        return {edges[int(e)]: self._usage[int(e)] - capacity
                for e in self.overflow_ids()}

    # -- per-net routing -------------------------------------------------
    def route_tree(self, terminals: Sequence[Site]) -> List[Edge]:
        """Steiner-approximate tree over packed arrays; commits usage."""
        grid = self.grid
        node_of = grid.node_of
        tree_nodes = [node_of(terminals[0])]
        in_tree = set(tree_nodes)
        edge_ids: List[int] = []
        edge_seen = set()
        for target_site in terminals[1:]:
            target = node_of(target_site)
            if target in in_tree:
                continue
            path_nodes, path_edges = self._dijkstra(tree_nodes, target)
            for edge in path_edges:
                if edge not in edge_seen:
                    edge_seen.add(edge)
                    edge_ids.append(edge)
            for node in path_nodes:
                if node not in in_tree:
                    in_tree.add(node)
                    tree_nodes.append(node)
        usage = self._usage
        base = self._base
        history = self._history_list
        capacity = self.capacity
        present_factor = self._present_factor
        for edge in edge_ids:
            usage[edge] += 1
            over = usage[edge] + 1 - capacity
            present = present_factor * over if over > 0 else 0.0
            base[edge] = 1.0 + present + history[edge]
        edges = grid.edges
        return [edges[e] for e in edge_ids]

    def _dijkstra(self, sources: List[int],
                  target: int) -> Tuple[List[int], List[int]]:
        """Cheapest path from the grown tree to ``target``.

        Flat-array wavefront: ``best``/``parent``/``parent_edge`` are
        node-indexed and validated by a generation stamp, so nothing is
        reallocated or cleared between nets.

        The search is bounded: once the target has been relaxed at cost
        ``bt``, any candidate with ``cost + manhattan(node, target)``
        strictly above ``bt`` is skipped.  Every segment costs at least
        1.0, so the Manhattan distance is a lower bound on the
        remaining path cost, and parent hand-offs need a *strictly*
        better cost — the skipped relaxations can neither improve the
        target nor flip an equal-cost parent (the verdict depends only
        on ``(cost, node)``, so equal candidates are kept or skipped
        together).  The surviving pop order, and therefore the routed
        tree, is bit-identical to the scalar oracle's unbounded
        Dijkstra.
        """
        self._generation += 1
        generation = self._generation
        best, stamp = self._best, self._stamp
        parent, parent_edge = self._parent, self._parent_edge
        adj = self.grid._adj
        base = self._base
        width = self.grid.width
        dist = (abs(self._node_x - target % width)
                + abs(self._node_y - target // width)).tolist()
        push, pop = heapq.heappush, heapq.heappop

        heap: List[Tuple[float, int]] = []
        near = sources[0]
        near_dist = dist[near]
        for node in sources:
            stamp[node] = generation
            best[node] = 0.0
            parent[node] = -1
            heap.append((0.0, node))
            if dist[node] < near_dist:
                near_dist = dist[node]
                near = node
        heapq.heapify(heap)

        # Seed the cutoff with an achievable cost: the summed edge cost
        # of one L-shaped walk from the nearest source.  Any achievable
        # cost upper-bounds the optimum, so pruning against it keeps
        # every optimal-path relaxation (see above) while the initial
        # flood collapses to the near-corridor nodes.
        bt = 0.0
        edge_right, edge_up = self.grid._edge_right, self.grid._edge_up
        tx, ty = target % width, target // width
        x, y = near % width, near // width
        node = near
        while x < tx:
            bt += base[edge_right[node]]
            node += 1
            x += 1
        while x > tx:
            node -= 1
            x -= 1
            bt += base[edge_right[node]]
        while y < ty:
            bt += base[edge_up[node]]
            node += width
            y += 1
        while y > ty:
            node -= width
            y -= 1
            bt += base[edge_up[node]]
        reached = False
        while heap:
            cost, node = pop(heap)
            if node == target:
                reached = True
                break
            if cost > best[node] or cost + dist[node] > bt:
                continue  # stale entry / cannot improve the target
            for neighbor, edge in adj[node]:
                new_cost = cost + base[edge]
                if new_cost + dist[neighbor] > bt:
                    continue
                if stamp[neighbor] != generation:
                    stamp[neighbor] = generation
                elif new_cost >= best[neighbor]:
                    continue
                best[neighbor] = new_cost
                parent[neighbor] = node
                parent_edge[neighbor] = edge
                if neighbor == target:
                    bt = new_cost
                push(heap, (new_cost, neighbor))

        if not reached and (stamp[target] != generation):
            raise RuntimeError(
                "router failed to reach a target (disconnected grid?)")
        path_nodes = [target]
        path_edges: List[int] = []
        node = target
        while parent[node] != -1:
            path_edges.append(parent_edge[node])
            node = parent[node]
            path_nodes.append(node)
        path_nodes.reverse()
        path_edges.reverse()
        return path_nodes, path_edges


__all__ = ["GridIndex", "IncrementalHPWL", "PackedRouteEngine",
           "grid_index"]
