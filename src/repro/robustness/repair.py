"""Spare-aware repair of a defective GNOR fabric.

Extends the row-matching repair of :mod:`repro.core.fault` with the
full manufacturing story:

1. **clean** — the identity placement already computes the golden
   function (defects harmless or logically masked);
2. **remapped** — logical inputs are moved onto the least-defective
   physical input columns (spare columns included) and logical product
   rows are bipartite-matched onto compatible physical rows (spare rows
   included);
3. **reminimized** — when no perfect row matching exists, the cover is
   re-minimized (REDUCE → EXPAND → IRREDUNDANT on the surviving
   function) in the hope that a different — ideally smaller — set of
   product terms fits the surviving rows;
4. **degraded** — full repair is impossible: the maximum (partial)
   matching is placed anyway, unmatched product terms are dropped, and
   the outcome records the fraction of (minterm, output) pairs the
   crippled array still gets right — the graceful-degradation metric.

Every verdict is *verified by evaluation* against the golden response
(:class:`~repro.robustness.defective.GoldenRef`), never trusted from
the matching alone.

The device rule (:func:`~repro.core.fault._device_tolerates`) and the
row matcher (:func:`~repro.core.fault._max_matching`) are the ones
:class:`~repro.core.fault.FaultTolerantPLA` uses, imported by name.
:func:`repair_config_batch` is the production path on the NumPy
backend; :func:`repair_config` repairs one map with the scalar
evaluators and is what the yield engine runs under
``REPRO_KERNEL=python``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.defects import DefectMap, DefectType
from repro.core.fault import _device_tolerates, _max_matching
from repro.core.gnor import InputConfig
from repro.logic.function import BooleanFunction
from repro.mapping.gnor_map import GNORPlaneConfig, map_cover_to_gnor
from repro.robustness.defective import GoldenRef, overlay_from_map

#: Repair outcome statuses, in decreasing order of health.
STATUS_CLEAN = "clean"
STATUS_REMAPPED = "remapped"
STATUS_REMINIMIZED = "reminimized"
STATUS_DEGRADED = "degraded"


@dataclass(frozen=True)
class SpareFabric:
    """Physical array geometry: the logical array plus spares.

    Attributes
    ----------
    n_inputs, n_outputs, n_products:
        Logical dimensions (from the programmed configuration).
    spare_rows:
        Extra physical product rows available for row remapping.
    spare_cols:
        Extra physical input-capable columns available for column
        remapping (output columns have no spares — an output pin is
        wired to the package).
    """

    n_inputs: int
    n_outputs: int
    n_products: int
    spare_rows: int = 0
    spare_cols: int = 0

    @classmethod
    def for_config(cls, config: GNORPlaneConfig, spare_rows: int = 0,
                   spare_cols: int = 0) -> "SpareFabric":
        if spare_rows < 0 or spare_cols < 0:
            raise ValueError("spare counts must be non-negative")
        return cls(config.n_inputs, config.n_outputs, config.n_products,
                   spare_rows, spare_cols)

    @property
    def n_physical_rows(self) -> int:
        return self.n_products + self.spare_rows

    @property
    def n_input_columns(self) -> int:
        """Input-capable physical columns (logical inputs + spares)."""
        return self.n_inputs + self.spare_cols

    @property
    def n_columns(self) -> int:
        return self.n_input_columns + self.n_outputs


@dataclass
class RepairOutcome:
    """Verified outcome of one repair attempt.

    Attributes
    ----------
    status:
        ``"clean"`` / ``"remapped"`` / ``"reminimized"`` /
        ``"degraded"``.
    exact:
        True when the (repaired) array computes the golden function on
        every (minterm, output) pair.
    correct_fraction:
        Fraction of (minterm, output) pairs computed correctly — 1.0
        when ``exact``.
    row_assignment, col_assignment:
        The placement that was evaluated (logical -> physical); rows
        missing from ``row_assignment`` were dropped (degraded mode).
    spare_rows_used, spare_cols_used:
        Spare resources the placement consumed.
    n_defects:
        Total defects in the sampled map.
    """

    status: str
    exact: bool
    correct_fraction: float
    row_assignment: Dict[int, int]
    col_assignment: Dict[int, int]
    spare_rows_used: int
    spare_cols_used: int
    n_defects: int


def _row_compatible(config: GNORPlaneConfig, r: int, q: int,
                    defect_map: DefectMap, col_assignment: Dict[int, int],
                    n_input_columns: int) -> bool:
    """Can logical row ``r`` live on physical row ``q``?"""
    for i in range(config.n_inputs):
        defect = defect_map.defect_at(q, col_assignment[i])
        if not _device_tolerates(config.and_plane[r][i], defect):
            return False
    for k in range(config.n_outputs):
        defect = defect_map.defect_at(q, n_input_columns + k)
        if not _device_tolerates(config.or_plane[k][r], defect):
            return False
    return True


def _match_rows(config: GNORPlaneConfig, fabric: SpareFabric,
                defect_map: DefectMap,
                col_assignment: Dict[int, int]) -> Dict[int, int]:
    """Maximum matching of logical rows onto physical rows (scalar)."""
    compat = [sum(1 << q for q in range(fabric.n_physical_rows)
                  if _row_compatible(config, r, q, defect_map,
                                     col_assignment, fabric.n_input_columns))
              for r in range(config.n_products)]
    return _max_matching(compat)


def _needs_matrix(config: GNORPlaneConfig):
    """Per-row device requirements as a ``(P, I+O)`` uint8 matrix.

    Entry ``[r, j]`` is 1 when logical row ``r`` programs a conducting
    device at checked position ``j`` (inputs first, then outputs) — the
    positions where a non-stuck-on defect is fatal.  Stuck-on defects
    are fatal everywhere, independent of the row (see
    :func:`_device_tolerates`), which is what makes the compatibility
    scan separable and vectorizable.
    """
    import numpy as np
    P, I, O = config.n_products, config.n_inputs, config.n_outputs
    needs = np.zeros((P, I + O), dtype=np.uint8)
    for r in range(P):
        for i in range(I):
            if config.and_plane[r][i] is not InputConfig.DROP:
                needs[r, i] = 1
        for k in range(O):
            if config.or_plane[k][r] is not InputConfig.DROP:
                needs[r, I + k] = 1
    return needs


def _defect_matrices(fabric: SpareFabric, defect_map: DefectMap):
    """The trial's defects as two ``(Q, n_columns)`` boolean matrices.

    ``stuck_on`` marks devices that pull unconditionally (fatal
    everywhere); ``other`` marks stuck-off / PG-leak devices (fatal
    only under a conducting requirement).  A handful of dict entries
    becomes the dense form every vectorized per-trial step reuses.
    """
    import numpy as np
    stuck_on = np.zeros((fabric.n_physical_rows, fabric.n_columns),
                        dtype=bool)
    other = np.zeros_like(stuck_on)
    for q, c, defect in defect_map.iter_defects():
        if defect is DefectType.STUCK_ON:
            stuck_on[q, c] = True
        else:
            other[q, c] = True
    return stuck_on, other


def _pick_columns_batch(fabric: SpareFabric, stuck_on,
                        other) -> Dict[int, int]:
    """:func:`_pick_columns` from dense defect matrices.

    Same scoring (stuck-on weighs 4, anything else 1) and the same
    ``(score, column)`` tie-break via a lexicographic sort, so the
    chosen columns are identical to the scalar scan.
    """
    import numpy as np
    nic = fabric.n_input_columns
    score = 4 * stuck_on[:, :nic].sum(axis=0, dtype=np.int64) + \
        other[:, :nic].sum(axis=0, dtype=np.int64)
    order = np.lexsort((np.arange(nic), score))
    chosen = sorted(int(c) for c in order[:fabric.n_inputs])
    return {i: chosen[i] for i in range(fabric.n_inputs)}


def _match_rows_batch(needs, config: GNORPlaneConfig, fabric: SpareFabric,
                      stuck_on, other,
                      col_assignment: Dict[int, int]) -> Dict[int, int]:
    """:func:`_match_rows` with the compatibility scan vectorized.

    The scalar scan probes every ``(logical row, physical row, device)``
    triple through dict lookups; here the whole ``(P, Q)`` compatibility
    matrix falls out of one small matmul over the trial's dense defect
    matrices.  ``np.packbits`` turns each of its rows into the same
    candidate bitset the scalar scan builds, so :func:`_max_matching`
    returns the identical matching — the differential tests hold this
    to the scalar oracle.
    """
    import numpy as np
    checked = [col_assignment[i] for i in range(config.n_inputs)] + \
              [fabric.n_input_columns + k for k in range(config.n_outputs)]
    on_checked = stuck_on[:, checked]                         # (Q, I+O)
    other_checked = other[:, checked]
    healthy_rows = ~on_checked.any(axis=1)                    # (Q,)
    conflicts = needs @ other_checked.T.astype(np.uint8)      # (P, Q)
    compatible = healthy_rows[None, :] & (conflicts == 0)
    packed = np.packbits(compatible, axis=1, bitorder="little")
    return _max_matching([int.from_bytes(row.tobytes(), "little")
                          for row in packed])


def _pick_columns(fabric: SpareFabric,
                  defect_map: DefectMap) -> Dict[int, int]:
    """Assign logical inputs to the least-defective physical columns.

    Stuck-on defects weigh heavier than stuck-off ones (they are fatal
    in every row position, not just conducting ones).  Ties break on
    the column index, so the choice is deterministic and prefers the
    identity layout.
    """
    scores: List[Tuple[int, int]] = []
    for c in range(fabric.n_input_columns):
        score = 0
        for q in range(fabric.n_physical_rows):
            defect = defect_map.defect_at(q, c)
            if defect is DefectType.STUCK_ON:
                score += 4
            elif defect is not None:
                score += 1
        scores.append((score, c))
    chosen = sorted(c for _score, c in sorted(scores)[:fabric.n_inputs])
    return {i: chosen[i] for i in range(fabric.n_inputs)}


def _spares_used(fabric: SpareFabric, row_assignment: Dict[int, int],
                 col_assignment: Dict[int, int]) -> Tuple[int, int]:
    rows = sum(1 for q in row_assignment.values() if q >= fabric.n_products)
    cols = sum(1 for c in col_assignment.values() if c >= fabric.n_inputs)
    return rows, cols


#: One-entry memo of :func:`_reminimized_config`, ``(function, config,
#: result)``.  The yield engine asks once per chunk with the same two
#: objects from its worker cache; holding them keeps their ids unique.
_REMINIMIZED: tuple = (None, None, None)


def _reminimized_config(function: BooleanFunction,
                        config: GNORPlaneConfig) -> Optional[GNORPlaneConfig]:
    """An alternative programming from one more REDUCE-EXPAND-IRREDUNDANT
    pass over the surviving function, or ``None`` when it degenerates;
    computed once for repeated calls with the same two objects."""
    global _REMINIMIZED
    cached_function, cached_config, result = _REMINIMIZED
    if cached_function is not function or cached_config is not config:
        result = _reminimize(function, config)
        _REMINIMIZED = (function, config, result)
    return result


def _reminimize(function: BooleanFunction,
                config: GNORPlaneConfig) -> Optional[GNORPlaneConfig]:
    from repro.espresso.expand import expand
    from repro.espresso.irredundant import irredundant
    from repro.espresso.reduce import reduce_cover

    from repro.logic.cover import Cover
    if not all(config.output_inverted):
        # phase-assigned configs program the *phased* cover; re-deriving
        # it against the unphased function's OFF-set would be unsound
        return None
    cover = Cover(config.n_inputs, config.n_outputs)
    # rebuild the cover the config was programmed from
    from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube
    field_of = {InputConfig.INVERT: BIT_ONE, InputConfig.PASS: BIT_ZERO,
                InputConfig.DROP: BIT_DASH}
    for r in range(config.n_products):
        inputs = 0
        for i, device in enumerate(config.and_plane[r]):
            inputs |= field_of[device] << (2 * i)
        outputs = sum(1 << k for k in range(config.n_outputs)
                      if config.or_plane[k][r] is InputConfig.PASS)
        if outputs:
            cover.append(Cube(config.n_inputs, inputs, outputs,
                              config.n_outputs))
    if not len(cover):
        return None
    try:
        reduced = reduce_cover(cover, function.dc_set)
        alt = irredundant(expand(reduced, function.off_set),
                          function.dc_set)
    except Exception:  # pragma: no cover - minimizer must not kill repair
        return None
    if not len(alt) or len(alt) > config.n_products:
        return None
    return map_cover_to_gnor(alt)


def _subset_config(config: GNORPlaneConfig,
                   kept_rows: List[int]) -> GNORPlaneConfig:
    """The configuration restricted to a subset of its product rows."""
    return GNORPlaneConfig(
        n_inputs=config.n_inputs,
        n_outputs=config.n_outputs,
        n_products=len(kept_rows),
        and_plane=[list(config.and_plane[r]) for r in kept_rows],
        or_plane=[[config.or_plane[k][r] for r in kept_rows]
                  for k in range(config.n_outputs)],
        output_inverted=list(config.output_inverted),
    )


def repair_config(config: GNORPlaneConfig, fabric: SpareFabric,
                  defect_map: DefectMap, golden: GoldenRef,
                  function: Optional[BooleanFunction] = None,
                  reminimize: bool = True) -> RepairOutcome:
    """Repair a defective fabric; every verdict is evaluation-verified.

    Parameters
    ----------
    config:
        The logical programming (must match ``fabric``'s logical
        dimensions).
    fabric:
        Physical geometry (spares included); ``defect_map`` must cover
        exactly ``fabric.n_physical_rows x fabric.n_columns``.
    golden:
        The healthy response to verify against.
    function:
        The Boolean function behind ``config``; enables the
        re-minimization fallback (step 3).
    reminimize:
        Disable to measure the pure remapping repair rate.
    """
    if (defect_map.n_rows, defect_map.n_columns) != \
            (fabric.n_physical_rows, fabric.n_columns):
        raise ValueError("defect map does not match the fabric geometry")
    n_defects = defect_map.n_defects()
    identity_rows = {r: r for r in range(config.n_products)}
    identity_cols = {i: i for i in range(config.n_inputs)}

    def verify(cfg: GNORPlaneConfig, rows: Dict[int, int],
               cols: Dict[int, int]) -> int:
        overlay = overlay_from_map(cfg, defect_map, rows, cols,
                                   fabric.n_input_columns)
        return golden.errors_of(overlay, cfg)

    # 1. clean: the raw placement may survive (harmless/masked defects)
    if verify(config, identity_rows, identity_cols) == 0:
        return RepairOutcome(STATUS_CLEAN, True, 1.0, identity_rows,
                             identity_cols, 0, 0, n_defects)

    # 2. remap: least-defective columns, then row matching
    col_assignment = _pick_columns(fabric, defect_map)
    row_assignment = _match_rows(config, fabric, defect_map, col_assignment)
    if len(row_assignment) == config.n_products:
        errors = verify(config, row_assignment, col_assignment)
        if errors == 0:
            sr, sc = _spares_used(fabric, row_assignment, col_assignment)
            return RepairOutcome(STATUS_REMAPPED, True, 1.0,
                                 row_assignment, col_assignment, sr, sc,
                                 n_defects)

    # 3. re-minimize: a different product-term set may fit the survivors
    if reminimize and function is not None:
        alt = _reminimized_config(function, config)
        if alt is not None:
            alt_rows = _match_rows(alt, fabric, defect_map, col_assignment)
            if len(alt_rows) == alt.n_products and \
                    verify(alt, alt_rows, col_assignment) == 0:
                sr, sc = _spares_used(fabric, alt_rows, col_assignment)
                return RepairOutcome(STATUS_REMINIMIZED, True, 1.0,
                                     alt_rows, col_assignment, sr, sc,
                                     n_defects)

    # 4. degrade gracefully: place the maximum partial matching, drop
    #    the unmatched product terms, measure what still works
    kept = sorted(row_assignment)
    sub = _subset_config(config, kept)
    sub_rows = {j: row_assignment[r] for j, r in enumerate(kept)}
    errors = verify(sub, sub_rows, col_assignment)
    fraction = 1.0 - errors / golden.total_pairs
    sr, sc = _spares_used(fabric, sub_rows, col_assignment)
    return RepairOutcome(STATUS_DEGRADED, errors == 0, fraction,
                         {r: row_assignment[r] for r in kept},
                         col_assignment, sr, sc, n_defects)


def repair_config_batch(config: GNORPlaneConfig, fabric: SpareFabric,
                        defect_maps: List[DefectMap], golden: GoldenRef,
                        function: Optional[BooleanFunction] = None,
                        reminimize: bool = True) -> List[RepairOutcome]:
    """:func:`repair_config` over many defect maps, verified in bulk.

    Decision-for-decision identical to the scalar flow — the placement
    heuristics (:func:`_pick_columns`, :func:`_match_rows`) stay scalar
    per trial, but each stage's *evaluation verification* runs once for
    all surviving trials against one tiled
    :class:`~repro.kernels.batcharena.ConfigArena` instead of repacking
    the configuration per trial.  The re-minimized candidate is a pure
    function of ``(function, config)``, so stage 3 computes it once for
    the whole batch.  Outcomes (status, exactness, fractions, spare
    usage) are bit-identical to per-trial :func:`repair_config` — the
    differential tests assert it.

    Requires the NumPy kernel backend (``golden`` must hold its word
    response).
    """
    from repro.kernels.batcharena import ConfigArena

    for defect_map in defect_maps:
        if (defect_map.n_rows, defect_map.n_columns) != \
                (fabric.n_physical_rows, fabric.n_columns):
            raise ValueError("defect map does not match the fabric geometry")
    n = len(defect_maps)
    golden_words = golden.output_words
    n_defects = [m.n_defects() for m in defect_maps]
    identity_rows = {r: r for r in range(config.n_products)}
    identity_cols = {i: i for i in range(config.n_inputs)}
    outcomes: List[Optional[RepairOutcome]] = [None] * n

    def batch_errors(cfg: GNORPlaneConfig, trials: List[int],
                     rows_of, cols_of) -> List[int]:
        """One arena verification pass: errors of every listed trial."""
        if not trials:
            return []
        arena = ConfigArena.from_config(cfg, copies=len(trials))
        for slot, t in enumerate(trials):
            arena.patch_overlay(slot, overlay_from_map(
                cfg, defect_maps[t], rows_of(t), cols_of(t),
                fabric.n_input_columns))
        return [int(e) for e in arena.error_counts_vs(golden_words)]

    # 1. clean: the raw placement may survive (harmless/masked defects)
    all_trials = list(range(n))
    errors1 = batch_errors(config, all_trials,
                           lambda t: identity_rows, lambda t: identity_cols)
    pending: List[int] = []
    for t, errors in zip(all_trials, errors1):
        if errors == 0:
            outcomes[t] = RepairOutcome(STATUS_CLEAN, True, 1.0,
                                        identity_rows, identity_cols, 0, 0,
                                        n_defects[t])
        else:
            pending.append(t)

    # 2. remap: least-defective columns, then row matching
    needs = _needs_matrix(config)
    matrices = {t: _defect_matrices(fabric, defect_maps[t])
                for t in pending}
    col_assignment: Dict[int, Dict[int, int]] = {}
    row_assignment: Dict[int, Dict[int, int]] = {}
    for t in pending:
        stuck_on, other = matrices[t]
        col_assignment[t] = _pick_columns_batch(fabric, stuck_on, other)
        row_assignment[t] = _match_rows_batch(needs, config, fabric,
                                              stuck_on, other,
                                              col_assignment[t])
    full = [t for t in pending
            if len(row_assignment[t]) == config.n_products]
    errors2 = dict(zip(full, batch_errors(
        config, full, row_assignment.get, col_assignment.get)))
    still: List[int] = []
    for t in pending:
        if errors2.get(t) == 0:
            sr, sc = _spares_used(fabric, row_assignment[t],
                                  col_assignment[t])
            outcomes[t] = RepairOutcome(STATUS_REMAPPED, True, 1.0,
                                        row_assignment[t],
                                        col_assignment[t], sr, sc,
                                        n_defects[t])
        else:
            still.append(t)
    pending = still

    # 3. re-minimize: a different product-term set may fit the survivors
    if reminimize and function is not None and pending:
        alt = _reminimized_config(function, config)
        if alt is not None:
            alt_needs = _needs_matrix(alt)
            alt_rows = {t: _match_rows_batch(alt_needs, alt, fabric,
                                             matrices[t][0], matrices[t][1],
                                             col_assignment[t])
                        for t in pending}
            candidates = [t for t in pending
                          if len(alt_rows[t]) == alt.n_products]
            errors3 = dict(zip(candidates, batch_errors(
                alt, candidates, alt_rows.get, col_assignment.get)))
            still = []
            for t in pending:
                if errors3.get(t) == 0:
                    sr, sc = _spares_used(fabric, alt_rows[t],
                                          col_assignment[t])
                    outcomes[t] = RepairOutcome(STATUS_REMINIMIZED, True,
                                                1.0, alt_rows[t],
                                                col_assignment[t], sr, sc,
                                                n_defects[t])
                else:
                    still.append(t)
            pending = still

    # 4. degrade gracefully: place the maximum partial matching, drop
    #    the unmatched product terms, measure what still works
    if pending:
        kept = {t: sorted(row_assignment[t]) for t in pending}
        arena = ConfigArena.from_row_subsets(
            config, [kept[t] for t in pending])
        for slot, t in enumerate(pending):
            sub = _subset_config(config, kept[t])
            sub_rows = {j: row_assignment[t][r]
                        for j, r in enumerate(kept[t])}
            arena.patch_overlay(slot, overlay_from_map(
                sub, defect_maps[t], sub_rows, col_assignment[t],
                fabric.n_input_columns))
        errors4 = arena.error_counts_vs(golden_words)
        for slot, t in enumerate(pending):
            errors = int(errors4[slot])
            fraction = 1.0 - errors / golden.total_pairs
            sub_rows = {j: row_assignment[t][r]
                        for j, r in enumerate(kept[t])}
            sr, sc = _spares_used(fabric, sub_rows, col_assignment[t])
            outcomes[t] = RepairOutcome(
                STATUS_DEGRADED, errors == 0, fraction,
                {r: row_assignment[t][r] for r in kept[t]},
                col_assignment[t], sr, sc, n_defects[t])

    return outcomes  # type: ignore[return-value]


__all__ = ["RepairOutcome", "STATUS_CLEAN", "STATUS_DEGRADED",
           "STATUS_REMAPPED", "STATUS_REMINIMIZED", "SpareFabric",
           "repair_config", "repair_config_batch"]
