"""Tests for the fault-tolerant PLA flow (Section 5, [6])."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defects import DefectMap, DefectModel, DefectType
from repro.core.fault import (FaultTolerantPLA, _max_matching,
                              row_compatible, row_requirements)
from repro.core.gnor import InputConfig
from repro.espresso import minimize
from repro.logic.function import BooleanFunction
from repro.mapping.gnor_map import GNORPlaneConfig, map_cover_to_gnor


def make_config(seed=0, n=4, o=2, cubes=5):
    f = BooleanFunction.random(n, o, cubes, seed=seed)
    return map_cover_to_gnor(minimize(f))


class TestRowCompatibility:
    def test_clean_row_is_compatible(self):
        requirements = [InputConfig.PASS, InputConfig.DROP]
        assert row_compatible(requirements, {})

    def test_stuck_off_under_active_device_fails(self):
        requirements = [InputConfig.PASS]
        assert not row_compatible(requirements, {0: DefectType.STUCK_OFF})

    def test_pg_leak_under_active_device_fails(self):
        requirements = [InputConfig.INVERT]
        assert not row_compatible(requirements, {0: DefectType.PG_LEAK})

    def test_stuck_off_under_drop_is_harmless(self):
        requirements = [InputConfig.DROP]
        assert row_compatible(requirements, {0: DefectType.STUCK_OFF})

    def test_stuck_on_under_drop_fails(self):
        requirements = [InputConfig.DROP]
        assert not row_compatible(requirements, {0: DefectType.STUCK_ON})

    def test_stuck_on_is_fatal_everywhere(self):
        # unconditional conduction pins the dynamic NOR row low: the
        # product term dies whether the position is active or dropped
        assert not row_compatible([InputConfig.PASS],
                                  {0: DefectType.STUCK_ON})
        assert not row_compatible([InputConfig.INVERT],
                                  {0: DefectType.STUCK_ON})

    def test_requirements_span_both_planes(self):
        config = make_config()
        requirements = row_requirements(config)
        assert len(requirements) == config.n_products
        assert all(len(row) == config.n_inputs + config.n_outputs
                   for row in requirements)


class TestRepair:
    def test_clean_array_repairs_trivially(self):
        config = make_config(seed=1)
        ft = FaultTolerantPLA(config, spare_rows=0)
        clean = DefectMap(ft.n_physical_rows, ft.n_columns)
        result = ft.repair(clean)
        assert result.success
        assert result.spare_rows_used == 0

    def test_defect_map_shape_check(self):
        config = make_config(seed=2)
        ft = FaultTolerantPLA(config, spare_rows=1)
        with pytest.raises(ValueError):
            ft.repair(DefectMap(1, 1))

    def test_spare_row_rescues_dead_row(self):
        config = make_config(seed=3)
        ft = FaultTolerantPLA(config, spare_rows=1)
        # kill every device in physical row 0 (stuck off)
        defects = {(0, c): DefectType.STUCK_OFF for c in range(ft.n_columns)}
        result = ft.repair(DefectMap(ft.n_physical_rows, ft.n_columns,
                                     defects))
        assert result.success
        assert 0 not in result.assignment.values() or \
            all(req is InputConfig.DROP
                for req in row_requirements(config)[_logical_on_row(result, 0)])

    def test_unrepairable_without_spares(self):
        config = make_config(seed=4)
        ft = FaultTolerantPLA(config, spare_rows=0)
        # stuck-on everywhere: no row can host any DROP requirement
        defects = {(r, c): DefectType.STUCK_ON
                   for r in range(ft.n_physical_rows)
                   for c in range(ft.n_columns)}
        result = ft.repair(DefectMap(ft.n_physical_rows, ft.n_columns,
                                     defects))
        assert not result.success
        assert result.unassigned == list(range(config.n_products))

    def test_assignment_is_injective(self):
        config = make_config(seed=5)
        ft = FaultTolerantPLA(config, spare_rows=2)
        defect_map = DefectMap.sample(ft.n_physical_rows, ft.n_columns,
                                      DefectModel(p_stuck_off=0.05), seed=9)
        result = ft.repair(defect_map)
        values = list(result.assignment.values())
        assert len(values) == len(set(values))

    def test_assignment_respects_compatibility(self):
        config = make_config(seed=6)
        ft = FaultTolerantPLA(config, spare_rows=2)
        defect_map = DefectMap.sample(ft.n_physical_rows, ft.n_columns,
                                      DefectModel(p_stuck_off=0.08), seed=10)
        result = ft.repair(defect_map)
        requirements = row_requirements(config)
        for logical, physical in result.assignment.items():
            assert row_compatible(requirements[logical],
                                  defect_map.row_defects(physical))

    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError):
            FaultTolerantPLA(make_config(), spare_rows=-1)


@st.composite
def adjacencies(draw, min_logical=0, max_logical=6, max_physical=8):
    """``(adjacency, n_physical)``: candidate physical rows per logical row."""
    n_logical = draw(st.integers(min_logical, max_logical))
    n_physical = draw(st.integers(max(1, n_logical), max_physical))
    rows = st.lists(st.integers(0, n_physical - 1), unique=True)
    adjacency = [sorted(draw(rows)) for _ in range(n_logical)]
    return adjacency, n_physical


def bitsets(adjacency):
    """The matcher's input: one candidate bitset per logical row."""
    return [sum(1 << q for q in row) for row in adjacency]


def recursive_matching(adjacency):
    """The recursive, list-based Kuhn matcher: the matcher's oracle.

    ``adjacency[r]`` lists logical row ``r``'s candidates in ascending
    order.  Each augmenting search recurses once per displaced row, so
    arrays of about 1,000 rows exceed Python's recursion limit.
    """
    n_physical = max((q for row in adjacency for q in row), default=-1) + 1
    owner = [-1] * n_physical  # physical row -> logical row

    def augment(r, visited):
        for q in adjacency[r]:
            if not visited[q]:
                visited[q] = True
                holder = owner[q]
                if holder < 0 or augment(holder, visited):
                    owner[q] = r
                    return True
        return False

    for r in range(len(adjacency)):
        augment(r, [False] * n_physical)
    return {r: q for q, r in sorted(
        (q, r) for q, r in enumerate(owner) if r >= 0)}


def brute_force_max_matching(adjacency):
    """Size of a maximum matching by exhaustive search over assignments."""
    @lru_cache(maxsize=None)
    def best(r, used):
        if r == len(adjacency):
            return 0
        size = best(r + 1, used)  # row r left unmatched
        for q in adjacency[r]:
            if not used >> q & 1:
                size = max(size, 1 + best(r + 1, used | 1 << q))
        return size

    return best(0, 0)


def plane_realizing(adjacency, n_physical):
    """A config and defect map whose row compatibility is ``adjacency``.

    Logical row ``r`` conducts only at input column ``r``, so a stuck-off
    device at ``(q, r)`` bars row ``r`` from physical row ``q`` and
    harms no other row.
    """
    n = len(adjacency)
    config = GNORPlaneConfig(
        n_inputs=n, n_outputs=1, n_products=n,
        and_plane=[[InputConfig.PASS if i == r else InputConfig.DROP
                    for i in range(n)] for r in range(n)],
        or_plane=[[InputConfig.DROP] * n],
        output_inverted=[True])
    defects = {(q, r): DefectType.STUCK_OFF
               for r, candidates in enumerate(adjacency)
               for q in range(n_physical) if q not in candidates}
    return config, DefectMap(n_physical, n + 1, defects)


class TestMatcherOracle:
    """The Kuhn matcher against exhaustive search."""

    @settings(max_examples=200, deadline=None)
    @given(adjacencies())
    def test_matching_is_maximum_and_valid(self, case):
        adjacency, _n_physical = case
        matching = _max_matching(bitsets(adjacency))
        assert len(matching) == brute_force_max_matching(adjacency)
        assert len(set(matching.values())) == len(matching)
        for r, q in matching.items():
            assert q in adjacency[r]

    @settings(max_examples=150, deadline=None)
    @given(adjacencies(min_logical=1))
    def test_repair_succeeds_iff_perfect_matching_exists(self, case):
        adjacency, n_physical = case
        config, defect_map = plane_realizing(adjacency, n_physical)
        ft = FaultTolerantPLA(config,
                              spare_rows=n_physical - len(adjacency))
        result = ft.repair(defect_map)
        best = brute_force_max_matching(adjacency)
        assert result.success == (best == len(adjacency))
        assert len(result.unassigned) == len(adjacency) - best
        for r, q in result.assignment.items():
            assert q in adjacency[r]

    def test_clean_array_layout_is_anti_identity(self):
        # ascending Kuhn: each new row claims physical row 0 and pushes
        # the earlier rows one step up
        assert _max_matching([0b1111] * 3) == {2: 0, 1: 1, 0: 2}

    @settings(max_examples=300, deadline=None)
    @given(adjacencies(max_logical=12, max_physical=16))
    def test_bitset_matcher_equals_recursive_oracle(self, case):
        adjacency, _n_physical = case
        expected = recursive_matching(adjacency)
        # the whole dict, in its order (ascending physical row)
        assert list(_max_matching(bitsets(adjacency)).items()) == \
            list(expected.items())

    def test_near_complete_array_equals_recursive_oracle(self):
        rng = random.Random(252)
        adjacency = [[q for q in range(254) if rng.random() > 0.01]
                     for _ in range(252)]
        assert list(_max_matching(bitsets(adjacency)).items()) == \
            list(recursive_matching(adjacency).items())

    def test_tall_clean_array_needs_no_recursion(self):
        # every row pushes all earlier rows: the recursive matcher
        # exceeds the recursion limit here
        matching = _max_matching([(1 << 1202) - 1] * 1200)
        assert list(matching.items()) == \
            [(1199 - q, q) for q in range(1200)]


class TestYield:
    def test_yield_monotone_in_spares(self):
        config = make_config(seed=7, n=5, o=2, cubes=6)
        model = DefectModel(p_stuck_off=0.03, p_stuck_on=0.01)
        yields = []
        for spares in (0, 2, 4):
            ft = FaultTolerantPLA(config, spare_rows=spares)
            yields.append(ft.yield_estimate(model, trials=60, seed=1))
        assert yields[0] <= yields[1] <= yields[2]

    def test_repair_beats_unprotected(self):
        config = make_config(seed=8, n=5, o=2, cubes=6)
        model = DefectModel(p_stuck_off=0.04, p_stuck_on=0.02)
        ft = FaultTolerantPLA(config, spare_rows=3)
        assert ft.yield_estimate(model, trials=60, seed=2) >= \
            ft.unprotected_yield(model, trials=60, seed=2)

    def test_zero_defects_perfect_yield(self):
        ft = FaultTolerantPLA(make_config(seed=9), spare_rows=0)
        assert ft.yield_estimate(DefectModel(), trials=10) == 1.0


def _logical_on_row(result, physical):
    for logical, q in result.assignment.items():
        if q == physical:
            return logical
    return None


class TestSpareAllocation:
    """The classical row/column spare-allocation variant."""

    def _setup(self, seed=1, rate_off=0.06, rate_on=0.03, map_seed=3):
        from repro.core.fault import allocate_spares, fatal_positions
        f = BooleanFunction.random(5, 2, 6, seed=seed)
        config = map_cover_to_gnor(minimize(f))
        defect_map = DefectMap.sample(
            config.n_products, config.n_inputs + config.n_outputs,
            DefectModel(p_stuck_off=rate_off, p_stuck_on=rate_on),
            seed=map_seed)
        return config, defect_map

    def test_clean_map_needs_nothing(self):
        from repro.core.fault import allocate_spares
        config, _ = self._setup()
        clean = DefectMap(config.n_products,
                          config.n_inputs + config.n_outputs)
        allocation = allocate_spares(config, clean, 0, 0)
        assert allocation.success
        assert allocation.replaced_rows == []
        assert allocation.replaced_columns == []

    def test_every_fatal_defect_covered(self):
        from repro.core.fault import allocate_spares
        config, defect_map = self._setup()
        allocation = allocate_spares(config, defect_map, 4, 3)
        if allocation.success:
            for r, c in allocation.fatal_defects:
                assert r in allocation.replaced_rows or \
                    c in allocation.replaced_columns

    def test_budget_respected(self):
        from repro.core.fault import allocate_spares
        config, defect_map = self._setup(rate_off=0.15, rate_on=0.05)
        allocation = allocate_spares(config, defect_map, 2, 1)
        if allocation.success:
            assert len(allocation.replaced_rows) <= 2
            assert len(allocation.replaced_columns) <= 1

    def test_zero_budget_fails_on_fatal_defects(self):
        from repro.core.fault import allocate_spares, fatal_positions
        config, defect_map = self._setup(rate_off=0.2, rate_on=0.1)
        fatal = fatal_positions(config, defect_map)
        if fatal:
            assert not allocate_spares(config, defect_map, 0, 0).success

    def test_column_spares_can_rescue(self):
        from repro.core.fault import allocate_spares
        config, _ = self._setup()
        # one whole column stuck on: rows cannot cover it economically
        column = 0
        defects = {(r, column): DefectType.STUCK_ON
                   for r in range(config.n_products)}
        defect_map = DefectMap(config.n_products,
                               config.n_inputs + config.n_outputs, defects)
        row_only = allocate_spares(config, defect_map,
                                   spare_rows=2, spare_columns=0)
        with_column = allocate_spares(config, defect_map,
                                      spare_rows=0, spare_columns=1)
        assert not row_only.success
        assert with_column.success
        assert with_column.replaced_columns == [column]

    def test_harmless_defects_ignored(self):
        from repro.core.fault import fatal_positions
        from repro.core.gnor import InputConfig
        config, _ = self._setup()
        # find a DROP position and put a stuck-off defect there
        from repro.core.fault import row_requirements
        requirements = row_requirements(config)
        position = None
        for r, row in enumerate(requirements):
            for c, needed in enumerate(row):
                if needed is InputConfig.DROP:
                    position = (r, c)
                    break
            if position:
                break
        if position is None:
            pytest.skip("no DROP position in this configuration")
        defect_map = DefectMap(config.n_products,
                               config.n_inputs + config.n_outputs,
                               {position: DefectType.STUCK_OFF})
        assert fatal_positions(config, defect_map) == []
