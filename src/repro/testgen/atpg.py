"""Automatic test-pattern generation and fault location.

The flow is classical PLA testing: enumerate single crosspoint faults,
fault-simulate a candidate vector pool (exhaustive for small input
counts, seeded random beyond), pick a compact test set by greedy set
cover, and report coverage with the undetectable (redundant) faults
identified.  ``locate_fault`` inverts the process: given the observed
response of a physical array to the test set, return the candidate
faults consistent with it — the diagnosis step that feeds
:class:`~repro.core.fault.FaultTolerantPLA` repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.mapping.gnor_map import GNORPlaneConfig
from repro.testgen.faults import Fault, FaultSimulator, FaultSite, enumerate_faults


@dataclass
class ATPGResult:
    """Outcome of test generation.

    Attributes
    ----------
    tests:
        The compacted test set (input vectors).
    coverage:
        Detected / detectable fraction over all enumerated faults.
    detected, undetected:
        The fault partitions (undetected = redundant under the
        candidate pool).
    candidate_pool_size:
        Vectors fault-simulated before compaction.
    """

    tests: List[List[int]]
    coverage: float
    detected: List[Fault]
    undetected: List[Fault]
    candidate_pool_size: int

    def n_tests(self) -> int:
        """Size of the compacted test set."""
        return len(self.tests)


def _candidate_pool(n_inputs: int, exhaustive_limit: int, samples: int,
                    seed: int,
                    rng: Optional[random.Random] = None) -> List[List[int]]:
    if n_inputs <= exhaustive_limit:
        return [[(m >> i) & 1 for i in range(n_inputs)]
                for m in range(1 << n_inputs)]
    if rng is None:
        rng = random.Random(seed)
    pool = []
    seen: Set[int] = set()
    for _ in range(samples):
        m = rng.getrandbits(n_inputs)
        if m not in seen:
            seen.add(m)
            pool.append([(m >> i) & 1 for i in range(n_inputs)])
    return pool


def _detection_table(config: GNORPlaneConfig, faults: List[Fault],
                     pool: Sequence[Sequence[int]]) -> Dict[int, Set[int]]:
    """``{vector_index: detected fault indices}`` over a vector pool.

    Bit-sliced when the kernels are enabled; the scalar fallback runs
    the (vector, fault) double loop through the symbolic simulator.
    Both produce identical sets in identical insertion order, so the
    greedy compaction downstream is deterministic across backends.
    """
    from repro import kernels
    if kernels.enabled() and pool:
        return kernels.bitslice.detection_sets(config, faults, pool)
    simulator = FaultSimulator(config)
    detection: Dict[int, Set[int]] = {}
    for vi, vector in enumerate(pool):
        good = simulator.evaluate(vector)
        caught: Set[int] = set()
        for fi, fault in enumerate(faults):
            if simulator.evaluate(vector, fault) != good:
                caught.add(fi)
        if caught:
            detection[vi] = caught
    return detection


def generate_tests(config: GNORPlaneConfig, exhaustive_limit: int = 10,
                   samples: int = 512, seed: int = 0,
                   rng: Optional[random.Random] = None) -> ATPGResult:
    """Generate a compact single-fault test set for a configuration.

    Greedy set cover: repeatedly pick the candidate vector detecting the
    most still-uncovered faults.  Coverage is measured against every
    enumerated non-trivially-redundant fault.  The random candidate
    pool (used above ``exhaustive_limit`` inputs) is seeded by ``seed``
    or driven by an explicit ``rng`` for reproducible composition.
    """
    faults = enumerate_faults(config)
    pool = _candidate_pool(config.n_inputs, exhaustive_limit, samples, seed,
                           rng=rng)
    detection = _detection_table(config, faults, pool)

    detectable: Set[int] = set()
    for caught in detection.values():
        detectable |= caught

    tests: List[List[int]] = []
    uncovered = set(detectable)
    while uncovered:
        best_vi = max(detection, key=lambda vi: len(detection[vi] & uncovered))
        gain = detection[best_vi] & uncovered
        if not gain:
            break
        tests.append(pool[best_vi])
        uncovered -= gain

    detected = [faults[fi] for fi in sorted(detectable)]
    undetected = [faults[fi] for fi in range(len(faults))
                  if fi not in detectable]
    coverage = len(detectable) / len(faults) if faults else 1.0
    return ATPGResult(tests=tests, coverage=coverage, detected=detected,
                      undetected=undetected,
                      candidate_pool_size=len(pool))


def locate_fault(config: GNORPlaneConfig, tests: Sequence[Sequence[int]],
                 observed: Sequence[Sequence[int]]) -> List[Optional[Fault]]:
    """Diagnose which single faults explain an observed response.

    ``observed[j]`` is the physical array's output for ``tests[j]``.
    Returns the consistent candidates: ``None`` in the list means "the
    healthy machine also matches" (no fault needed).
    """
    simulator = FaultSimulator(config)
    observed = [list(row) for row in observed]
    candidates: List[Optional[Fault]] = []
    if all(simulator.evaluate(test) == obs
           for test, obs in zip(tests, observed)):
        candidates.append(None)
    for fault in enumerate_faults(config):
        if all(simulator.evaluate(test, fault) == obs
               for test, obs in zip(tests, observed)):
            candidates.append(fault)
    return candidates


# ----------------------------------------------------------------------
# deterministic ATPG (classical two-level crosspoint tests)
# ----------------------------------------------------------------------
def _minterm_of(cover: "Cover") -> Optional[List[int]]:
    """Any minterm of a non-empty single-output cover, as a 0/1 vector."""
    for cube in cover.cubes:
        if cube.is_empty():
            continue
        vector = []
        for var in range(cube.n_inputs):
            field = cube.field(var)
            vector.append(1 if field == 0b10 else 0)  # BIT_ONE else 0
        return vector
    return None


def _and_not_others(cube, others, n_inputs: int) -> Optional[List[int]]:
    """A minterm inside ``cube`` covered by none of ``others``.

    Computed by iterated sharp (``region \\ o`` cube by cube), which is
    far cheaper than complementing the whole ``others`` cover per fault.
    """
    from repro.logic.cover import Cover as _Cover
    from repro.logic.cube import Cube as _Cube

    region = [_Cube(n_inputs, cube.inputs, 1, 1)]
    for other in others:
        blocker = _Cube(n_inputs, other.inputs, 1, 1)
        next_region = []
        for piece in region:
            if not piece.intersects(blocker):
                next_region.append(piece)
                continue
            if blocker.contains(piece):
                continue
            # piece \\ blocker via the blocker's disjoint sharp
            for comp in blocker.complement_cubes():
                inter = piece.intersection(comp)
                if inter is not None:
                    next_region.append(inter)
        region = next_region
        if not region:
            return None
    return _minterm_of(_Cover(n_inputs, 1, region))


def deterministic_tests(config: GNORPlaneConfig) -> ATPGResult:
    """Targeted tests per fault via the cube algebra (near-complete).

    For every enumerable fault a closed-form excitation condition is
    solved exactly with cover complementation:

    * **OR stuck-on (k, r)** — any minterm where output ``k`` is 0;
    * **OR stuck-off (k, r)** / **AND stuck-on (r, *)** — a minterm of
      product ``r`` covered by no *other* product of an affected output
      (none exists = the tap/product is redundant: undetectable);
    * **AND stuck-off (r, i)** — a minterm of product ``r`` with input
      ``i``'s literal flipped, outside the good cover of an affected
      output.

    The collected vectors are deduplicated and greedily compacted with
    the fault simulator.
    """
    from repro.core.gnor import InputConfig
    from repro.logic.complement import complement_cover
    from repro.logic.cover import Cover as _Cover
    from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube as _Cube

    n = config.n_inputs
    faults = enumerate_faults(config)

    # rebuild the product cubes and per-output groupings from the config
    product_cubes: List[_Cube] = []
    for r in range(config.n_products):
        inputs = 0
        for i in range(n):
            programmed = config.and_plane[r][i]
            if programmed is InputConfig.INVERT:   # literal x
                field = BIT_ONE
            elif programmed is InputConfig.PASS:   # literal ~x
                field = BIT_ZERO
            else:
                field = BIT_DASH
            inputs |= field << (2 * i)
        product_cubes.append(_Cube(n, inputs, 1, 1))
    outputs_of_row = [set() for _ in range(config.n_products)]
    rows_of_output: List[List[int]] = []
    for k in range(config.n_outputs):
        rows = [r for r in range(config.n_products)
                if config.or_plane[k][r] is not InputConfig.DROP]
        rows_of_output.append(rows)
        for r in rows:
            outputs_of_row[r].add(k)

    def off_minterm(k: int) -> Optional[List[int]]:
        cover_k = _Cover(n, 1, [product_cubes[r]
                                for r in rows_of_output[k]])
        return _minterm_of(complement_cover(cover_k))

    tests: List[List[int]] = []
    seen: set = set()

    def add(vector: Optional[List[int]]) -> None:
        if vector is None:
            return
        key = tuple(vector)
        if key not in seen:
            seen.add(key)
            tests.append(list(vector))

    for fault in faults:
        if fault.site is FaultSite.OR:
            k, r = fault.column, fault.row
            if fault.stuck_on:
                add(off_minterm(k))
            else:
                others = [product_cubes[q] for q in rows_of_output[k]
                          if q != r]
                add(_and_not_others(product_cubes[r], others, n))
        else:
            r, i = fault.row, fault.column
            if fault.stuck_on:
                for k in outputs_of_row[r]:
                    others = [product_cubes[q] for q in rows_of_output[k]
                              if q != r]
                    vector = _and_not_others(product_cubes[r], others, n)
                    if vector is not None:
                        add(vector)
                        break
            else:
                field = (product_cubes[r].inputs >> (2 * i)) & 0b11
                if field == BIT_DASH:
                    continue  # redundant (skipped by enumerate anyway)
                flipped_inputs = product_cubes[r].inputs ^ (0b11 << (2 * i))
                # the faulty-only region: literal i flipped
                flipped = _Cube(n, (product_cubes[r].inputs
                                    | (0b11 << (2 * i)))
                                & ~(0b11 << (2 * i))
                                | ((BIT_ONE if field == BIT_ZERO
                                    else BIT_ZERO) << (2 * i)), 1, 1)
                for k in outputs_of_row[r]:
                    others = [product_cubes[q] for q in rows_of_output[k]]
                    vector = _and_not_others(flipped, others, n)
                    if vector is not None:
                        add(vector)
                        break

    # greedy compaction against the true detection matrix over `tests`
    detection = _detection_table(config, faults, tests)
    detectable: Set[int] = set()
    for caught in detection.values():
        detectable |= caught
    compact: List[List[int]] = []
    uncovered = set(detectable)
    while uncovered:
        best = max(detection, key=lambda ti: len(detection[ti] & uncovered))
        gain = detection[best] & uncovered
        if not gain:
            break
        compact.append(tests[best])
        uncovered -= gain

    detected = [faults[fi] for fi in sorted(detectable)]
    undetected = [faults[fi] for fi in range(len(faults))
                  if fi not in detectable]
    coverage = len(detectable) / len(faults) if faults else 1.0
    return ATPGResult(tests=compact, coverage=coverage, detected=detected,
                      undetected=undetected, candidate_pool_size=len(tests))
