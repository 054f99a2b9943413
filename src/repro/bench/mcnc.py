"""MCNC benchmark statistics and matching synthetic covers.

The paper evaluates Table 1 on three functions of the MCNC suite
([8]): ``max46``, ``apla`` and ``t2``.  The area model depends only on
the minimized (inputs, outputs, product-terms) triple, and those
triples are recoverable *exactly* from the published areas::

    A_flash = 40 x P x (2I + O)      A_cnfet = 60 x P x (I + O)

    max46: 34960 = 40x46x19, 27600 = 60x46x10  ->  (9, 1, 46)
    apla:  32000 = 40x25x32, 33000 = 60x25x22  ->  (10, 12, 25)
    t2:   104000 = 40x52x50, 102960 = 60x52x33 ->  (17, 16, 52)

The original MCNC cube files are not redistributable here, so
``synthesize_cover`` builds a *synthetic* irredundant cover with the
same statistics: the full mapping / programming / simulation pipeline
runs on real cube content while the area results match the paper
bit-exactly (the model never reads the cubes, only the dimensions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ReproInputError
from repro.espresso.irredundant import irredundant
from repro.logic.cover import Cover
from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube
from repro.logic.function import BooleanFunction
from repro.logic.tautology import covers_cube


@dataclass(frozen=True)
class BenchmarkStats:
    """Published statistics of one benchmark function.

    Attributes
    ----------
    name:
        MCNC name (or a synthetic suite label).
    inputs, outputs, products:
        The minimized PLA dimensions entering the area model.
    source:
        Provenance note ("table1" = derived exactly from the paper's
        published areas; "synthetic" = our extended suite).
    """

    name: str
    inputs: int
    outputs: int
    products: int
    source: str = "synthetic"


#: The three Table 1 benchmarks, with dimensions recovered exactly from
#: the published areas (see the module docstring).
TABLE1_BENCHMARKS: Tuple[BenchmarkStats, ...] = (
    BenchmarkStats("max46", 9, 1, 46, source="table1"),
    BenchmarkStats("apla", 10, 12, 25, source="table1"),
    BenchmarkStats("t2", 17, 16, 52, source="table1"),
)

#: A wider synthetic suite for sweeps and ablations: spans the
#: input/output ratios around the CNFET-vs-Flash crossover (I = O).
EXTENDED_SUITE: Tuple[BenchmarkStats, ...] = TABLE1_BENCHMARKS + (
    BenchmarkStats("syn_dec5", 5, 8, 24),
    BenchmarkStats("syn_wide", 16, 4, 40),
    BenchmarkStats("syn_even", 12, 12, 30),
    BenchmarkStats("syn_tall", 8, 2, 60),
    BenchmarkStats("syn_small", 6, 3, 12),
)


def get_benchmark(name: str) -> BenchmarkStats:
    """Look up a benchmark by name.

    Covers the Table 1 trio, the synthetic extended suite, and — for
    names carrying the ``workload:`` prefix — the generated cells of
    :mod:`repro.workloads`: their stats are the dimensions of the
    *compiled* (minimized) cover, so area/yield models see the array
    that would actually be programmed.
    """
    if name.startswith("workload:"):
        from repro import workloads
        try:
            function = workloads.workload_function(name)
        except Exception as exc:
            raise KeyError(f"unknown benchmark {name!r} ({exc})")
        return BenchmarkStats(name, function.n_inputs, function.n_outputs,
                              function.on_set.n_cubes(), source="workload")
    for stats in EXTENDED_SUITE:
        if stats.name == name:
            return stats
    raise KeyError(f"unknown benchmark {name!r}")


def check_benchmark(name: object) -> None:
    """Raise :class:`ReproInputError` unless :func:`get_benchmark`
    resolves ``name``; ``workload:`` specs are parsed, never compiled."""
    if isinstance(name, str) and name.startswith("workload:"):
        from repro import workloads
        workloads.parse_workload(name)
    elif all(stats.name != name for stats in EXTENDED_SUITE):
        raise ReproInputError(f"unknown benchmark {name!r}")


def synthesize_cover(stats: BenchmarkStats, seed: int = 0,
                     max_attempts: int = 20000) -> Cover:
    """A synthetic irredundant cover matching ``stats`` exactly.

    Random cubes are accepted only when not already covered by the
    cover built so far; an irredundant pass then confirms every cube
    carries its own minterms.  The loop continues until the irredundant
    cover has exactly ``stats.products`` cubes.
    """
    rng = random.Random(seed)
    n, m, target = stats.inputs, stats.outputs, stats.products
    # Small cubes keep many cubes mutually irredundant; aim for cube
    # populations well under the 2^n space.
    dash_budget = max(0, n - max(3, n // 2))

    cover = Cover(n, m)
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        if cover.n_cubes() >= target:
            cover = irredundant(cover)
            if cover.n_cubes() == target:
                return cover
            if cover.n_cubes() > target:
                cover = Cover(n, m, cover.cubes[:target])
                cover = irredundant(cover)
                if cover.n_cubes() == target:
                    return cover
        candidate = _random_cube(rng, n, m, dash_budget)
        # steer toward outputs not yet exercised so every output column
        # of the synthetic benchmark carries at least one product term
        used = 0
        for cube in cover.cubes:
            used |= cube.outputs
        missing = [k for k in range(m) if not (used >> k) & 1]
        if missing:
            candidate = Cube(n, candidate.inputs,
                             1 << missing[rng.randrange(len(missing))], m)
        if not covers_cube(cover, candidate):
            cover.append(candidate)
    raise RuntimeError(
        f"failed to synthesize {stats.name} ({n}i/{m}o/{target}p) "
        f"within {max_attempts} attempts")


def benchmark_function(stats: BenchmarkStats, seed: int = 0) -> BooleanFunction:
    """The :class:`BooleanFunction` of a benchmark entry.

    Synthetic entries build a seeded random cover matching the stats;
    ``workload`` entries return the compiled (minimized) generated
    cell — deterministic, so ``seed`` is ignored for them.
    """
    if stats.source == "workload":
        from repro import workloads
        return workloads.workload_function(stats.name)
    cover = synthesize_cover(stats, seed)
    return BooleanFunction(cover, name=stats.name)


def verify_stats(stats: BenchmarkStats, cover: Cover) -> bool:
    """Check a cover against its registry entry (dimensions + count)."""
    return (cover.n_inputs == stats.inputs
            and cover.n_outputs == stats.outputs
            and cover.n_cubes() == stats.products)


def _random_cube(rng: random.Random, n_inputs: int, n_outputs: int,
                 dash_budget: int) -> Cube:
    """A random cube with a bounded number of dashes."""
    n_dashes = rng.randint(0, dash_budget)
    dash_vars = set(rng.sample(range(n_inputs), n_dashes))
    inputs = 0
    for v in range(n_inputs):
        if v in dash_vars:
            field = BIT_DASH
        else:
            field = BIT_ONE if rng.random() < 0.5 else BIT_ZERO
        inputs |= field << (2 * v)
    outputs = 1 << rng.randrange(n_outputs)
    # occasionally span several outputs, as real PLA rows do
    while n_outputs > 1 and rng.random() < 0.3:
        outputs |= 1 << rng.randrange(n_outputs)
    return Cube(n_inputs, inputs, outputs, n_outputs)
