"""Differential tests: the coverage table against the scalar engine.

:mod:`repro.espresso.coverage` answers IRREDUNDANT's, the essential
split's, MAKE_SPARSE's and REDUCE's questions on the whole truth table;
the scalar engine asks :func:`~repro.logic.tautology.covers_cube` and
:func:`~repro.espresso.reduce.reduce_cube` instead.  Both must give the
same answer to every question, also after any sequence of removed
cubes and dropped output taps, and the same reduced cover, on covers
with DC-sets, empty cubes, zero-output cubes and duplicates.  The
closed-form acceptance words are checked against the per-variable
sweep, the supercube of acceptance words against one built from
explicit minterms, and a cover above the table bound must take the
scalar engine.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, perf
from repro.espresso import coverage
from repro.espresso.irredundant import irredundant
from repro.espresso.reduce import reduce_cover
from repro.kernels import bitslice
from repro.logic.cover import Cover
from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube


def _random_cube(draw, n, m, allow_empty=True):
    choices = [BIT_ZERO, BIT_ONE, BIT_DASH, BIT_DASH]
    empty = allow_empty and draw(st.integers(0, 9)) == 0
    inputs = 0
    for v in range(n):
        inputs |= draw(st.sampled_from(choices)) << (2 * v)
    if empty and n:
        inputs &= ~(0b11 << (2 * draw(st.integers(0, n - 1))))
    outputs = draw(st.integers(0 if allow_empty else 1, (1 << m) - 1))
    return Cube(n, inputs, outputs, m)


@st.composite
def covers_with_dc(draw):
    n = draw(st.integers(0, 10))
    m = draw(st.integers(1, 4))
    cubes = [_random_cube(draw, n, m)
             for _ in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        cubes.append(draw(st.sampled_from(cubes)))  # duplicates
    dc = Cover(n, m, [_random_cube(draw, n, m)
                      for _ in range(draw(st.integers(0, 3)))])
    return n, m, cubes, dc


def _engines(n, m, cubes, dc):
    with kernels.forced_backend("numpy"):
        table = coverage.coverage_table(cubes, dc, n, m)
    assert isinstance(table, coverage._TruthTable)
    return table, coverage._ScalarTable(cubes, dc, n, m)


@settings(max_examples=300, deadline=None)
@given(covers_with_dc(), st.randoms(use_true_random=False))
def test_engines_agree_along_removals_and_dropped_taps(case, rng):
    n, m, cubes, dc = case
    table, scalar = _engines(n, m, cubes, dc)
    live = list(range(len(cubes)))
    taps = [set(cube.output_indices()) for cube in cubes]
    with kernels.forced_backend("python"):
        for _ in range(2 * len(cubes) + 2):
            assert table.covered_by_rest() == scalar.covered_by_rest()
            if not live:
                break
            i = rng.choice(live)
            assert table.covered(i) == scalar.covered(i), i
            for k in sorted(taps[i]):
                assert table.slice_covered(i, k) == \
                    scalar.slice_covered(i, k), (i, k)
            if taps[i] and rng.random() < 0.5:
                k = rng.choice(sorted(taps[i]))
                taps[i].discard(k)
                table.drop_output(i, k)
                scalar.drop_output(i, k)
            else:
                live.remove(i)
                table.remove(i)
                scalar.remove(i)


@settings(max_examples=300, deadline=None)
@given(covers_with_dc())
def test_reduce_cover_is_the_same_on_both_engines(case):
    n, m, cubes, dc = case
    cover = Cover(n, m, cubes)
    with kernels.forced_backend("numpy"):
        before = _engine_counts()
        table = reduce_cover(cover, dc).to_strings()
        assert _engine_counts() == (before[0] + 1, before[1])
    with kernels.forced_backend("python"):
        scalar = reduce_cover(cover, dc).to_strings()
    assert table == scalar


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_reduce_of_an_empty_cover_builds_no_table(backend):
    dc = Cover(4, 2, [Cube.from_string("1---", "11")])
    with kernels.forced_backend(backend):
        before = _engine_counts()
        reduced = reduce_cover(Cover(4, 2), dc)
        assert _engine_counts() == before
    assert (reduced.n_inputs, reduced.n_outputs, len(reduced)) == (4, 2, 0)


@pytest.mark.parametrize("n", range(13))
def test_supercube_of_words_equals_the_minterm_supercube(n):
    rng = random.Random(100 + n)
    n_words = max(1, (1 << n) // bitslice.WORD)
    for _ in range(20):
        chosen = [rng.randrange(1 << n)
                  for _ in range(rng.choice([1, 2, 3, 1 << n]))]
        expected = 0
        for minterm in chosen:
            for v in range(n):
                expected |= (BIT_ONE if minterm >> v & 1 else BIT_ZERO) \
                    << (2 * v)
        words = np.zeros((2, n_words), dtype=np.uint64)
        for j, minterm in enumerate(chosen):  # spread over two rows
            words[j % 2, minterm // 64] |= np.uint64(1 << (minterm % 64))
        if n < 6:  # bits past 2^n are no minterms
            words[0, 0] |= np.uint64(~((1 << (1 << n)) - 1) & (2**64 - 1))
        assert coverage.supercube_inputs(words, n) == expected
        assert coverage.supercube_inputs(words[0] | words[1], n) == \
            expected


@pytest.mark.parametrize("n", range(13))
def test_exhaustive_accepts_equals_the_sweep(n):
    rng = random.Random(n)
    cubes = []
    for _ in range(12):
        inputs = 0
        for v in range(n):
            inputs |= rng.choice([BIT_ZERO, BIT_ONE, BIT_DASH, BIT_DASH,
                                  BIT_DASH, 0]) << (2 * v)
        cubes.append(Cube(n, inputs, 1, 1))
    n_words = max(1, (1 << n) // bitslice.WORD)
    pack = bitslice._build_packed(n, 1, cubes)
    expected = bitslice.cube_accepts(
        pack, bitslice.exhaustive_slices(n, 0, n_words))
    got = bitslice.exhaustive_accepts(cubes, n)
    assert got.shape == (len(cubes), n_words)
    assert (got == expected).all()


def _engine_counts():
    counters = perf.snapshot()["counters"]
    return (counters.get("espresso.coverage.table", 0),
            counters.get("espresso.coverage.scalar", 0))


def test_cover_above_the_bound_takes_the_scalar_engine(monkeypatch):
    rng = random.Random(19)
    cover = Cover.random(19, 2, 30, rng, dash_probability=0.7)
    cubes = list(cover.cubes)
    for cube in cubes[:10]:  # sub-cubes, each redundant
        var = next(v for v in range(19) if cube.field(v) == BIT_DASH)
        cover.append(cube.with_field(var, BIT_ONE))
    assert len(cover) == 40
    dc = Cover.empty(19, 2)
    rows = 40 + 2
    assert rows * (1 << 19) // 64 > coverage.MAX_WORDS

    with kernels.forced_backend("numpy"):
        before = _engine_counts()
        fallback = irredundant(cover, dc).to_strings()
        table_runs, scalar_runs = _engine_counts()
        assert (table_runs, scalar_runs) == (before[0], before[1] + 1)
        monkeypatch.setattr(coverage, "MAX_WORDS", 1 << 20)
        exhaustive = irredundant(cover, dc).to_strings()
        assert _engine_counts()[0] == table_runs + 1
    with kernels.forced_backend("python"):
        oracle = irredundant(cover, dc).to_strings()
    assert fallback == exhaustive == oracle
    assert len(oracle) < 40


def test_reduce_above_the_bound_takes_the_scalar_engine(monkeypatch):
    rng = random.Random(23)
    cover = Cover.random(19, 2, 30, rng, dash_probability=0.7)
    dc = Cover.random(19, 2, 2, rng, dash_probability=0.8)
    assert (30 + 2 + 2) * (1 << 19) // 64 > coverage.MAX_WORDS

    with kernels.forced_backend("numpy"):
        before = _engine_counts()
        fallback = reduce_cover(cover, dc).to_strings()
        assert _engine_counts() == (before[0], before[1] + 1)
        monkeypatch.setattr(coverage, "MAX_WORDS", 1 << 20)
        exhaustive = reduce_cover(cover, dc).to_strings()
        assert _engine_counts() == (before[0] + 1, before[1] + 1)
    with kernels.forced_backend("python"):
        oracle = reduce_cover(cover, dc).to_strings()
    assert fallback == exhaustive == oracle
    assert fallback != cover.to_strings()  # some cube did shrink
