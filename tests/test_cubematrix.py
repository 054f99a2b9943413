"""Differential tests: the cover-matrix cube algebra vs the scalar oracle.

Every primitive of :mod:`repro.kernels.cubematrix` (distance,
containment, cofactor, single-cube containment, column counts,
covering-table subset matrix) is checked against the
scalar :class:`~repro.logic.cube.Cube` methods on hypothesis-made
covers — up to 12 inputs / 4 outputs, including don't-care sets, empty
(contradictory) cubes and multi-output cubes — plus multi-word covers
past 32 inputs.  Espresso itself is then run end to end under both
``REPRO_KERNEL`` backends and must return bit-identical covers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.espresso import espresso
from repro.logic.cover import Cover
from repro.logic.cube import BIT_DASH, BIT_ONE, BIT_ZERO, Cube
from repro.logic.function import BooleanFunction
from repro.logic.tautology import is_tautology

pytest.importorskip("numpy")

cm = kernels.cubematrix


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _random_inputs(draw, n, allow_empty_fields=True):
    fields = [BIT_ZERO, BIT_ONE, BIT_DASH, BIT_DASH]
    if allow_empty_fields:
        fields = fields + [0]
    inputs = 0
    for v in range(n):
        inputs |= draw(st.sampled_from(fields)) << (2 * v)
    return inputs


@st.composite
def matrix_covers(draw, max_inputs: int = 12, max_outputs: int = 4,
                  min_cubes: int = 0, max_cubes: int = 12,
                  allow_empty_fields: bool = True):
    """Covers shaped for the matrix engine, empty fields included."""
    n = draw(st.integers(1, max_inputs))
    m = draw(st.integers(1, max_outputs))
    k = draw(st.integers(min_cubes, max_cubes))
    cover = Cover(n, m)
    for _ in range(k):
        inputs = _random_inputs(draw, n, allow_empty_fields)
        outputs = draw(st.integers(0, (1 << m) - 1))
        cover.append(Cube(n, inputs, outputs, m))
    return cover


@st.composite
def cover_and_probe(draw, **kwargs):
    """A cover plus one probe cube of the same dimensions."""
    cover = draw(matrix_covers(**kwargs))
    inputs = _random_inputs(draw, cover.n_inputs)
    outputs = draw(st.integers(0, (1 << cover.n_outputs) - 1))
    return cover, Cube(cover.n_inputs, inputs, outputs, cover.n_outputs)


def both_backends(fn):
    """Run ``fn()`` under each backend and return the two results."""
    with kernels.forced_backend("numpy"):
        kernel_result = fn()
    with kernels.forced_backend("python"):
        scalar_result = fn()
    return kernel_result, scalar_result


def row_cube(matrix, words_row, out) -> Cube:
    return Cube(matrix.n_inputs, cm.join_mask(words_row), int(out),
                matrix.n_outputs)


# ----------------------------------------------------------------------
# packing layer
# ----------------------------------------------------------------------
class TestPacking:
    @settings(max_examples=30, deadline=None)
    @given(matrix_covers(max_inputs=12))
    def test_pack_roundtrip(self, cover):
        matrix = cm.pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
        assert matrix.n_cubes == cover.n_cubes()
        for j, cube in enumerate(cover.cubes):
            assert cm.join_mask(matrix.words[j]) == cube.inputs
            assert int(matrix.outputs[j]) == cube.outputs

    @settings(max_examples=15, deadline=None)
    @given(matrix_covers(max_inputs=12, min_cubes=1))
    def test_fields_roundtrip(self, cover):
        matrix = cm.pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
        fields = matrix.fields()
        assert fields.shape == (cover.n_cubes(), cover.n_inputs)
        assert (cm.pack_fields(fields) == matrix.words).all()

    def test_multiword_split(self):
        # 40 inputs -> two words; every field lands in the right slot
        rng = random.Random(4)
        cover = Cover.random(40, 2, 10, rng)
        matrix = cm.pack_cubes(cover.cubes, 40, 2)
        assert matrix.words.shape == (10, 2)
        for j, cube in enumerate(cover.cubes):
            assert cm.join_mask(matrix.words[j]) == cube.inputs

    def test_matrix_of_caches_until_mutation(self):
        cover = Cover.random(6, 2, 9, random.Random(1))
        first = cm.matrix_of(cover)
        assert cm.matrix_of(cover) is first
        cover.append(Cube.full(6, 2))
        second = cm.matrix_of(cover)
        assert second is not first
        assert second.n_cubes == 10

    def test_too_many_outputs_rejected(self):
        with pytest.raises(cm.MatrixUnsupported):
            cm.pack_cubes([], 4, cm.MAX_OUTPUTS + 1)


# ----------------------------------------------------------------------
# pairwise relations
# ----------------------------------------------------------------------
class TestRelations:
    @settings(max_examples=40, deadline=None)
    @given(matrix_covers(max_inputs=12), matrix_covers(max_inputs=12))
    def test_distance_matrix_matches_scalar(self, a, b):
        if b.n_inputs != a.n_inputs or b.n_outputs != a.n_outputs:
            b = Cover(a.n_inputs, a.n_outputs,
                      [Cube(a.n_inputs, _mask_fit(c.inputs, a.n_inputs),
                            c.outputs & ((1 << a.n_outputs) - 1),
                            a.n_outputs) for c in b.cubes])
        ma = cm.pack_cubes(a.cubes, a.n_inputs, a.n_outputs)
        mb = cm.pack_cubes(b.cubes, a.n_inputs, a.n_outputs)
        dist = cm.distance_matrix(ma, mb)
        for i, x in enumerate(a.cubes):
            for j, y in enumerate(b.cubes):
                assert dist[i, j] == x.distance(y)

    @settings(max_examples=40, deadline=None)
    @given(matrix_covers(max_inputs=12, min_cubes=1))
    def test_containment_matrix_matches_scalar(self, cover):
        matrix = cm.pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
        contains = cm.containment_matrix(matrix)
        for i, x in enumerate(cover.cubes):
            for j, y in enumerate(cover.cubes):
                assert bool(contains[i, j]) == x.contains(y)

    @settings(max_examples=40, deadline=None)
    @given(cover_and_probe(max_inputs=12))
    def test_one_vs_rows_containment_matches_scalar(self, pair):
        cover, probe = pair
        matrix = cm.pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
        down = cm.cube_contains_rows(matrix, probe.inputs, probe.outputs)
        assert [bool(b) for b in down] == \
            [probe.contains(c) for c in cover.cubes]

    def test_multiword_distance_and_containment(self):
        rng = random.Random(9)
        cover = Cover.random(70, 3, 12, rng)
        matrix = cm.pack_cubes(cover.cubes, 70, 3)
        dist = cm.distance_matrix(matrix, matrix)
        contains = cm.containment_matrix(matrix)
        for i, x in enumerate(cover.cubes):
            for j, y in enumerate(cover.cubes):
                assert dist[i, j] == x.distance(y)
                assert bool(contains[i, j]) == x.contains(y)


def _mask_fit(inputs: int, n: int) -> int:
    return inputs & ((1 << (2 * n)) - 1)


# ----------------------------------------------------------------------
# cofactor
# ----------------------------------------------------------------------
class TestAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(cover_and_probe(max_inputs=12))
    def test_cofactor_rows_matches_scalar(self, pair):
        cover, probe = pair
        matrix = cm.pack_cubes(cover.cubes, cover.n_inputs, cover.n_outputs)
        keep, words, outs = cm.cofactor_rows(matrix, probe.inputs,
                                             probe.outputs)
        for j, cube in enumerate(cover.cubes):
            scalar = cube.cofactor(probe)
            if scalar is None:
                assert not keep[j]
            else:
                assert keep[j]
                assert row_cube(matrix, words[j], outs[j]) == scalar


# ----------------------------------------------------------------------
# cover-level helpers
# ----------------------------------------------------------------------
class TestCoverHelpers:
    @settings(max_examples=40, deadline=None)
    @given(matrix_covers(max_inputs=10, max_cubes=14))
    def test_single_cube_containment_matches_scalar(self, cover):
        kernel_res, scalar_res = both_backends(
            lambda: cover.copy().single_cube_containment().to_strings())
        assert kernel_res == scalar_res

    @settings(max_examples=40, deadline=None)
    @given(cover_and_probe(max_inputs=10, min_cubes=8, max_cubes=14))
    def test_cover_cofactor_matches_scalar(self, pair):
        cover, probe = pair
        kernel_res, scalar_res = both_backends(
            lambda: cover.copy().cofactor(probe).to_strings())
        assert kernel_res == scalar_res

    @settings(max_examples=40, deadline=None)
    @given(matrix_covers(max_inputs=10, max_cubes=14))
    def test_column_counts_match_scalar(self, cover):
        kernel_res, scalar_res = both_backends(
            lambda: cover.copy().column_counts())
        assert kernel_res == scalar_res

    @settings(max_examples=30, deadline=None)
    @given(matrix_covers(max_inputs=10, max_outputs=1, max_cubes=14))
    def test_tautology_with_memo_matches_scalar(self, cover):
        # run the kernel side twice: second pass exercises the memo hit
        with kernels.forced_backend("numpy"):
            first = is_tautology(cover.copy())
            second = is_tautology(cover.copy())
        with kernels.forced_backend("python"):
            scalar = is_tautology(cover.copy())
        assert first == second == scalar

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 12), max_size=8),
                    min_size=1, max_size=20))
    def test_subset_matrix_matches_set_comparisons(self, sets):
        universe = sorted({m for s in sets for m in s})
        subset = cm.subset_matrix(sets, universe)
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert bool(subset[i, j]) == (a <= b)


# ----------------------------------------------------------------------
# espresso end to end
# ----------------------------------------------------------------------
class TestEspressoEndToEnd:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 10),
           st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_espresso_backends_identical(self, n, m, k, dc, seed):
        f = BooleanFunction.random(n, m, k, seed=seed, dc_cubes=dc)
        kernel_res, scalar_res = both_backends(lambda: espresso(f))
        assert kernel_res.cover.to_strings() == scalar_res.cover.to_strings()
        assert kernel_res.cost_trace == scalar_res.cost_trace

    def test_espresso_above_matrix_gate(self):
        # enough cubes that every matrix path engages (>= MIN_CUBES)
        f = BooleanFunction.random(10, 3, 24, seed=7, dc_cubes=4)
        kernel_res, scalar_res = both_backends(lambda: espresso(f))
        assert kernel_res.cover.to_strings() == scalar_res.cover.to_strings()
        assert kernel_res.cost_trace == scalar_res.cost_trace
