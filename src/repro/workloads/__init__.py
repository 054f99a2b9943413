"""Workload generator subsystem: arithmetic cells and ML classifiers.

This package turns the repo's three MCNC functions into an open-ended
workload axis: parameterized **arithmetic cells** (ripple/carry adders,
magnitude comparators, popcount — :mod:`repro.workloads.arith`) and
**compiled classifiers** (threshold / decision-list models trained
deterministically on bundled datasets —
:mod:`repro.workloads.classify`) are generated as multi-output covers
and flow through the existing minimize → map → place/route → yield
pipeline unchanged.

Workloads are addressed by a **spec string**, always carrying the
``workload:`` prefix in benchmark positions:

=====================  ==============================================
spec                    cell
=====================  ==============================================
``add<w>``             ``w``-bit adder (``a+b``), outputs ``s..,cout``
``addc<w>``            the same with a carry-in input
``cmp<w>``             magnitude comparator (lt, eq, gt outputs)
``lt<w>``/``eq<w>``/   single-relation comparators
``gt<w>``
``pop<w>``             ``w``-input popcount
``clf-<ds>-<algo>``    classifier: dataset x {perceptron, dlist}
=====================  ==============================================

:func:`build_workload` generates the *raw* function (with its
structural OFF-set pre-seeded); :func:`workload_function` returns the
**compiled** function whose ON-set is the minimized cover (served
through the content-addressed store, so every process pays espresso
once per spec).  :mod:`repro.bench.mcnc` resolves any benchmark name
starting with ``workload:`` through this module, which is what lets
the yield engine, the characterizer, ``repro suite`` and the serve
layer accept workload cells wherever they accept ``max46``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.errors import ReproInputError, check_int
from repro.logic.function import BooleanFunction
from repro.workloads import arith, classify, datasets

#: Benchmark-name prefix routing through this registry.
PREFIX = "workload:"

#: Generator width guardrails: two-level arithmetic covers grow
#: exponentially in width, so reject specs whose *raw* cover would be
#: astronomically large before trying to build it.
MAX_ADDER_WIDTH = 10
MAX_COMPARE_WIDTH = 12
MAX_POPCOUNT_WIDTH = 12

_ARITH_RE = re.compile(r"^(add|addc|cmp|lt|eq|gt|pop)(\d+)$")
_CLF_RE = re.compile(r"^clf-([a-z0-9_]+)-(perceptron|dlist)$")

#: Classifier training algorithms.
ALGORITHMS = ("perceptron", "dlist")


def strip_prefix(name: str) -> str:
    """Drop a leading ``workload:`` if present."""
    return name[len(PREFIX):] if name.startswith(PREFIX) else name


def parse_workload(spec: str) -> dict:
    """Parse a spec string into its JSON-shaped description.

    Raises :class:`~repro.errors.ReproInputError` on unknown or
    out-of-range specs (the CLI maps it to exit code 2).
    """
    spec = strip_prefix(spec)
    match = _ARITH_RE.match(spec)
    if match:
        family, width_str = match.group(1), match.group(2)
        width = int(width_str)
        limit = {"add": MAX_ADDER_WIDTH, "addc": MAX_ADDER_WIDTH,
                 "pop": MAX_POPCOUNT_WIDTH}.get(family, MAX_COMPARE_WIDTH)
        if not 1 <= width <= limit:
            raise ReproInputError(
                f"workload {spec!r}: width must be in 1..{limit} "
                f"for family {family!r}")
        return {"spec": spec, "family": family, "width": width}
    match = _CLF_RE.match(spec)
    if match:
        dataset, algo = match.group(1), match.group(2)
        if dataset not in datasets.dataset_names():
            raise ReproInputError(
                f"workload {spec!r}: unknown dataset {dataset!r} "
                f"(bundled: {', '.join(datasets.dataset_names())})")
        return {"spec": spec, "family": "clf", "dataset": dataset,
                "algorithm": algo}
    raise ReproInputError(
        f"unknown workload spec {spec!r} (expected add<w>, addc<w>, "
        f"cmp<w>, lt<w>, eq<w>, gt<w>, pop<w> or clf-<dataset>-<algo>)")


def train_model(dataset_name: str, algorithm: str):
    """Train the deterministic model of a classifier spec."""
    dataset = datasets.get_dataset(dataset_name)
    if algorithm == "perceptron":
        return classify.train_threshold(dataset)
    if algorithm == "dlist":
        return classify.train_decision_list(dataset)
    raise ReproInputError(f"unknown algorithm {algorithm!r}")


def build_workload(spec: str) -> BooleanFunction:
    """Generate the raw (unminimized) function of a workload spec.

    Pure and deterministic: the returned function — including its
    pre-seeded structural OFF-set — depends only on the spec string.
    """
    info = parse_workload(spec)
    family = info["family"]
    if family in ("add", "addc"):
        return arith.adder_function(info["width"],
                                    carry_in=family == "addc")
    if family == "cmp":
        return arith.comparator_function(info["width"])
    if family in ("lt", "eq", "gt"):
        return arith.comparator_function(info["width"], (family,))
    if family == "pop":
        return arith.popcount_function(info["width"])
    model = train_model(info["dataset"], info["algorithm"])
    return classify.compile_classifier(
        model, name=PREFIX + info["spec"])


def oracle_mask(spec: str, minterm: int) -> int:
    """The integer-arithmetic / direct-model oracle of a spec.

    The output bitmask the workload's cover must produce on
    ``minterm`` — what the differential tests and ``repro workload
    eval`` compare against.
    """
    info = parse_workload(spec)
    if info["family"] == "clf":
        return _model_of(info["spec"]).predict(minterm)
    return arith.ORACLES[info["family"]](info["width"], minterm)


def oracle_check(spec: str, words: int, seed: int = 0) -> dict:
    """``{stream, vectors, mismatches}``: the compiled cover of ``spec``
    against :func:`oracle_mask` on ``words`` 64-vector words of a seeded
    LFSR stream (``repro workload eval`` and the serve ``workload`` op's
    ``eval`` action).  ``words`` must be an integer >= 1."""
    from repro.store.service import get_service
    from repro.testgen.lfsr import stream_minterms, stream_spec

    check_int("words", words, 1)
    check_int("seed", seed)
    compiled = workload_function(spec)
    stream = stream_spec(max(2, compiled.n_inputs), words, seed=seed)
    masks = get_service().evaluate_batch([compiled.on_set], stream=stream)[0]
    mismatches = sum(1 for minterm, mask in zip(stream_minterms(stream), masks)
                     if mask != oracle_mask(spec, minterm))
    return {"stream": stream, "vectors": words * 64,
            "mismatches": mismatches}


#: Per-process memos: raw functions, compiled functions, trained models.
_RAW_CACHE: Dict[str, BooleanFunction] = {}
_COMPILED_CACHE: Dict[Tuple[str, str, str], BooleanFunction] = {}
_MODEL_CACHE: Dict[str, object] = {}


def _model_of(spec: str):
    model = _MODEL_CACHE.get(spec)
    if model is None:
        info = parse_workload(spec)
        if info["family"] != "clf":
            raise ReproInputError(f"workload {spec!r} is not a classifier")
        model = _MODEL_CACHE[spec] = train_model(info["dataset"],
                                                 info["algorithm"])
    return model


def raw_function(spec: str) -> BooleanFunction:
    """Memoized :func:`build_workload`."""
    spec = strip_prefix(spec)
    parse_workload(spec)
    function = _RAW_CACHE.get(spec)
    if function is None:
        function = _RAW_CACHE[spec] = build_workload(spec)
    return function


def workload_function(spec: str) -> BooleanFunction:
    """The compiled function: minimized ON-set, served via the store.

    The minimized cover is a content-addressed artifact (the service's
    ``minimize`` kind keyed by the raw cover), so espresso runs once
    per (spec, backend, technology) fleet-wide; the per-process memo
    is additionally keyed by backend and technology digest so a forced
    backend flip inside one process never sees a stale compile.
    """
    from repro import kernels
    from repro.store.service import get_service
    from repro.tech import active_digest

    spec = strip_prefix(spec)
    parse_workload(spec)
    memo_key = (spec, kernels.backend(), active_digest())
    function = _COMPILED_CACHE.get(memo_key)
    if function is None:
        raw = raw_function(spec)
        cover = get_service().minimize(raw)
        function = BooleanFunction(cover, name=PREFIX + spec,
                                   input_labels=raw.input_labels,
                                   output_labels=raw.output_labels)
        function._off_set = raw.off_set
        _COMPILED_CACHE[memo_key] = function
    return function


def model_digest(spec: str) -> str:
    """Content digest of what defines a workload's function.

    Classifiers hash their trained model (weights / rules); arithmetic
    cells hash the parsed spec.  Curve-report store keys carry this, so
    a trainer change invalidates exactly the affected artifacts.
    """
    from repro.store.keys import digest_of

    info = parse_workload(spec)
    if info["family"] == "clf":
        return digest_of(_model_of(info["spec"]).to_json())
    return digest_of(info)


#: Default registry shown by ``repro workload ls``: one spec per
#: family at a representative size, plus the bundled classifiers
#: paired with the algorithm that actually learns them.
DEFAULT_WORKLOADS: Tuple[str, ...] = (
    "add2", "add4", "add8", "addc4",
    "cmp4", "cmp8", "gt8", "eq8",
    "pop4", "pop8",
    "clf-majority9-perceptron", "clf-blobs12-perceptron",
    "clf-mux6-dlist",
)


def list_workloads() -> List[dict]:
    """Spec + parsed description for every default workload."""
    return [parse_workload(spec) for spec in DEFAULT_WORKLOADS]


def clear_caches() -> None:
    """Reset the per-process memos (tests)."""
    _RAW_CACHE.clear()
    _COMPILED_CACHE.clear()
    _MODEL_CACHE.clear()


__all__ = ["ALGORITHMS", "DEFAULT_WORKLOADS", "PREFIX", "build_workload",
           "clear_caches", "list_workloads",
           "model_digest", "oracle_check", "oracle_mask", "parse_workload",
           "raw_function", "strip_prefix", "train_model",
           "workload_function"]
