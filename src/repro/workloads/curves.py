"""Accuracy-vs-area / defect-rate curve driver for compiled workloads.

One curve run takes a workload spec (typically a compiled classifier)
and produces a schema-versioned **curve report** answering the
question the ambipolar-CNFET classification papers pose: *how much
accuracy does a programmed array keep as manufacturing defect rates
rise, and what does the implementation cost in area per technology?*

The run is three passes, all on existing engines:

1. **Clean functional pass** — the compiled (minimized) cover and the
   raw generated cover are evaluated together over a deterministic
   LFSR vector stream on the batched :class:`CoverArena` path
   (:meth:`repro.store.service.SynthesisService.evaluate_batch`), and
   for classifiers additionally over the bundled dataset's rows; the
   report records the cross-cover agreement (1.0 unless the compile is
   broken) and the model's train/test accuracy.

2. **Defect Monte Carlo** — per defect-rate point, the batched yield
   engine (:func:`repro.robustness.yield_engine.estimate_yield`) runs
   under the curve's primary technology with the workload as its
   benchmark; raw/repaired yields arrive with Wilson CIs.

3. **Accuracy projection** — classification accuracy of a fielded
   array: a repaired array classifies at clean test accuracy, an
   irreparable one is modeled as a coin flip (0.5), so
   ``expected = acc * y + 0.5 * (1 - y)`` — monotone in the yield
   ``y``, letting the Wilson interval transfer directly onto the
   accuracy axis.  Non-classifier cells report the exact-function
   yield plus the graceful-degradation correct fraction instead.

The finished report is one content-addressed artifact (kind
``workload_curve``) keyed by the settings **and the model digest** (on
top of the ambient backend and technology digests every key carries),
so retraining a model or switching kernels invalidates exactly the
affected curves; cold and warm runs render byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import perf
from repro import workloads
from repro.errors import ReproInputError, check_int
from repro.workloads import classify, datasets

#: Curve-report schema identifier + version (bump on shape changes).
CURVE_SCHEMA = "repro.workload_curve"
CURVE_VERSION = 1


@dataclass(frozen=True)
class CurveSettings:
    """Everything that defines one accuracy/defect curve run.

    Construction validates every field (raising
    :class:`~repro.errors.ReproInputError`) and turns ``techs`` and
    ``rates`` given as lists, as in a serve request, into tuples.

    Attributes
    ----------
    spec:
        Workload spec (``clf-majority9-perceptron``, ``add4``, ...),
        with or without the ``workload:`` prefix.
    techs:
        Technologies for the area axis; the first is the primary one
        the yield Monte Carlo runs under.
    rates:
        Defect-rate sweep points (``p_stuck_off`` per device).
    stuck_on_ratio:
        ``p_stuck_on`` is this fraction of ``p_stuck_off`` at every
        point (default mirrors the yield engine's 0.0006/0.0014).
    samples:
        Monte Carlo samples per rate point.
    seed:
        Base seed for the yield sweep and the LFSR agreement stream.
    stream_words:
        64-vector words of the LFSR agreement stream (4096 words =
        262144 vectors per arena pass; raise for the "millions per
        pass" regime).
    spare_rows, spare_cols:
        Fabric redundancy available to the repair pass.
    """

    spec: str
    techs: Tuple[str, ...] = ("cnfet",)
    rates: Tuple[float, ...] = (0.0005, 0.001, 0.002, 0.004)
    stuck_on_ratio: float = 0.43
    samples: int = 400
    seed: int = 0
    stream_words: int = 4096
    spare_rows: int = 2
    spare_cols: int = 1

    def __post_init__(self):
        object.__setattr__(self, "spec", workloads.strip_prefix(self.spec))
        workloads.parse_workload(self.spec)  # fail fast on bad specs
        for name in ("techs", "rates"):  # lists (JSON) become tuples
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ReproInputError(f"{name} must be a list")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.techs or not all(isinstance(t, str) for t in self.techs):
            raise ReproInputError("need at least one technology, each a "
                                  "registry name or descriptor path")
        if not self.rates or not all(_is_fraction(rate) and rate < 1.0
                                     for rate in self.rates):
            raise ReproInputError("need at least one defect-rate point, "
                                  "each in [0, 1)")
        if not _is_fraction(self.stuck_on_ratio):
            raise ReproInputError("stuck_on_ratio must lie in [0, 1]")
        check_int("samples", self.samples, 1)
        check_int("seed", self.seed)
        check_int("stream_words", self.stream_words, 1)
        check_int("spare_rows", self.spare_rows, 0)
        check_int("spare_cols", self.spare_cols, 0)

    def to_json(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "techs": list(self.techs),
            "rates": list(self.rates),
            "stuck_on_ratio": self.stuck_on_ratio,
            "samples": self.samples,
            "seed": self.seed,
            "stream_words": self.stream_words,
            "spare_rows": self.spare_rows,
            "spare_cols": self.spare_cols,
        }


def _is_fraction(value: object) -> bool:
    """A real number (not a bool) in [0, 1]."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0.0 <= value <= 1.0)


def _agreement(masks_a: List[int], masks_b: List[int]) -> float:
    """Fraction of vector positions on which two mask rows agree."""
    if not masks_a:
        return 1.0
    same = sum(1 for a, b in zip(masks_a, masks_b) if a == b)
    return same / len(masks_a)


def _clean_block(settings: CurveSettings, info: dict,
                 raw, compiled) -> Dict[str, Any]:
    """Functional agreement + (for classifiers) dataset accuracy."""
    from repro.store.service import get_service
    from repro.testgen.lfsr import stream_spec

    spec = stream_spec(max(2, compiled.n_inputs), settings.stream_words,
                       seed=settings.seed)
    with perf.timer("workload.curve.stream"):
        rows = get_service().evaluate_batch([compiled.on_set, raw.on_set],
                                            stream=spec)
    vectors = settings.stream_words * 64
    perf.count("workload.curve.stream_vectors", vectors)
    block: Dict[str, Any] = {
        "stream": {"spec": spec, "vectors": vectors,
                   "agreement": round(_agreement(rows[0], rows[1]), 6)},
    }
    if info["family"] == "clf":
        dataset = datasets.get_dataset(info["dataset"])
        model = workloads._model_of(info["spec"])
        dataset_stream = datasets.dataset_stream_spec(dataset.name)
        with perf.timer("workload.curve.dataset"):
            masks = get_service().evaluate_batch([compiled.on_set],
                                                 stream=dataset_stream)[0]
        agree = sum(1 for (x, _y), mask in zip(dataset.rows, masks)
                    if mask == model.predict(x))
        block["dataset"] = dict(dataset.stats())
        block["dataset"].update({
            "train_accuracy": round(
                classify.model_accuracy(model, dataset.train), 6),
            "test_accuracy": round(
                classify.model_accuracy(model, dataset.test), 6),
            "row_agreement": round(agree / len(dataset.rows), 6),
        })
    return block


def _technology_block(settings: CurveSettings,
                      compiled) -> List[Dict[str, Any]]:
    """Area of the compiled array on every requested technology."""
    from repro.core.area import pla_area
    from repro.tech import resolve_tech

    dims = (compiled.n_inputs, compiled.n_outputs,
            compiled.on_set.n_cubes())
    entries = []
    for spec in settings.techs:
        descriptor = resolve_tech(spec)
        entries.append({
            "tech": descriptor.name,
            "digest": descriptor.digest(),
            "area_l2": pla_area(descriptor, *dims),
            "cell_area_l2": descriptor.cell_area_l2,
        })
    return entries


def _accuracy_projection(clean_accuracy: Optional[float],
                         report_json: dict) -> Dict[str, Any]:
    """Map a yield report onto the accuracy axis (see module doc)."""
    y = report_json["repaired_yield"]
    y_lo, y_hi = report_json["repaired_ci95"]
    degraded = report_json["degraded_mean_correct"]
    block: Dict[str, Any] = {
        "functional_yield": y,
        "functional_ci95": [y_lo, y_hi],
        "expected_correct_fraction": round(
            y + (1.0 - y) * degraded, 6),
    }
    if clean_accuracy is not None:
        def project(value: float) -> float:
            return round(clean_accuracy * value + 0.5 * (1.0 - value), 6)
        block["expected_accuracy"] = project(y)
        block["expected_accuracy_ci95"] = [project(y_lo), project(y_hi)]
    return block


def run_curve(settings: CurveSettings, jobs: int = 1) -> Dict[str, Any]:
    """Run the full curve and return the validated report dict.

    Served through the content-addressed store (kind
    ``workload_curve``) keyed on the settings plus the workload's
    model digest; the ambient kernel backend and primary-technology
    digest separate keys as for every artifact.  The report is
    bit-identical for any ``jobs`` value and across cold/warm runs.
    """
    from repro import tech as tech_mod
    from repro.analysis.export import validate_curve_report
    from repro.robustness.yield_engine import YieldSettings, estimate_yield
    from repro.store.service import get_service

    info = workloads.parse_workload(settings.spec)
    digest = workloads.model_digest(settings.spec)
    request = {"settings": settings.to_json(), "model_digest": digest}

    def compute() -> Dict[str, Any]:
        raw = workloads.raw_function(settings.spec)
        compiled = workloads.workload_function(settings.spec)
        clean = _clean_block(settings, info, raw, compiled)
        clean_accuracy = clean.get("dataset", {}).get("test_accuracy")

        points = []
        for rate in settings.rates:
            ysettings = YieldSettings(
                benchmark=workloads.PREFIX + settings.spec,
                samples=settings.samples, seed=settings.seed,
                p_stuck_off=rate,
                p_stuck_on=rate * settings.stuck_on_ratio,
                spare_rows=settings.spare_rows,
                spare_cols=settings.spare_cols,
                tech=settings.techs[0])
            with perf.timer("workload.curve.point"):
                report = estimate_yield(ysettings, jobs=jobs)
            report_json = report.to_json()
            points.append({
                "p_stuck_off": rate,
                "p_stuck_on": rate * settings.stuck_on_ratio,
                "yield": report_json,
                "accuracy": _accuracy_projection(clean_accuracy,
                                                 report_json),
            })
        perf.count("workload.curve.points", len(points))

        model_block = {"spec": settings.spec, "family": info["family"],
                       "digest": digest}
        if info["family"] == "clf":
            model_block["dataset"] = info["dataset"]
            model_block["algorithm"] = info["algorithm"]
        return {
            "schema": CURVE_SCHEMA,
            "version": CURVE_VERSION,
            "settings": settings.to_json(),
            "model": model_block,
            "function": {
                "name": compiled.name,
                "inputs": compiled.n_inputs,
                "outputs": compiled.n_outputs,
                "raw_products": raw.on_set.n_cubes(),
                "products": compiled.on_set.n_cubes(),
                "literals": compiled.on_set.n_literals(),
            },
            "clean": clean,
            "technologies": _technology_block(settings, compiled),
            "points": points,
        }

    # the primary technology scopes the whole run: yield sweeps, area
    # entries for techs[0], and the artifact key's tech digest
    with tech_mod.use(settings.techs[0]):
        report = get_service().get_or_compute("workload_curve", request,
                                              compute)
    return validate_curve_report(report)


__all__ = ["CURVE_SCHEMA", "CURVE_VERSION", "CurveSettings", "run_curve"]
