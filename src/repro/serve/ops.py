"""Worker-side endpoint implementations (picklable, JSON in/out).

Each ``op_*`` function takes the request's ``params`` dict and returns
the response's ``result`` dict.  They run inside the warm worker pool
(:class:`repro.runner.WarmPool`), so they are top-level and picklable,
take and return only JSON-shaped data (covers travel as
:mod:`repro.store.codecs` encodings), and go through
:func:`repro.store.service.get_service` — workers share the disk tier
of the content-addressed store with each other and with offline
drivers, so a result synthesized for one client warms every later one.

Each op is a thin adapter over the library call its CLI twin makes.
Inputs are checked once, in the library, which raises
:class:`~repro.errors.ReproInputError`; :func:`dispatch` maps that to
:exc:`RequestError` for every op.  The ops check only the shape of
their params and serve's caps on the work one request may ask for.

Byte-identity contract: every op produces exactly what the equivalent
direct ``SynthesisService`` call encodes to.  The serve tests and the
``bench_serve`` load generator compare the two canonical-JSON renders
byte for byte on both kernel backends.

:exc:`RequestError` marks *caller* mistakes (undecodable cover, bad
dimensions) — the bridge maps it to a ``bad_request`` protocol error
instead of ``internal``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ReproInputError, check_int
from repro.store import codecs


class RequestError(ValueError):
    """Client-side parameter error (becomes a ``bad_request`` reply)."""


def _require(params: Dict[str, Any], field: str, kind: type) -> Any:
    value = params.get(field)
    if not isinstance(value, kind):
        raise RequestError(f"param {field!r} must be "
                           f"{kind.__name__}, got "
                           f"{type(value).__name__}")
    return value


def _decode_cover(payload: Any, where: str):
    if not isinstance(payload, dict):
        raise RequestError(f"{where}: cover encoding must be an object")
    try:
        return codecs.decode_cover(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"{where}: undecodable cover ({exc!r})")


def _minterm_list(params: Dict[str, Any], field: str = "minterms"
                  ) -> List[int]:
    raw = _require(params, field, list)
    if not raw:
        raise RequestError(f"param {field!r} must be non-empty")
    try:
        minterms = [int(m) for m in raw]
    except (TypeError, ValueError, OverflowError):
        raise RequestError(f"param {field!r} must be a list of ints")
    if not all(0 <= m < 1 << 64 for m in minterms):
        raise RequestError(f"param {field!r} must hold minterms in "
                           f"0..2**64-1")
    return minterms


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
def op_minimize(params: Dict[str, Any]) -> Dict[str, Any]:
    """Espresso minimization: ``{cover, dc?, phase?}`` -> ``{cover[, phases]}``."""
    from repro.logic.function import BooleanFunction
    from repro.store.service import get_service

    on_set = _decode_cover(params.get("cover"), "cover")
    dc_payload = params.get("dc")
    dc_set = _decode_cover(dc_payload, "dc") if dc_payload is not None \
        else None
    phase = bool(params.get("phase", False))
    try:
        function = BooleanFunction(on_set, dc_set=dc_set)
    except ValueError as exc:
        raise RequestError(str(exc))
    if phase:
        cover, phases = get_service().minimize(function, {"phase": True})
        return {"cover": codecs.encode_cover(cover),
                "phases": [bool(p) for p in phases]}
    cover = get_service().minimize(function)
    return {"cover": codecs.encode_cover(cover)}


def op_evaluate_flush(params: Dict[str, Any]) -> Dict[str, Any]:
    """One micro-batch flush: unique covers x unique vectors, one pass.

    ``{covers: [enc...], minterms: [ints]}`` -> ``{masks: [[int]]}``
    where ``masks[c][t]`` is cover ``c`` on vector ``t``.  The batcher
    deduplicated both axes; this evaluates the whole cross product in
    one :func:`repro.eval.evaluate_covers` arena pass — the single
    vectorized kernel call N concurrent clients share.  No store
    round-trip: batch composition is timing-dependent, so caching the
    composite would pollute the store with never-again keys.
    """
    from repro import eval as batch_eval

    covers_raw = _require(params, "covers", list)
    decoded = []
    errors: Dict[str, str] = {}
    for i, payload in enumerate(covers_raw):
        try:
            decoded.append((i, _decode_cover(payload, f"covers[{i}]")))
        except RequestError as exc:
            # isolate the bad member: its sibling requests in the same
            # flush still get their masks
            errors[str(i)] = str(exc)
    minterms = _minterm_list(params)
    rows = batch_eval.evaluate_covers([c for _i, c in decoded], minterms)
    masks: List[Any] = [None] * len(covers_raw)
    for (i, _cover), row in zip(decoded, rows):
        masks[i] = [int(m) for m in row]
    return {"masks": masks, "errors": errors}


def op_evaluate_batch(params: Dict[str, Any]) -> Dict[str, Any]:
    """Explicit batched evaluation, served through the artifact store.

    ``{covers: [enc...], minterms: [...] | stream: {...}}`` ->
    ``{masks: [[int]]}``; exactly the payload
    ``SynthesisService.evaluate_batch`` computes and caches (stream
    specs stay compact keys, per DESIGN section 9).
    """
    from repro.store.service import get_service

    covers_raw = _require(params, "covers", list)
    covers = [_decode_cover(c, f"covers[{i}]")
              for i, c in enumerate(covers_raw)]
    stream = params.get("stream")
    minterms = None
    if stream is not None:
        if not isinstance(stream, dict):
            raise RequestError("param 'stream' must be an object")
        if "minterms" in params:
            raise RequestError("pass exactly one of minterms/stream")
    else:
        minterms = _minterm_list(params)
    try:
        masks = get_service().evaluate_batch(covers, minterms=minterms,
                                             stream=stream)
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"evaluate_batch: {exc!r}")
    return {"masks": [[int(m) for m in row] for row in masks]}


def op_place_route(params: Dict[str, Any]) -> Dict[str, Any]:
    """Table 2-style place & route: ``{seed, grid, fabric}`` -> encoding.

    Implements one fabric of :func:`repro.fpga.emulate.table2_problem`
    for ``(seed, grid)`` exactly as :func:`~repro.fpga.emulate.run_emulation`
    does (workload cached as ``table2_workload``, placement and routing
    as ``place_route``), and returns the full placement/routing
    encoding plus a summary — the same artifact an offline ``repro
    table2`` run would have warmed.
    """
    from repro.fpga import emulate

    seed = check_int("param 'seed'", params.get("seed", 2))
    grid = check_int("param 'grid'", params.get("grid", 6), 2, 64)
    fabric_kind = params.get("fabric", "standard")
    if fabric_kind not in ("standard", "cnfet"):
        raise RequestError("param 'fabric' must be 'standard' or 'cnfet'")
    partitions, standard, cnfet = emulate.table2_problem(seed, grid)
    run = emulate.implement(partitions,
                            cnfet if fabric_kind == "cnfet" else standard,
                            seed)
    encoded = codecs.encode_place_route(run.placement, run.routing)
    return {"place_route": encoded,
            "summary": {"blocks": run.netlist.n_blocks(),
                        "nets": len(encoded["routing"]["routed"]),
                        "wirelength": run.total_wirelength,
                        "overflow": run.overflow_segments}}


def op_yield_run(params: Dict[str, Any]) -> Dict[str, Any]:
    """Monte Carlo yield: YieldSettings fields -> encoded YieldReport."""
    from repro.robustness.yield_engine import YieldSettings, estimate_yield

    settings_raw = _require(params, "settings", dict)
    try:
        settings = YieldSettings(**settings_raw)
    except TypeError as exc:
        raise RequestError(f"bad yield settings: {exc}")
    if settings.samples > 1_000_000:
        raise RequestError("param 'samples' must be in 1..1000000")
    # estimate_yield already routes through the coalescing service
    # (service.yield_run) — wrapping it again would deadlock on the
    # same cache key.
    return {"report": codecs.encode_yield_report(estimate_yield(settings))}


def op_workload(params: Dict[str, Any]) -> Dict[str, Any]:
    """Workload registry access: build, evaluate, or curve one cell.

    ``{spec, action?}`` where ``action`` is one of:

    * ``"build"`` (default) — compile the cell and return its raw and
      minimized cover encodings plus the model digest;
    * ``"eval"`` — additionally check the compiled cover against the
      workload's oracle on an LFSR stream (``words``/``seed`` params)
      through :func:`repro.workloads.oracle_check` and report the
      mismatch count;
    * ``"curve"`` — run the accuracy/defect curve driver
      (:func:`repro.workloads.curves.run_curve`) with
      :class:`~repro.workloads.curves.CurveSettings` overrides passed
      under ``curve``; returns the store-served report.
    """
    from repro import workloads

    spec = _require(params, "spec", str)
    action = params.get("action", "build")
    if action not in ("build", "eval", "curve"):
        raise RequestError("param 'action' must be build/eval/curve")
    if action == "curve":
        from repro.workloads.curves import CurveSettings, run_curve
        overrides = params.get("curve", {})
        if not isinstance(overrides, dict):
            raise RequestError("param 'curve' must be an object")
        try:
            settings = CurveSettings(spec=spec, **overrides)
        except TypeError as exc:
            raise RequestError(f"bad curve settings: {exc}")
        return {"report": run_curve(settings)}
    raw = workloads.raw_function(spec)
    compiled = workloads.workload_function(spec)
    result = {
        "spec": workloads.strip_prefix(spec),
        "model_digest": workloads.model_digest(spec),
        "function": {"name": compiled.name, "inputs": compiled.n_inputs,
                     "outputs": compiled.n_outputs,
                     "raw_products": raw.on_set.n_cubes(),
                     "products": compiled.on_set.n_cubes()},
        "cover": codecs.encode_cover(compiled.on_set),
    }
    if action == "eval":
        # serve's cap on the stream one request may ask for
        words = check_int("param 'words'", params.get("words", 64), 1,
                          1 << 16)
        result["eval"] = workloads.oracle_check(spec, words,
                                                params.get("seed", 0))
    return result


#: Endpoint registry: everything the worker bridge can dispatch.
OPS = {
    "minimize": op_minimize,
    "evaluate_flush": op_evaluate_flush,
    "evaluate_batch": op_evaluate_batch,
    "place_route": op_place_route,
    "yield_run": op_yield_run,
    "workload": op_workload,
}


def dispatch(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one endpoint (top-level, picklable).

    Every op accepts an optional ``tech`` param (registry name or
    descriptor-file path): the handler runs under
    :func:`repro.tech.use`, so model constants *and* artifact keys
    resolve for that technology.  A :class:`ReproInputError` raised
    anywhere below an op (bad settings, unknown spec or technology)
    becomes a :exc:`RequestError`, that is a ``bad_request`` reply.
    """
    handler = OPS.get(op)
    if handler is None:
        raise RequestError(f"no worker op {op!r}")
    tech_spec = params.get("tech")
    try:
        if tech_spec is None:
            return handler(params)
        if not isinstance(tech_spec, str):
            raise RequestError("param 'tech' must be a string (registry "
                               "name or descriptor path)")
        from repro import tech as tech_mod
        with tech_mod.use(tech_spec):
            return handler({k: v for k, v in params.items() if k != "tech"})
    except ReproInputError as exc:
        raise RequestError(str(exc))


def dispatch_checked(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """:func:`dispatch` wrapped in a result-integrity envelope.

    Returns ``{"result": ..., "digest": sha256(canonical(result))}``.
    The digest is computed *before* the ``worker.result`` failpoint
    gets a chance to poison the result in transit, so the bridge can
    detect a silently-corrupted reply and retry instead of serving
    wrong bytes.  Only used when faults are armed (or
    ``REPRO_SERVE_VERIFY=1``) — the envelope costs one canonical
    serialization per request.
    """
    from repro import faults
    from repro.store.keys import digest_of

    result = dispatch(op, params)
    digest = digest_of(result)
    rule = faults.check("worker.result")
    if rule is not None:  # "poison": corrupt after the digest is taken
        result = {"poisoned": True, "op": op}
    return {"result": result, "digest": digest}


__all__ = ["OPS", "RequestError", "dispatch",
           "dispatch_checked", "op_evaluate_batch", "op_evaluate_flush",
           "op_minimize", "op_place_route", "op_workload", "op_yield_run"]
