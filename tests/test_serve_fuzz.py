"""Fuzz the serve ops: bad params get ``RequestError``, never a crash.

Every public worker op is called through :func:`repro.serve.ops.dispatch`
with params drawn from wrong types, out-of-range numbers and unknown
names, mixed with cheap valid values.  Each call must return a result or
raise :class:`RequestError` (a ``bad_request`` reply); any other
exception would reach a client as ``internal``.  Valid draws are kept
small (samples <= 20, grid <= 4, words <= 4, a few curve samples and
stream words) so the whole test stays within seconds.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.function import BooleanFunction
from repro.serve.ops import RequestError, dispatch
from repro.store import codecs

#: Values of every wrong type a JSON client can send.
JUNK = st.one_of(st.text(max_size=4), st.none(), st.booleans(),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.lists(st.integers(-3, 3), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(-3, 3),
                                 max_size=2))

COVERS = [codecs.encode_cover(BooleanFunction.random(3, 2, 3, seed=s).on_set)
          for s in range(2)]


@st.composite
def params(draw, valid, invalid=None, required=()):
    """A valid param dict (the ``required`` keys, which bound the work,
    and a random subset of the others) with up to two values replaced
    by junk or by one of the field's ``invalid`` values, possibly under
    an unknown key."""
    out = {name: draw(strategy) for name, strategy in valid.items()
           if name in required or draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(valid) + ["unknown"]))
        out[name] = draw(st.one_of(JUNK, *(invalid or {}).get(name, ())))
    return out


SMALL_INT = st.integers(0, 3)
TECH = st.just("cnfet")
BAD_TECH = {"tech": (st.just("nope"),)}

YIELD_SETTINGS = params({
    "benchmark": st.sampled_from(["syn_small", "workload:add2"]),
    "samples": st.integers(1, 20),
    "seed": SMALL_INT,
    "p_stuck_off": st.floats(0.0, 0.01),
    "p_stuck_on": st.floats(0.0, 0.01),
    "p_pg_leak": st.floats(0.0, 0.01),
    "spare_rows": st.integers(0, 2),
    "spare_cols": st.integers(0, 2),
    "correlated": st.booleans(),
    "reminimize": st.booleans(),
    "tech": TECH,
}, {
    "benchmark": (st.sampled_from(["nope", "workload:zork", "add2"]),),
    "samples": (st.integers(-3, 0), st.integers(1_000_001, 10**12)),
    "p_stuck_off": (st.floats(1.001, 10.0), st.floats(-1.0, -1e-9)),
    "p_stuck_on": (st.floats(-1.0, -1e-9),),
    "p_pg_leak": (st.floats(1.001, 10.0),),
    "spare_rows": (st.integers(-3, -1),),
    "spare_cols": (st.integers(-3, -1),),
    **BAD_TECH,
}, required=("benchmark", "samples"))

CURVE = params({
    "techs": st.just(["cnfet"]),
    "rates": st.lists(st.floats(0.0, 0.01), min_size=1, max_size=2),
    "samples": st.integers(1, 3),
    "stream_words": st.integers(1, 4),
    "stuck_on_ratio": st.floats(0.0, 1.0),
    "seed": SMALL_INT,
    "spare_rows": st.integers(0, 2),
}, {
    "techs": (st.just(["nope"]), st.just([]), st.lists(JUNK, max_size=2)),
    "rates": (st.just([1.5]), st.just([]),
              st.lists(JUNK, min_size=1, max_size=2)),
    "samples": (st.integers(-2, 0),),
    "stream_words": (st.integers(-2, 0),),
    "stuck_on_ratio": (st.floats(1.1, 3.0),),
    "spare_rows": (st.integers(-2, -1),),
}, required=("rates", "samples", "stream_words"))

REQUESTS = st.one_of(
    st.tuples(st.just("minimize"), params({
        "cover": st.sampled_from(COVERS),
        "dc": st.sampled_from(COVERS),
        "phase": st.booleans(),
        "tech": TECH}, BAD_TECH, required=("cover",))),
    st.tuples(st.just("evaluate_batch"), params({
        "covers": st.lists(st.sampled_from(COVERS), max_size=2),
        "minterms": st.lists(st.integers(0, 7), min_size=1, max_size=3),
        "tech": TECH}, {
        "covers": (st.lists(JUNK, min_size=1, max_size=2),),
        "minterms": (st.lists(st.integers(-5, -1), min_size=1, max_size=2),
                     st.lists(st.integers(2**64, 2**70), min_size=1,
                              max_size=2)),
        **BAD_TECH}, required=("covers", "minterms"))),
    st.tuples(st.just("place_route"), params({
        "seed": st.sampled_from([1, 2]),
        "grid": st.integers(2, 4),
        "fabric": st.sampled_from(["standard", "cnfet"]),
        "tech": TECH}, {
        "grid": (st.integers(-3, 1), st.integers(65, 10**6)),
        "fabric": (st.just("nope"),),
        **BAD_TECH})),
    st.tuples(st.just("yield_run"), params(
        {"settings": YIELD_SETTINGS, "tech": TECH}, BAD_TECH,
        required=("settings",))),
    st.tuples(st.just("workload"), params({
        "spec": st.sampled_from(["add2", "workload:pop2", "cmp2"]),
        "action": st.sampled_from(["build", "eval", "curve"]),
        "words": st.integers(1, 4),
        "seed": SMALL_INT,
        "curve": CURVE,
        "tech": TECH}, {
        "spec": (st.sampled_from(["zork", "add99"]),),
        "action": (st.just("frob"),),
        "words": (st.integers(-3, 0), st.integers(65537, 10**9)),
        **BAD_TECH}, required=("spec", "curve"))),
    st.tuples(st.sampled_from(["nope", "evaluate", "ping"]),
              params({"tech": TECH}, BAD_TECH)),
)


@settings(max_examples=300, deadline=None)
@given(REQUESTS)
@example(("place_route", {"seed": "abc"}))
@example(("yield_run", {"settings": {"benchmark": "nope", "samples": 10}}))
def test_dispatch_returns_or_raises_request_error(request):
    op, request_params = request
    try:
        dispatch(op, request_params)
    except RequestError:
        pass
