"""Deterministic fault-injection failpoints (the chaos substrate).

The paper's premise is computing on an unreliable substrate; the
serving stack built on top of it (store → runner → serve) claims to
survive crashes, torn writes, timeouts and overload.  This module
turns that claim into something a harness can *exercise on demand*:
named failpoints compiled into the hot paths, armed by a compact,
seeded, content-addressable spec — the same discipline the LFSR vector
streams apply to load generation, applied to failure schedules.

Spec grammar (``REPRO_FAULTS``)::

    spec  = rule (";" rule)*
    rule  = site ":" kind "@" arm ("," key "=" number)*
    arm   = probability        e.g.  store.disk_write:io_error@0.05
          | "after=" N         e.g.  worker.task:crash@after=3
          | "every=" N         e.g.  serve.conn:reset@every=40

* a bare probability arms a per-check Bernoulli draw from the site's
  own seeded RNG;
* ``after=N`` fires exactly once, on check ``N+1`` of that site;
* ``every=N`` fires on every Nth check;
* trailing ``key=value`` pairs parameterize the fault (``ms=50`` for
  hang/stall/delay durations).

Determinism: every site draws from its own ``random.Random`` seeded by
``sha256(seed, site)`` and keeps its own check counter, so a given
(spec, seed) produces the same injection sequence per site per process
— worker processes inherit the spec through the environment and replay
their own deterministic sequences.  :meth:`FaultPlan.key` is the
SHA-256 of the canonical spec plus seed, so a chaos run is
content-addressed exactly like an LFSR stream spec.

The registry is *zero-cost when disarmed*: :func:`check` returns
``None`` after one environment lookup when no spec is set, and sites
compile to a single function call.  Counters ride :mod:`repro.perf`:
``faults.checked.<site>`` and ``faults.injected.<site>.<kind>``.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro.errors import ReproInputError

#: Environment variable carrying the failpoint spec (empty = disarmed).
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable seeding the per-site RNGs (default 0).
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Exit code of an injected worker/publisher crash (visible in
#: BrokenProcessPool diagnostics; distinct from real segfaults).
CRASH_EXIT_CODE = 23

#: Registered injection sites and the fault kinds each supports.  A
#: spec naming anything else is rejected up front — a typo must not
#: silently disarm a chaos run.
SITES: Dict[str, Tuple[str, ...]] = {
    # content-addressed store, disk tier
    "store.disk_write": ("io_error", "torn"),
    "store.fsync": ("io_error",),
    "store.disk_read": ("corrupt", "io_error"),
    "store.lock": ("stall",),
    "store.publish": ("crash", "hang"),
    # warm worker pool
    "worker.task": ("crash", "hang"),
    "worker.result": ("poison",),
    # serving layer
    "serve.conn": ("reset",),
    "serve.flush": ("delay",),
    "serve.overload": ("force",),
}

#: Default durations (milliseconds) for time-shaped faults, overridable
#: per rule with ``,ms=...``.
DEFAULT_MS = {"hang": 30_000.0, "stall": 50.0, "delay": 2.0}


@dataclass(frozen=True)
class FaultRule:
    """One armed failpoint: where, what, and when it fires."""

    site: str
    kind: str
    prob: Optional[float] = None
    after: Optional[int] = None
    every: Optional[int] = None
    params: Tuple[Tuple[str, float], ...] = ()

    def param(self, name: str, default: float) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def delay_s(self) -> float:
        """The rule's duration in seconds (hang/stall/delay kinds)."""
        return self.param("ms", DEFAULT_MS.get(self.kind, 0.0)) / 1e3

    def render(self) -> str:
        """The rule back in canonical spec form."""
        if self.after is not None:
            arm = f"after={self.after}"
        elif self.every is not None:
            arm = f"every={self.every}"
        else:
            arm = repr(self.prob)
        extras = "".join(f",{k}={v:g}" for k, v in self.params)
        return f"{self.site}:{self.kind}@{arm}{extras}"


def _parse_rule(text: str) -> FaultRule:
    head, sep, arm_text = text.partition("@")
    if not sep:
        raise ReproInputError(f"fault rule {text!r} lacks '@arm'")
    site, sep, kind = head.partition(":")
    site, kind = site.strip(), kind.strip()
    if not sep or not site or not kind:
        raise ReproInputError(f"fault rule {text!r} is not 'site:kind@arm'")
    if site not in SITES:
        known = ", ".join(sorted(SITES))
        raise ReproInputError(f"unknown fault site {site!r} (known: {known})")
    if kind not in SITES[site]:
        raise ReproInputError(
            f"site {site!r} does not support kind {kind!r} "
            f"(supported: {', '.join(SITES[site])})")
    pieces = [p.strip() for p in arm_text.split(",") if p.strip()]
    if not pieces:
        raise ReproInputError(f"fault rule {text!r} has an empty arm")
    arm, extras = pieces[0], pieces[1:]
    prob = after = every = None
    if arm.startswith("after="):
        after = _parse_count(arm[len("after="):], text)
    elif arm.startswith("every="):
        every = _parse_count(arm[len("every="):], text)
        if every < 1:
            raise ReproInputError(f"fault rule {text!r}: every=N needs N >= 1")
    else:
        try:
            prob = float(arm)
        except ValueError:
            raise ReproInputError(f"fault rule {text!r}: arm {arm!r} is not "
                                  f"a probability, after=N or every=N")
        if not 0.0 < prob <= 1.0:
            raise ReproInputError(f"fault rule {text!r}: probability "
                                  f"{prob!r} outside (0, 1]")
    params = []
    for extra in extras:
        key, sep, value = extra.partition("=")
        if not sep:
            raise ReproInputError(f"fault rule {text!r}: parameter "
                                  f"{extra!r} is not key=value")
        try:
            params.append((key.strip(), float(value)))
        except ValueError:
            raise ReproInputError(f"fault rule {text!r}: parameter value "
                                  f"{value!r} is not a number")
    return FaultRule(site=site, kind=kind, prob=prob, after=after,
                     every=every, params=tuple(params))


def _parse_count(raw: str, rule: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ReproInputError(f"fault rule {rule!r}: count {raw!r} is not "
                              f"an integer")
    if value < 0:
        raise ReproInputError(f"fault rule {rule!r}: count must be >= 0")
    return value


def parse_spec(spec: str) -> List[FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec string into rules (may be empty)."""
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if chunk:
            rules.append(_parse_rule(chunk))
    return rules


class FaultPlan:
    """A compiled, seeded fault schedule with live per-site state.

    Thread-safe: serving checks sites from the event-loop thread and
    from store calls on arbitrary threads.
    """

    def __init__(self, rules: List[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = int(seed)
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._calls: Dict[str, int] = {}
        self._fired: set = set()
        self._rng: Dict[str, random.Random] = {}
        self._lock = threading.Lock()

    def spec(self) -> str:
        """The canonical spec string (round-trips through the parser)."""
        return ";".join(rule.render() for rule in self.rules)

    def key(self) -> str:
        """Content address of (spec, seed) — names one chaos schedule."""
        material = f"{self.seed}|{self.spec()}".encode("utf-8")
        return hashlib.sha256(material).hexdigest()

    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def _site_rng(self, site: str) -> random.Random:
        rng = self._rng.get(site)
        if rng is None:
            # worker.* sites run inside worker processes and are salted
            # by PID: a replacement worker must not deterministically
            # replay its predecessor's crash draw, or a probabilistic
            # crash fault that fires on a worker's first check becomes
            # unrecoverable no matter how often the pool recycles.
            # Parent-process sites stay fully (seed, spec)-determined.
            salt = f"|{os.getpid()}" if site.startswith("worker.") else ""
            digest = hashlib.sha256(
                f"{self.seed}|{site}{salt}".encode("utf-8")).digest()
            rng = self._rng[site] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return rng

    def check(self, site: str) -> Optional[FaultRule]:
        """One pass over ``site``'s failpoint; the firing rule or None."""
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            calls = self._calls.get(site, 0) + 1
            self._calls[site] = calls
            perf.count(f"faults.checked.{site}")
            for index, rule in enumerate(rules):
                if rule.after is not None:
                    token = (site, index)
                    if calls == rule.after + 1 and token not in self._fired:
                        self._fired.add(token)
                        return self._hit(rule)
                elif rule.every is not None:
                    if calls % rule.every == 0:
                        return self._hit(rule)
                elif self._site_rng(site).random() < rule.prob:
                    return self._hit(rule)
        return None

    def _hit(self, rule: FaultRule) -> FaultRule:
        perf.count(f"faults.injected.{rule.site}.{rule.kind}")
        perf.count("faults.injected")
        return rule


# ----------------------------------------------------------------------
# process-global plan (explicit configure() wins over the environment)
# ----------------------------------------------------------------------
_configured: Optional[FaultPlan] = None
_env_cache: Tuple[str, str, Optional[FaultPlan]] = ("", "", None)
_state_lock = threading.Lock()


def configure(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """Arm (or, with ``spec=None``/empty, disarm) faults in-process.

    Overrides the environment until cleared.  Worker *processes* do not
    see this — export :data:`FAULTS_ENV` (see :func:`install`) so
    forked workers inherit the schedule.
    """
    global _configured
    with _state_lock:
        _configured = FaultPlan(parse_spec(spec), seed) if spec else None
        return _configured


def install(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """:func:`configure` plus environment export for worker processes."""
    if spec:
        os.environ[FAULTS_ENV] = spec
        os.environ[FAULTS_SEED_ENV] = str(int(seed))
    else:
        os.environ.pop(FAULTS_ENV, None)
        os.environ.pop(FAULTS_SEED_ENV, None)
    return configure(spec, seed)


def current() -> Optional[FaultPlan]:
    """The active plan: explicit :func:`configure` or the environment.

    Environment parsing is cached on the (spec, seed) strings, so the
    fast path of a disarmed process is a single dict lookup and plans
    keep their live counters across calls.
    """
    global _env_cache
    if _configured is not None:
        return _configured
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    seed = os.environ.get(FAULTS_SEED_ENV, "0").strip() or "0"
    cached_spec, cached_seed, plan = _env_cache
    if spec == cached_spec and seed == cached_seed:
        return plan
    with _state_lock:
        try:
            plan = FaultPlan(parse_spec(spec), int(seed))
        except ValueError:
            raise ReproInputError(f"{FAULTS_SEED_ENV}={seed!r} is not an "
                                  f"integer")
        _env_cache = (spec, seed, plan)
    return plan


def active() -> bool:
    """True when any failpoint is armed in this process."""
    return current() is not None


def check(site: str) -> Optional[FaultRule]:
    """The firing rule for one pass over ``site``, or None (fast path)."""
    plan = current()
    if plan is None:
        return None
    return plan.check(site)


def env_mentions(prefix: str) -> bool:
    """Cheap parent-side hint: does the env spec arm ``prefix`` sites?

    Used to decide whether worker submissions need the fault shim
    without parsing anything on the hot path.
    """
    if _configured is not None:
        return any(rule.site.startswith(prefix)
                   for rule in _configured.rules)
    return prefix in os.environ.get(FAULTS_ENV, "")


# ----------------------------------------------------------------------
# site helpers (keep the wired-in failpoints to one line each)
# ----------------------------------------------------------------------
def raise_io_error(site: str, rule: FaultRule) -> None:
    """Raise the injected OSError for an ``io_error`` fault."""
    import errno
    raise OSError(errno.EIO, f"injected fault {rule.kind!r} at {site}")


def crash_or_hang(rule: FaultRule) -> None:
    """Apply a ``crash`` (hard exit, SIGKILL-equivalent timing) or
    ``hang`` (sleep past any sane deadline) fault in-process."""
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(rule.delay_s)


def maybe_fail_worker_task() -> None:
    """The ``worker.task`` failpoint (runs inside worker processes)."""
    rule = check("worker.task")
    if rule is not None:
        crash_or_hang(rule)


__all__ = ["CRASH_EXIT_CODE", "DEFAULT_MS", "FAULTS_ENV", "FAULTS_SEED_ENV",
           "FaultPlan", "FaultRule", "SITES", "active", "check", "configure",
           "crash_or_hang", "current", "env_mentions", "install",
           "maybe_fail_worker_task", "parse_spec", "raise_io_error"]
