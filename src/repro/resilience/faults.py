"""Seeded, deterministic fault injection for the cluster service.

A :class:`FaultPlan` arms named injection points threaded through the
cluster's transport layers.  The plan is parsed from a compact spec
string (``REPRO_FAULTS`` in the environment, ``--faults`` on the CLI)::

    connect:fail_prob=0.3;chunk_reply:delay_ms=500;shard:crash_after_rounds=40

Grammar: ``;``-separated rules, each ``point:knob=value[,knob=value]``;
a bare ``seed=N`` token sets the plan seed (default 0).  Injection
points and the knobs they honour:

=============== ================================ =========================
point           fires                            knobs
=============== ================================ =========================
``connect``     client, before a shard socket    ``fail_prob``,
                connect                          ``fail_first``,
                                                 ``delay_ms``
``handshake``   client, before sending hello     ``fail_prob``,
                                                 ``fail_first``,
                                                 ``delay_ms``
``chunk_send``  client, before pushing a chunk   ``fail_prob``,
                                                 ``fail_first``,
                                                 ``delay_ms``
``chunk_reply`` shard, before sending a result   ``delay_ms``,
                (a drop closes the connection    ``drop_prob``,
                without replying)                ``drop_first``
``shard``       shard, as each computed round    ``crash_after_rounds``
                lands (``os._exit`` mid-chunk,
                the shard's only crash hook)
=============== ================================ =========================

Every decision is **deterministic**: the n-th firing of a point fails
iff ``n < fail_first`` or a uniform value derived from SHA-256 of
``(plan seed, point, n)`` falls below ``fail_prob``.  Two runs with the
same plan observe the same fault sequence, which is what makes a chaos
test a regression test instead of a dice roll.

Injected failures raise :class:`InjectedFault`, a
:class:`ConnectionError` subclass — they travel the exact error paths
a real peer death travels, so the retry/rejoin/degradation machinery
under test is the production machinery, not a parallel code path.

Zero overhead when off: the process-wide plan defaults to ``None``
(``REPRO_FAULTS`` unset) and :func:`fire` is then a single global read
and ``None`` check.  No injection point sits inside the round kernel's
compute loops.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field

from repro.resilience.config import validate_float, validate_int

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "crash_threshold",
    "fire",
    "install",
    "parse_fault_plan",
]

# point -> knobs it honours (parse-time validation: arming a knob the
# point never consults would silently test nothing).
FAULT_POINTS: dict[str, tuple[str, ...]] = {
    "connect": ("fail_prob", "fail_first", "delay_ms"),
    "handshake": ("fail_prob", "fail_first", "delay_ms"),
    "chunk_send": ("fail_prob", "fail_first", "delay_ms"),
    "chunk_reply": ("delay_ms", "drop_prob", "drop_first"),
    "shard": ("crash_after_rounds",),
}


class InjectedFault(ConnectionError):
    """A deterministic injected transport failure (see module docs)."""


@dataclass
class FaultRule:
    """The armed knobs of one injection point."""

    point: str
    fail_prob: float = 0.0
    fail_first: int = 0
    delay_ms: float = 0.0
    drop_prob: float = 0.0
    drop_first: int = 0
    crash_after_rounds: int | None = None

    def describe(self) -> str:
        knobs = []
        for name in FAULT_POINTS[self.point]:
            value = getattr(self, name)
            if value not in (0, 0.0, None):
                knobs.append(f"{name}={value:g}" if isinstance(value, float)
                             else f"{name}={value}")
        return f"{self.point}:{','.join(knobs)}"


def _unit(seed: int, point: str, tag: str, n: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for the n-th decision."""
    digest = hashlib.sha256(
        f"{seed}:{point}:{tag}:{n}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A set of armed :class:`FaultRule`\\ s plus per-point firing state.

    Thread-safe: injection points fire from shard worker threads and
    server connection threads concurrently; each point's firing counter
    advances under a lock so the deterministic decision sequence is
    well-defined per process (the *interleaving* across points is up to
    the scheduler, as in any real failure).
    """

    def __init__(self, rules: dict[str, FaultRule], *, seed: int = 0,
                 spec: str = ""):
        self.rules = dict(rules)
        self.seed = int(seed)
        self.spec = spec
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def describe(self) -> str:
        parts = [rule.describe() for _, rule in sorted(self.rules.items())]
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def _next(self, point: str) -> int:
        with self._lock:
            n = self._counts.get(point, 0)
            self._counts[point] = n + 1
            return n

    def fire(self, point: str, *, key: str = "") -> bool:
        """Apply the armed faults for ``point`` (see module table).

        Sleeps ``delay_ms``; raises :class:`InjectedFault` on an
        injected failure; returns ``True`` when the caller should
        *drop* its reply (close the connection without answering).
        ``key`` names the interaction (shard address, chunk id) in the
        fault's error message.
        """
        rule = self.rules.get(point)
        if rule is None:
            return False
        n = self._next(point)
        if rule.delay_ms > 0.0:
            time.sleep(rule.delay_ms / 1000.0)
        if n < rule.fail_first or (
                rule.fail_prob > 0.0 and
                _unit(self.seed, point, "fail", n) < rule.fail_prob):
            raise InjectedFault(
                f"injected fault at {point!r} (firing {n}"
                f"{', ' + key if key else ''})")
        if n < rule.drop_first or (
                rule.drop_prob > 0.0 and
                _unit(self.seed, point, "drop", n) < rule.drop_prob):
            return True
        return False

    def crash_threshold(self, point: str = "shard") -> int | None:
        """The armed ``crash_after_rounds`` for ``point``, if any."""
        rule = self.rules.get(point)
        return None if rule is None else rule.crash_after_rounds


def parse_fault_plan(spec: str | None) -> FaultPlan | None:
    """Parse a fault spec string; ``None``/empty means no faults.

    Raises :class:`ValueError` with the offending token for unknown
    points, knobs a point does not honour, and out-of-range values
    (probabilities outside ``[0, 1]``, negative delays/counts).
    """
    if spec is None or not spec.strip():
        return None
    rules: dict[str, FaultRule] = {}
    seed = 0
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            name, sep, value = token.partition("=")
            if sep and name.strip() == "seed":
                seed = validate_int(value.strip(), name="fault plan seed")
                continue
            raise ValueError(
                f"bad fault rule {token!r}: expected "
                f"'point:knob=value[,knob=value]' or 'seed=N'")
        point, _, body = token.partition(":")
        point = point.strip()
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known points: "
                f"{', '.join(sorted(FAULT_POINTS))}")
        rule = rules.setdefault(point, FaultRule(point=point))
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            knob, sep, value = item.partition("=")
            knob = knob.strip()
            if not sep:
                raise ValueError(
                    f"bad fault knob {item!r} for point {point!r}: "
                    f"expected knob=value")
            if knob not in FAULT_POINTS[point]:
                raise ValueError(
                    f"fault point {point!r} does not honour knob "
                    f"{knob!r}; it honours: "
                    f"{', '.join(FAULT_POINTS[point])}")
            label = f"fault knob {point}:{knob}"
            value = value.strip()
            if knob in ("fail_prob", "drop_prob"):
                prob = validate_float(value, name=label)
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(
                        f"bad {label}={value!r}: probability must be "
                        f"in [0, 1]")
                setattr(rule, knob, prob)
            elif knob == "delay_ms":
                delay = validate_float(value, name=label)
                if delay < 0.0:
                    raise ValueError(
                        f"bad {label}={value!r}: delay must be >= 0")
                rule.delay_ms = delay
            else:  # fail_first, drop_first, crash_after_rounds
                count = validate_int(value, name=label)
                if count < 0:
                    raise ValueError(
                        f"bad {label}={value!r}: count must be >= 0")
                setattr(rule, knob, count)
    if not rules:
        return None
    return FaultPlan(rules, seed=seed, spec=spec)


# -- the process-wide armed plan --------------------------------------------

# Parsed once at import: shard subprocesses inherit REPRO_FAULTS through
# their environment and arm themselves here.  A malformed value fails
# loudly at import, which is exactly "validated at parse time".
_PLAN: FaultPlan | None = parse_fault_plan(os.environ.get("REPRO_FAULTS"))


def active_plan() -> FaultPlan | None:
    """The currently armed plan (``None`` when no faults are armed)."""
    return _PLAN


def install(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Arm ``plan`` process-wide (a plan, a spec string, or ``None``).

    Returns the armed plan.  ``install(None)`` disarms.  Used by the
    ``--faults`` CLI flags and by tests; ``REPRO_FAULTS`` arms the
    import-time default (which is how spawned shard subprocesses pick
    a plan up).
    """
    global _PLAN
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    _PLAN = plan
    return _PLAN


def fire(point: str, *, key: str = "") -> bool:
    """Fire ``point`` on the armed plan; no-op when no plan is armed."""
    plan = _PLAN
    if plan is None:
        return False
    return plan.fire(point, key=key)


def crash_threshold(point: str = "shard") -> int | None:
    """Armed ``crash_after_rounds`` of the process-wide plan, if any."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.crash_threshold(point)
