"""Service configuration: one frozen record, every knob validated.

Every ``REPRO_SERVICE_*`` environment variable is parsed through the
:mod:`repro.resilience.config` helpers, so a typo like
``REPRO_SERVICE_PORT=http`` fails at startup with an error naming the
variable, and extreme-but-parseable values clamp into documented
operational ranges instead of wedging the daemon.

Knobs
-----
``REPRO_SERVICE_TOKEN``
    Bearer token every HTTP route requires.  Unset runs the service
    *open* (no auth) — fine on a loopback dev box, announced loudly at
    startup so a production deployment cannot miss it.
``REPRO_SERVICE_HOST`` / ``REPRO_SERVICE_PORT``
    Bind address; port ``0`` asks the OS for a free port.
``REPRO_SERVICE_POLL_INTERVAL``
    Fallback poll cadence in seconds (clamped to [0.01, 60]): how soon
    idle workers and open progress streams notice what no local event
    announces — submissions, leases, lease refreshes and results of
    *other* replicas sharing the archive directory, stale leases,
    expired retry back-offs.  A replica's own submissions wake its
    workers, and its own workers push their progress to its streams,
    at once.
``REPRO_SERVICE_LEASE_TTL``
    Seconds without a heartbeat before another replica may break a
    lease and adopt the study (clamped to [1, 86400]).  It also sets
    the refresh cadence: a running study's lease is rewritten once a
    quarter of the TTL has passed since the last write, which is also
    how often other replicas see that study's progress move.
``REPRO_SERVICE_RETRIES`` / ``REPRO_SERVICE_BACKOFF``
    Requeue-on-failure budget: attempts beyond the first, and the base
    delay of the :class:`~repro.resilience.RetryPolicy` schedule.
``REPRO_SERVICE_CHECKPOINT_EVERY``
    ``checkpoint_every`` handed to :func:`~repro.study.run_study` for
    every leased study (default 1: flush each completed round, so a
    SIGKILLed daemon resumes with zero recompute; 0 disables).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.resilience import env_float, env_int, validate_float, validate_int

__all__ = ["ServiceConfig", "service_token"]


def service_token() -> str | None:
    """The configured bearer token, or ``None`` (open mode)."""
    raw = os.environ.get("REPRO_SERVICE_TOKEN")
    token = raw.strip() if raw else ""
    return token or None


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.app.ReproService` needs.

    ``archive_dir`` is the shared backend: the study archive, the
    queue directory and every lease file live under it — pointing N
    API replicas at one ``archive_dir`` *is* the multi-instance
    deployment.
    """

    archive_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    token: str | None = None
    poll_interval: float = 0.2
    lease_ttl: float = 30.0
    retries: int = 3
    backoff: float = 0.5
    checkpoint_every: int = 1

    def __post_init__(self):
        if not self.archive_dir:
            raise ValueError("ServiceConfig needs an archive_dir (the "
                             "shared study archive + queue directory)")
        object.__setattr__(self, "port", validate_int(
            self.port, name="REPRO_SERVICE_PORT", lo=0, hi=65535))
        object.__setattr__(self, "poll_interval", validate_float(
            self.poll_interval, name="REPRO_SERVICE_POLL_INTERVAL",
            lo=0.01, hi=60.0))
        object.__setattr__(self, "lease_ttl", validate_float(
            self.lease_ttl, name="REPRO_SERVICE_LEASE_TTL",
            lo=1.0, hi=86400.0))
        object.__setattr__(self, "retries", validate_int(
            self.retries, name="REPRO_SERVICE_RETRIES", lo=0, hi=100))
        object.__setattr__(self, "backoff", validate_float(
            self.backoff, name="REPRO_SERVICE_BACKOFF", lo=0.0, hi=300.0))
        object.__setattr__(self, "checkpoint_every", validate_int(
            self.checkpoint_every, name="REPRO_SERVICE_CHECKPOINT_EVERY",
            lo=0, hi=100000))

    @classmethod
    def from_env(cls, archive_dir: str, **overrides) -> "ServiceConfig":
        """Build a config from the environment, ``overrides`` winning.

        An override passed as ``None`` defers to the environment (the
        CLI hands every unset flag through as ``None``).
        """
        values = {
            "host": os.environ.get("REPRO_SERVICE_HOST", "").strip()
            or "127.0.0.1",
            "port": env_int("REPRO_SERVICE_PORT", 0, lo=0, hi=65535),
            "token": service_token(),
            "poll_interval": env_float("REPRO_SERVICE_POLL_INTERVAL", 0.2,
                                       lo=0.01, hi=60.0),
            "lease_ttl": env_float("REPRO_SERVICE_LEASE_TTL", 30.0,
                                   lo=1.0, hi=86400.0),
            "retries": env_int("REPRO_SERVICE_RETRIES", 3, lo=0, hi=100),
            "backoff": env_float("REPRO_SERVICE_BACKOFF", 0.5,
                                 lo=0.0, hi=300.0),
            "checkpoint_every": env_int("REPRO_SERVICE_CHECKPOINT_EVERY", 1,
                                        lo=0, hi=100000),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(archive_dir=archive_dir, **values)
