"""Fixtures for the telemetry suite.

Telemetry state is a process-wide lazy singleton whose sink directory
comes from the environment, so every test starts and ends from a clean
slate: the variable scrubbed, module state dropped.  Tests that want a
sink call ``telemetry.configure(...)`` themselves (which re-exports the
variable for any subprocesses they spawn).
"""

import os

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Scrub env + module state around every test (configure() writes
    os.environ directly, so monkeypatch alone would not cover it)."""
    saved = os.environ.pop("REPRO_TELEMETRY_DIR", None)
    telemetry.reset()
    yield
    telemetry.reset()
    if saved is None:
        os.environ.pop("REPRO_TELEMETRY_DIR", None)
    else:
        os.environ["REPRO_TELEMETRY_DIR"] = saved
