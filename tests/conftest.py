"""Shared fixtures: small, fast datasets and analytic payoff curves."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.game import PayoffCurves, PoisoningGame
from repro.data.synthetic import make_gaussian_blobs
from repro.experiments.runner import make_synthetic_context


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: spawns a real subprocess; seconds, not milliseconds")


@pytest.fixture()
def counters():
    """Read the telemetry registry's counters as increments.

    ``counters()`` returns the counter increments since its previous
    call (or since the fixture was set up), so a test reads one
    batch's counts; counters that did not move are absent.
    """
    last = telemetry.snapshot()

    def read() -> dict:
        nonlocal last
        now = telemetry.snapshot()
        counts = telemetry.diff_snapshots(last, now)["counters"]
        last = now
        return counts

    return read


@pytest.fixture(scope="session")
def blobs():
    """A small separable binary dataset (X, y with labels {0, 1})."""
    return make_gaussian_blobs(n_samples=240, n_features=4, separation=5.0, seed=42)


@pytest.fixture(scope="session")
def blobs_hard():
    """A harder (overlapping) dataset for metric/robustness tests."""
    return make_gaussian_blobs(n_samples=240, n_features=4, separation=1.0, seed=43)


@pytest.fixture(scope="session")
def analytic_curves():
    """Smooth analytic curves with the model's required shapes.

    ``E`` decays exponentially from 0.002 (positive everywhere on the
    domain), ``Γ`` grows quadratically from 0 — the qualitative shapes
    of the paper's Figure 1.
    """
    return PayoffCurves(
        E=lambda p: 0.002 * np.exp(-8.0 * p),
        gamma=lambda p: 0.08 * p**2,
        p_max=0.5,
    )


@pytest.fixture(scope="session")
def analytic_game(analytic_curves):
    """The poisoning game on the analytic curves with N=100."""
    return PoisoningGame(curves=analytic_curves, n_poison=100)


@pytest.fixture(scope="session")
def crossing_curves():
    """Curves where E crosses zero inside the domain (finite Ta)."""
    return PayoffCurves(
        E=lambda p: 0.003 * (0.25 - p),  # positive below p=0.25
        gamma=lambda p: 0.05 * p,
        p_max=0.5,
    )


@pytest.fixture(scope="session")
def tiny_context():
    """A fast synthetic experiment context shared across tests."""
    return make_synthetic_context(seed=0, n_samples=300, n_features=4,
                                  separation=2.5)
