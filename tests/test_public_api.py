"""Public API surface tests.

Every name exported through ``__all__`` must be importable and real —
these tests catch dangling exports whenever modules are refactored.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.gametheory",
    "repro.ml",
    "repro.data",
    "repro.attacks",
    "repro.defenses",
    "repro.engine",
    "repro.experiments",
    "repro.utils",
    "repro.study",
    "repro.cluster",
    "repro.service",
    "repro.telemetry",
    "repro.resilience",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ exports missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 40


def test_top_level_version():
    import repro

    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_public_classes_have_docstrings():
    """Every exported class/function carries a docstring."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__doc__, f"{package}.{name} lacks a docstring"
