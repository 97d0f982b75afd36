"""Shared utilities: deterministic RNG handling, validation, JSON I/O.

These helpers are deliberately small and dependency-free so that every
other subpackage can rely on them without import cycles.
"""

from repro.utils.rng import as_generator, spawn_generators, derive_seed
from repro.utils.validation import (
    check_array,
    check_X_y,
    check_fraction,
    check_positive_int,
    check_probability_vector,
    check_sorted_increasing,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "check_array",
    "check_X_y",
    "check_fraction",
    "check_positive_int",
    "check_probability_vector",
    "check_sorted_increasing",
]
