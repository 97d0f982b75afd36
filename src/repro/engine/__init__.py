"""Parallel, cached evaluation engine.

The layer between the core game model and the experiment drivers:
experiments *declare* their rounds as :class:`RoundSpec` batches; the
:class:`EvaluationEngine` decides how they run (serial loop or process
pool today, sharded/async backends tomorrow) and which of them need
running at all (content-keyed :class:`ResultCache`).

See ``ARCHITECTURE.md`` at the repository root for how this layer fits
the overall system and how to add a backend.
"""

from repro.engine.spec import (
    AttackSpec,
    DefenseSpec,
    VictimSpec,
    RoundSpec,
    register_attack_builder,
    registered_attack_kinds,
    materialize_attack,
    register_defense_builder,
    registered_defense_kinds,
    materialize_defense,
    registered_victim_kinds,
    materialize_victim,
    parse_spec_string,
    parse_attack_spec,
    parse_defense_spec,
    parse_victim_spec,
)
from repro.engine.cache import (
    ResultCache,
    round_key,
    round_keys,
    cache_schema_version,
    read_manifest,
    write_manifest,
    prune_cache_dir,
)
from repro.engine.backends import (
    EvaluationBackend,
    SerialBackend,
    ProcessPoolBackend,
    execute_round,
    execute_rounds,
    register_backend,
    make_backend,
    available_backends,
)
from repro.engine.core import (
    EvaluationEngine,
    default_engine,
    set_default_engine,
    engine_from_env,
    resolve_engine,
)

__all__ = [
    "AttackSpec",
    "DefenseSpec",
    "VictimSpec",
    "RoundSpec",
    "register_attack_builder",
    "registered_attack_kinds",
    "materialize_attack",
    "register_defense_builder",
    "registered_defense_kinds",
    "materialize_defense",
    "registered_victim_kinds",
    "materialize_victim",
    "parse_spec_string",
    "parse_attack_spec",
    "parse_defense_spec",
    "parse_victim_spec",
    "ResultCache",
    "round_key",
    "round_keys",
    "cache_schema_version",
    "read_manifest",
    "write_manifest",
    "prune_cache_dir",
    "EvaluationBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "execute_round",
    "execute_rounds",
    "register_backend",
    "make_backend",
    "available_backends",
    "EvaluationEngine",
    "default_engine",
    "set_default_engine",
    "engine_from_env",
    "resolve_engine",
]
