"""Declarative study specifications — whole experiments as data.

PR 3 made a *round* declarative (:class:`~repro.engine.RoundSpec`);
this module lifts the same move one level up: a :class:`StudySpec`
names a whole experiment — which context, which scenario grid over
``DefenseSpec x AttackSpec x VictimSpec x fractions x seeds``, which
solver configuration — *by content*.  Three properties follow:

* **uniformity** — every experiment the repository knows (the Figure-1
  sweep, Table 1, the empirical and cross-family games, multi-seed
  aggregation, raw scenario grids) is one dataclass submitted to one
  entry point, :func:`repro.study.run_study`;
* **serialisability** — specs round-trip through a canonical JSON
  document (``study_to_json`` / ``study_from_json``), so an experiment
  can be archived, diffed, mailed to a service endpoint or replayed a
  year later;
* **addressability** — :meth:`StudySpec.fingerprint` is a stable
  content hash over everything that determines the results (engine
  placement — backend, jobs, cache location — is deliberately
  excluded: results are bit-identical across backends), which is what
  lets ``run_study(..., archive_dir=...)`` skip studies that already
  ran.

Spec strings accepted anywhere a spec object is expected use the
shared grammar of :func:`repro.engine.spec.parse_defense_spec` and
friends, so ``"radius:0.1"`` on a command line, in a study JSON and in
a builder call all mean the same defence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.engine.cache import cache_schema_version
from repro.engine.spec import (VictimSpec, attack_from_obj, attack_to_obj,
                               defense_from_obj, defense_to_obj,
                               params_from_obj, params_to_obj,
                               victim_from_obj, victim_to_obj)
from repro.utils.validation import (check_canonical_params, check_fraction,
                                    check_positive_int)

__all__ = [
    "STUDY_SCHEMA_VERSION",
    "STUDY_KINDS",
    "ContextSpec",
    "ScenarioGrid",
    "EngineConfig",
    "StudySpec",
    "study_to_json",
    "study_from_json",
]

# v1: the first serialised study document.  Bump when the document's
# meaning changes such that old fingerprints would misname new studies.
STUDY_SCHEMA_VERSION = 1

# The registered study kinds; repro.study.runner's dispatch table must
# cover exactly this set (a test enforces it).
STUDY_KINDS = frozenset({
    "figure1", "mixed_eval", "table1", "empirical_game", "cross_game",
    "multi_seed", "grid",
})


@dataclass(frozen=True)
class ContextSpec:
    """Declarative experimental-setting identity.

    Names a context the same way :func:`repro.experiments.runner.
    make_context` builds one: a maker name (``"spambase"`` or
    ``"synthetic"``), the base seed, an optional subsample size and any
    extra maker keyword arguments (canonicalised like spec params).
    """

    name: str = "spambase"
    seed: int = 0
    n_samples: int | None = None
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.seed, int):
            object.__setattr__(self, "seed", int(self.seed))
        if self.n_samples is not None:
            object.__setattr__(self, "n_samples",
                               check_positive_int(int(self.n_samples),
                                                  name="n_samples"))
        object.__setattr__(
            self, "params",
            check_canonical_params(self.params, name="context params"))

    def maker_kwargs(self, *, seed: int | None = None) -> dict:
        """The keyword arguments this spec hands to ``make_context``."""
        kwargs = {str(k): v for k, v in self.params}
        kwargs["seed"] = self.seed if seed is None else int(seed)
        if self.n_samples is not None:
            kwargs["n_samples"] = self.n_samples
        return kwargs

    def materialize(self, *, seed: int | None = None):
        """Build the live :class:`ExperimentContext` this spec names.

        ``seed`` overrides the spec's base seed (multi-seed studies
        derive one context per seed from a single spec).
        """
        from repro.experiments.runner import make_context

        return make_context(self.name, **self.maker_kwargs(seed=seed))

    def canonical(self) -> tuple:
        return (self.name, int(self.seed), self.n_samples, self.params)

    def to_obj(self) -> dict:
        return {"name": self.name, "seed": int(self.seed),
                "n_samples": self.n_samples,
                "params": params_to_obj(self.params)}

    @classmethod
    def from_obj(cls, obj) -> "ContextSpec":
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, str):
            return cls(name=obj)
        return cls(name=obj.get("name", "spambase"),
                   seed=int(obj.get("seed", 0)),
                   n_samples=obj.get("n_samples"),
                   params=params_from_obj(obj.get("params"),
                                          name="context params"))


@dataclass(frozen=True)
class ScenarioGrid:
    """The scenario axes a study expands into engine rounds.

    One frozen container covers every study kind:

    * ``percentiles`` — the shared strength/placement axis used by the
      sweep-shaped kinds (``figure1``'s grid, the game supports);
    * ``defenses`` / ``attacks`` — explicit spec lists for the kinds
      whose strategies span families (``cross_game``, ``grid``);
      entries may be spec objects, spec strings or ``None`` (the
      undefended / clean baseline);
    * ``victims`` — the victim axis (``None`` = the context's own
      victim factory; single-valued for the paper-shaped kinds);
    * ``fractions`` — contamination rates (single-valued for the
      paper-shaped kinds; a proper axis for ``figure1`` and ``grid``);
    * ``n_repeats`` — seeded repetitions averaged per cell;
    * ``defense_kind``/``defense_params`` — the family swept on the
      percentile axis (default: the paper's radius filter).

    Builders (:mod:`repro.study.builders`) validate which axes a kind
    actually reads.
    """

    percentiles: tuple = ()
    defenses: tuple = ()
    attacks: tuple = ()
    victims: tuple = (None,)
    fractions: tuple = (0.2,)
    n_repeats: int = 1
    defense_kind: str = "radius"
    defense_params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "percentiles", tuple(
            check_fraction(float(p), name="grid percentile")
            for p in self.percentiles))
        object.__setattr__(self, "defenses", tuple(
            defense_from_obj(d) for d in self.defenses))
        object.__setattr__(self, "attacks", tuple(
            attack_from_obj(a) for a in self.attacks))
        victims = self.victims if isinstance(self.victims, (list, tuple)) \
            else (self.victims,)
        object.__setattr__(self, "victims", tuple(
            victim_from_obj(v) for v in victims))
        if not self.victims:
            object.__setattr__(self, "victims", (None,))
        fractions = self.fractions if isinstance(self.fractions, (list, tuple)) \
            else (self.fractions,)
        object.__setattr__(self, "fractions", tuple(
            check_fraction(float(f), name="poison fraction",
                           inclusive_high=False)
            for f in fractions))
        if not self.fractions:
            raise ValueError("fractions must be non-empty")
        object.__setattr__(self, "n_repeats",
                           check_positive_int(self.n_repeats, name="n_repeats"))
        if not isinstance(self.defense_kind, str) or not self.defense_kind:
            raise ValueError(
                f"defense_kind must be a non-empty string, got "
                f"{self.defense_kind!r}")
        object.__setattr__(
            self, "defense_params",
            check_canonical_params(self.defense_params,
                                   name="defense params"))

    @property
    def victim(self) -> VictimSpec | None:
        """The single victim of a paper-shaped study."""
        return self.victims[0]

    @property
    def fraction(self) -> float:
        """The single contamination rate of a paper-shaped study."""
        return self.fractions[0]

    def canonical(self) -> tuple:
        return (
            self.percentiles,
            tuple(None if d is None else d.canonical() for d in self.defenses),
            tuple(None if a is None else a.canonical() for a in self.attacks),
            tuple(None if v is None else v.canonical() for v in self.victims),
            self.fractions,
            int(self.n_repeats),
            self.defense_kind,
            self.defense_params,
        )

    def to_obj(self) -> dict:
        return {
            "percentiles": [float(p) for p in self.percentiles],
            "defenses": [defense_to_obj(d) for d in self.defenses],
            "attacks": [attack_to_obj(a) for a in self.attacks],
            "victims": [victim_to_obj(v) for v in self.victims],
            "fractions": [float(f) for f in self.fractions],
            "n_repeats": int(self.n_repeats),
            "defense_kind": self.defense_kind,
            "defense_params": params_to_obj(self.defense_params),
        }

    @classmethod
    def from_obj(cls, obj) -> "ScenarioGrid":
        if isinstance(obj, cls):
            return obj
        return cls(
            percentiles=tuple(obj.get("percentiles", ())),
            defenses=tuple(obj.get("defenses", ())),
            attacks=tuple(obj.get("attacks", ())),
            victims=tuple(obj.get("victims", (None,)) or (None,)),
            fractions=tuple(obj.get("fractions", (0.2,))),
            n_repeats=int(obj.get("n_repeats", 1)),
            defense_kind=obj.get("defense_kind", "radius"),
            defense_params=params_from_obj(obj.get("defense_params"),
                                           name="defense params"),
        )


@dataclass(frozen=True)
class EngineConfig:
    """Preferred engine placement for a study (not part of its identity).

    ``run_study`` uses this only when the caller supplies no engine:
    results are bit-identical across backends, so none of these fields
    enter :meth:`StudySpec.fingerprint`.
    """

    backend: str = "serial"
    jobs: int | None = None
    cache: bool = True
    cache_dir: str | None = None
    cache_max_entries: int | None = None

    def build(self):
        """A fresh :class:`~repro.engine.EvaluationEngine` as configured."""
        from repro.engine import EvaluationEngine

        return EvaluationEngine(
            self.backend, jobs=self.jobs, cache=self.cache,
            cache_dir=self.cache_dir,
            cache_max_entries=self.cache_max_entries)

    def to_obj(self) -> dict:
        return {"backend": self.backend, "jobs": self.jobs,
                "cache": bool(self.cache), "cache_dir": self.cache_dir,
                "cache_max_entries": self.cache_max_entries}

    @classmethod
    def from_obj(cls, obj) -> "EngineConfig":
        if isinstance(obj, cls):
            return obj
        return cls(backend=obj.get("backend", "serial"),
                   jobs=obj.get("jobs"),
                   cache=bool(obj.get("cache", True)),
                   cache_dir=obj.get("cache_dir"),
                   cache_max_entries=obj.get("cache_max_entries"))


@dataclass(frozen=True)
class StudySpec:
    """One whole experiment, frozen: ``(kind, context, grid, solver)``.

    ``kind`` names the experiment family (see :data:`STUDY_KINDS`);
    ``context`` may be ``None`` for specs that are only ever run with a
    caller-supplied live context (``run_study(spec, context=ctx)`` —
    such specs fingerprint against the live context's content hash);
    ``solver`` holds kind-specific solver configuration as canonical
    params (e.g. ``n_radii`` for ``table1``, ``n_seeds``/``base_seed``
    for ``multi_seed``); ``engine`` is an optional placement
    preference, excluded from the fingerprint.
    """

    kind: str
    context: ContextSpec | None = field(default_factory=ContextSpec)
    grid: ScenarioGrid = field(default_factory=ScenarioGrid)
    solver: tuple = ()
    engine: EngineConfig | None = None

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(
                f"unknown study kind {self.kind!r}; known kinds: "
                f"{sorted(STUDY_KINDS)}")
        if self.context is not None and not isinstance(self.context,
                                                       ContextSpec):
            object.__setattr__(self, "context",
                               ContextSpec.from_obj(self.context))
        if not isinstance(self.grid, ScenarioGrid):
            object.__setattr__(self, "grid", ScenarioGrid.from_obj(self.grid))
        object.__setattr__(
            self, "solver",
            check_canonical_params(self.solver, name="solver params"))
        if self.engine is not None and not isinstance(self.engine,
                                                      EngineConfig):
            object.__setattr__(self, "engine",
                               EngineConfig.from_obj(self.engine))

    def solver_param(self, key: str, default=None):
        """The solver parameter ``key``, or ``default``."""
        for k, v in self.solver:
            if k == key:
                return v
        return default

    def fingerprint(self, *, context_fingerprint: str | None = None) -> str:
        """Content hash addressing this study's results.

        Covers the study and round schema versions, kind, context
        identity, grid and solver config; excludes engine placement.
        The round schema (:func:`~repro.engine.cache.cache_schema_version`)
        is in it because a study's results are its rounds' outcomes: an
        archive or checkpoint made under another round schema is never
        served.  Specs with ``context=None`` describe an experiment on a
        caller-supplied context and must be given that context's
        fingerprint.
        """
        if self.context is not None:
            context = self.context.canonical()
        elif context_fingerprint is not None:
            context = ("inline", str(context_fingerprint))
        else:
            raise ValueError(
                "this StudySpec has no ContextSpec; pass "
                "context_fingerprint= (the live context's content hash)")
        payload = json.dumps(
            [STUDY_SCHEMA_VERSION, cache_schema_version(), self.kind,
             context, self.grid.canonical(), self.solver],
            separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_obj(self) -> dict:
        return {
            "type": "StudySpec",
            "schema": STUDY_SCHEMA_VERSION,
            "kind": self.kind,
            "context": None if self.context is None else self.context.to_obj(),
            "grid": self.grid.to_obj(),
            "solver": params_to_obj(self.solver),
            "engine": None if self.engine is None else self.engine.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "StudySpec":
        if isinstance(obj, cls):
            return obj
        if obj.get("type", "StudySpec") != "StudySpec":
            raise ValueError(f"not a StudySpec document: type={obj.get('type')!r}")
        schema = int(obj.get("schema", STUDY_SCHEMA_VERSION))
        if schema > STUDY_SCHEMA_VERSION:
            raise ValueError(
                f"study document schema v{schema} is newer than this "
                f"build's v{STUDY_SCHEMA_VERSION}")
        context = obj.get("context")
        return cls(
            kind=obj.get("kind", ""),
            context=None if context is None else ContextSpec.from_obj(context),
            grid=ScenarioGrid.from_obj(obj.get("grid", {})),
            solver=params_from_obj(obj.get("solver"), name="solver params"),
            engine=(None if obj.get("engine") is None
                    else EngineConfig.from_obj(obj["engine"])),
        )


def study_to_json(spec: StudySpec, path: str | None = None) -> str:
    """Serialise a :class:`StudySpec` to its canonical JSON document."""
    text = json.dumps(spec.to_obj(), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def study_from_json(text_or_path: str) -> StudySpec:
    """Inverse of :func:`study_to_json` (accepts a path or raw JSON)."""
    from repro.utils.serialization import read_json_document

    return StudySpec.from_obj(read_json_document(text_or_path))
