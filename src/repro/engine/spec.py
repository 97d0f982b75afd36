"""Declarative round specifications — the engine's unit of work.

A :class:`RoundSpec` names one attack/defend/train/score round of the
game *by content* rather than by code path: which defence (as a
declarative :class:`DefenseSpec`), which attack (an :class:`AttackSpec`),
which victim model (a :class:`VictimSpec`), what contamination rate,
which seed.  Two properties follow:

* **cacheability** — a spec plus a context fingerprint is a complete,
  stable identity for the round's result, so identical rounds are
  never recomputed (see :mod:`repro.engine.cache`);
* **portability** — specs are tiny frozen dataclasses that pickle
  cheaply for the process pool and round-trip through plain JSON
  (:func:`round_to_obj`) for study documents, archives and cluster
  shards, so any backend can run them (see
  :mod:`repro.engine.backends`).

Attacks and defences each have a builder table keyed by the spec's
``kind``, so new families plug in without touching the engine:

* attacks — ``register_attack_builder`` / ``materialize_attack``;
* defences — ``register_defense_builder`` / ``materialize_defense``.

Victim kinds are the one table of
:class:`~repro.experiments.runner.VictimFactory`, which
``materialize_victim`` builds.

``RoundSpec.filter_percentile`` survives as a constructor convenience:
it canonicalises to ``DefenseSpec("radius", p)``, so drivers written
against the original (filter, attack, fraction, seed) identity keep
working and keep their cache semantics.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.utils.validation import check_canonical_params, check_fraction

__all__ = [
    "AttackSpec",
    "DefenseSpec",
    "VictimSpec",
    "RoundSpec",
    "parse_spec_string",
    "parse_attack_spec",
    "parse_defense_spec",
    "parse_victim_spec",
    "params_to_obj",
    "params_from_obj",
    "attack_to_obj",
    "attack_from_obj",
    "defense_to_obj",
    "defense_from_obj",
    "victim_to_obj",
    "victim_from_obj",
    "round_to_obj",
    "round_from_obj",
    "register_attack_builder",
    "registered_attack_kinds",
    "materialize_attack",
    "register_defense_builder",
    "registered_defense_kinds",
    "materialize_defense",
    "registered_victim_kinds",
    "materialize_victim",
]


def _describe(kind: str, percentile: float | None, params: tuple) -> str:
    """Shared human-readable spec label: kind[@pct][param list]."""
    label = kind
    if percentile:
        label += f"@{percentile:.1%}"
    if params:
        label += "[" + ",".join(f"{k}={v}" for k, v in params) + "]"
    return label


@dataclass(frozen=True)
class AttackSpec:
    """Declarative attack identity.

    Parameters
    ----------
    kind:
        Registry key naming the attack family.  Built-in kinds are
        ``"boundary"`` (the paper's optimal radius-targeted attack with
        the context's matched surrogate), ``"label-flip"``,
        ``"random-noise"``, ``"furthest-point"``, ``"targeted"``,
        ``"mixed"`` (a :class:`~repro.attacks.mixed_attack.RadiusAllocation`
        executed as boundary sub-attacks) and ``"bilevel"`` (projected
        gradient-ascent refinement).
    percentile:
        The attack's placement percentile on the shared axis.
        Families without a radius notion (label-flip) ignore it; keep
        the default ``0.0`` so their rounds share cache entries.
    params:
        Extra family-specific parameters as a mapping or ``(key,
        value)`` pairs (e.g. ``{"strategy": "near_boundary"}`` for
        label-flip).  Canonicalised to a sorted tuple so equal
        parameter sets always produce equal cache keys.
    """

    kind: str = "boundary"
    percentile: float = 0.0
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(
            self, "percentile",
            check_fraction(self.percentile, name="percentile"),
        )
        object.__setattr__(
            self, "params", check_canonical_params(self.params,
                                                   name="attack params"),
        )

    def canonical(self) -> tuple:
        """Stable identity tuple used in cache keys."""
        return (self.kind, float(self.percentile), self.params)

    def describe(self) -> str:
        """Short human-readable label (for game axes and reports)."""
        return _describe(self.kind, self.percentile, self.params)


@dataclass(frozen=True)
class DefenseSpec:
    """Declarative defence identity.

    Parameters
    ----------
    kind:
        Registry key naming the defence family.  Built-in kinds:

        * ``"radius"`` — the paper's filter: a sphere around the
          clean-data centroid with the radius looked up at
          ``percentile`` in the genuine map.  With no ``params`` this
          is the engine's kernel-served fast path; params
          ``centroid="contaminated"`` or ``per_class=True`` select the
          :class:`~repro.defenses.RadiusFilter` variants.
        * ``"percentile_filter"`` — the operational quantile filter
          computed on the (possibly contaminated) data itself.
        * ``"slab_filter"`` — displacement along the class-centroid
          axis; ``percentile`` is the removed fraction.
        * ``"loss_filter"`` — iterative highest-hinge-loss trimming;
          ``percentile`` is the removed fraction.
        * ``"pca_detector"`` — off-subspace residual trimming;
          ``percentile`` is the removed fraction.
        * ``"knn_sanitizer"`` — neighbourhood label agreement
          (strength via params ``k``/``agreement``; percentile unused).
        * ``"roni"`` — Reject On Negative Impact (params
          ``base_fraction``/``val_fraction``/``tolerance``/``batch_size``;
          its calibration split derives from the round seed).
        * ``"certified"`` — the certificate-backed radius defence
          (:class:`~repro.defenses.CertifiedRadiusDefense`).
        * ``"mixed_defense"`` — a randomised filter strength drawn per
          round from params ``percentiles``/``probabilities`` (the
          draw derives from the round seed).
    percentile:
        The defence's strength on the shared percentile axis (the
        fraction of points it aims to remove / the filter percentile).
        Families parameterised differently (knn, roni, mixed) ignore
        it; keep the default ``0.0`` so their rounds share cache
        entries.
    params:
        Extra family-specific parameters, canonicalised exactly like
        :attr:`AttackSpec.params`.
    """

    kind: str = "radius"
    percentile: float = 0.0
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(
            self, "percentile",
            check_fraction(self.percentile, name="percentile"),
        )
        object.__setattr__(
            self, "params", check_canonical_params(self.params,
                                                   name="defense params"),
        )

    @property
    def is_fast_radius(self) -> bool:
        """Whether this is the kernel-served radius filter fast path."""
        return self.kind == "radius" and not self.params

    def canonical(self) -> tuple:
        """Stable identity tuple used in cache keys."""
        return (self.kind, float(self.percentile), self.params)

    def describe(self) -> str:
        """Short human-readable label (for game axes and reports)."""
        return _describe(self.kind, self.percentile, self.params)


@dataclass(frozen=True)
class VictimSpec:
    """Declarative victim-model identity.

    Parameters
    ----------
    kind:
        Key naming the victim family in
        :class:`~repro.experiments.runner.VictimFactory`'s table:
        ``"svm"`` (the paper's hinge-loss :class:`~repro.ml.LinearSVM`),
        ``"logistic"``, ``"perceptron"``, ``"ridge"`` and
        ``"naive_bayes"``.
    params:
        Hyperparameters for the victim's constructor (e.g.
        ``{"reg": 1e-3, "epochs": 60}`` for the SVM), canonicalised
        exactly like :attr:`AttackSpec.params`.  Seeded trainers
        receive the round's derived model seed at fit time — never put
        a seed in ``params``.
    """

    kind: str = "svm"
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(
            self, "params", check_canonical_params(self.params,
                                                   name="victim params"),
        )

    def canonical(self) -> tuple:
        """Stable identity tuple used in cache keys."""
        return (self.kind, self.params)

    def describe(self) -> str:
        """Short human-readable label (for game axes and reports)."""
        return _describe(self.kind, None, self.params)


@dataclass(frozen=True)
class RoundSpec:
    """One round of the game: (defence, attack, victim, contamination, seed).

    ``defense`` of ``None`` disables filtering; ``attack`` of ``None``
    is the clean baseline; ``victim`` of ``None`` trains the context's
    own victim factory.  ``seed`` is the round seed from which attack
    randomness, dataset shuffling, defence randomness and victim
    training are all derived (see
    :func:`repro.experiments.runner.evaluate_configuration`).

    ``filter_percentile`` is kept as a constructor convenience for the
    paper's radius filter: ``RoundSpec(filter_percentile=p, ...)``
    canonicalises to ``defense=DefenseSpec("radius", p)`` (and a plain
    radius defence mirrors itself back into ``filter_percentile``), so
    pre-existing drivers and cache semantics are unchanged.
    """

    filter_percentile: float | None = None
    attack: AttackSpec | None = None
    poison_fraction: float = 0.2
    seed: int = 0
    defense: DefenseSpec | None = None
    victim: VictimSpec | None = None

    def __post_init__(self):
        fp = self.filter_percentile
        if fp is not None:
            fp = check_fraction(fp, name="filter_percentile")
            object.__setattr__(self, "filter_percentile", fp)
        if self.defense is not None:
            if not isinstance(self.defense, DefenseSpec):
                raise TypeError(
                    f"defense must be a DefenseSpec or None, got {self.defense!r}"
                )
            if fp is not None and fp > 0.0:
                raise ValueError(
                    "pass either filter_percentile or defense, not both"
                )
        elif fp is not None and fp > 0.0:
            object.__setattr__(self, "defense", DefenseSpec("radius", fp))
        # A radius filter at percentile 0 removes nothing: normalise to
        # "no defence" so both spellings share one cache entry.
        d = self.defense
        if d is not None and d.is_fast_radius and d.percentile <= 0.0:
            object.__setattr__(self, "defense", None)
            d = None
        # Mirror plain radius defences back into filter_percentile so
        # code written against the original spec keeps reading it.
        if d is not None and d.is_fast_radius:
            object.__setattr__(self, "filter_percentile", float(d.percentile))
        elif d is not None:
            object.__setattr__(self, "filter_percentile", None)
        if self.victim is not None and not isinstance(self.victim, VictimSpec):
            raise TypeError(
                f"victim must be a VictimSpec or None, got {self.victim!r}"
            )
        if self.attack is not None:
            check_fraction(self.poison_fraction, name="poison_fraction",
                           inclusive_high=False)
        if not isinstance(self.seed, int):
            object.__setattr__(self, "seed", int(self.seed))

    def canonical(self) -> tuple:
        """Normalised identity tuple used in cache keys.

        Normalisations mirror ``execute_round`` exactly:

        * no defence (including a radius filter at percentile ``0``,
          already normalised in ``__post_init__``) maps to ``None``;
        * with no attack the contamination rate is never consulted, so
          clean baselines share one key across ``poison_fraction``
          values (this is what lets e.g. two sweeps at different
          contamination rates reuse each other's clean curves);
        * the context's own victim factory (``victim=None``) maps to
          ``None`` — it is covered by the context fingerprint.
        """
        defense = None if self.defense is None else self.defense.canonical()
        victim = None if self.victim is None else self.victim.canonical()
        if self.attack is None:
            return (defense, None, victim, None, int(self.seed))
        return (defense, self.attack.canonical(), victim,
                float(self.poison_fraction), int(self.seed))


# -- spec-string parsing -----------------------------------------------------
# The one shared grammar for naming specs as strings — the CLI's
# ``--defenses``/``--attacks``/``--victim`` arguments and the study
# JSON loader both read it, so a spec spelled on a command line and the
# same spec spelled in a study document can never drift apart.
#
#   defense/attack:  kind[:percentile][:k=v,...]     e.g. radius:0.1,
#                    knn_sanitizer::k=7, label-flip::strategy=near_boundary
#   victim:          kind[:k=v,...]                  e.g. svm:epochs=60
#
# Values parse as Python literals (quoting works: strategy='near boundary');
# bare words stay strings; lists/tuples are canonicalised to tuples at
# every nesting depth so parsed params are always hashable.


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside brackets/parentheses/quotes."""
    parts, depth, current = [], 0, []
    quote = None
    for ch in text:
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0 and quote is None:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _tuplify(value):
    """Recursively turn lists/tuples into tuples (hashable params)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _parse_params(text: str) -> dict:
    params = {}
    for pair in _split_top_level(text):
        if not pair.strip():
            continue
        if "=" not in pair:
            raise ValueError(f"bad spec params {text!r}: expected key=value")
        key, value = pair.split("=", 1)
        try:
            parsed = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            parsed = value.strip()  # bare strings (e.g. strategy=near_boundary)
        params[key.strip()] = _tuplify(parsed)
    return params


def parse_spec_string(text: str) -> tuple[str, float, dict]:
    """``kind[:percentile][:k=v,...]`` -> ``(kind, percentile, params)``.

    Raises :class:`ValueError` on an empty kind, a non-numeric
    percentile, or malformed params.  Registry membership is *not*
    checked here — :func:`parse_attack_spec` and friends do that.
    """
    head, _, rest = text.partition(":")
    percentile_part, _, params_part = rest.partition(":")
    kind = head.strip()
    if not kind:
        raise ValueError(f"bad spec {text!r}: empty kind")
    percentile = 0.0
    if percentile_part.strip():
        try:
            percentile = float(percentile_part)
        except ValueError:
            raise ValueError(
                f"bad spec {text!r}: percentile {percentile_part!r} "
                "is not a number") from None
    return kind, percentile, _parse_params(params_part)


def parse_defense_spec(text: str) -> "DefenseSpec | None":
    """A :class:`DefenseSpec` from its string form (``"none"`` -> ``None``).

    Raises :class:`ValueError` for unregistered kinds, bad percentiles
    and malformed params.
    """
    if text.strip() == "none":
        return None
    kind, percentile, params = parse_spec_string(text)
    if kind not in _DEFENSE_BUILDERS:
        raise ValueError(f"unknown defense kind {kind!r}; registered: "
                         f"{registered_defense_kinds()}")
    return DefenseSpec(kind, percentile, params)


def parse_attack_spec(text: str) -> "AttackSpec | None":
    """An :class:`AttackSpec` from its string form (``"clean"`` -> ``None``)."""
    if text.strip() == "clean":
        return None
    kind, percentile, params = parse_spec_string(text)
    if kind not in _ATTACK_BUILDERS:
        raise ValueError(f"unknown attack kind {kind!r}; registered: "
                         f"{registered_attack_kinds()}")
    return AttackSpec(kind, percentile, params)


def parse_victim_spec(text: "str | None") -> "VictimSpec | None":
    """A :class:`VictimSpec` from ``kind[:k=v,...]`` (``None`` passes through)."""
    if text is None:
        return None
    head, _, params_part = text.partition(":")
    kind = head.strip()
    if kind not in registered_victim_kinds():
        raise ValueError(f"unknown victim kind {kind!r}; registered: "
                         f"{registered_victim_kinds()}")
    return VictimSpec(kind, _parse_params(params_part))


# -- JSON codecs ---------------------------------------------------------------
# The one serialised form of a spec: study documents, archive and
# checkpoint rows, and the cluster protocol's ``run`` frames all carry
# specs as these plain JSON objects.


def params_to_obj(params: tuple) -> dict:
    """Canonical params tuple -> plain JSON mapping.

    Only the *top* level becomes a JSON object (it is sorted by
    ``check_canonical_params`` at construction, so the mapping order is
    stable); every nested value — including a tuple of pairs such as
    table1's ``"algorithm"`` kwargs — dumps as plain nested lists.
    Dumping values as objects would force an order on reload and drift
    the fingerprint of any spec whose pair-tuple value was not sorted.
    """
    return {k: _value_to_obj(v) for k, v in params}


def _value_to_obj(value):
    if isinstance(value, tuple):
        return [_value_to_obj(v) for v in value]
    return value


def _value_from_obj(obj):
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _value_from_obj(v))
                            for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_value_from_obj(v) for v in obj)
    return obj


def params_from_obj(obj, *, name: str) -> tuple:
    """Inverse of :func:`params_to_obj` (``None`` reads as no params)."""
    if obj is None:
        return ()
    if isinstance(obj, dict):
        return check_canonical_params(
            {k: _value_from_obj(v) for k, v in obj.items()}, name=name)
    return check_canonical_params(_tuplify(obj), name=name)


def defense_from_obj(obj):
    """A :class:`DefenseSpec` from its JSON form, a spec string or a spec."""
    if obj is None:
        return None
    if isinstance(obj, DefenseSpec):
        return obj
    if isinstance(obj, str):
        return parse_defense_spec(obj)
    if isinstance(obj, dict):
        return DefenseSpec(obj.get("kind", "radius"),
                           float(obj.get("percentile", 0.0)),
                           params_from_obj(obj.get("params"),
                                           name="defense params"))
    raise TypeError(f"cannot read a DefenseSpec from {obj!r}")


def attack_from_obj(obj):
    """An :class:`AttackSpec` from its JSON form, a spec string or a spec."""
    if obj is None:
        return None
    if isinstance(obj, AttackSpec):
        return obj
    if isinstance(obj, str):
        return parse_attack_spec(obj)
    if isinstance(obj, dict):
        return AttackSpec(obj.get("kind", "boundary"),
                          float(obj.get("percentile", 0.0)),
                          params_from_obj(obj.get("params"),
                                          name="attack params"))
    raise TypeError(f"cannot read an AttackSpec from {obj!r}")


def victim_from_obj(obj):
    """A :class:`VictimSpec` from its JSON form, a spec string or a spec."""
    if obj is None:
        return None
    if isinstance(obj, VictimSpec):
        return obj
    if isinstance(obj, str):
        return parse_victim_spec(obj)
    if isinstance(obj, dict):
        return VictimSpec(obj.get("kind", "svm"),
                          params_from_obj(obj.get("params"),
                                          name="victim params"))
    raise TypeError(f"cannot read a VictimSpec from {obj!r}")


def defense_to_obj(spec: DefenseSpec | None):
    """JSON form of a defence spec (``None`` passes through)."""
    if spec is None:
        return None
    return {"kind": spec.kind, "percentile": float(spec.percentile),
            "params": params_to_obj(spec.params)}


def attack_to_obj(spec: AttackSpec | None):
    """JSON form of an attack spec (``None`` passes through)."""
    if spec is None:
        return None
    return {"kind": spec.kind, "percentile": float(spec.percentile),
            "params": params_to_obj(spec.params)}


def victim_to_obj(spec: VictimSpec | None):
    """JSON form of a victim spec (``None`` passes through)."""
    if spec is None:
        return None
    return {"kind": spec.kind, "params": params_to_obj(spec.params)}


def round_to_obj(spec: RoundSpec) -> dict:
    """JSON form of a round spec, exact enough to rebuild an equal one.

    An undefended round also carries its ``filter_percentile``
    spelling (``0.0`` or ``None``), which its outcome echoes.
    """
    obj = {"defense": defense_to_obj(spec.defense),
           "attack": attack_to_obj(spec.attack),
           "victim": victim_to_obj(spec.victim),
           "poison_fraction": float(spec.poison_fraction),
           "seed": int(spec.seed)}
    if spec.defense is None:
        obj["filter_percentile"] = spec.filter_percentile
    return obj


def round_from_obj(obj: dict) -> RoundSpec:
    """Inverse of :func:`round_to_obj`; raises on a malformed object."""
    return RoundSpec(filter_percentile=obj.get("filter_percentile"),
                     attack=attack_from_obj(obj["attack"]),
                     poison_fraction=float(obj["poison_fraction"]),
                     seed=obj["seed"],
                     defense=defense_from_obj(obj["defense"]),
                     victim=victim_from_obj(obj["victim"]))


# -- registries -------------------------------------------------------------

_ATTACK_BUILDERS: dict[str, Callable] = {}
_DEFENSE_BUILDERS: dict[str, Callable] = {}


def register_attack_builder(kind: str, builder: Callable) -> None:
    """Register ``builder(ctx, spec) -> PoisoningAttack`` for a kind.

    Builders receive the :class:`ExperimentContext` so attacks can use
    context-matched surrogates; they must be deterministic functions of
    ``(ctx, spec)`` — any randomness belongs to the round seed.
    """
    if not callable(builder):
        raise TypeError(f"builder for {kind!r} must be callable")
    _ATTACK_BUILDERS[str(kind)] = builder


def register_defense_builder(kind: str, builder: Callable) -> None:
    """Register ``builder(ctx, spec, seed) -> Defense`` for a kind.

    ``seed`` is the round-derived defence seed (``None`` when the
    caller supplies no round); builders of deterministic defences
    ignore it.  Builders must be deterministic functions of
    ``(ctx, spec, seed)``.
    """
    if not callable(builder):
        raise TypeError(f"builder for {kind!r} must be callable")
    _DEFENSE_BUILDERS[str(kind)] = builder


def registered_attack_kinds() -> list[str]:
    """Sorted names of all registered attack families."""
    return sorted(_ATTACK_BUILDERS)


def registered_defense_kinds() -> list[str]:
    """Sorted names of all registered defence families."""
    return sorted(_DEFENSE_BUILDERS)


def registered_victim_kinds() -> list[str]:
    """Sorted names of the victim kinds
    :class:`~repro.experiments.runner.VictimFactory` builds."""
    # Imported lazily: the engine package must stay importable without
    # the experiments layer.
    from repro.experiments.runner import _VICTIM_KINDS

    return sorted(_VICTIM_KINDS)


def materialize_attack(ctx, spec: AttackSpec):
    """Build the live attack object a spec names, in context ``ctx``."""
    try:
        builder = _ATTACK_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown attack kind {spec.kind!r}; registered kinds: "
            f"{registered_attack_kinds()}"
        ) from None
    return builder(ctx, spec)


def materialize_defense(ctx, spec: DefenseSpec, *, seed: int | None = None):
    """Build the live defence object a spec names, in context ``ctx``.

    ``seed`` is the round-derived defence seed for families with
    internal randomness (roni's calibration split, mixed_defense's
    draw); deterministic families ignore it.
    """
    try:
        builder = _DEFENSE_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown defense kind {spec.kind!r}; registered kinds: "
            f"{registered_defense_kinds()}"
        ) from None
    return builder(ctx, spec, seed)


def materialize_victim(ctx, spec: VictimSpec):
    """The :class:`~repro.experiments.runner.VictimFactory` a spec
    names (it refuses unknown kinds)."""
    from repro.experiments.runner import VictimFactory

    return VictimFactory(spec.kind, spec.params)


# -- built-in attack families ----------------------------------------------
# All builders import lazily so the engine package stays light to import.


def _build_boundary(ctx, spec: AttackSpec):
    return ctx.boundary_attack(float(spec.percentile))


def _build_label_flip(ctx, spec: AttackSpec):
    from repro.attacks.label_flip import LabelFlipAttack

    params = dict(spec.params)
    return LabelFlipAttack(strategy=params.get("strategy", "random"))


def _build_random_noise(ctx, spec: AttackSpec):
    from repro.attacks.random_noise import RandomNoiseAttack

    params = dict(spec.params)
    return RandomNoiseAttack(
        target_percentile=float(spec.percentile),
        fill=bool(params.get("fill", False)),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
    )


def _build_furthest_point(ctx, spec: AttackSpec):
    from repro.attacks.furthest_point import FurthestPointAttack

    params = dict(spec.params)
    return FurthestPointAttack(
        max_percentile=float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
    )


def _build_targeted(ctx, spec: AttackSpec):
    from repro.attacks.targeted import TargetedClassAttack

    params = dict(spec.params)
    kwargs = {}
    if "spread" in params:
        kwargs["spread"] = float(params["spread"])
    return TargetedClassAttack(
        victim_label=int(params.get("victim_label", 1)),
        target_percentile=float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
        **kwargs,
    )


def _build_mixed(ctx, spec: AttackSpec):
    from repro.attacks.mixed_attack import MixedAllocationAttack, RadiusAllocation

    params = dict(spec.params)
    percentiles = params.get("percentiles")
    if percentiles is None:
        raise ValueError(
            'the "mixed" attack kind requires params={"percentiles": (...)} '
            "naming the allocation's radii"
        )
    counts = params.get("counts")
    if counts is not None:
        allocation = RadiusAllocation(percentiles=tuple(percentiles),
                                      counts=tuple(counts))
    else:
        # Placeholder budget: MixedAllocationAttack rescales the
        # allocation to the actual n_poison at generate() time.
        allocation = RadiusAllocation.spread(
            percentiles, 100, weights=params.get("weights"))
    return MixedAllocationAttack(
        allocation,
        surrogate=ctx.attack_surrogate(),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
    )


def _build_bilevel(ctx, spec: AttackSpec):
    from repro.attacks.bilevel import BilevelGradientAttack

    params = dict(spec.params)
    kwargs = {}
    for name, cast in (("n_outer", int), ("step_size", float),
                       ("val_fraction", float)):
        if name in params:
            kwargs[name] = cast(params[name])
    return BilevelGradientAttack(
        target_percentile=float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
        **kwargs,
    )


register_attack_builder("boundary", _build_boundary)
register_attack_builder("label-flip", _build_label_flip)
register_attack_builder("random-noise", _build_random_noise)
register_attack_builder("furthest-point", _build_furthest_point)
register_attack_builder("targeted", _build_targeted)
register_attack_builder("mixed", _build_mixed)
register_attack_builder("bilevel", _build_bilevel)


# -- built-in defence families ----------------------------------------------


def _build_radius(ctx, spec: DefenseSpec, seed):
    """The paper's filter as a live object (the variant path).

    Without params this constructs exactly what the engine's kernel
    fast path computes — radius from the genuine map, sphere centred on
    the clean-data centroid — so spec-path and object-path rounds are
    bit-identical.  Params select the standalone variants:
    ``centroid="contaminated"`` re-estimates the centre from the data
    the filter receives; ``per_class=True`` uses per-class spheres.
    """
    from repro.data.geometry import compute_centroid
    from repro.defenses.radius_filter import RadiusFilter

    params = dict(spec.params)
    method = params.get("centroid_method", ctx.centroid_method)
    radius = ctx.radius_map.radius(float(spec.percentile))
    per_class = bool(params.get("per_class", False))
    centroid = None
    if params.get("centroid", "clean") == "clean" and not per_class:
        centroid = compute_centroid(ctx.X_train, method=method)
    return RadiusFilter(radius, centroid_method=method, per_class=per_class,
                        centroid=centroid)


def _build_percentile_filter(ctx, spec: DefenseSpec, seed):
    from repro.defenses.percentile_filter import PercentileFilter

    params = dict(spec.params)
    return PercentileFilter(
        float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
    )


def _build_slab_filter(ctx, spec: DefenseSpec, seed):
    """The slab defence; ``axis="clean"`` pins it to the clean geometry.

    By default class centroids are re-estimated from the contaminated
    data each round (the operational defence).  With params
    ``axis="clean"`` the filter is pinned to the *clean* per-class
    centroids served by the context's round kernel — genuine rows'
    slab scores are then cached once per context and every round only
    scores its poison rows (bit-identical to scoring from scratch; the
    slab counterpart of the radius filter's kernel fast path).
    """
    from repro.defenses.slab_filter import SlabFilter

    params = dict(spec.params)
    axis = params.get("axis", "data")
    if axis not in ("data", "clean"):
        raise ValueError(
            f'slab_filter params axis={axis!r} is not "data" or "clean"')
    kwargs = {}
    if axis == "clean":
        # The clean axis *is* the kernel's geometry, which is computed
        # with the context's own centroid method — a different
        # centroid_method here would cache a result under a key that
        # misdescribes it.  Refuse rather than silently substitute.
        method = params.get("centroid_method")
        if method is not None and method != ctx.centroid_method:
            raise ValueError(
                f'slab_filter axis="clean" uses the context\'s clean '
                f"geometry (centroid_method={ctx.centroid_method!r}); "
                f"it cannot be combined with centroid_method={method!r}")
        kernel = getattr(ctx, "kernel", None)
        pair = kernel().class_centroids if callable(kernel) else None
        if pair is None:
            # Same refusal logic: degrading to per-round contaminated
            # centroids would change the defence's semantics under a
            # cache key that promised the clean axis.
            raise ValueError(
                'slab_filter axis="clean" needs the context\'s clean '
                "per-class geometry, which is degenerate here (one "
                "class, or coincident class centroids)")
        kwargs["centroids"] = pair
    return SlabFilter(
        remove_fraction=float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
        **kwargs,
    )


def _build_knn_sanitizer(ctx, spec: DefenseSpec, seed):
    from repro.defenses.knn_sanitizer import KNNSanitizer

    params = dict(spec.params)
    return KNNSanitizer(
        k=int(params.get("k", 10)),
        agreement=float(params.get("agreement", 0.5)),
        chunk_size=int(params.get("chunk_size", 512)),
    )


def _build_roni(ctx, spec: DefenseSpec, seed):
    from repro.defenses.roni import RONIDefense

    params = dict(spec.params)
    kwargs = {}
    for name, cast in (("base_fraction", float), ("val_fraction", float),
                       ("tolerance", float), ("batch_size", int)):
        if name in params:
            kwargs[name] = cast(params[name])
    return RONIDefense(seed=0 if seed is None else seed, **kwargs)


def _build_loss_filter(ctx, spec: DefenseSpec, seed):
    from repro.defenses.loss_filter import LossFilter

    params = dict(spec.params)
    kwargs = {}
    if "n_rounds" in params:
        kwargs["n_rounds"] = int(params["n_rounds"])
    return LossFilter(float(spec.percentile), **kwargs)


def _build_pca_detector(ctx, spec: DefenseSpec, seed):
    from repro.defenses.pca_detector import PCADetector

    params = dict(spec.params)
    return PCADetector(
        n_components=int(params.get("n_components", 5)),
        remove_fraction=float(spec.percentile),
        robust=bool(params.get("robust", True)),
    )


def _build_certified(ctx, spec: DefenseSpec, seed):
    from repro.defenses.certified import CertifiedRadiusDefense

    params = dict(spec.params)
    kwargs = {}
    for name, cast in (("eps", float), ("reg", float), ("n_iter", int),
                       ("step", float)):
        if name in params:
            kwargs[name] = cast(params[name])
    return CertifiedRadiusDefense(
        float(spec.percentile),
        centroid_method=params.get("centroid_method", ctx.centroid_method),
        **kwargs,
    )


def _build_mixed_defense(ctx, spec: DefenseSpec, seed):
    from repro.defenses.mixed_defense import MixedDefenseFilter

    params = dict(spec.params)
    percentiles = params.get("percentiles")
    probabilities = params.get("probabilities")
    if percentiles is None or probabilities is None:
        raise ValueError(
            'the "mixed_defense" kind requires params='
            '{"percentiles": (...), "probabilities": (...)}'
        )
    return MixedDefenseFilter(
        tuple(percentiles), tuple(probabilities), seed=seed,
        centroid_method=params.get("centroid_method", ctx.centroid_method),
    )


register_defense_builder("radius", _build_radius)
register_defense_builder("percentile_filter", _build_percentile_filter)
register_defense_builder("slab_filter", _build_slab_filter)
register_defense_builder("knn_sanitizer", _build_knn_sanitizer)
register_defense_builder("roni", _build_roni)
register_defense_builder("loss_filter", _build_loss_filter)
register_defense_builder("pca_detector", _build_pca_detector)
register_defense_builder("certified", _build_certified)
register_defense_builder("mixed_defense", _build_mixed_defense)
