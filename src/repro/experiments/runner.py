"""Seeded end-to-end experiment pipeline.

An :class:`ExperimentContext` freezes everything both players share:
the scaled train/test split, the genuine distance geometry (the
radius <-> percentile map) and the victim-model factory.
:func:`evaluate_configuration` then plays one round of the game —
attack, filter, train, score — deterministically for a given seed.

Idealisation note (documented in DESIGN.md): experiment filters are
parameterised by *genuine-data* percentile and realised as a
:class:`~repro.defenses.RadiusFilter` with the radius looked up in the
genuine map, matching the paper's identification of "percentage removed
by the filter" with "1 - percentile of poisoning data".  The
operational :class:`~repro.defenses.PercentileFilter` (quantile on the
contaminated set) is compared against this idealisation in the
ablation benchmarks.

As of the round-kernel change the experiment filter is centred on the
**clean-data** centroid — the paper's literal "hypersphere centered at
the centroid of the original dataset" — which both players share (the
optimal attack always measured placement from the clean centroid).
This also lets every round reuse the genuine rows' precomputed
distances; see :mod:`repro.experiments.kernel`.  The
contaminated-centroid estimate remains available through
:class:`~repro.defenses.RadiusFilter` used standalone.
"""

from __future__ import annotations

import hashlib
import json
import uuid
import zipfile
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.attacks.base import PoisoningAttack, poison_dataset
from repro.data.geometry import RadiusPercentileMap, compute_centroid, distances_to_centroid
from repro.data.spambase import load_spambase
from repro.data.synthetic import make_gaussian_blobs
from repro.defenses.base import DefenseReport, defense_report
from repro.defenses.radius_filter import RadiusFilter
from repro.ml.base import BaseEstimator, signed_labels
from repro.ml.linear_svm import LinearSVM
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import RobustScaler, StandardScaler
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_canonical_params, check_fraction

__all__ = [
    "ExperimentContext",
    "SVMVictimFactory",
    "VictimFactory",
    "make_spambase_context",
    "make_synthetic_context",
    "make_context",
    "context_to_parts",
    "context_from_parts",
    "save_context",
    "load_context",
    "evaluate_configuration",
    "prepare_configuration",
    "finish_configuration",
    "PreparedRound",
    "EvaluationOutcome",
    "resident_source",
]


@dataclass(frozen=True)
class SVMVictimFactory:
    """``factory(seed) -> LinearSVM`` victim builder.

    A plain dataclass (rather than a closure) so its hyperparameters
    travel in a context's JSON header (:func:`context_to_parts`) to
    pool workers and shards, and so the factory has a stable repr to
    fold into the context's content fingerprint.
    """

    reg: float = 1e-4
    epochs: int = 120
    batch_size: int = 128

    def __call__(self, seed: int) -> BaseEstimator:
        return LinearSVM(reg=self.reg, epochs=self.epochs,
                         batch_size=self.batch_size, seed=seed)


@dataclass(frozen=True)
class VictimFactory:
    """``factory(seed) -> BaseEstimator`` for any victim kind.

    The generic counterpart of :class:`SVMVictimFactory`, and the one
    table of victim kinds (``_VICTIM_KINDS``): every kind the engine's
    :class:`~repro.engine.VictimSpec` can name — ``"svm"``,
    ``"logistic"``, ``"perceptron"``, ``"ridge"`` and
    ``"naive_bayes"``.  ``params`` are constructor overrides
    (canonicalised to a sorted tuple of pairs, like spec params);
    seeded trainers receive the per-round model seed at call time,
    deterministic ones ignore it.  The factory never crosses a
    process: pool workers and shards receive round specs and rebuild
    it from the spec's :class:`~repro.engine.VictimSpec`
    (:func:`~repro.engine.materialize_victim`).  A frozen dataclass, so
    it has the stable repr the context fingerprint requires.
    """

    kind: str = "svm"
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "params",
            check_canonical_params(self.params, name="victim params"))
        if self.kind not in _VICTIM_KINDS:
            raise ValueError(
                f"unknown victim kind {self.kind!r}; choose from "
                f"{sorted(_VICTIM_KINDS)}"
            )

    def __call__(self, seed: int) -> BaseEstimator:
        return _VICTIM_KINDS[self.kind](dict(self.params), seed)


def _victim_svm(params: dict, seed: int) -> BaseEstimator:
    return LinearSVM(
        reg=float(params.get("reg", 1e-4)),
        epochs=int(params.get("epochs", 120)),
        batch_size=int(params.get("batch_size", 128)),
        seed=seed,
    )


def _victim_logistic(params: dict, seed: int) -> BaseEstimator:
    from repro.ml.logistic import LogisticRegression

    return LogisticRegression(**params)


def _victim_perceptron(params: dict, seed: int) -> BaseEstimator:
    from repro.ml.perceptron import Perceptron

    return Perceptron(
        epochs=int(params.get("epochs", 20)),
        seed=seed,
        average=bool(params.get("average", True)),
    )


def _victim_ridge(params: dict, seed: int) -> BaseEstimator:
    from repro.ml.ridge import RidgeClassifier

    return RidgeClassifier(**params)


def _victim_naive_bayes(params: dict, seed: int) -> BaseEstimator:
    from repro.ml.naive_bayes import GaussianNaiveBayes

    return GaussianNaiveBayes(**params)


_VICTIM_KINDS = {
    "svm": _victim_svm,
    "logistic": _victim_logistic,
    "perceptron": _victim_perceptron,
    "ridge": _victim_ridge,
    "naive_bayes": _victim_naive_bayes,
}


def _default_model_factory_for(n_train: int) -> Callable[[int], BaseEstimator]:
    """The paper's victim: a hinge-loss linear SVM.

    The epoch count is scaled so the total number of Pegasos steps is
    roughly constant (~500) regardless of the context's training-set
    size; the game's attack/defence trade-off depends on how converged
    the victim is, so holding optimisation effort fixed keeps
    subsampled contexts faithful to the full-size experiment.
    """
    batch_size = 128
    steps_per_epoch = max(1, n_train // batch_size)
    epochs = int(np.clip(round(500 / steps_per_epoch), 10, 120))
    return SVMVictimFactory(reg=1e-4, epochs=epochs, batch_size=batch_size)


def _factory_signature(factory) -> str | None:
    """A stable textual identity for a model factory, or ``None``.

    Dataclass factories (e.g. :class:`SVMVictimFactory`) expose their
    full configuration through ``repr``.  Closures and other objects
    whose repr embeds a memory address are *opaque*: their captured
    hyperparameters are invisible, so no stable signature exists —
    ``None`` tells the fingerprint to refuse any identity claim for
    them.
    """
    r = repr(factory)
    return None if " at 0x" in r else r


@dataclass
class ExperimentContext:
    """Frozen experimental setting shared by every configuration.

    Attributes
    ----------
    X_train, y_train, X_test, y_test:
        Scaled, split data (scaler fitted on the training portion only).
    radius_map:
        Genuine-data radius <-> percentile correspondence, computed
        around the robust (median) centroid of the clean training set.
    model_factory:
        ``model_factory(seed) -> BaseEstimator`` producing fresh victim
        models.
    centroid_method:
        Centroid estimator used consistently by attacker and defender.
    seed:
        Base seed; per-configuration seeds are derived from it.
    dataset_name, is_real_data:
        Provenance for reports.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    radius_map: RadiusPercentileMap
    model_factory: Callable[[int], BaseEstimator]
    centroid_method: str
    seed: int
    dataset_name: str
    is_real_data: bool

    @property
    def n_train(self) -> int:
        return int(self.X_train.shape[0])

    def fingerprint(self) -> str:
        """Content hash identifying this context for the engine's cache.

        Covers the exact split data, the preprocessing outcome (the
        arrays are hashed *after* scaling), the centroid convention and
        the victim factory's configuration — everything a round's
        result depends on besides the round spec itself.  The radius
        map needs no separate hash: it is a deterministic function of
        ``X_train`` and ``centroid_method``.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        h = hashlib.sha256()
        for arr in (self.X_train, self.y_train, self.X_test, self.y_test):
            a = np.ascontiguousarray(arr)
            h.update(str(a.dtype).encode("utf-8"))
            h.update(str(a.shape).encode("utf-8"))
            h.update(a.tobytes())
        factory_sig = _factory_signature(self.model_factory)
        if factory_sig is None:
            # Opaque factory (closure etc.): two contexts could differ
            # only in captured hyperparameters we cannot see, so they
            # must never share cache entries.  A per-instance salt keeps
            # caching correct (and still useful *within* this context)
            # at the deliberate cost of cross-process/disk reuse.
            factory_sig = f"opaque:{uuid.uuid4().hex}"
        meta = "|".join([self.dataset_name, self.centroid_method,
                         str(self.seed), str(self.is_real_data), factory_sig])
        h.update(meta.encode("utf-8"))
        # Published once, like the kernel: racing threads agree even on
        # an opaque factory's per-instance salt.
        return self.__dict__.setdefault("_fingerprint", h.hexdigest())

    def kernel(self):
        """The lazily-built, cached per-context round kernel.

        Holds everything constant across rounds — clean centroid,
        clean distance vector, percentile->radius lookups, fitted
        attack direction — so one uncached round only pays for what
        actually varies with its spec and seed.  See
        :mod:`repro.experiments.kernel`.  Published once: threads that
        race to build it all get the first kernel stored.
        """
        k = self.__dict__.get("_kernel")
        if k is None:
            from repro.experiments.kernel import build_context_kernel

            k = self.__dict__.setdefault("_kernel",
                                         build_context_kernel(self))
        return k

    def __getstate__(self):
        # The kernel is derivable; never ship it inside a pickled
        # context.
        state = dict(self.__dict__)
        state.pop("_kernel", None)
        return state

    def attack_surrogate(self) -> BaseEstimator:
        """A fresh, unfitted copy of the victim model for the attacker.

        The threat model grants the attacker full knowledge of the
        learner, so the optimal attack aims at the *victim's own*
        discriminative direction.  (A mismatched surrogate — e.g. ridge
        against an SVM victim — measurably blunts the attack; the
        ablation benchmarks quantify this.)
        """
        return self.model_factory(derive_seed(self.seed, "attack-surrogate"))

    def boundary_attack(self, percentile: float):
        """The optimal attack at ``percentile`` with the matched surrogate.

        Carries the context's round kernel so repeated rounds skip the
        surrogate refit and clean-geometry recomputation (the kernel is
        only consulted for this context's own ``X_train``; on any other
        data the attack computes from scratch).
        """
        from repro.attacks.optimal_boundary import OptimalBoundaryAttack

        return OptimalBoundaryAttack(
            target_percentile=float(percentile),
            surrogate=self.attack_surrogate(),
            centroid_method=self.centroid_method,
            precomputed=self.kernel(),
        )


class _IdentityScaler:
    """No-op scaler (raw features, the paper's implicit choice)."""

    def fit(self, X):
        return self

    def transform(self, X):
        return np.asarray(X, dtype=float)


_SCALERS = {"robust": RobustScaler, "standard": StandardScaler,
            "none": _IdentityScaler}


def _radius_map(X_train, centroid_method: str) -> RadiusPercentileMap:
    """The genuine radius map: every clean row's distance to the clean
    centroid."""
    centroid = compute_centroid(X_train, method=centroid_method)
    return RadiusPercentileMap(distances_to_centroid(X_train, centroid))


def _build_context(X, y, *, seed, test_size, model_factory, centroid_method,
                   dataset_name, is_real, scaler="robust") -> ExperimentContext:
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=test_size, stratify=True, seed=derive_seed(seed, "split")
    )
    if scaler not in _SCALERS:
        raise ValueError(f"unknown scaler {scaler!r}; choose from {sorted(_SCALERS)}")
    scaler = _SCALERS[scaler]().fit(X_train)
    X_train = scaler.transform(X_train)
    X_test = scaler.transform(X_test)
    return ExperimentContext(
        X_train=X_train,
        y_train=y_train,
        X_test=X_test,
        y_test=y_test,
        radius_map=_radius_map(X_train, centroid_method),
        model_factory=model_factory or _default_model_factory_for(X_train.shape[0]),
        centroid_method=centroid_method,
        seed=seed,
        dataset_name=dataset_name,
        is_real_data=is_real,
    )


def make_spambase_context(
    *,
    seed: int = 0,
    test_size: float = 0.3,
    n_samples: int | None = None,
    model_factory: Callable[[int], BaseEstimator] | None = None,
    centroid_method: str = "median",
    path: str | None = None,
    scaler: str = "robust",
) -> ExperimentContext:
    """The paper's experimental setting: Spambase, 70/30 split, SVM.

    ``n_samples`` subsamples the dataset (stratified by shuffling) for
    faster CI/benchmark runs; ``None`` keeps all 4601 instances.
    ``scaler`` chooses the preprocessing (``"robust"`` median/IQR —
    the default, consistent with the robust centroid and preserving
    Spambase's heavy distance tail — or ``"standard"``).
    """
    X, y, is_real = load_spambase(path, seed=derive_seed(seed, "spambase"))
    if n_samples is not None and n_samples < X.shape[0]:
        rng = as_generator(derive_seed(seed, "subsample"))
        idx = rng.permutation(X.shape[0])[:n_samples]
        X, y = X[idx], y[idx]
    return _build_context(
        X, y, seed=seed, test_size=test_size, model_factory=model_factory,
        centroid_method=centroid_method,
        dataset_name="spambase" if is_real else "spambase-surrogate",
        is_real=is_real, scaler=scaler,
    )


def make_synthetic_context(
    *,
    seed: int = 0,
    n_samples: int = 600,
    n_features: int = 8,
    separation: float = 2.5,
    test_size: float = 0.3,
    model_factory: Callable[[int], BaseEstimator] | None = None,
    centroid_method: str = "median",
    scaler: str = "standard",
) -> ExperimentContext:
    """A small Gaussian-blobs setting for tests and quick examples."""
    X, y = make_gaussian_blobs(
        n_samples=n_samples, n_features=n_features, separation=separation,
        seed=derive_seed(seed, "blobs"),
    )
    return _build_context(
        X, y, seed=seed, test_size=test_size, model_factory=model_factory,
        centroid_method=centroid_method, dataset_name="gaussian-blobs",
        is_real=False, scaler=scaler,
    )


_CONTEXT_MAKERS = {
    "spambase": make_spambase_context,
    "synthetic": make_synthetic_context,
}


def make_context(name: str, **kwargs) -> ExperimentContext:
    """Build a context by name (``"spambase"`` or ``"synthetic"``).

    The dispatcher the CLI and the cluster shard server share, so
    "which experimental setting" is one string plus keyword overrides
    on both ends of a deployment.
    """
    try:
        maker = _CONTEXT_MAKERS[str(name)]
    except KeyError:
        raise ValueError(
            f"unknown context {name!r}; choose from "
            f"{sorted(_CONTEXT_MAKERS)}"
        ) from None
    return maker(**kwargs)


# With the header of context_to_parts, exactly what
# ExperimentContext.fingerprint hashes.
_CONTEXT_ARRAYS = ("X_train", "y_train", "X_test", "y_test")


def context_to_parts(ctx: ExperimentContext) -> tuple[dict, dict]:
    """Split ``ctx`` into a JSON header and its four data arrays.

    The one form in which a context leaves its process (pool workers
    map the arrays from shared memory, a shard's ``--context-file`` is
    an ``.npz`` of them); nothing derived travels.  A ``model_factory``
    other than an :class:`SVMVictimFactory` cannot be written down and
    raises ``TypeError``: such a context runs on the serial backend.
    """
    factory = ctx.model_factory
    if type(factory) is not SVMVictimFactory:
        raise TypeError(
            "the experiment context cannot leave its process: its "
            f"model_factory {factory!r} is not an SVMVictimFactory (use "
            "repro.experiments.runner.SVMVictimFactory, or the serial "
            "backend)")
    header = {
        "centroid_method": ctx.centroid_method,
        "seed": int(ctx.seed),
        "dataset_name": ctx.dataset_name,
        "is_real_data": bool(ctx.is_real_data),
        "model_factory": asdict(factory),
    }
    arrays = {name: np.ascontiguousarray(getattr(ctx, name))
              for name in _CONTEXT_ARRAYS}
    return header, arrays


def context_from_parts(header: dict, arrays) -> ExperimentContext:
    """Inverse of :func:`context_to_parts`.

    The context holds ``arrays`` as given (shared-memory views stay
    views) and recomputes everything derived: the radius map here, the
    fingerprint and the round kernel on demand.  A copy therefore
    cannot disagree with its fingerprint.
    """
    fields = dict(header)
    factory = SVMVictimFactory(**fields.pop("model_factory"))
    return ExperimentContext(
        **{name: arrays[name] for name in _CONTEXT_ARRAYS},
        radius_map=_radius_map(arrays["X_train"], fields["centroid_method"]),
        model_factory=factory, **fields)


def save_context(ctx: ExperimentContext, path: str) -> str:
    """Write ``ctx`` to ``path`` as an ``.npz`` of
    :func:`context_to_parts` (a shard's ``--context-file``).

    Written through an open handle, so ``path`` keeps its name
    (``np.savez`` appends ``.npz`` to a string path).
    """
    header, arrays = context_to_parts(ctx)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), **arrays)
    return path


def load_context(path: str) -> ExperimentContext:
    """Inverse of :func:`save_context`.

    Reads arrays and JSON only (``allow_pickle=False``), so a file
    runs no code; one that is not a saved context raises
    ``ValueError``.  Its fingerprint is recomputed from what it
    holds: a file edited after saving answers with a different one.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(npz["header"].item())
            arrays = {name: npz[name] for name in _CONTEXT_ARRAYS}
        return context_from_parts(header, arrays)
    except (EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ValueError(
            f"{path!r} is not a context file written by save_context: "
            f"{exc}") from exc


@dataclass(frozen=True)
class EvaluationOutcome:
    """Result of one attack/filter/train/score round."""

    accuracy: float
    n_poison: int
    n_removed: int
    filter_percentile: float | None
    filter_radius: float | None
    report: DefenseReport | None


@dataclass
class PreparedRound:
    """A round paused between "materialise the training set" and "fit".

    :func:`prepare_configuration` runs the attack and the defence and
    builds the (unfitted) victim; :func:`finish_configuration` trains
    and scores it.  The split exists so the engine's batched executor
    can collect the prepared victims of many rounds and train eligible
    groups through :meth:`~repro.ml.linear_svm.LinearSVM.fit_many` —
    a caller that fits a prepared model itself sets ``fitted`` so the
    finish step doesn't train twice.

    ``rows`` locates the training set in a shared source: row ``i``
    of ``X_tr`` is row ``rows[i]`` of ``[ctx.X_train; X_poison]``,
    where ``X_poison`` / ``y_poison`` (signed labels) are the poison
    rows that survived the defence (see :func:`resident_source`).
    """

    model: BaseEstimator
    X_tr: np.ndarray
    y_tr: np.ndarray
    n_poison: int
    n_removed: int
    filter_percentile: float | None
    filter_radius: float | None
    report: DefenseReport | None
    rows: np.ndarray
    X_poison: np.ndarray
    y_poison: np.ndarray
    fitted: bool = False


def prepare_configuration(
    ctx: ExperimentContext,
    *,
    filter_percentile: float | None = None,
    attack: PoisoningAttack | None = None,
    defense=None,
    poison_fraction: float = 0.2,
    seed: int | None = None,
    use_kernel: bool = True,
    victim_factory: Callable[[int], BaseEstimator] | None = None,
) -> PreparedRound:
    """The attack/filter half of a round: everything except the fit.

    Same parameters as :func:`evaluate_configuration` (which is exactly
    this followed by :func:`finish_configuration`); returns the
    :class:`PreparedRound` holding the final training set and the
    fresh, seeded, *unfitted* victim model.

    Parameters
    ----------
    filter_percentile:
        Defender's action on the genuine-percentile axis (``None`` or
        ``0`` disables filtering).  The filter sphere is centred on the
        clean-data centroid (the paper's "centroid of the original
        dataset"), with the radius looked up in the genuine map.
    attack:
        Attacker's concrete attack (``None`` for the clean baseline).
    defense:
        Any live :class:`~repro.defenses.base.Defense` applied to the
        (possibly poisoned) training set in place of the radius
        filter — the uniform entry point the engine's non-radius
        :class:`~repro.engine.DefenseSpec` kinds materialise through.
        Mutually exclusive with ``filter_percentile``.
    poison_fraction:
        Contamination rate of the final training set (paper: 0.2).
    seed:
        Round seed (defaults to the context seed); controls attack
        randomness, dataset shuffling and victim training.
    use_kernel:
        With ``True`` (default) the round reuses the context's cached
        :class:`~repro.experiments.kernel.ContextKernel`; ``False``
        recomputes every per-round quantity from scratch.  The two
        paths are bit-identical — the flag exists for the equivalence
        tests and for benchmarking the kernel's effect.
    victim_factory:
        Optional ``factory(seed) -> BaseEstimator`` overriding the
        context's victim for this round (the engine materialises it
        from a :class:`~repro.engine.VictimSpec`).  The attacker's
        surrogate remains the context's own factory — the threat model
        grants knowledge of the deployed learner's family, which the
        context defines.
    """
    if defense is not None and filter_percentile is not None \
            and filter_percentile > 0.0:
        raise ValueError("pass either filter_percentile or defense, not both")
    round_seed = ctx.seed if seed is None else seed
    rng = as_generator(derive_seed(round_seed, "round"))
    X_tr, y_tr = ctx.X_train, ctx.y_train
    kernel = ctx.kernel() if use_kernel else None

    is_poison = np.zeros(X_tr.shape[0], dtype=bool)
    sources = None
    n_poison = 0
    if attack is not None:
        check_fraction(poison_fraction, name="poison_fraction", inclusive_high=False)
        with telemetry.trace_span("attack", seed=round_seed):
            X_tr, y_tr, is_poison, sources = poison_dataset(
                ctx.X_train, ctx.y_train, attack, fraction=poison_fraction,
                seed=rng, return_sources=True,
            )
        n_poison = int(is_poison.sum())
    # Row i of the training set is row rows[i] of the pre-shuffle
    # [ctx.X_train; all poison] stack.
    rows = np.arange(X_tr.shape[0]) if sources is None else sources

    report = None
    filter_radius = None
    n_removed = 0
    if filter_percentile is not None and filter_percentile > 0.0:
        with telemetry.trace_span("defense", seed=round_seed):
            if kernel is not None:
                filter_radius = kernel.filter_radius(filter_percentile)
                keep = kernel.keep_mask(X_tr, y_tr, is_poison, sources,
                                        filter_radius)
            else:
                filter_radius = ctx.radius_map.radius(filter_percentile)
                clean_centroid = compute_centroid(ctx.X_train,
                                                  method=ctx.centroid_method)
                radius_defense = RadiusFilter(filter_radius,
                                              centroid_method=ctx.centroid_method,
                                              centroid=clean_centroid)
                keep = radius_defense.mask(X_tr, y_tr)
        report = defense_report(keep, is_poison)
        n_removed = int((~keep).sum())
        X_tr, y_tr = X_tr[keep], y_tr[keep]
        rows, is_poison = rows[keep], is_poison[keep]
    elif defense is not None:
        keep = None
        with telemetry.trace_span("defense", seed=round_seed):
            if kernel is not None:
                # Per-family kernel fast path: a defence may serve its
                # keep mask from per-context cached geometry (e.g. the
                # slab filter's clean per-class scores).  ``None`` means
                # "not applicable for this round" — fall through to
                # mask().
                fast = getattr(defense, "kernel_mask", None)
                if fast is not None:
                    keep = fast(kernel, X_tr, y_tr, is_poison, sources)
            if keep is None:
                keep = np.asarray(defense.mask(X_tr, y_tr), dtype=bool)
        report = defense_report(keep, is_poison)
        n_removed = int((~keep).sum())
        X_tr, y_tr = X_tr[keep], y_tr[keep]
        rows, is_poison = rows[keep], is_poison[keep]
        # Defences that realise a geometric radius expose it (e.g.
        # PercentileFilter.theta_); report it when finite.
        realised = getattr(defense, "theta_", None)
        if realised is None:
            realised = getattr(defense, "theta", None)
        if realised is not None and np.isfinite(realised):
            filter_radius = float(realised)

    # Renumber the surviving poison rows into their own block.
    rows[is_poison] = ctx.X_train.shape[0] + np.arange(
        int(np.count_nonzero(is_poison)))

    factory = ctx.model_factory if victim_factory is None else victim_factory
    model = factory(derive_seed(round_seed, "model"))
    return PreparedRound(
        model=model,
        X_tr=X_tr,
        y_tr=y_tr,
        n_poison=n_poison,
        n_removed=n_removed,
        filter_percentile=filter_percentile,
        filter_radius=filter_radius,
        report=report,
        rows=rows,
        X_poison=X_tr[is_poison],
        y_poison=y_tr[is_poison],
    )


def resident_source(ctx: ExperimentContext, prepared_rounds):
    """Several prepared rounds' training sets as row sets of one source.

    Returns ``(X, y_signed, rows)``: ``X`` stacks ``ctx.X_train`` and
    every round's surviving poison rows, ``y_signed`` holds their
    signed float labels, and ``X[rows[i]]`` is round ``i``'s ``X_tr``
    row for row.  Gathering many rounds' rows from it reads the shared
    clean rows from one block.
    """
    n_clean = ctx.X_train.shape[0]
    X_blocks = [ctx.X_train]
    y_blocks = [signed_labels(ctx.y_train).astype(float)]
    rows = []
    offset = n_clean
    for prepared in prepared_rounds:
        # Shift this round's poison rows onto its block's offset.
        rows.append(np.where(prepared.rows < n_clean, prepared.rows,
                             prepared.rows + (offset - n_clean)))
        X_blocks.append(prepared.X_poison)
        y_blocks.append(prepared.y_poison.astype(float))
        offset += prepared.X_poison.shape[0]
    return np.concatenate(X_blocks), np.concatenate(y_blocks), rows


def finish_configuration(ctx: ExperimentContext,
                         prepared: PreparedRound) -> EvaluationOutcome:
    """Train (unless already fitted) and score a :class:`PreparedRound`."""
    model = prepared.model
    if not prepared.fitted:
        with telemetry.trace_span("fit", rounds=1):
            model.fit(prepared.X_tr, prepared.y_tr)
    with telemetry.trace_span("payoff"):
        accuracy = model.score(ctx.X_test, ctx.y_test)
    return EvaluationOutcome(
        accuracy=float(accuracy),
        n_poison=prepared.n_poison,
        n_removed=prepared.n_removed,
        filter_percentile=prepared.filter_percentile,
        filter_radius=prepared.filter_radius,
        report=prepared.report,
    )


def evaluate_configuration(
    ctx: ExperimentContext,
    *,
    filter_percentile: float | None = None,
    attack: PoisoningAttack | None = None,
    defense=None,
    poison_fraction: float = 0.2,
    seed: int | None = None,
    use_kernel: bool = True,
    victim_factory: Callable[[int], BaseEstimator] | None = None,
) -> EvaluationOutcome:
    """Play one round of the game and return the test accuracy.

    Exactly :func:`prepare_configuration` (which documents the
    parameters) followed by :func:`finish_configuration` — the split
    lets the engine's batched executor train groups of prepared rounds
    together, without changing what any single round computes.
    """
    prepared = prepare_configuration(
        ctx,
        filter_percentile=filter_percentile,
        attack=attack,
        defense=defense,
        poison_fraction=poison_fraction,
        seed=seed,
        use_kernel=use_kernel,
        victim_factory=victim_factory,
    )
    return finish_configuration(ctx, prepared)
