"""Serialisable experiment result records.

Every study kind's solved payload is one of these dataclasses:
:class:`PureSweepResult` (Figure 1), :class:`MixedStrategyResult` rows
(Table 1), :class:`MixedEvalResult`, :class:`EmpiricalGameResult`,
:class:`CrossGameResult`, :class:`AggregatedSweep` (multi-seed) and
:class:`GridResult`.  :func:`result_to_payload` /
:func:`result_from_payload` are their one codec: a ``{"type": class
name, "data": ...}`` document that :class:`~repro.study.result.
StudyResult` embeds, so an archived study renders with exactly the
reporting the live run used.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "PureSweepResult",
    "MixedStrategyResult",
    "Table1Row",
    "MixedEvalResult",
    "GridResult",
    "EmpiricalGameResult",
    "CrossGameResult",
    "AggregatedSweep",
    "result_to_payload",
    "result_from_payload",
]


def _listify(obj):
    """Recursively convert numpy containers to plain Python for JSON."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _listify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listify(v) for v in obj]
    return obj


@dataclass
class PureSweepResult:
    """Figure-1 data: pure-strategy defence under optimal attack.

    Attributes
    ----------
    percentiles:
        Filter strengths swept (fraction of genuine data removed).
    acc_clean:
        Test accuracy with each filter, **no attack** — the collateral
    acc_attacked:
        Test accuracy with each filter under the optimal boundary
        attack that survives it.
    n_poison:
        Attack budget used.
    poison_fraction:
        Contamination rate of the training set.
    dataset_name:
        Data provenance.
    n_repeats:
        Averaging repetitions per grid point.
    """

    percentiles: list
    acc_clean: list
    acc_attacked: list
    n_poison: int
    poison_fraction: float
    dataset_name: str
    n_repeats: int = 1

    @property
    def best_pure(self) -> tuple[float, float]:
        """(percentile, accuracy) of the best pure defence under attack."""
        idx = int(np.argmax(self.acc_attacked))
        return float(self.percentiles[idx]), float(self.acc_attacked[idx])

    @property
    def clean_baseline(self) -> float:
        """Unfiltered, unattacked accuracy."""
        return float(self.acc_clean[0])


@dataclass
class MixedStrategyResult:
    """Table-1 data for one support size ``n``.

    ``accuracy`` is the expected test accuracy of the mixed defence
    under the optimal (indifferent) attack; ``accuracy_matrix[i][j]``
    is the accuracy when the defender draws support point ``i`` and the
    attacker places at support point ``j``.
    """

    n_radii: int
    percentiles: list
    probabilities: list
    accuracy: float
    accuracy_std: float
    expected_loss: float
    best_pure_accuracy: float
    best_pure_percentile: float
    accuracy_matrix: list = field(default_factory=list)
    algorithm_iterations: int = 0
    wall_time_seconds: float = 0.0


@dataclass
class Table1Row:
    """One column block of the paper's Table 1."""

    n_radii: int
    radii_percent: list
    probabilities_percent: list
    accuracy_percent: float


@dataclass
class MixedEvalResult:
    """One mixed defence evaluated under the optimal mixed attack.

    The record form of the ``(expected_accuracy, dispersion, matrix)``
    that ``repro.study.drivers.mixed_defense_evaluation`` returns, plus
    the strategy it evaluated — what the ``mixed_eval`` study kind
    archives.
    """

    percentiles: list
    probabilities: list
    expected_accuracy: float
    dispersion: float
    accuracy_matrix: list
    poison_fraction: float = 0.2
    n_repeats: int = 1


@dataclass
class GridResult:
    """The measured accuracy tensor of a raw scenario-grid study.

    ``accuracy[i][j][k][l]`` is the mean test accuracy for defence
    ``defense_labels[i]`` against attack ``attack_labels[j]`` on victim
    ``victim_labels[k]`` at contamination rate ``fractions[l]``.
    """

    defense_labels: list
    attack_labels: list
    victim_labels: list
    fractions: list
    accuracy: list
    n_repeats: int = 1
    dataset_name: str = ""


@dataclass
class EmpiricalGameResult:
    """Solution of the measured poisoning game on a percentile grid.

    Accuracy convention: entries of ``accuracy_matrix`` are test
    accuracies; the attacker minimises accuracy, the defender maximises
    it.  (Internally the LP solves the zero-sum game with the attacker
    as the maximising row player on ``1 - accuracy``.)

    Attributes
    ----------
    percentiles:
        The shared strategy grid.
    accuracy_matrix:
        ``A[i, j]`` — measured accuracy when the defender filters at
        ``percentiles[i]`` and the attacker places at ``percentiles[j]``.
    defender_mix, attacker_mix:
        Equilibrium strategies of the measured game.
    game_value_accuracy:
        Expected accuracy at the equilibrium.
    best_pure_accuracy, best_pure_percentile:
        The best *pure* defence's guaranteed accuracy
        ``max_i min_j A[i, j]`` and its percentile.
    mixed_advantage:
        ``game_value_accuracy - best_pure_accuracy`` (>= 0 always;
        > 0 iff no saddle point).
    has_saddle_point:
        Whether a pure equilibrium exists in the measured game.
    """

    percentiles: list
    accuracy_matrix: list
    defender_mix: list
    attacker_mix: list
    game_value_accuracy: float
    best_pure_accuracy: float
    best_pure_percentile: float
    mixed_advantage: float
    has_saddle_point: bool
    n_repeats: int = 1
    defender_support: list = field(default_factory=list)

    def support(self, threshold: float = 0.01) -> list:
        """(percentile, probability) pairs with probability above threshold."""
        return [
            (float(p), float(q))
            for p, q in zip(self.percentiles, self.defender_mix)
            if q > threshold
        ]


@dataclass
class CrossGameResult:
    """Solution of a measured game whose strategies span *families*.

    The defender's pure strategies are arbitrary
    :class:`~repro.engine.DefenseSpec`\\ s (mixing defence kinds, not
    just radius percentiles) and the attacker's are arbitrary
    :class:`~repro.engine.AttackSpec`\\ s.  Conventions match
    :class:`EmpiricalGameResult`: entries of ``accuracy_matrix[i][j]``
    are test accuracies for defence ``i`` against attack ``j``; the
    attacker minimises, the defender maximises.
    """

    defense_labels: list
    attack_labels: list
    accuracy_matrix: list
    defender_mix: list
    attacker_mix: list
    game_value_accuracy: float
    best_pure_accuracy: float
    best_pure_defense: str
    mixed_advantage: float
    has_saddle_point: bool
    victim: str | None = None
    n_repeats: int = 1

    def support(self, threshold: float = 0.01) -> list:
        """(defence label, probability) pairs above ``threshold``."""
        return [
            (str(label), float(q))
            for label, q in zip(self.defense_labels, self.defender_mix)
            if q > threshold
        ]


@dataclass
class AggregatedSweep:
    """Mean ± std of a pure-strategy sweep across seeds.

    ``acc_clean_mean[i]``/``acc_clean_std[i]`` aggregate the clean
    accuracy at ``percentiles[i]`` over the seeds; likewise for the
    attacked curve.  ``per_seed`` retains the individual results.
    """

    percentiles: np.ndarray
    acc_clean_mean: np.ndarray
    acc_clean_std: np.ndarray
    acc_attacked_mean: np.ndarray
    acc_attacked_std: np.ndarray
    n_seeds: int
    per_seed: list

    @property
    def best_pure(self) -> tuple[float, float]:
        """(percentile, mean accuracy) of the best average pure defence."""
        idx = int(np.argmax(self.acc_attacked_mean))
        return float(self.percentiles[idx]), float(self.acc_attacked_mean[idx])

    def as_sweep_result(self, dataset_name: str = "aggregated") -> PureSweepResult:
        """Collapse to a :class:`PureSweepResult` (means), e.g. for curve
        estimation on the aggregated measurement."""
        first = self.per_seed[0]
        return PureSweepResult(
            percentiles=np.asarray(self.percentiles).tolist(),
            acc_clean=np.asarray(self.acc_clean_mean).tolist(),
            acc_attacked=np.asarray(self.acc_attacked_mean).tolist(),
            n_poison=first.n_poison,
            poison_fraction=first.poison_fraction,
            dataset_name=dataset_name,
            n_repeats=self.n_seeds * first.n_repeats,
        )


def _aggregated_to_data(agg) -> dict:
    return {
        "percentiles": _listify(agg.percentiles),
        "acc_clean_mean": _listify(agg.acc_clean_mean),
        "acc_clean_std": _listify(agg.acc_clean_std),
        "acc_attacked_mean": _listify(agg.acc_attacked_mean),
        "acc_attacked_std": _listify(agg.acc_attacked_std),
        "n_seeds": int(agg.n_seeds),
        "per_seed": [_listify(asdict(s)) for s in agg.per_seed],
    }


def _aggregated_from_data(data: dict):
    return AggregatedSweep(
        percentiles=np.asarray(data["percentiles"], dtype=float),
        acc_clean_mean=np.asarray(data["acc_clean_mean"], dtype=float),
        acc_clean_std=np.asarray(data["acc_clean_std"], dtype=float),
        acc_attacked_mean=np.asarray(data["acc_attacked_mean"], dtype=float),
        acc_attacked_std=np.asarray(data["acc_attacked_std"], dtype=float),
        n_seeds=int(data["n_seeds"]),
        per_seed=[PureSweepResult(**s) for s in data["per_seed"]],
    )


def _plain_codec(cls):
    return (lambda r: _listify(asdict(r)), lambda d: cls(**d))


# Type name -> (encode, decode).  Payloads are tagged by class name, so
# a record keeps loading from old archives wherever its class lives.
_CODECS = {
    cls.__name__: _plain_codec(cls)
    for cls in (PureSweepResult, MixedStrategyResult, Table1Row,
                MixedEvalResult, GridResult, EmpiricalGameResult,
                CrossGameResult)
}
_CODECS[AggregatedSweep.__name__] = (_aggregated_to_data,
                                     _aggregated_from_data)


def result_to_payload(result) -> dict:
    """``{"type": ..., "data": ...}`` form of any result dataclass.

    Registered types use their codec; any other dataclass falls back to
    a plain ``asdict`` dump (it will serialise, but only registered
    types load back through :func:`result_from_payload`).
    """
    name = type(result).__name__
    if name not in _CODECS:
        return {"type": name, "data": _listify(asdict(result))}
    encode, _ = _CODECS[name]
    return {"type": name, "data": encode(result)}


def result_from_payload(payload: dict):
    """Inverse of :func:`result_to_payload`."""
    name = payload.get("type")
    if name not in _CODECS:
        raise ValueError(f"unknown result type {name!r}; registered: "
                         f"{sorted(_CODECS)}")
    _, decode = _CODECS[name]
    return decode(payload["data"])

