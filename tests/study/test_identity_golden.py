"""Golden identities: study fingerprints and round cache keys.

Archives are addressed by ``StudySpec.fingerprint()`` and engine caches
by ``round_key(context fingerprint, RoundSpec)``.  Both are pure
functions of the declarative specs — no dataset is loaded and no round
runs — so the values below hold on any NumPy build.  A change to either
recipe, to a builder's defaults or to a ``*_rounds`` expander's seeds or
layout would orphan every archive and cache written before it; these
pins catch that.

The expected values were recorded once and must never be edited to make
a refactor pass: a mismatch means existing archives and caches no
longer resolve.
"""

import hashlib

import pytest

from repro.engine import (AttackSpec, DefenseSpec, VictimSpec,
                          parse_attack_spec, parse_defense_spec)
from repro.engine.cache import round_keys
from repro.study import ContextSpec, drivers, studies

CTX = ContextSpec(name="synthetic", seed=3, n_samples=240,
                  params={"n_features": 4})
DEFENSES = ("radius:0.1", "slab_filter:0.1", "none")
ATTACKS = ("boundary:0.05", "label-flip", "clean")


def _specs():
    return {
        "figure1": studies.figure1(
            context=CTX, percentiles=(0.0, 0.1, 0.3), poison_fraction=0.25,
            n_repeats=2, victim="logistic"),
        "mixed_eval": studies.mixed_eval(
            context=CTX, percentiles=(0.05, 0.2), probabilities=(0.4, 0.6)),
        "table1": studies.table1(
            context=CTX, percentiles=(0.0, 0.1, 0.3), n_radii=(2,),
            algorithm_params={"max_iter": 50}),
        "empirical_game": studies.empirical_game(
            context=CTX, percentiles=(0.0, 0.1), defense_kind="slab_filter"),
        "cross_game": studies.cross_game(
            context=CTX, defenses=DEFENSES, attacks=ATTACKS,
            poison_fraction=0.25),
        "multi_seed": studies.multi_seed(
            context=CTX, n_seeds=2, base_seed=4, percentiles=(0.0, 0.2)),
        "grid": studies.grid(
            context=CTX, defenses=DEFENSES[:2], attacks=ATTACKS[:2],
            victims=(None, "logistic"), fractions=(0.1, 0.2), n_repeats=2),
    }


GOLDEN_FINGERPRINTS = {
    "figure1":
        "cda781dab58abd1dd8ecb1c8c13eeb01b3c52293d9d52a58cf1538ca67aa67ac",
    "mixed_eval":
        "a99da281e3f54abee3daab5a48d35b6040288a8f2e0e7f4eb4334a3f0de53608",
    "table1":
        "9f2f76676747bf8d12da1839ce2e15c57f43729fe96c33956cec94811362397a",
    "empirical_game":
        "3ac2daaa4a155d0395253ad07ff3dc7239f75beb7fdb3a7e1b3404973891a1f5",
    "cross_game":
        "140aed69ed8fe50cf16b80c86c7c961ba4bc3be03beca222d351c1f3fb0285dd",
    "multi_seed":
        "1d7253876511fba31a4f13e435dd4e7bceb6b6f9e837d4edee317ebd6f2589f1",
    "grid":
        "64f140a902ced3ca1d00d11ffadb171ff03a03f11fbec2e9ee7cf8e7d0fcea65",
}


def _rounds():
    defenses = [parse_defense_spec(d) for d in DEFENSES]
    attacks = [parse_attack_spec(a) for a in ATTACKS]
    victim = VictimSpec("logistic")
    return {
        "sweep": drivers.sweep_rounds(
            7, (0.0, 0.1, 0.3), 0.25, 2, victim, "radius", ()),
        "support": drivers.support_rounds(
            7, (0.05, 0.2), 0.2, 2, "empirical", None,
            "slab_filter", ()),
        "cross": drivers.cross_rounds(
            7, defenses, attacks, 0.2, 2, victim),
        "grid": drivers.grid_rounds(
            7, [DefenseSpec("radius", 0.1), None],
            [AttackSpec("boundary", 0.05), None], [None, victim],
            (0.1, 0.2), 2),
    }


GOLDEN_ROUND_DIGESTS = {
    "sweep":
        "dd81be49f91414533442e956fd81744c5e4fb4c0a1d6da917348bf4211b7d3c1",
    "support":
        "34ce7f2693c65a00fb6ceae1e4dbd297b58d484ff93c0a7872c85cf501d0c96b",
    "cross":
        "881c800ebfd868b2d9878a86661e78bdf4ea8b3039d3812b02cc4bfbdbbb812d",
    "grid":
        "0a09b0ce0a7dec7d7d80731565b4be04ab9c95a6fa6c2e85fea3e053e7447488",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_FINGERPRINTS))
def test_study_fingerprint_is_pinned(kind):
    spec = _specs()[kind]
    assert spec.kind == kind
    assert spec.fingerprint() == GOLDEN_FINGERPRINTS[kind]


def test_every_study_kind_is_pinned():
    from repro.study import STUDY_KINDS

    assert set(GOLDEN_FINGERPRINTS) == set(STUDY_KINDS)


@pytest.mark.parametrize("expander", sorted(GOLDEN_ROUND_DIGESTS))
def test_round_keys_are_pinned(expander):
    keys = round_keys("golden-context", _rounds()[expander])
    digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
    assert digest == GOLDEN_ROUND_DIGESTS[expander]
