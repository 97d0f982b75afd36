"""Golden identities: study fingerprints and round cache keys.

Archives are addressed by ``StudySpec.fingerprint()`` and engine caches
by ``round_key(context fingerprint, RoundSpec)``.  Both are pure
functions of the declarative specs — no dataset is loaded and no round
runs — so the values below hold on any NumPy build.  A change to either
recipe, to a builder's defaults or to a ``*_rounds`` expander's seeds or
layout would orphan every archive and cache written before it; these
pins catch that.

The expected values must never be edited to make a refactor pass: a
mismatch means existing archives and caches no longer resolve.  They
are re-recorded only when the round schema is bumped on purpose (last
at v4, when rounds moved to one BLAS thread), which stales every
archive and cache entry written before it.
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
        "add76779565b2f18305f84a1fd601e1ceb57e11009cd873b07c1268b4117b4b9",
    "mixed_eval":
        "6f8d3d7b71bd1227b00bf206f0f0503a65d1aa3e4a550f959bbd88c61e324f2f",
    "table1":
        "4345c6d9dcdf319b86e42c95c06f499157f8e30594bb1f4738b135d9d7212cd1",
    "empirical_game":
        "a7dc3bc3ae2964498d4e3283e58e47d02019f564bd78a13e1898bdeadbbb024a",
    "cross_game":
        "bd23cf93675d6def6081d86b54633d91188d7a77c74fa88c7a0cb673fec6465e",
    "multi_seed":
        "ae6d2bd1e6837320b47d4b7ff310cc4ff9c0396d65677773b9697fee3cca09eb",
    "grid":
        "15fe9673b00cd499e1188e9c6436a9bb678903c494d8ef5b31d797e5a1f19535",
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
        "4b552a77182176d223a908391fadca7261776ac69a43219c847d93a3e2ceb307",
    "support":
        "8b9dc283bc1ac61b18626db55ba649b75c8d384cb9c05a72583225f9440b348e",
    "cross":
        "9b24e6f08ce4009ee7e1f9aa98d142ed27e4a0f75a0b65074de8e05474afb2c7",
    "grid":
        "678931d795a064ee255cd05989885440773e59f428a4963e8228714996480ca2",
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
