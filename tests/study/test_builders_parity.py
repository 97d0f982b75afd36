"""Every builder's study == its driver call, bit for bit.

``run_study`` dispatches each study kind to one implementation in
:mod:`repro.study.drivers`.  Each test calls that driver directly on
the live context and checks that ``run_study`` on the builder's spec
returns bit-identical results — across serial/process backends and
warm/cold cache states — and that the two paths populate the engine
cache under exactly the same keys.  (``test_identity_golden.py`` pins
the keys themselves.)
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import EvaluationEngine
from repro.study import drivers, run_study, studies

PERCENTILES = (0.0, 0.1, 0.3)
FRACTION = 0.25


def drop_wall_time(row: dict) -> dict:
    row = dict(row)
    row.pop("wall_time_seconds", None)
    return row


@pytest.fixture(params=["serial", "process"], scope="module")
def backend(request):
    return request.param


def make_engine(backend):
    jobs = 2 if backend == "process" else None
    return EvaluationEngine(backend, jobs=jobs)


class TestFigure1Parity:
    def test_driver_matches_study(self, ctx_spec, study_ctx, backend):
        direct_engine = make_engine(backend)
        direct = drivers.pure_strategy_sweep(
            study_ctx, percentiles=np.array(PERCENTILES),
            poison_fraction=FRACTION, engine=direct_engine)

        study_engine = make_engine(backend)
        result = run_study(
            studies.figure1(context=ctx_spec, percentiles=PERCENTILES,
                            poison_fraction=FRACTION),
            engine=study_engine)
        assert result.payload_object() == direct

        # Same rounds entered both caches under the same keys — and a
        # warm re-run of either path computes nothing.
        assert sorted(direct_engine.cache._memory) == \
            sorted(study_engine.cache._memory)
        rerun = run_study(
            studies.figure1(context=ctx_spec, percentiles=PERCENTILES,
                            poison_fraction=FRACTION),
            engine=direct_engine)  # warm cache from the *driver* run
        assert rerun.rounds_computed == 0
        assert rerun.payload_object() == direct


class TestMixedEvalParity:
    def test_driver_matches_study(self, ctx_spec, study_ctx):
        from repro.core.mixed_strategy import MixedDefense

        support = (0.05, 0.2)
        probs = (0.5, 0.5)
        engine = make_engine("serial")
        acc, disp, matrix = drivers.mixed_defense_evaluation(
            study_ctx, MixedDefense(np.array(support), np.array(probs)),
            poison_fraction=FRACTION, engine=engine)

        result = run_study(
            studies.mixed_eval(context=ctx_spec, percentiles=support,
                               probabilities=probs,
                               poison_fraction=FRACTION),
            engine=make_engine("serial"))
        payload = result.payload_object()
        assert payload.expected_accuracy == acc
        assert payload.dispersion == disp
        assert payload.accuracy_matrix == matrix.tolist()


class TestTable1Parity:
    def test_driver_matches_study(self, ctx_spec, study_ctx, backend):
        direct_engine = make_engine(backend)
        sweep = drivers.pure_strategy_sweep(
            study_ctx, percentiles=np.array(PERCENTILES),
            poison_fraction=FRACTION, engine=direct_engine)
        rows = drivers.table1_rows(
            study_ctx, sweep, n_radii_values=(2,),
            poison_fraction=FRACTION, engine=direct_engine)

        result = run_study(
            studies.table1(context=ctx_spec, percentiles=PERCENTILES,
                           n_radii=(2,), poison_fraction=FRACTION),
            engine=make_engine(backend))
        payload = result.payload_object()
        assert payload["sweep"] == sweep
        assert [drop_wall_time(dataclasses.asdict(r))
                for r in payload["rows"]] == \
            [drop_wall_time(dataclasses.asdict(r)) for r in rows]


class TestEmpiricalGameParity:
    def test_driver_matches_study(self, ctx_spec, study_ctx, backend):
        direct = drivers.empirical_game_solve(
            study_ctx, percentiles=np.array(PERCENTILES),
            poison_fraction=FRACTION, engine=make_engine(backend))

        result = run_study(
            studies.empirical_game(context=ctx_spec,
                                   percentiles=PERCENTILES,
                                   poison_fraction=FRACTION),
            engine=make_engine(backend))
        # defender_support holds tuples; JSON round-trips them as lists,
        # so compare on the listified dict form.
        from repro.experiments.results import result_to_payload

        assert result_to_payload(result.payload_object()) == \
            result_to_payload(direct)


class TestCrossGameParity:
    DEFENSES = ("radius:0.1", "slab_filter:0.1", "none")
    ATTACKS = ("boundary:0.05", "label-flip", "clean")

    def test_driver_matches_study(self, ctx_spec, study_ctx):
        from repro.engine import parse_attack_spec, parse_defense_spec

        direct = drivers.cross_game_solve(
            study_ctx,
            [parse_defense_spec(d) for d in self.DEFENSES],
            [parse_attack_spec(a) for a in self.ATTACKS],
            poison_fraction=FRACTION, engine=make_engine("serial"))

        result = run_study(
            studies.cross_game(context=ctx_spec, defenses=self.DEFENSES,
                               attacks=self.ATTACKS,
                               poison_fraction=FRACTION),
            engine=make_engine("serial"))
        assert result.payload_object() == direct


class TestMultiSeedParity:
    def test_driver_matches_study(self, ctx_spec):
        from repro.experiments.runner import make_synthetic_context

        direct = drivers.multi_seed_sweep(
            n_seeds=2, base_seed=4,
            context_factory=lambda seed: make_synthetic_context(
                seed=seed, n_samples=260, n_features=4),
            percentiles=np.array([0.0, 0.2]),
            poison_fraction=FRACTION, engine=make_engine("serial"))

        result = run_study(
            studies.multi_seed(context=ctx_spec, n_seeds=2, base_seed=4,
                               percentiles=(0.0, 0.2),
                               poison_fraction=FRACTION),
            engine=make_engine("serial"))
        agg = result.payload_object()
        np.testing.assert_array_equal(agg.acc_clean_mean,
                                      direct.acc_clean_mean)
        np.testing.assert_array_equal(agg.acc_attacked_mean,
                                      direct.acc_attacked_mean)
        np.testing.assert_array_equal(agg.acc_attacked_std,
                                      direct.acc_attacked_std)
        assert agg.per_seed == direct.per_seed
        assert len(result.context_fingerprints) == 2


class TestDiskCacheParity:
    def test_driver_and_study_share_disk_entries(self, ctx_spec, study_ctx,
                                                 tmp_path, counters):
        """Cold study run -> warm *driver* rerun from the same disk dir."""
        disk = str(tmp_path / "cache")
        study_engine = EvaluationEngine("serial", cache_dir=disk)
        result = run_study(
            studies.figure1(context=ctx_spec, percentiles=PERCENTILES,
                            poison_fraction=FRACTION),
            engine=study_engine)
        assert result.rounds_computed > 0

        counters()
        direct_engine = EvaluationEngine("serial", cache_dir=disk)
        direct = drivers.pure_strategy_sweep(
            study_ctx, percentiles=np.array(PERCENTILES),
            poison_fraction=FRACTION, engine=direct_engine)
        assert "engine.rounds_computed" not in counters()  # all from disk
        assert direct == result.payload_object()
