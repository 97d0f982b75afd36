"""run_study on the cluster backend: parity, streaming, resume."""

import pytest

from repro.cluster.backend import ClusterBackend
from repro.engine import EvaluationEngine
from repro.study import run_study, studies

SPEC = studies.figure1(context=None, percentiles=(0.0, 0.1, 0.3),
                       poison_fraction=0.2)


class TestStudyOnCluster:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inprocess", "pooled"])
    def test_matches_serial_bit_for_bit(self, cluster_ctx, shard_farm,
                                        jobs):
        """Shards with jobs=2 run chunks on a WorkerPool; both shapes
        archive the serial run's scenario rows, in the same order."""
        serial = run_study(SPEC, context=cluster_ctx,
                           engine=EvaluationEngine("serial", cache=False))
        clustered = run_study(
            SPEC, context=cluster_ctx,
            engine=EvaluationEngine(
                ClusterBackend(shards=shard_farm(2, jobs=jobs)),
                cache=False))
        assert clustered.payload == serial.payload
        assert clustered.study_fingerprint == serial.study_fingerprint
        assert clustered.scenarios == serial.scenarios
        assert clustered.engine_stats["backend"] == "cluster"

    def test_streams_per_scenario_progress(self, cluster_ctx, shard_farm):
        calls = []
        result = run_study(
            SPEC, context=cluster_ctx,
            engine=EvaluationEngine(ClusterBackend(shards=shard_farm(2)),
                                    cache=False),
            progress=lambda done, total: calls.append((done, total)))
        assert len(calls) == result.n_rounds
        assert calls[-1] == (result.n_rounds, result.n_rounds)

    def test_grid_repeats_match_serial_with_batched_fits(self, cluster_ctx,
                                                         shard_farm):
        """A repeat grid is exactly the shape execute_rounds batches
        into lockstep fits; shard executors route through the same
        path, so cluster outcomes must stay bit-identical to serial."""
        spec = studies.grid(context=None,
                            defenses=("radius:0.1", "none"),
                            attacks=("boundary:0.05", "clean"),
                            fractions=(0.2,), n_repeats=4)
        serial = run_study(spec, context=cluster_ctx,
                           engine=EvaluationEngine("serial", cache=False))
        clustered = run_study(
            spec, context=cluster_ctx,
            engine=EvaluationEngine(ClusterBackend(shards=shard_farm(2)),
                                    cache=False))
        assert clustered.payload == serial.payload
        assert clustered.scenarios == serial.scenarios

    def test_cluster_result_warms_local_resume(self, cluster_ctx,
                                               shard_farm):
        """A study measured on the cluster resumes locally, zero rounds."""
        remote = run_study(
            SPEC, context=cluster_ctx,
            engine=EvaluationEngine(ClusterBackend(shards=shard_farm(1))))
        local = EvaluationEngine("serial")
        remote.warm_cache(local)
        rerun = run_study(SPEC, context=cluster_ctx, engine=local)
        assert rerun.rounds_computed == 0
        assert rerun.payload == remote.payload
