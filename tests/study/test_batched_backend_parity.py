"""Batched victim training at the study layer.

``execute_rounds`` groups same-shape victim fits across a batch and
trains them in lockstep (:meth:`LinearSVM.fit_many`).  Batching is an
execution strategy, never part of the measured science, so the study
layer must not be able to tell it apart from per-round execution:
payloads, scenario cache keys and per-round outcomes are bit-identical
between the built-in backends and a per-round reference backend, and a
cache populated by the reference is fully hit by a batched rerun (the
CLI ``--expect-cached`` gate).
"""

import json

from repro.engine import EvaluationBackend, EvaluationEngine, execute_round
from repro.experiments.cli import main
from repro.study import ContextSpec, build, run_study, studies

CTX_SETS = ["--set", "context=synthetic", "--set", "n_samples=260"]
SMALL = CTX_SETS + ["--set", "percentiles=0.0,0.1,0.3",
                    "--set", "n_repeats=3", "--no-progress"]


class PerRoundBackend(EvaluationBackend):
    """The unbatched reference: one ``execute_round`` per spec, in
    order (ARCHITECTURE's "Adding a backend" example)."""

    name = "per-round"

    def run_iter(self, ctx, specs):
        for index, spec in enumerate(specs):
            yield index, execute_round(ctx, spec)


def unbatched_engine(**kwargs):
    return EvaluationEngine(PerRoundBackend(), **kwargs)


def grid_spec(ctx_spec):
    """An uncached mixed grid with a repeat axis — repeats are exactly
    the rounds execute_rounds groups into one lockstep fit."""
    return studies.grid(context=ctx_spec,
                        defenses=("radius:0.1", "none"),
                        attacks=("boundary:0.05", "clean"),
                        fractions=(0.1, 0.2),
                        n_repeats=3)


class TestBatchedStudyParity:
    def test_serial_batched_equals_unbatched(self, ctx_spec):
        spec = grid_spec(ctx_spec)
        batched = run_study(spec,
                            engine=EvaluationEngine("serial", cache=False))
        plain = run_study(spec, engine=unbatched_engine(cache=False))
        assert batched.payload == plain.payload
        assert batched.scenarios == plain.scenarios  # keys + outcomes

    def test_process_backend_matches_serial(self, ctx_spec):
        spec = grid_spec(ctx_spec)
        serial = run_study(spec,
                           engine=EvaluationEngine("serial", cache=False))
        process = run_study(spec,
                            engine=EvaluationEngine("process", cache=False,
                                                    jobs=2))
        assert process.payload == serial.payload
        assert process.scenarios == serial.scenarios


def ragged_grid_spec(ctx_spec):
    """Defences that keep different row counts, against two attack
    families: each fit window trains as one ragged lockstep group."""
    return studies.grid(context=ctx_spec,
                        defenses=("radius:0.1", "slab_filter:0.1",
                                  "loss_filter:0.1", "none"),
                        attacks=("boundary:0.05", "label-flip"),
                        fractions=(0.1, 0.2),
                        n_repeats=2)


def _archived_bytes(result):
    return (json.dumps(result.scenarios, sort_keys=True),
            json.dumps(result.payload, sort_keys=True))


class TestRaggedGridParity:
    def test_batched_matches_unbatched_and_process(self, ctx_spec):
        spec = ragged_grid_spec(ctx_spec)
        batched = run_study(spec,
                            engine=EvaluationEngine("serial", cache=False))
        process = run_study(spec,
                            engine=EvaluationEngine("process", cache=False,
                                                    jobs=2))
        plain = run_study(spec, engine=unbatched_engine(cache=False))
        assert len({record["outcome"]["n_removed"]
                    for record in batched.scenarios}) > 2
        assert _archived_bytes(plain) == _archived_bytes(batched)
        assert _archived_bytes(process) == _archived_bytes(batched)


class TestExpectCachedAcrossToggle:
    def test_unbatched_cache_fully_hit_by_batched_rerun(self, tmp_path,
                                                        capsys):
        """Cache keys cannot depend on the execution strategy: a cold
        run on the per-round reference must leave a cache the batched
        engine replays without computing a single round."""
        cache = str(tmp_path / "cache")
        spec = build("figure1",
                     context=ContextSpec(name="synthetic", n_samples=260),
                     percentiles=(0.0, 0.1, 0.3), n_repeats=3)
        cold = run_study(spec, engine=unbatched_engine(cache_dir=cache))
        assert cold.rounds_computed > 0
        args = ["run", "figure1"] + SMALL + ["--cache-dir", cache]
        assert main(args + ["--expect-cached"]) == 0
        capsys.readouterr()

    def test_batched_run_is_its_own_fixed_point(self, tmp_path, capsys):
        """And the reverse: a batched cold run replays batched."""
        cache = str(tmp_path / "cache")
        args = ["run", "figure1"] + SMALL + ["--cache-dir", cache]
        assert main(args) == 0
        assert main(args + ["--expect-cached"]) == 0
        capsys.readouterr()
