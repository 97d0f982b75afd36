"""run_study: provenance stamps, archives, resume, rendering."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.engine import EvaluationEngine, SerialBackend, cache_schema_version
from repro.study import (ContextSpec, archive_path, describe_study,
                         run_study, studies, study_result_from_json)
from repro.study.runner import _study_context

PERCENTILES = (0.0, 0.1, 0.3)


class _ReversedBackend(SerialBackend):
    """Serial outcomes landing last-first: arrival order is the exact
    reverse of input order."""

    def run_iter(self, ctx, specs):
        return reversed(list(super().run_iter(ctx, specs)))


def figure1_spec(ctx_spec, **kwargs):
    kwargs.setdefault("percentiles", PERCENTILES)
    kwargs.setdefault("poison_fraction", 0.25)
    return studies.figure1(context=ctx_spec, **kwargs)


class TestProvenanceStamps:
    def test_result_fields(self, ctx_spec, study_ctx):
        spec = figure1_spec(ctx_spec)
        engine = EvaluationEngine("serial")
        result = run_study(spec, engine=engine)
        assert result.kind == "figure1"
        assert result.study_fingerprint == spec.fingerprint()
        assert result.context_fingerprints == [study_ctx.fingerprint()]
        assert result.cache_schema_version == cache_schema_version()
        assert result.engine_stats["backend"] == "serial"
        assert result.n_rounds == 2 * len(PERCENTILES)
        assert result.n_unique == len(result.scenarios)
        assert result.created_at.endswith("Z")
        assert result.study == spec.to_obj()
        # Every scenario carries its key, coordinates and full outcome.
        for row in result.scenarios:
            assert len(row["key"]) == 64
            assert row["context"] == study_ctx.fingerprint()
            assert "accuracy" in row["outcome"]

    def test_spec_engine_config_used_when_no_engine_given(self, ctx_spec,
                                                          tmp_path):
        from repro.study import EngineConfig

        disk = str(tmp_path / "cache")
        spec = figure1_spec(ctx_spec,
                            engine=EngineConfig(cache_dir=disk))
        result = run_study(spec)
        assert result.rounds_computed > 0
        assert os.path.isdir(disk)

    def test_context_override(self, study_ctx):
        spec = studies.figure1(context=None, percentiles=(0.0, 0.1))
        result = run_study(spec, engine=EvaluationEngine("serial"),
                           context=study_ctx)
        assert result.study_fingerprint == spec.fingerprint(
            context_fingerprint=study_ctx.fingerprint())
        with pytest.raises(ValueError, match="no ContextSpec"):
            run_study(spec, engine=EvaluationEngine("serial"))

    def test_override_refused_when_spec_names_a_context(self, ctx_spec,
                                                        study_ctx):
        """A live override on a self-describing spec would archive one
        setting's results under the other's fingerprint — refused."""
        spec = figure1_spec(ctx_spec)
        with pytest.raises(ValueError, match="context override"):
            run_study(spec, engine=EvaluationEngine("serial"),
                      context=study_ctx)


def batch_accounting(result) -> dict:
    """What a study archives about the batches it ran, timings aside."""
    return {"n_rounds": result.n_rounds, "n_unique": result.n_unique,
            "cache_hits": result.cache_hits,
            "rounds_computed": result.rounds_computed,
            "batches": [{key: value for key, value in batch.items()
                         if key != "seconds"}
                        for batch in result.engine_stats["batches"]]}


class TestConcurrentStudies:
    def test_threads_sharing_an_engine_archive_only_their_batches(
            self, ctx_spec, counters):
        """Two studies with disjoint rounds, both mid-batch at once on
        one engine, archive exactly what each runs alone."""
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        specs = [figure1_spec(ctx_spec, percentiles=(0.0, 0.1)),
                 figure1_spec(ctx_spec, percentiles=(0.05, 0.2))]
        solo = [batch_accounting(run_study(
            spec, engine=EvaluationEngine("serial"))) for spec in specs]

        counters()
        shared = EvaluationEngine("serial")
        # Each study waits after its first landed round until the other
        # has landed one too, so both batches are in flight together.
        meet = Barrier(2, timeout=60.0)

        def overlap(done, total):
            if done == 1:
                meet.wait()

        def run(spec):
            return run_study(spec, engine=shared, progress=overlap)

        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(run, specs))
        assert [batch_accounting(r) for r in results] == solo
        assert counters()["engine.rounds_computed"] == \
            sum(r.rounds_computed for r in results)


class TestArchive:
    def test_skip_if_done(self, ctx_spec, tmp_path, counters):
        spec = figure1_spec(ctx_spec)
        archive = str(tmp_path / "archive")
        engine = EvaluationEngine("serial")
        first = run_study(spec, engine=engine, archive_dir=archive)
        assert os.path.exists(archive_path(archive,
                                           spec.fingerprint()))
        # Second submission: served from the archive, nothing runs.
        counters()
        second = run_study(spec, engine=EvaluationEngine("serial"),
                           archive_dir=archive)
        assert "engine.batches_total" not in counters()  # no round seen
        assert second.to_json() == first.to_json()
        # force=True re-runs (fully cached on the same engine).
        third = run_study(spec, engine=engine, archive_dir=archive,
                          force=True)
        assert third.rounds_computed == 0
        assert third.payload == first.payload

    def test_different_spec_different_archive_entry(self, ctx_spec,
                                                    tmp_path):
        archive = str(tmp_path / "archive")
        engine = EvaluationEngine("serial")
        run_study(figure1_spec(ctx_spec), engine=engine,
                  archive_dir=archive)
        run_study(figure1_spec(ctx_spec, poison_fraction=0.3),
                  engine=engine, archive_dir=archive)
        entries = [n for n in os.listdir(archive)
                   if n.startswith("study-")]
        assert len(entries) == 2

    def test_previous_round_schema_is_recomputed_not_served(
            self, ctx_spec, tmp_path, monkeypatch, counters):
        """An archive and disk-tier entries written under round schema
        v3 are recomputed.  v4 rounds compute at one BLAS thread, and a
        near-tie round's v3 bits may differ; v3 study fingerprints had
        no round-schema element, so the archive sits where v3 put it."""
        from repro.engine import cache
        from repro.study.spec import STUDY_SCHEMA_VERSION

        spec = figure1_spec(ctx_spec)
        archive = str(tmp_path / "archive")
        disk = str(tmp_path / "cache")
        monkeypatch.setattr(cache, "_SCHEMA_VERSION", 3)
        old = run_study(spec, engine=EvaluationEngine("serial",
                                                      cache_dir=disk))
        monkeypatch.undo()
        v3_fingerprint = hashlib.sha256(json.dumps(
            [STUDY_SCHEMA_VERSION, spec.kind, spec.context.canonical(),
             spec.grid.canonical(), spec.solver],
            separators=(",", ":"), sort_keys=True).encode()).hexdigest()
        os.makedirs(archive)
        old.to_json(archive_path(archive, v3_fingerprint))
        assert old.cache_schema_version == 3

        counters()
        new = run_study(spec, engine=EvaluationEngine("serial",
                                                      cache_dir=disk),
                        archive_dir=archive)
        assert new.cache_schema_version == 4
        assert new.cache_hits == 0
        assert new.rounds_computed == new.n_unique
        assert counters()["engine.rounds_computed"] == new.n_unique
        assert os.path.exists(archive_path(archive, spec.fingerprint()))


class TestResume:
    def test_warm_cache_zero_recompute(self, ctx_spec, tmp_path):
        spec = figure1_spec(ctx_spec)
        result = run_study(spec, engine=EvaluationEngine("serial"))
        # A machine that never saw the original cache: rebuild from the
        # archived artifact alone.
        path = str(tmp_path / "result.json")
        result.to_json(path)
        restored = study_result_from_json(path)
        fresh = EvaluationEngine("serial")
        injected = restored.warm_cache(fresh)
        assert injected == restored.n_unique
        rerun = run_study(spec, engine=fresh)
        assert rerun.rounds_computed == 0
        assert rerun.cache_hits == rerun.n_unique
        assert rerun.payload == result.payload

    def test_warm_cache_refuses_schema_mismatch(self, ctx_spec):
        result = run_study(figure1_spec(ctx_spec),
                           engine=EvaluationEngine("serial"))
        result.cache_schema_version += 1
        with pytest.raises(ValueError, match="schema"):
            result.warm_cache(EvaluationEngine("serial"))

    def test_warm_cache_refuses_disabled_cache(self, ctx_spec):
        result = run_study(figure1_spec(ctx_spec),
                           engine=EvaluationEngine("serial"))
        with pytest.raises(ValueError, match="disabled"):
            result.warm_cache(EvaluationEngine("serial", cache=False))

    def test_table1_resumes_through_dynamic_phases(self, ctx_spec):
        """Algorithm-1-chosen supports replay exactly from the artifact."""
        spec = studies.table1(context=ctx_spec, percentiles=PERCENTILES,
                              n_radii=(2,), poison_fraction=0.25)
        result = run_study(spec, engine=EvaluationEngine("serial"))
        restored = study_result_from_json(result.to_json())
        fresh = EvaluationEngine("serial")
        restored.warm_cache(fresh)
        rerun = run_study(spec, engine=fresh)
        assert rerun.rounds_computed == 0

        def strip_wall_time(payload):
            rows = [dict(r, data=dict(r["data"], wall_time_seconds=None))
                    for r in payload["rows"]]
            return dict(payload, rows=rows)

        # Identical modulo Algorithm 1's wall clock (a measured timing,
        # not a measured outcome).
        assert strip_wall_time(rerun.payload) == \
            strip_wall_time(result.payload)


class TestRendering:
    def test_reloaded_result_renders_identically(self, ctx_spec):
        for spec in (
            figure1_spec(ctx_spec),
            studies.empirical_game(context=ctx_spec,
                                   percentiles=PERCENTILES),
            studies.grid(context=ctx_spec,
                         defenses=("radius:0.1", "none"),
                         attacks=("boundary:0.05", "clean"),
                         fractions=(0.1, 0.2)),
        ):
            result = run_study(spec, engine=EvaluationEngine("serial"))
            restored = study_result_from_json(result.to_json())
            assert restored.render() == result.render(), spec.kind
            assert "Provenance" in result.render()

    def test_multi_fraction_figure1_payload(self, ctx_spec):
        spec = figure1_spec(ctx_spec, fractions=(0.1, 0.25))
        result = run_study(spec, engine=EvaluationEngine("serial"))
        sweeps = result.payload_object()
        assert isinstance(sweeps, list) and len(sweeps) == 2
        assert sweeps[0].poison_fraction == 0.1
        assert sweeps[1].poison_fraction == 0.25
        # Clean rounds are shared across the two sweeps via the cache.
        assert result.n_rounds == 2 * 2 * len(PERCENTILES)
        assert result.rounds_computed < result.n_rounds
        assert "Figure 1" in result.render()

    def test_progress_streams_every_round(self, ctx_spec):
        calls = []
        result = run_study(figure1_spec(ctx_spec),
                           engine=EvaluationEngine("serial"),
                           progress=lambda done, total: calls.append(
                               (done, total)))
        assert calls[-1] == (result.n_rounds, result.n_rounds)
        assert len(calls) == result.n_rounds


    def test_progress_archives_scenarios_in_input_order(self, ctx_spec):
        """Rows are archived in input order whatever order rounds land
        in — also in the second sweep, whose clean rounds are cache
        hits that land before any computed round."""
        spec = figure1_spec(ctx_spec, fractions=(0.1, 0.25))
        serial = run_study(spec, engine=EvaluationEngine("serial"))
        landed_reversed = run_study(
            spec, engine=EvaluationEngine(_ReversedBackend()),
            progress=lambda done, total: None)
        assert landed_reversed.scenarios == serial.scenarios
        assert landed_reversed.payload == serial.payload


class TestCacheManifestProvenance:
    def test_study_fingerprint_lands_in_manifest(self, ctx_spec, tmp_path):
        from repro.engine import read_manifest, write_manifest

        disk = str(tmp_path / "cache")
        spec = figure1_spec(ctx_spec)
        engine = EvaluationEngine("serial", cache_dir=disk)
        run_study(spec, engine=engine)
        manifest = read_manifest(disk)
        assert manifest["studies"] == [spec.fingerprint()]
        # A manifest rebuild (repro-cache info) keeps the provenance.
        rebuilt = write_manifest(disk)
        assert rebuilt["studies"] == [spec.fingerprint()]
        # A second, different study appends (sorted, deduplicated).
        spec2 = figure1_spec(ctx_spec, poison_fraction=0.3)
        run_study(spec2, engine=engine)
        run_study(spec2, engine=engine)
        manifest = read_manifest(disk)
        assert manifest["studies"] == sorted(
            {spec.fingerprint(), spec2.fingerprint()})

    def test_concurrent_caches_merge_provenance(self, ctx_spec, tmp_path):
        """Two cache instances sharing a directory must not erase each
        other's study annotations (merge, not last-writer-wins)."""
        from repro.engine import ResultCache, read_manifest

        disk = str(tmp_path / "cache")
        a = ResultCache(disk_dir=disk)
        b = ResultCache(disk_dir=disk)
        a.annotate_study("aa")
        b.annotate_study("bb")  # b's copy was seeded before a wrote
        a.annotate_study("cc")
        assert read_manifest(disk)["studies"] == ["aa", "bb", "cc"]


class TestStudyResultJson:
    def test_document_shape(self, ctx_spec):
        result = run_study(figure1_spec(ctx_spec),
                           engine=EvaluationEngine("serial"))
        doc = json.loads(result.to_json())
        assert doc["type"] == "StudyResult"
        assert doc["data"]["study"]["kind"] == "figure1"

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError, match="not a StudyResult"):
            study_result_from_json(json.dumps({"type": "nope"}))
        with pytest.raises(ValueError, match="newer"):
            study_result_from_json(json.dumps(
                {"type": "StudyResult", "schema": 99, "data": {}}))


# Kernel-heavy defences: clean-axis slab geometry, a verified loss-filter
# mask, radius lookups and the attack surrogate all live on the kernel.
REUSE_DEFENSES = ("none", "radius:0.1", "slab_filter:0.1:axis=clean",
                  "loss_filter:0.1")
REUSE_ATTACKS = ("clean", "boundary:0.05", "label-flip")


def _archived(result, key):
    """``key`` of the result's archive document, as canonical JSON."""
    return json.dumps(json.loads(result.to_json())["data"][key],
                      sort_keys=True)


class TestContextReuse:
    """run_study builds a ContextSpec's context once per process."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Every context the synthetic maker builds, cold memo to start."""
        from repro.experiments import runner as experiments_runner

        calls = []
        maker = experiments_runner._CONTEXT_MAKERS["synthetic"]

        def counting_maker(**kwargs):
            calls.append(kwargs)
            return maker(**kwargs)

        monkeypatch.setitem(experiments_runner._CONTEXT_MAKERS, "synthetic",
                            counting_maker)
        _study_context.cache_clear()
        yield calls
        _study_context.cache_clear()

    def test_second_study_builds_nothing_and_matches_cold(self, ctx_spec,
                                                          builds):
        first, second = (studies.grid(context=ctx_spec,
                                      defenses=REUSE_DEFENSES,
                                      attacks=REUSE_ATTACKS,
                                      fractions=(fraction,))
                         for fraction in (0.1, 0.25))
        run_study(first, engine=EvaluationEngine("serial"))
        assert len(builds) == 1
        warm = run_study(second, engine=EvaluationEngine("serial"))
        assert len(builds) == 1  # the second study built no context

        _study_context.cache_clear()
        cold = run_study(second, engine=EvaluationEngine("serial"))
        assert len(builds) == 2
        for key in ("scenarios", "payload"):
            assert _archived(warm, key) == _archived(cold, key), key

    def test_describe_shares_the_memo(self, ctx_spec, builds):
        spec = figure1_spec(ctx_spec)
        describe_study(spec, engine=EvaluationEngine("serial"))
        run_study(spec, engine=EvaluationEngine("serial"))
        assert len(builds) == 1

    def test_materialize_stays_fresh(self, ctx_spec):
        a, b = ctx_spec.materialize(), ctx_spec.materialize()
        shared = _study_context(ctx_spec)
        assert a is not b and shared is not a and shared is not b
        assert _study_context(ctx_spec, ctx_spec.seed) is shared
        assert a.fingerprint() == b.fingerprint() == shared.fingerprint()


def _write_spambase(path, n_rows, seed):
    """A small file in ``spambase.data``'s format (57 features + label)."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.random((n_rows, 57)), np.arange(n_rows) % 2])
    np.savetxt(path, rows, delimiter=",")
    return str(path)


class TestContextReuseDataSource:
    """The memo key covers the file the Spambase loader would read."""

    CSPEC = ContextSpec(name="spambase", seed=0)

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.delenv("SPAMBASE_PATH", raising=False)
        _study_context.cache_clear()
        yield
        _study_context.cache_clear()

    def test_spambase_path_change_misses(self, tmp_path, monkeypatch):
        one = _write_spambase(tmp_path / "one.data", 120, seed=1)
        two = _write_spambase(tmp_path / "two.data", 120, seed=2)
        monkeypatch.setenv("SPAMBASE_PATH", one)
        first = _study_context(self.CSPEC)
        assert first.is_real_data and _study_context(self.CSPEC) is first
        monkeypatch.setenv("SPAMBASE_PATH", two)
        second = _study_context(self.CSPEC)
        assert second is not first
        assert second.fingerprint() != first.fingerprint()

    def test_rewritten_file_misses(self, tmp_path, monkeypatch):
        path = _write_spambase(tmp_path / "spambase.data", 120, seed=1)
        monkeypatch.setenv("SPAMBASE_PATH", path)
        first = _study_context(self.CSPEC)
        _write_spambase(path, 130, seed=1)
        second = _study_context(self.CSPEC)
        assert second is not first
        assert second.n_train > first.n_train

    def test_working_directory_change_misses(self, tmp_path, monkeypatch):
        contexts = []
        for name, seed in (("a", 1), ("b", 2)):
            (tmp_path / name / "data").mkdir(parents=True)
            _write_spambase(tmp_path / name / "data" / "spambase.data",
                            120, seed=seed)
            monkeypatch.chdir(tmp_path / name)
            contexts.append(_study_context(self.CSPEC))
        assert contexts[0] is not contexts[1]
        assert contexts[0].fingerprint() != contexts[1].fingerprint()
