"""The shard's ``--context-file``: arrays plus a JSON header, no pickle.

``save_context`` writes a context's four arrays and its JSON header
(``context_to_parts``) to an ``.npz``; ``load_context`` reads it with
``allow_pickle=False`` and recomputes everything derived — the radius
map and the fingerprint — from what the file holds.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.backend import ClusterBackend
from repro.cluster.scheduler import ClusterError
from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.experiments.runner import load_context, save_context

ARRAYS = ("X_train", "y_train", "X_test", "y_test")


def _specs():
    return [RoundSpec(filter_percentile=p, attack=AttackSpec("boundary", p),
                      poison_fraction=0.2, seed=300 + s)
            for p in (0.0, 0.1) for s in range(2)]


class TestNoPickle:
    def test_pickled_context_file_runs_no_code(self, tmp_path):
        """A pickle whose ``__reduce__`` would create a file is refused
        by ``load_context`` and stops a shard before its READY line;
        the file never appears."""
        import repro

        marker = tmp_path / "marker"

        class Payload:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        path = tmp_path / "ctx.npz"
        path.write_bytes(pickle.dumps(Payload()))
        with pytest.raises(ValueError, match="not a context file"):
            load_context(str(path))

        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cluster",
             "--context-file", str(path), "--port", "0"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "READY" not in proc.stdout
        assert "--context-file" in proc.stderr
        assert not marker.exists()


class TestRoundTrip:
    def test_save_load_round_trip(self, cluster_ctx, tmp_path):
        path = str(tmp_path / "ctx.npz")
        loaded = load_context(save_context(cluster_ctx, path))
        for name in ARRAYS:
            original, restored = getattr(cluster_ctx, name), \
                getattr(loaded, name)
            assert restored.dtype == original.dtype
            np.testing.assert_array_equal(restored, original)
        for name in ("centroid_method", "seed", "dataset_name",
                     "is_real_data", "model_factory"):
            assert getattr(loaded, name) == getattr(cluster_ctx, name)
        np.testing.assert_array_equal(loaded.radius_map.distances,
                                      cluster_ctx.radius_map.distances)
        assert "_fingerprint" not in loaded.__dict__  # recomputed, not read
        assert loaded.fingerprint() == cluster_ctx.fingerprint()
        engine = EvaluationEngine("serial", cache=False)
        assert engine.evaluate_batch(loaded, _specs()) == \
            engine.evaluate_batch(cluster_ctx, _specs())

    def test_path_keeps_its_name(self, cluster_ctx, tmp_path):
        path = str(tmp_path / "ctx.tmp")
        assert save_context(cluster_ctx, path) == path
        assert os.listdir(tmp_path) == ["ctx.tmp"]


class TestEditedFile:
    def test_edited_arrays_change_the_fingerprint(self, cluster_ctx,
                                                  tmp_path, shard_farm):
        """A file whose ``X_train`` was edited after saving loads with
        a different fingerprint, so a shard serving it refuses the
        original's clients."""
        path = str(tmp_path / "ctx.npz")
        save_context(cluster_ctx, path)
        with np.load(path, allow_pickle=False) as npz:
            parts = {name: npz[name] for name in npz.files}
        parts["X_train"] = parts["X_train"].copy()
        parts["X_train"][0, 0] += 1.0
        with open(path, "wb") as fh:
            np.savez(fh, **parts)
        edited = load_context(path)
        assert edited.fingerprint() != cluster_ctx.fingerprint()

        addresses = shard_farm(1, ctx=edited)
        backend = ClusterBackend(shards=addresses)
        with pytest.raises(ClusterError, match="fingerprint mismatch"):
            backend.run(cluster_ctx, _specs()[:1])
