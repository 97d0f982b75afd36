"""Zero-copy context transport for the process backend.

The acceptance property: worker initialisation never ships the
context's data arrays in its blob — the JSON metadata blob stays small
and constant-size while the arrays travel through shared memory.
"""

import gc
import json
import pickle

import numpy as np
import pytest

from repro.engine import AttackSpec, EvaluationEngine, RoundSpec
from repro.engine.backends import _pack_context, _unpack_context
from repro.experiments.runner import make_synthetic_context


@pytest.fixture()
def big_ctx():
    return make_synthetic_context(seed=3, n_samples=4000, n_features=16)


def pack(ctx):
    meta, shm = _pack_context(ctx)
    return meta, shm, meta  # the metadata is already the shipped bytes


def close_after_views(shm):
    """Close an attached handle once all views of it have been dropped.

    Callers must let every rebuilt-context reference go out of scope
    first (the context<->kernel cycle needs a GC pass); numpy views
    pin the buffer and ``close`` raises ``BufferError`` otherwise.
    """
    gc.collect()
    shm.close()


class TestBlobSize:
    def test_shipped_blob_excludes_data_arrays(self, big_ctx):
        meta, shm, blob = pack(big_ctx)
        try:
            full = pickle.dumps(big_ctx, protocol=pickle.HIGHEST_PROTOCOL)
            data_bytes = big_ctx.X_train.nbytes + big_ctx.X_test.nbytes
            assert len(full) > data_bytes          # whole-context pickle is data-sized
            assert len(blob) < 4096                # metadata only
            assert len(blob) < len(full) / 50
        finally:
            shm.close()
            shm.unlink()

    def test_blob_size_constant_in_context_size(self):
        sizes = []
        for n in (400, 4000):
            ctx = make_synthetic_context(seed=3, n_samples=n, n_features=16)
            meta, shm, blob = pack(ctx)
            shm.close()
            shm.unlink()
            sizes.append(len(blob))
        assert abs(sizes[1] - sizes[0]) < 256  # only shm names/shapes differ


class TestRoundTrip:
    def test_context_reconstructs_exactly(self, big_ctx):
        meta, shm, blob = pack(big_ctx)

        def check():
            rebuilt, worker_shm = _unpack_context(blob)
            for f in ("X_train", "y_train", "X_test", "y_test"):
                original = getattr(big_ctx, f)
                restored = getattr(rebuilt, f)
                np.testing.assert_array_equal(original, restored)
                assert not restored.flags.writeable
            np.testing.assert_array_equal(rebuilt.radius_map.distances,
                                          big_ctx.radius_map.distances)
            assert rebuilt.seed == big_ctx.seed
            assert rebuilt.dataset_name == big_ctx.dataset_name
            assert rebuilt.fingerprint() == big_ctx.fingerprint()
            return worker_shm

        try:
            close_after_views(check())
        finally:
            shm.close()
            shm.unlink()

    def test_prewarmed_direction_ships_in_blob(self, big_ctx):
        direction = big_ctx.kernel().direction  # force the surrogate fit
        meta, shm, blob = pack(big_ctx)
        assert "direction" in json.loads(blob)["layout"]  # in the block

        def check():
            rebuilt, worker_shm = _unpack_context(blob)
            kernel = rebuilt.__dict__.get("_kernel")
            assert kernel is not None
            assert kernel.direction_computed  # no refit needed in the worker
            np.testing.assert_array_equal(kernel.direction, direction)
            assert not kernel.direction.flags.writeable  # a view of the block
            return worker_shm

        try:
            close_after_views(check())
        finally:
            shm.close()
            shm.unlink()

    def test_computed_none_direction_is_not_refitted(self, big_ctx):
        # A degenerate context's direction is a computed None: it has no
        # array to ship, but the workers must not refit it either.
        big_ctx.kernel()._direction = None
        meta, shm, blob = pack(big_ctx)
        assert "direction" not in json.loads(blob)["layout"]

        def check():
            rebuilt, worker_shm = _unpack_context(blob)
            kernel = rebuilt.__dict__["_kernel"]
            assert kernel.direction_computed
            assert kernel.direction is None
            return worker_shm

        try:
            close_after_views(check())
        finally:
            shm.close()
            shm.unlink()


class TestEndToEnd:
    def test_process_rounds_work_on_shared_arrays(self, big_ctx):
        # Small spec batch on a big context: correctness of rounds whose
        # arrays are read-only shared-memory views.
        specs = [
            RoundSpec(filter_percentile=0.1,
                      attack=AttackSpec("boundary", 0.05),
                      poison_fraction=0.2, seed=s)
            for s in (1, 2)
        ]
        serial = EvaluationEngine("serial", cache=False).evaluate_batch(big_ctx, specs)
        process = EvaluationEngine("process", jobs=2, cache=False).evaluate_batch(big_ctx, specs)
        assert serial == process
