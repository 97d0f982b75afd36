"""Round outcomes do not depend on the host's BLAS thread count.

OpenBLAS defaults to one thread per CPU, and its thread count changes
GEMM bits: a near-tie ``knn_sanitizer`` neighbour then flips, and a
``label-flip`` round removes 150 rows at one thread but 149 at two.
Every process that computes rounds therefore runs NumPy's OpenBLAS at
one thread.  The test runs one probe set in subprocesses started at
``OPENBLAS_NUM_THREADS`` 1, 2 and 3 and requires byte-equal outcomes.

Run as a script (``PYTHONPATH=src python tests/engine/test_blas_threads.py``),
this module is the probe: it prints one JSON line with the probe set's
outcomes and the OpenBLAS thread counts it read.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
THREAD_COUNTS = (1, 2, 3)


def _openblas():
    """NumPy's bundled scipy-openblas, or ``None``."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


def _blas_threads() -> int:
    getter = _openblas().scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _chunk_then_threads(specs):
    """Run a pool worker's chunk, then read the worker's thread count
    (module-level: the pool pickles it by reference)."""
    from repro.engine.backends import _worker_run_chunk

    _worker_run_chunk(specs, None)
    return _blas_threads()


def _probe_specs():
    from repro.engine import AttackSpec, DefenseSpec, RoundSpec
    from repro.engine.spec import (registered_attack_kinds,
                                   registered_defense_kinds)

    attack_params = {"mixed": {"percentiles": (0.02, 0.05)}}
    defense_params = {"mixed_defense": {"percentiles": (0.05, 0.1),
                                        "probabilities": (0.5, 0.5)}}
    specs = [
        RoundSpec(defense=DefenseSpec(defense, 0.1,
                                      defense_params.get(defense, {})),
                  attack=AttackSpec(attack, 0.05,
                                    attack_params.get(attack, {})),
                  poison_fraction=0.2, seed=seed)
        for seed, (defense, attack) in enumerate(
            (d, a) for d in registered_defense_kinds()
            for a in registered_attack_kinds())]
    # The round whose kNN distance product crossed a near tie: 150 rows
    # removed at one OpenBLAS thread, 149 at two or three.
    specs.append(RoundSpec(defense=DefenseSpec("knn_sanitizer"),
                           attack=AttackSpec("label-flip"),
                           poison_fraction=0.201633,
                           seed=2239447689273843548))
    return specs


def probe() -> dict:
    """The probe set's outcomes and the thread counts read on the way.

    The pool comes first, while this process has not computed a round:
    its worker is forked at the environment's thread count and must
    pin itself in its chunk.
    """
    from repro.engine import EvaluationEngine
    from repro.engine.backends import WorkerPool
    from repro.engine.cache import outcome_to_dict
    from repro.study import ContextSpec, run_study, studies

    context = ContextSpec("synthetic", seed=0, n_samples=600)
    ctx = context.materialize()
    specs = _probe_specs()
    pool = WorkerPool(ctx, 1)
    try:
        worker = pool._pool.submit(_chunk_then_threads, specs[:2]).result()
    finally:
        pool.close()

    engine = EvaluationEngine("serial", cache=False)
    outcomes = engine.evaluate_batch(ctx, specs[:1])
    serial = _blas_threads()
    outcomes += engine.evaluate_batch(ctx, specs[1:])
    paper = json.loads(run_study(studies.empirical_game(
        context=ContextSpec("spambase", seed=0),
        percentiles=(0.0, 0.05, 0.1, 0.15, 0.2)), engine=engine).to_json())
    return {
        "outcomes": [outcome_to_dict(o) for o in outcomes],
        "paper": {key: paper["data"][key] for key in ("scenarios", "payload")},
        "threads": {"serial": serial, "worker": worker},
    }


@pytest.mark.slow
def test_round_outcomes_do_not_depend_on_the_blas_thread_count():
    if _openblas() is None:
        pytest.skip("NumPy bundles no scipy-openblas here")
    runs = {}
    procs = {
        n: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(n),
                 "PYTHONPATH": SRC})
        for n in THREAD_COUNTS}
    for n, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        runs[n] = json.loads(out)
    threads = {n: run.pop("threads") for n, run in runs.items()}
    texts = {n: json.dumps(run, sort_keys=True) for n, run in runs.items()}
    assert texts[2] == texts[1]
    assert texts[3] == texts[1]
    assert len(runs[1]["outcomes"]) == len(_probe_specs())
    assert len(runs[1]["paper"]["scenarios"]) == 25
    for n in THREAD_COUNTS:
        assert threads[n] == {"serial": 1, "worker": 1}, n


def test_a_blas_without_a_known_setter_warns_once_naming_itself(
        monkeypatch):
    from repro.utils import blas

    monkeypatch.setattr(blas, "_SETTER_NAME", "no_such_setter")
    monkeypatch.setattr(blas, "_pinned_pid", None)
    blas._find_setter.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="NumPy's BLAS") as caught:
            blas.pin_one_blas_thread()
            blas.pin_one_blas_thread()
    finally:
        blas._find_setter.cache_clear()
    assert len(caught) == 1
    assert blas._blas_name() in str(caught[0].message)


if __name__ == "__main__":
    print(json.dumps(probe(), sort_keys=True))
