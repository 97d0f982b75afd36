"""`repro.cluster` — the sharded, streaming evaluation service.

Splits the engine's round batches across shard servers (one per host,
each holding the experiment context in a per-host shared-memory
segment) and streams outcomes back as they land:

* :mod:`repro.cluster.protocol` — length-prefixed JSON socket
  protocol and the content-fingerprint handshake;
* :mod:`repro.cluster.server` — the shard server
  (``python -m repro.cluster`` /
  ``repro-cluster serve`` in the experiments CLI);
* :mod:`repro.cluster.scheduler` — chunks dealt like the process
  pool's, one fit window at most, with retry and failover;
* :mod:`repro.cluster.backend` — the ``"cluster"``
  :class:`~repro.engine.EvaluationBackend` (autospawns localhost
  shards when none are configured).

Importing :mod:`repro.engine` is enough to *use* the backend
(``EvaluationEngine("cluster")``): the engine registry lazily imports
it on first request.  The package itself imports none of its
submodules, so a CLI that only declares the shard flags
(:func:`add_shard_arguments`) loads no cluster code.
"""

from __future__ import annotations

import argparse

__all__ = ["add_shard_arguments"]


def add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the shard flags, the one set behind both
    ``python -m repro.cluster`` and ``repro repro-cluster``."""
    parser.add_argument("--context", type=str, default="spambase",
                        choices=("spambase", "synthetic"),
                        help="construct the served context by name "
                             "(default spambase)")
    parser.add_argument("--context-file", type=str, default=None,
                        help="serve a saved ExperimentContext instead: "
                             "an .npz of arrays plus a JSON header, as "
                             "written by repro.experiments.runner."
                             "save_context (read without unpickling)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-samples", type=int, default=None)
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 (default) binds a free port; the READY "
                             "line reports the choice")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes per shard (default 1: "
                             "in-process execution)")
    parser.add_argument("--faults", type=str, default=None,
                        help="arm a fault plan (see repro.resilience), "
                             "e.g. 'chunk_reply:drop_first=1;seed=7' or "
                             "'shard:crash_after_rounds=3'; overrides "
                             "REPRO_FAULTS")
    parser.add_argument("--secret", type=str, default=None,
                        help="shared handshake secret (defaults to "
                             "REPRO_CLUSTER_SECRET)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="shard-local result-cache disk tier: "
                             "computed rounds stream here as they land "
                             "and repeat rounds are served without "
                             "recompute (defaults to "
                             "REPRO_SHARD_CACHE_DIR; unset = no cache)")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        help="LRU cap for the shard cache's in-memory "
                             "tier (defaults to "
                             "REPRO_SHARD_CACHE_MAX_ENTRIES; "
                             "0/unset = unbounded)")
