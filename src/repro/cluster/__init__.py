"""`repro.cluster` — the sharded, streaming evaluation service.

Splits the engine's round batches across shard servers (one per host,
each holding the experiment context in a per-host shared-memory
segment) and streams outcomes back as they land:

* :mod:`repro.cluster.protocol` — length-prefixed socket protocol and
  the content-fingerprint handshake;
* :mod:`repro.cluster.server` — the shard server
  (``python -m repro.cluster.server`` /
  ``repro-cluster serve`` in the experiments CLI);
* :mod:`repro.cluster.scheduler` — adaptive chunking, retry, failover;
* :mod:`repro.cluster.backend` — the ``"cluster"``
  :class:`~repro.engine.EvaluationBackend` (autospawns localhost
  shards when none are configured).

Importing :mod:`repro.engine` is enough to *use* the backend
(``EvaluationEngine("cluster")``): the engine registry lazily imports
this package on first request.
"""

from repro.cluster.backend import (
    ClusterBackend,
    ClusterDegradedWarning,
    LocalShardPool,
    close_local_pools,
    parse_shard_addresses,
    shared_local_pool,
)
from repro.cluster.scheduler import (
    ClusterError,
    ClusterScheduler,
    ShardClient,
    ShardError,
    ShardRejected,
)
from repro.cluster.server import ShardServer, serve

__all__ = [
    "ClusterBackend",
    "ClusterDegradedWarning",
    "LocalShardPool",
    "close_local_pools",
    "parse_shard_addresses",
    "shared_local_pool",
    "ClusterError",
    "ClusterScheduler",
    "ShardClient",
    "ShardError",
    "ShardRejected",
    "ShardServer",
    "serve",
]
