"""Fixtures for the cluster service tests.

Shard servers run **in-process** (daemon threads) wherever possible —
the protocol, handshake, scheduler and parity behaviour don't care
what process the server loop lives in, and threads keep the suite
fast.  The shard-*death* tests spawn real subprocesses instead (you
cannot ``os._exit`` a thread) — see ``test_failover.py``.
"""

import os
import threading

import pytest

from repro.cluster.server import ShardServer
from repro.experiments.runner import make_synthetic_context
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault plan leaks between tests (the plan is process-wide)."""
    yield
    faults.install(None)


@pytest.fixture(scope="session")
def cluster_ctx():
    """A small synthetic context shared by the cluster suite."""
    return make_synthetic_context(seed=11, n_samples=140, n_features=3)


@pytest.fixture()
def shard_farm(cluster_ctx):
    """Start in-process shard servers on loopback; yields a factory.

    ``farm(n)`` starts ``n`` servers for ``cluster_ctx`` (or a context
    passed as ``ctx=``) and returns their addresses; everything is torn
    down at test end.
    """
    servers: list[ShardServer] = []
    threads: list[threading.Thread] = []

    def farm(n: int = 2, ctx=None, **server_kwargs):
        addresses = []
        for _ in range(n):
            server = ShardServer(ctx if ctx is not None else cluster_ctx,
                                 port=0, **server_kwargs)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append(server)
            threads.append(thread)
            addresses.append((server.host, server.port))
        return addresses

    yield farm
    for server in servers:
        server.close()
    for thread in threads:
        thread.join(timeout=5.0)
