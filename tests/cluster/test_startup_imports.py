"""Shards and ``repro serve`` start without scipy, and the CLI without
the cluster's submodules.

``scipy.optimize`` and ``scipy.interpolate`` take about half a second to
import.  Only the LP solve and the payoff-curve fit use them, and
neither runs on a shard or a pool worker, so each is imported where it
is used.  The CLI declares the shard flags through the ``repro.cluster``
package root, which imports none of its submodules.  Checked in a fresh
interpreter: this one loaded both long ago.
"""

import os
import subprocess
import sys

import pytest

SCRIPT = """
import sys
import threading

import repro
import repro.cluster.server
import repro.experiments.cli
import repro.service.app
from repro.cluster.backend import ClusterBackend
from repro.cluster.server import ShardServer
from repro.engine import AttackSpec, DefenseSpec, RoundSpec
from repro.experiments.runner import make_synthetic_context

ctx = make_synthetic_context(seed=3, n_samples=120, n_features=3)
server = ShardServer(ctx, port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
specs = [RoundSpec(defense=DefenseSpec(kind, 0.1),
                   attack=AttackSpec("boundary", 0.05),
                   poison_fraction=0.2, seed=seed)
         for kind in ("radius", "slab_filter") for seed in range(3)]
outcomes = ClusterBackend(shards=[(server.host, server.port)]).run(ctx, specs)
server.close()
assert len(outcomes) == len(specs) and all(outcomes)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))

from repro.gametheory import solve_zero_sum_lp

solution = solve_zero_sum_lp([[1.0, -1.0], [-1.0, 1.0]])
print(round(solution.value, 9) + 0.0, solution.row_strategy.round(9).tolist())
"""


PARSER_SCRIPT = """
import sys

from repro.experiments.cli import build_parser

build_parser()
print(sorted(name for name in sys.modules
             if name.startswith("repro.cluster.")))
"""


def _fresh_interpreter(script):
    import repro

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
def test_a_shard_batch_loads_no_scipy_and_the_lp_still_solves():
    loaded, solved = _fresh_interpreter(SCRIPT).splitlines()
    assert loaded == "[]"
    assert solved == "0.0 [0.5, 0.5]"


@pytest.mark.slow
def test_the_cli_parser_loads_no_cluster_submodule():
    """Every command, ``repro serve`` included, builds the whole parser;
    declaring the ``repro-cluster`` flags loads no cluster code."""
    assert _fresh_interpreter(PARSER_SCRIPT).strip() == "[]"
