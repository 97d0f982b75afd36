"""``python -m repro.cluster`` — run a shard server.

Thin alias for :mod:`repro.cluster.server`'s CLI.
"""

import sys

from repro.cluster.server import main

if __name__ == "__main__":
    sys.exit(main())
