"""Run ``repro.cli serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_launch.py [serve arguments...]``

Shards are forked from this process (``sharding._mp_context``), so they
inherit the wrappers; each shard writes its spans when
``shard_worker_main`` returns, and this process writes the door's once
the server has shut down.
"""

from __future__ import annotations

import sys

import spans


def main(argv):
    spans.install_serve()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        spans.dump("door")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
