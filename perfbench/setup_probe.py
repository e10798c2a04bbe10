"""Child process timed by the benchmark's ``setup_s`` metric.

Usage: python3 setup_probe.py <time.monotonic() at spawn> <probe.json>

Imports ``skinspec.cli`` from the source tree named in probe.json, loads every
command's config through ``cli.load_config``, and prints the seconds since the
parent's monotonic timestamp (the clock is shared between processes).
"""

import json
import sys
import time
from argparse import Namespace
from pathlib import Path


def main() -> None:
    start = float(sys.argv[1])
    spec = json.loads(Path(sys.argv[2]).read_text())
    sys.path.insert(0, spec["src"])
    from skinspec import cli

    for item in spec["commands"]:
        args = Namespace(format="csv", samples=None, grid=item["grid"], eps=None)
        cli.load_config(Path(item["config"]), Path(item["out"]), args)
    print(repr(time.monotonic() - start))


if __name__ == "__main__":
    main()
