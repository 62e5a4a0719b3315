"""Traced entry point for one CLI op: installs the span wrappers, runs
``cubiclines.cli.main`` and writes the spans to the file named first.

    python3 perfbench/cli_entry.py STATS.json <cubiclines arguments...>
"""

from __future__ import annotations

import json
import sys

from spans import Recorder


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install("cubiclines")
    from cubiclines import cli
    try:
        code = cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
