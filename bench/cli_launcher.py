"""Runs one ``convrec`` CLI command in a process the benchmark owns.

Usage: python3 cli_launcher.py SRC_DIR STATS.json SPANS.json|- COMMAND [ARGS...]

Runs the CLI's click group in this process, so stdin/stdout behave exactly as
under the ``convrec`` entry point. With a spans path other than ``-`` the
tracer is installed first. At exit the process writes its peak RSS to
STATS.json and, when traced, its spans.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main() -> None:
    src, stats_path, spans_path, *args = sys.argv[1:]
    sys.path.insert(0, src)
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.run_id = Path(spans_path).stem
    from convrec import cli
    try:
        cli.main(args, prog_name="convrec")
    finally:
        if tracer is not None:
            tracer.write(spans_path)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        Path(stats_path).write_text(json.dumps({"peak_rss_mb": rss}), "utf-8")


if __name__ == "__main__":
    main()
