"""``repro`` CLI with the :mod:`layers` spans installed.

Usage: ``python3 perfbench/traced_server.py SPANS_OUT serve [serve args]``.
Runs the command in this process (so ``serve`` must run its analyses
in-process, its default) and writes the spans to ``SPANS_OUT`` when
the command returns, after its graceful SIGTERM drain.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.SpanRecorder()
    layers.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
