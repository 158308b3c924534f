"""Recompute ``pins.json``: the digest of every pool cell's result.

Run from the repository root, only when the pool in ``cells.py``
changes (or when a change to the program is meant to change results)::

    python3 perfbench/pin.py

Takes under a minute on a 2-core host.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cells  # noqa: E402


def main() -> int:
    pins = {op.key: cells.digest(cells.run_op(op)) for op in cells.pool_ops()}
    cells.PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(pins)} cells in {cells.PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
