"""The repository benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload availability-study --seed 1 \\
        --seconds 36 --trace 0

Workloads (see ``README.md`` beside this file and ``BENCHMARK.json``):
``availability-study``, ``fleet-frontier`` and ``serve-open-loop``.
With ``--trace 0`` the last line of standard output is one JSON object
carrying every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric instead.  The line
before it holds details (passes, set-up times, generator figures)
and, under ``not_gated``, the figures measured but not named there.
Outputs are checked in the same run; ``failed`` counts operations that
errored or whose output did not match.  The program is run from
``src/`` as checked out; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

from measure import corrected, pass_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("availability-study", "fleet-frontier", "serve-open-loop")
#: Fewest passes of an untraced in-process run.
MIN_PASSES = 3
#: Longest a worker may take to get ready or to finish its pass.
WORKER_TIMEOUT_S = 120


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pin() -> None:
    """Keep a worker on one core, so that its core-speed samples
    measure the core its operations run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run_worker(args: argparse.Namespace, index: int):
    """One worker for pass ``index``; returns (setup seconds, its JSON)."""
    command = [sys.executable, str(HERE / "cli_worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--pass", str(index), "--trace", str(args.trace)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=_pin)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {line!r}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run_in_process(args: argparse.Namespace) -> Dict[str, Any]:
    """``availability-study`` or ``fleet-frontier``, one worker per pass."""
    if args.trace:
        _, out = _run_worker(args, 0)
        return {
            "attempted": out["attempted"],
            "failed": out["failed"],
            "problems": out["count_checks"],
            "errors": out["errors"],
            "metrics": out["metrics"],
            "detail": {key: out[key] for key in
                       ("plain_years_per_s", "traced_years_per_s")},
        }
    started = time.perf_counter()
    setups: List[float] = []
    outs: List[Dict[str, Any]] = []
    while len(outs) < MIN_PASSES or (
        (time.perf_counter() - started) * (len(outs) + 1) / len(outs)
        <= args.seconds
    ):
        setup, out = _run_worker(args, len(outs))
        setups.append(setup)
        outs.append(out)
    metrics = pass_metrics([record for out in outs for record in out["records"]])
    metrics["setup_s"] = (statistics.median(
        corrected(setup - out["setup_sampled_s"], out["setup_sample_s"])
        for setup, out in zip(setups, outs)), "s")
    metrics["wall.setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (max(out["peak_rss_mb"] for out in outs), "MB")
    return {
        "attempted": sum(out["attempted"] for out in outs),
        "failed": sum(out["failed"] for out in outs),
        "problems": [],
        "errors": [error for out in outs for error in out["errors"]],
        "metrics": metrics,
        "detail": {"passes": len(outs), "setups_s": setups},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if args.workload == "serve-open-loop":
        import serve_workload

        scratch_root = ROOT / ".perfbench_tmp"
        scratch_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=scratch_root))
        try:
            out = serve_workload.run(args.seed, args.seconds, bool(args.trace),
                                     scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    else:
        out = run_in_process(args)

    produced = out["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in produced:
            value = produced[name][0]
        elif args.trace:
            value = 0  # the layer does no work on this workload
        else:
            raise RuntimeError(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    extra = {name: {"value": value, "unit": unit}
             for name, (value, unit) in sorted(produced.items())
             if name not in metrics}
    for line in out["errors"][:10] + out["problems"]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"detail": out["detail"], "problems": out["problems"],
                      "not_gated": extra}))
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
