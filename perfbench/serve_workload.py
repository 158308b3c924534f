"""The ``serve-open-loop`` workload: ``python -m repro serve`` under
open-loop load.

The service runs in its own process with default settings, a fresh
``--cache`` directory per start (removed afterwards) and an OS-chosen
port.  Request classes:

* ``light``: ``whatif``, ``rank`` and ``sweep`` bodies drawn from the
  paper grid.  Each is sent once during warm-up, so in the timed phase
  they are cache reads and their latency is mostly the batcher linger.
* ``study``: a 100-year ``availability`` study with a fresh seed; the
  service simulates it and writes 100 per-year cache entries.
* ``repeat``: a byte-identical resend of a ``study`` due at least
  :data:`REPEAT_LAG_S` earlier, so normally 100 cache reads.

The service runs on one core and the load generator on the other, so
neither lands on the other's core by chance.  Set-up (``setup_s``) runs
from process start until ``/healthz`` answers 200 and the warm-up (every
light body, one study and its resend) is done; it is measured on
:data:`SETUPS` starts and reported as the median.

Figures are corrected for the speed of the service's core as
``measure`` describes, from :func:`measure.calibration_loop` samples
taken on that core only while the service is idle: just before each
start and after its warm-up for set-up, and during the timed phase
whenever nothing is in flight and nothing is due for a while
(``openloop``'s probe) for requests.  A request is corrected by the
samples just before and just after it; the batcher's linger, a sleep,
is left out of the correction.

After the service has stopped, every served ``result`` is compared with
``repro.serve.analyses.evaluate_request`` run in this process on the
same body, and every repeat with its original; a mismatch, a non-2xx
status, a timeout or a connection error counts as a failed operation.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import cells
import layers
from measure import calibration_loop, corrected, peak_rss_mb, percentile
from openloop import REQUEST_TIMEOUT_S, Arrival, LoadReport, post, run_open_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
#: The service's core and the load generator's.
SERVER_CPU = min(os.sched_getaffinity(0))
CLIENT_CPU = max(os.sched_getaffinity(0))
#: Arrivals per class in an untraced run: at least 100, so each p90 has
#: at least 10 samples beyond it; light requests cost the service little,
#: so they get more, which steadies their p90.
PER_CLASS = {"light": 150, "study": 100, "repeat": 100}
#: Arrivals per class in each half of a traced run.
TRACED_PER_CLASS = {"light": 60, "study": 40, "repeat": 40}
#: Every study asks the same question of a fresh seed, so studies differ
#: in their sampled years only, not in what they model.
STUDY_CELL = ("specjbb", "LargeEUPS", "sleep-l")
STUDY_YEARS = 100
REPEAT_LAG_S = 1.0
#: Seed of the arrival times (one Poisson realization for every run).
ARRIVAL_SEED = 20140301
CLASSES = ("light", "study", "repeat")
LIGHT_ANALYSES = ("whatif", "rank", "sweep")
#: Latency reported for a percentile that lands on a failed request.
FAILED_LATENCY_MS = REQUEST_TIMEOUT_S * 1000.0


def _body(analysis: str, params: Dict[str, Any]) -> bytes:
    return json.dumps({"analysis": analysis, "params": params},
                      sort_keys=True).encode("utf-8")


class Inputs:
    """The seeded request bodies of one run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        rng = self.rng
        self.light: List[bytes] = []
        for _ in range(2):
            self.light.append(self._feasible_whatif())
            self.light.append(_body("rank", {
                "workload": rng.choice(cells.WORKLOADS),
                "outage_minutes": rng.choice((5.0, 15.0, 30.0, 60.0)),
            }))
            self.light.append(_body("sweep", {
                "workload": rng.choice(cells.WORKLOADS),
                "rows": rng.sample(cells.TECHNIQUES, 2),
                "outage_minutes": sorted(rng.sample((5.0, 30.0, 60.0), 2)),
            }))
        self._study_seeds = set()
        self.warm_study = self.study()

    def _feasible_whatif(self) -> bytes:
        """A whatif cell whose technique compiles on its configuration
        (an infeasible pairing is a 500 by design, not a failure)."""
        from repro.errors import RunnerError
        from repro.serve.analyses import evaluate_request
        from repro.serve.protocol import parse_request

        while True:
            workload, configuration, technique = cells.paper_cell(self.rng)
            body = _body("whatif", {"workload": workload,
                                    "configuration": configuration,
                                    "technique": technique})
            try:
                evaluate_request(parse_request(body))
            except RunnerError:  # the cell's job raised
                continue
            return body

    def study(self) -> bytes:
        seed = self.rng.randrange(1, 2**62)
        while seed in self._study_seeds:
            seed = self.rng.randrange(1, 2**62)
        self._study_seeds.add(seed)
        workload, configuration, technique = STUDY_CELL
        return _body("availability", {
            "workload": workload,
            "configuration": configuration,
            "technique": technique,
            "years": STUDY_YEARS,
            "seed": seed,
        })

    def schedule(self, per_class: Dict[str, int], seconds: float) -> List[Arrival]:
        """``per_class[c]`` arrivals of class ``c`` at uniform random times.

        The times come from :data:`ARRIVAL_SEED`, not from the run's
        seed: runs differ in what they ask, not in how their requests
        happen to collide, which would otherwise dominate the spread of
        every p90.
        """
        times = random.Random(f"{ARRIVAL_SEED}/{seconds}/{sorted(per_class.items())}")
        arrivals = [Arrival(times.uniform(0, seconds), "light",
                            self.rng.choice(self.light))
                    for _ in range(per_class["light"])]
        studies = sorted(times.uniform(0, seconds)
                         for _ in range(per_class["study"]))
        arrivals += [Arrival(due, "study", self.study()) for due in studies]
        for _ in range(per_class["repeat"]):
            due = times.uniform(0, seconds)
            earlier = [i for i, a in enumerate(arrivals)
                       if a.klass == "study" and a.due <= due - REPEAT_LAG_S]
            if earlier:
                original = earlier[-1]
                arrivals.append(Arrival(due, "repeat", arrivals[original].body,
                                        original=original))
            else:  # resend the warm-up study
                arrivals.append(Arrival(due, "repeat", self.warm_study))
        return arrivals


def _probe_server_core() -> float:
    """One :func:`measure.calibration_loop` sample on the service's core,
    from a thread that probes nothing else.  A first, unused loop brings
    the loop's code and data into that core's caches, as they are for
    the samples taken in process."""
    os.sched_setaffinity(0, {SERVER_CPU})
    calibration_loop()
    return calibration_loop()


def _calibrate_server_core() -> float:
    """Mean of a few :func:`measure.calibration_loop` samples on the
    service's core, after an unused one; call it only while the service
    is idle."""
    os.sched_setaffinity(0, {SERVER_CPU})
    try:
        calibration_loop()
        return statistics.fmean(calibration_loop() for _ in range(5))
    finally:
        os.sched_setaffinity(0, {CLIENT_CPU})


def _get_json(port: int, path: str) -> Tuple[int, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Server:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, scratch: Path, traced: bool = False) -> None:
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        self.spans_path = self.cache.with_name(self.cache.name + ".spans.json")
        self.log = open(self.cache.with_name(self.cache.name + ".log"), "w+b")
        serve = ["serve", "--port", "0", "--cache", str(self.cache)]
        if traced:
            command = [sys.executable, str(HERE / "traced_server.py"),
                       str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.sample_before = _calibrate_server_core()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}))
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        self.warm_responses: Dict[bytes, bytes] = {}

    def _read_port(self) -> int:
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split(marker)[1].split()[0])

    def wait_ready(self, inputs: Inputs) -> Tuple[float, float]:
        """Poll ``/healthz``, then warm up; returns the seconds since
        start, corrected (by the samples on the service's core just
        before the start and after the warm-up) and as measured."""
        deadline = time.monotonic() + 60
        while True:
            try:
                if _get_json(self.port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        for body in [*inputs.light, inputs.warm_study, inputs.warm_study]:
            status, response = post(self.port, body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status}")
            self.warm_responses.setdefault(body, response)
        wall = time.perf_counter() - self.started
        sample = (self.sample_before + _calibrate_server_core()) / 2
        return corrected(wall, sample), wall

    def stats(self) -> Dict[str, Any]:
        return _get_json(self.port, "/stats")[1]

    def stop(self) -> int:
        """SIGTERM, wait, remove the cache; returns the exit code.
        Idempotent."""
        if self.log.closed:
            return self.proc.returncode
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                return -signal.SIGKILL
            return self.proc.returncode
        finally:
            self.log.close()
            shutil.rmtree(self.cache, ignore_errors=True)


def _counter_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    cache_before, cache_after = before["cache"], after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    return {
        "serve.coalesced": after["coalesced"] - before["coalesced"],
        "runner.cache.hits": hits,
        "runner.cache.misses": misses,
        "runner.cache.stores": cache_after["stores"] - cache_before["stores"],
        "runner.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def reference_results(bodies: List[bytes]) -> Dict[bytes, Optional[str]]:
    """``evaluate_request`` on every distinct body, in this process, as
    canonical JSON (``None`` if it raised).  Called after the service
    has stopped, so it never shares the host with a timed phase."""
    from repro.errors import ReproError
    from repro.serve.analyses import evaluate_request
    from repro.serve.protocol import canonical_json, parse_request

    results: Dict[bytes, Optional[str]] = {}
    for body in dict.fromkeys(bodies):
        try:
            results[body] = canonical_json(evaluate_request(parse_request(body)))
        except ReproError:
            results[body] = None
    return results


class Checker:
    """Served results against the in-process reference path."""

    def __init__(self, references: Dict[bytes, Optional[str]]) -> None:
        from repro.serve.protocol import canonical_json

        self._canonical = canonical_json
        self.references = references
        self.errors: List[str] = []

    def result_of(self, response: bytes) -> str:
        return self._canonical(json.loads(response)["result"])

    def check(self, report: LoadReport, warm_responses: Dict[bytes, bytes]) -> int:
        """Counts failed arrivals; a failure's latency becomes infinite.

        The warm-up study's response is checked too, since early repeats
        are compared with it.
        """
        failed = 0
        warm = [Arrival(0.0, "warm-up", body, status=200, response=response)
                for body, response in warm_responses.items()]
        for index, arrival in enumerate([*report.arrivals, *warm]):
            problem = ""
            if not arrival.ok:
                problem = (f"status {arrival.status} {arrival.error}"
                           f"{arrival.response[:300]!r}")
            elif arrival.klass == "repeat":
                original = (report.arrivals[arrival.original].response
                            if arrival.original is not None
                            else warm_responses[arrival.body])
                if not original or (self.result_of(arrival.response)
                                    != self.result_of(original)):
                    problem = "repeat differs from its original"
            elif self.result_of(arrival.response) != self.references[arrival.body]:
                problem = "result differs from evaluate_request"
            if problem:
                failed += 1
                arrival.latency_ms = float("inf")
                self.errors.append(f"{arrival.klass} #{index}: {problem}")
        return failed


class CoreCorrection:
    """Corrects a request's figures for the speed of the service's core
    around it: the mean of the probes just before and just after it."""

    def __init__(self, report: LoadReport, linger_s: float) -> None:
        if not report.probes:
            raise RuntimeError("the service was never idle long enough to probe")
        self.probes = sorted(report.probes)
        self.starts = [start for start, _ in self.probes]
        self.linger_ms = linger_s * 1000.0

    def sample_s(self, arrival: Arrival) -> float:
        before = bisect.bisect_right(self.starts, arrival.sent_at)
        after = bisect.bisect_left(self.starts, arrival.done_at)
        near = self.probes[max(0, before - 1):before] + self.probes[after:after + 1]
        return statistics.fmean(sample for _, sample in near)

    def latency_ms(self, arrival: Arrival) -> float:
        if arrival.latency_ms == float("inf"):
            return arrival.latency_ms
        return self.linger_ms + corrected(arrival.latency_ms - self.linger_ms,
                                          self.sample_s(arrival))

    def seconds(self, arrival: Arrival, seconds: float) -> float:
        return corrected(seconds, self.sample_s(arrival))


def _latency_metrics(report: LoadReport, latency_ms, prefix: str = ""
                     ) -> Dict[str, Tuple[float, str]]:
    """p50 and p90 per class of ``latency_ms(arrival)``."""
    metrics = {}
    for klass in CLASSES:
        values = [latency_ms(a) for a in report.arrivals if a.klass == klass]
        for name, q in (("p50", 0.5), ("p90", 0.9)):
            value = percentile(values, q)
            if value == float("inf"):
                value = FAILED_LATENCY_MS
            metrics[f"{prefix}{klass}.{name}_ms"] = (value, "ms")
    return metrics


def _served_metrics(report: LoadReport, correction: CoreCorrection
                    ) -> Dict[str, Tuple[float, str]]:
    """Latencies and ``years_per_s``, corrected and (``wall.*``) not."""
    return {
        "years_per_s": (_study_years_per_s(report, correction.seconds), "1/s"),
        "wall.years_per_s": (
            _study_years_per_s(report, lambda _a, seconds: seconds), "1/s"),
        **_latency_metrics(report, correction.latency_ms),
        **_latency_metrics(report, lambda a: a.latency_ms, "wall."),
    }


def _meta(arrival: Arrival) -> Dict[str, Any]:
    return json.loads(arrival.response)["meta"]


def _study_years_per_s(report: LoadReport, seconds) -> float:
    """Simulated years per second of service batch time
    (``seconds(arrival, batch_seconds)``), median over fresh studies that
    ran alone in their batch."""
    rates = []
    for arrival in report.arrivals:
        if arrival.klass == "study" and arrival.ok:
            meta = _meta(arrival)
            if meta["batch_size"] == 1 and meta["cache_hits"] == 0:
                rates.append(STUDY_YEARS / seconds(arrival, meta["batch_seconds"]))
    return statistics.median(rates) if rates else 0.0  # every study failed


def _timed_pass(scratch: Path, inputs: Inputs, arrivals: List[Arrival],
                traced: bool = False):
    """Start a server, warm it, run ``arrivals``, stop it.

    Returns ``(report, correction, server, stats_delta, exit_code)``.
    """
    server = Server(scratch, traced=traced)
    try:
        server.wait_ready(inputs)
        before = server.stats()
        report = run_open_loop(server.port, arrivals, probe=_probe_server_core)
        deltas = _counter_deltas(before, server.stats())
    finally:
        code = server.stop()
    correction = CoreCorrection(report, before["config"]["batch_wait_s"])
    return report, correction, server, deltas, code


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> Dict[str, Any]:
    """One run; returns the fields of the final result line."""
    os.sched_setaffinity(0, {CLIENT_CPU})  # sender threads inherit it
    inputs = Inputs(seed)
    if trace:
        return _run_traced(inputs, seconds, scratch)

    problems: List[str] = []
    setups = []
    for _ in range(SETUPS - 1):
        server = Server(scratch)
        try:
            setups.append(server.wait_ready(inputs))
        finally:
            code = server.stop()
        if code != 0:
            problems.append(f"server exited {code}")
    arrivals = inputs.schedule(PER_CLASS, seconds)
    server = Server(scratch)
    try:
        setups.append(server.wait_ready(inputs))
        linger_s = server.stats()["config"]["batch_wait_s"]
        report = run_open_loop(server.port, arrivals, probe=_probe_server_core)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        code = server.stop()
    checker = Checker(reference_results(
        [a.body for a in arrivals] + list(server.warm_responses)))
    if code != 0:
        problems.append(f"server exited {code}")
    problems += report.generator_problems()
    failed = checker.check(report, server.warm_responses)
    metrics = {
        "setup_s": (statistics.median(fixed for fixed, _ in setups), "s"),
        "wall.setup_s": (statistics.median(wall for _, wall in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        **_served_metrics(report, CoreCorrection(report, linger_s)),
    }
    return {
        "attempted": len(arrivals) + len(server.warm_responses),
        "failed": failed,
        "problems": problems,
        "errors": checker.errors,
        "metrics": metrics,
        "detail": {"generator": report.stats, "probes": len(report.probes),
                   "setups_s": setups},
    }


def _parse_ms(bodies: List[bytes]) -> Dict[str, Tuple[float, str]]:
    """Median in-process ``parse_request`` time per analysis."""
    from repro.serve.protocol import parse_request

    samples: Dict[str, List[float]] = {a: [] for a in (*LIGHT_ANALYSES, "availability")}
    for _ in range(5):
        for body in bodies:
            started = time.perf_counter()
            request = parse_request(body)
            samples[request.analysis].append(
                (time.perf_counter() - started) * 1000.0)
    return {f"serve.protocol.parse_ms.{name}": (statistics.median(values), "ms")
            for name, values in samples.items()}


def _run_traced(inputs: Inputs, seconds: float, scratch: Path) -> Dict[str, Any]:
    """The same schedule against a plain server, then a traced one."""
    half = max(1.0, 0.4 * seconds)
    schedule = inputs.schedule(TRACED_PER_CLASS, half)
    plain_arrivals = [Arrival(a.due, a.klass, a.body, a.original) for a in schedule]
    problems: List[str] = []
    plain, plain_correction, plain_server, _, plain_code = _timed_pass(
        scratch, inputs, plain_arrivals)
    traced, correction, server, deltas, code = _timed_pass(
        scratch, inputs, schedule, traced=True)
    checker = Checker(reference_results(
        [a.body for a in schedule] + inputs.light + [inputs.warm_study]))
    if plain_code != 0:
        problems.append(f"server exited {plain_code}")
    if code != 0:
        problems.append(f"traced server exited {code}")
    problems += plain.generator_problems() + traced.generator_problems()

    failed = checker.check(plain, plain_server.warm_responses)
    failed += checker.check(traced, server.warm_responses)

    dump = json.loads(server.spans_path.read_text(encoding="utf-8"))
    server.spans_path.unlink()
    metrics = layers.summarize(dump["spans"], dump["tallies"], since=traced.started)
    light = [a for a in traced.arrivals if a.klass == "light" and a.ok]
    waits = [_meta(a)["queue_wait_s"] * 1000.0 for a in light]
    batches = [_meta(a)["batch_seconds"] * 1000.0 for a in light]
    outside = [a.latency_ms - w - b for a, w, b in zip(light, waits, batches)]
    oks = [a for a in traced.arrivals if a.ok]
    metrics.update({
        "serve.queue_wait_ms": (statistics.median(waits), "ms"),
        "serve.batch_ms": (statistics.median(batches), "ms"),
        "serve.outside_ms": (statistics.median(outside), "ms"),
        "serve.batch_size.mean": (
            statistics.fmean(_meta(a)["batch_size"] for a in oks), "count"),
        **{name: (value, "ratio" if name.endswith("ratio") else "count")
           for name, value in deltas.items()},
        **_parse_ms(list(dict.fromkeys(a.body for a in schedule))),
    })
    plain_p50 = _latency_metrics(plain, plain_correction.latency_ms)["study.p50_ms"][0]
    traced_p50 = _latency_metrics(traced, correction.latency_ms)["study.p50_ms"][0]
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - plain_p50) / plain_p50, "%")
    for key in ("lateness_p50_ms", "lateness_max_ms", "connections", "in_flight_max"):
        unit = "ms" if key.endswith("_ms") else "count"
        metrics[f"loadgen.{key}"] = (traced.stats[key], unit)
    return {
        "attempted": (len(plain.arrivals) + len(traced.arrivals)
                      + len(plain_server.warm_responses)
                      + len(server.warm_responses)),
        "failed": failed,
        "problems": problems,
        "errors": checker.errors,
        "metrics": metrics,
        "detail": {"generator_plain": plain.stats, "generator_traced": traced.stats},
    }
