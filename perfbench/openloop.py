"""Open-loop HTTP load: requests go out when they are due, not when the
previous one returns.

A fixed number of arrivals per class is placed at seeded uniform random
times over the run, which is a Poisson process conditioned on its count,
so every class gets the samples its percentiles need.  At most
:data:`CONNECTIONS` requests are in flight (one connection per sender
thread; the service speaks HTTP/1.0, one request per connection).

Each request's latency runs from the moment it was *due*, so a stall in
the service also charges the requests it delayed.  The generator also
measures itself: ``lateness`` is how long after it could have sent a
request (due, and a connection free) it actually sent it.  When that is
large the run measured the generator rather than the service and is
reported invalid.

Given a ``probe``, a further thread calls it every :data:`PROBE_EVERY_S`
seconds while the service is idle: nothing in flight and nothing due
for :data:`PROBE_GAP_S` seconds.  The serve workload probes the speed
of the service's core this way without competing with a request.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from measure import percentile

#: Sender threads, so connections and requests in flight (the host's
#: core count).
CONNECTIONS = 2
#: A request with no response after this long counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Generator self-checks: beyond either, the run is invalid.
MAX_LATENESS_P50_MS = 5.0
MAX_LATENESS_MS = 250.0
#: Seconds between probes, and the idle time ahead a probe needs.
PROBE_EVERY_S = 0.1
PROBE_GAP_S = 0.02


@dataclass
class Arrival:
    """One scheduled request and, once sent, its outcome."""

    due: float  # seconds after the run's start
    klass: str
    body: bytes
    original: Optional[int] = None  # repeat: index of the request it resends
    status: int = 0  # 0 = connection error or timeout
    response: bytes = b""
    latency_ms: float = float("inf")
    lateness_ms: float = 0.0
    conn_wait_ms: float = 0.0
    error: str = ""
    sent_at: float = 0.0  # time.monotonic(); 0 until sent
    done_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class LoadReport:
    arrivals: List[Arrival]
    started: float  # time.monotonic() at the run's start
    finished: float
    max_in_flight: int
    stats: Dict[str, float] = field(default_factory=dict)
    #: ``(start, value)`` of each probe: its ``time.monotonic()`` start
    #: and what it returned.
    probes: List[Tuple[float, float]] = field(default_factory=list)

    def generator_problems(self) -> List[str]:
        late = self.stats["lateness_p50_ms"], self.stats["lateness_max_ms"]
        problems = []
        if late[0] > MAX_LATENESS_P50_MS:
            problems.append(f"generator lateness p50 {late[0]:.2f} ms")
        if late[1] > MAX_LATENESS_MS:
            problems.append(f"generator lateness max {late[1]:.1f} ms")
        return problems


def post(port: int, body: bytes, timeout: float = REQUEST_TIMEOUT_S):
    """One ``POST /v1/eval``; returns ``(status, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("POST", "/v1/eval", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_open_loop(port: int, arrivals: Sequence[Arrival],
                  probe: Optional[Callable[[], float]] = None) -> LoadReport:
    """Send every arrival at its due time; returns when all completed."""
    order = sorted(range(len(arrivals)), key=lambda i: arrivals[i].due)
    lock = threading.Lock()
    cursor = [0]
    in_flight = [0, 0]  # current, max
    started = time.monotonic() + 0.05

    def sender() -> None:
        while True:
            with lock:
                if cursor[0] >= len(order):
                    return
                arrival = arrivals[order[cursor[0]]]
                cursor[0] += 1
            claimed = time.monotonic()
            due = started + arrival.due
            if claimed < due:
                time.sleep(due - claimed)
            with lock:
                sent = arrival.sent_at = time.monotonic()
                in_flight[0] += 1
                in_flight[1] = max(in_flight[1], in_flight[0])
            arrival.conn_wait_ms = max(0.0, claimed - due) * 1000.0
            arrival.lateness_ms = (sent - max(due, claimed)) * 1000.0
            try:
                arrival.status, arrival.response = post(port, arrival.body)
            except (OSError, http.client.HTTPException) as exc:
                arrival.error = f"{type(exc).__name__}: {exc}"
            done = arrival.done_at = time.monotonic()
            with lock:
                in_flight[0] -= 1
            if arrival.ok:
                arrival.latency_ms = (done - due) * 1000.0

    probes: List[Tuple[float, float]] = []
    finished = threading.Event()

    def idle() -> bool:
        """Nothing in flight and nothing due soon (call under ``lock``)."""
        if in_flight[0]:
            return False
        soon = time.monotonic() + PROBE_GAP_S
        # Arrivals are claimed in due order, and at most one per sender
        # is claimed but not yet sent.
        for index in order[max(0, cursor[0] - CONNECTIONS):cursor[0] + 1]:
            if not arrivals[index].sent_at and started + arrivals[index].due < soon:
                return False
        return True

    def prober() -> None:
        while not finished.wait(PROBE_EVERY_S):
            with lock:
                if not idle():
                    continue
                begun = time.monotonic()
            seconds = probe()
            probes.append((begun, seconds))

    threads = [threading.Thread(target=sender, name=f"openloop-{i}")
               for i in range(CONNECTIONS)]
    if probe is not None:
        threads.append(threading.Thread(target=prober, name="openloop-probe"))
    for thread in threads:
        thread.start()
    for thread in threads[:CONNECTIONS]:
        thread.join()
    finished.set()
    for thread in threads[CONNECTIONS:]:
        thread.join()
    lateness = [a.lateness_ms for a in arrivals]
    waits = [a.conn_wait_ms for a in arrivals]
    report = LoadReport(list(arrivals), started, time.monotonic(), in_flight[1],
                        probes=probes)
    report.stats = {
        "connections": CONNECTIONS,
        "in_flight_max": in_flight[1],
        "lateness_p50_ms": percentile(lateness, 0.5),
        "lateness_max_ms": max(lateness),
        "conn_wait_p50_ms": percentile(waits, 0.5),
        "conn_wait_max_ms": max(waits),
        "waited_for_connection": sum(1 for w in waits if w > 0),
    }
    return report
