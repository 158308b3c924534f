"""HTTP front end: endpoints, status mapping, bit-identical serving."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    EvalServer,
    ServeConfig,
    canonical_json,
    evaluate_request,
    parse_request,
    post_request,
)
from repro.serve.protocol import PROTOCOL_VERSION


@pytest.fixture(scope="module")
def server():
    instance = EvalServer(
        ServeConfig(port=0, queue_bound=32, max_batch=8, batch_wait_s=0.005)
    ).start()
    yield instance
    instance.close(drain=True, timeout=30)


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get_json(server.base_url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["version"]

    def test_metrics_snapshot(self, server):
        post_request(server.base_url, {"analysis": "echo", "params": {}})
        status, body = get_json(server.base_url + "/metrics")
        assert status == 200
        assert body["serve.requests"]["type"] == "counter"
        assert body["serve.requests"]["value"] >= 1

    def test_stats(self, server):
        status, body = get_json(server.base_url + "/stats")
        assert status == 200
        assert body["queue_bound"] == 32
        assert "requests" in body and "sheds" in body

    def test_unknown_path_404(self, server):
        status, body = post_request(server.base_url, {"analysis": "echo",
                                                      "params": {}})
        assert status == 200  # control
        request = urllib.request.Request(
            server.base_url + "/nope", data=b"{}", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:  # pragma: no cover
            pytest.fail("expected 404")


class TestEval:
    def test_echo_roundtrip(self, server):
        status, body = post_request(
            server.base_url,
            {"analysis": "echo", "params": {"payload": {"k": [1, 2]}}},
        )
        assert status == 200
        assert body["ok"] is True
        assert body["result"] == {"echo": {"k": [1, 2]}}
        assert body["v"] == PROTOCOL_VERSION
        assert body["fingerprint"]
        assert body["meta"]["jobs"] == 1

    def test_malformed_body_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/eval", data=b"{nope", method="POST",
            headers={"Content-Length": "5"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            payload = json.loads(exc.read().decode())
            assert payload["error"]["type"] == "protocol"
        else:  # pragma: no cover
            pytest.fail("expected 400")

    def test_unknown_analysis_400(self, server):
        status, body = post_request(server.base_url,
                                    {"analysis": "nope", "params": {}})
        assert status == 400
        assert body["error"]["type"] == "protocol"

    def test_whatif_bit_identical_to_reference(self, server):
        """The acceptance criterion: served result == unbatched evaluation."""
        body = {"analysis": "whatif",
                "params": {"workload": "memcached", "configuration": "NoDG",
                           "technique": "sleep-l"}}
        status, served = post_request(server.base_url, body)
        assert status == 200
        reference = evaluate_request(parse_request(json.dumps(body)))
        assert canonical_json(served["result"]) == canonical_json(reference)

    def test_availability_bit_identical_to_reference(self, server):
        body = {"analysis": "availability",
                "params": {"workload": "memcached", "configuration": "NoDG",
                           "technique": "sleep-l", "years": 2}}
        status, served = post_request(server.base_url, body)
        assert status == 200
        reference = evaluate_request(parse_request(json.dumps(body)))
        assert canonical_json(served["result"]) == canonical_json(reference)

    def test_coalesced_duplicates_one_evaluation(self, server):
        body = {"analysis": "echo",
                "params": {"payload": "ride", "sleep_s": 0.3}}
        results = []
        lock = threading.Lock()

        def hit():
            outcome = post_request(server.base_url, body)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 200 for status, _ in results)
        fingerprints = {payload["fingerprint"] for _, payload in results}
        assert len(fingerprints) == 1
        assert max(p["meta"]["coalesced_riders"] for _, p in results) >= 1


def raw_post(base_url, head_lines, body=b""):
    """Send a hand-written POST; return (status, envelope, thread count
    before connecting).  Reads to EOF, so it also proves the server
    closed the connection."""
    host, port = base_url.rsplit("//", 1)[1].split(":")
    before = threading.active_count()
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        request = "\r\n".join(
            ["POST /v1/eval HTTP/1.1", "Host: test", *head_lines, "", ""]
        )
        sock.sendall(request.encode("latin-1") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload.decode("utf-8")), before


class TestContentLength:
    """A bad or missing length gets a 4xx envelope and frees the thread."""

    @pytest.mark.parametrize(
        "head_lines,status,kind",
        [
            (["Content-Length: abc"], 400, "bad_length"),
            (["Content-Length: -1"], 400, "bad_length"),
            (["Content-Length: 1e3"], 400, "bad_length"),
            ([], 411, "length_required"),
            ([f"Content-Length: {(1 << 20) + 1}"], 413, "too_large"),
            (["Content-Length: " + "9" * 5000], 413, "too_large"),
        ],
    )
    def test_refused_with_envelope(self, server, head_lines, status, kind):
        got, envelope, before = raw_post(
            server.base_url, head_lines, body=b'{"analysis": "echo"}'
        )
        assert got == status
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == kind
        deadline = time.monotonic() + 5
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "handler thread still alive"
            time.sleep(0.01)

    def test_exact_length_still_served(self, server):
        payload = json.dumps({"analysis": "echo", "params": {}}).encode()
        status, envelope, _ = raw_post(
            server.base_url,
            [f"Content-Length: {len(payload)}"],
            body=payload,
        )
        assert status == 200
        assert envelope["result"] == {"echo": None}


class TestBackpressureHTTP:
    def test_burst_sheds_with_429_and_retry_after(self):
        tiny = EvalServer(
            ServeConfig(port=0, queue_bound=1, max_batch=1, batch_wait_s=0.0)
        ).start()
        try:
            outcomes = []
            lock = threading.Lock()

            def hammer(i):
                status, payload = post_request(
                    tiny.base_url,
                    {"analysis": "echo",
                     "params": {"payload": i, "sleep_s": 0.2}},
                )
                with lock:
                    outcomes.append((status, payload))

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = [status for status, _ in outcomes]
            assert 429 in statuses
            assert tiny.stats()["sheds"] >= 1
            shed_payloads = [p for s, p in outcomes if s == 429]
            assert all(p["error"]["type"] == "shed" for p in shed_payloads)
        finally:
            tiny.close(drain=False, timeout=10)

    def test_deadline_maps_to_504(self):
        slow = EvalServer(
            ServeConfig(port=0, queue_bound=8, max_batch=1, batch_wait_s=0.0)
        ).start()
        try:
            blocker = threading.Thread(
                target=post_request,
                args=(slow.base_url,
                      {"analysis": "echo",
                       "params": {"payload": "block", "sleep_s": 1.0}}),
            )
            blocker.start()
            import time

            time.sleep(0.1)  # let the blocker reach the dispatcher
            status, payload = post_request(
                slow.base_url,
                {"analysis": "echo", "params": {"payload": "late"},
                 "deadline_s": 0.2},
            )
            blocker.join()
            assert status == 504
            assert payload["error"]["type"] in ("deadline", "timeout")
        finally:
            slow.close(drain=True, timeout=10)


class TestLifecycle:
    def test_close_is_idempotent(self):
        instance = EvalServer(ServeConfig(port=0)).start()
        instance.close(drain=True, timeout=10)
        instance.close(drain=True, timeout=10)

    def test_drain_finishes_in_flight_work(self):
        instance = EvalServer(ServeConfig(port=0)).start()
        outcome = {}

        def slow_hit():
            outcome["response"] = post_request(
                instance.base_url,
                {"analysis": "echo", "params": {"payload": "x", "sleep_s": 0.3}},
            )

        thread = threading.Thread(target=slow_hit)
        thread.start()
        import time

        time.sleep(0.1)
        instance.close(drain=True, timeout=30)
        thread.join(timeout=10)
        status, payload = outcome["response"]
        assert status == 200
        assert payload["result"] == {"echo": "x"}
