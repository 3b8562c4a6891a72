"""Structured failure paths: degenerate traces, unreachable servers."""

import json
import socket
from urllib.parse import urlsplit

import pytest

from repro.service import ServiceClient, ServiceUnreachable


@pytest.fixture
def dead_url():
    """A URL that is guaranteed to refuse connections: bind an
    ephemeral port, then close it before anyone connects."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


class TestDegenerateTrace:
    def test_empty_trace_answers_400_with_trace_id(
        self, service_factory, tmp_path
    ):
        _service, client, _ = service_factory()
        empty = tmp_path / "empty.txt"
        empty.write_text("# no contacts\n")
        response = client.delay_cdf(str(empty))
        assert response.status == 400
        document = response.json()
        assert document["error"]["type"] == "bad-request"
        assert "not analyzable" in document["error"]["message"]
        assert document["error"]["field"] == "trace"
        assert document["trace_id"] == response.trace_id

    def test_zero_span_trace_answers_400(self, service_factory, tmp_path):
        _service, client, _ = service_factory()
        point = tmp_path / "point.txt"
        point.write_text("0 1 50 50\n")
        response = client.diameter(str(point))
        assert response.status == 400
        assert "zero length" in response.json()["error"]["message"]


def _raw_post(base_url, content_length):
    """POST /v1/delay-cdf over a bare socket with a hand-written
    ``Content-Length``; returns (status, parsed JSON body, headers).

    The socket timeout bounds the wait, so a handler that blocks on the
    body fails the test instead of hanging it.
    """
    host, port = urlsplit(base_url).hostname, urlsplit(base_url).port
    request = (
        f"POST /v1/delay-cdf HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {content_length}\r\n"
        "Content-Type: application/json\r\n\r\n{}"
    ).encode("ascii")
    with socket.create_connection((host, port), timeout=10.0) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, json.loads(body), headers


class TestContentLength:
    """A malformed ``Content-Length`` is a client mistake: 400, with the
    trace id, answered at once rather than after the client hangs up."""

    def test_negative_length_answers_400(self, service_factory):
        _service, client, _ = service_factory()
        status, document, headers = _raw_post(client.base_url, "-1")
        assert status == 400
        assert document["error"]["type"] == "bad-request"
        assert document["trace_id"] == headers["X-Repro-Trace"]

    def test_non_numeric_length_answers_400(self, service_factory):
        _service, client, _ = service_factory()
        status, document, headers = _raw_post(client.base_url, "abc")
        assert status == 400
        assert document["error"]["type"] == "bad-request"
        assert "Content-Length" in document["error"]["message"]
        assert document["trace_id"] == headers["X-Repro-Trace"]


class TestUnreachableService:
    def test_request_raises_service_unreachable(self, dead_url):
        client = ServiceClient(dead_url, timeout_s=2.0)
        with pytest.raises(ServiceUnreachable) as exc:
            client.health()
        assert exc.value.attempts == 1
        assert dead_url in str(exc.value)
        assert isinstance(exc.value.cause, OSError)

    def test_retry_makes_the_configured_attempts(self, dead_url):
        client = ServiceClient(dead_url, timeout_s=2.0)
        with pytest.raises(ServiceUnreachable) as exc:
            client.query(
                "delay-cdf", "trace.txt", retries=2, backoff_s=0.01
            )
        assert exc.value.attempts == 3

    def test_unreachable_is_oserror(self, dead_url):
        """Existing ``except OSError`` call sites must keep working."""
        client = ServiceClient(dead_url, timeout_s=2.0)
        with pytest.raises(OSError):
            client.health()

    def test_ping_swallows_unreachable(self, dead_url):
        client = ServiceClient(dead_url, timeout_s=2.0)
        assert client.ping(retries=1, backoff_s=0.01) is False
