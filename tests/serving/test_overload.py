"""Overload self-protection and graceful-drain tests for the gateway.

End-to-end over real sockets: a deliberately slow toy model gives the
scorer pool a small, predictable capacity, so a burst of concurrent
clients drives the backlog past its admission bound on demand.  The
suite pins the two halves of the PR's contract:

* **Shedding is exact and clean** — under overload every submitted
  request is either served or answered with a structured 429 (+
  ``Retry-After``); the gateway's own shed counter agrees with what
  clients observed, and operational endpoints keep answering while
  scoring traffic is refused.
* **Shutdown answers what it accepted** — ``close()`` (and SIGTERM via
  the installed handlers) drains: requests in flight when the stop began
  still get their 200, final responses carry ``Connection: close``, and
  the serve loop exits on its own.  This is the regression test for the
  old ``cancel_futures=True`` teardown, which reset accepted requests.
"""

import http.client
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serving import (ModelRegistry, RankingService, ServingClient,
                           ServingError, ServingServer)


class _SlowToyModel:
    """Scores are row sums after a fixed delay — capacity is exact."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def make_scorer(self):
        def score(batch):
            time.sleep(self.delay_s)
            return batch.numeric.sum(axis=1)
        return score


def _make_server(delay_s: float = 0.05,
                 max_backlog_rows: int | None = 8,
                 drain_deadline_s: float = 5.0) -> ServingServer:
    registry = ModelRegistry()
    registry.register("toy", _SlowToyModel(delay_s))
    service = RankingService(registry, num_workers=1, max_batch_rows=4,
                             max_backlog_rows=max_backlog_rows)
    return ServingServer(service, drain_deadline_s=drain_deadline_s).start()


def _rank_payload(rows: int = 4) -> bytes:
    return json.dumps({
        "candidates": {"numeric": np.ones((rows, 3)).tolist(), "sparse": {}},
        "top_k": 1,
    }).encode("utf-8")


@pytest.fixture(params=["selector"])
def backend(request):
    """Names the transport in the test ids."""
    return request.param


class TestOverloadShedding:
    def test_every_request_served_or_shed_exactly(self, backend):
        """shed == submitted - served, across client and gateway books."""
        server = _make_server()
        try:
            ServingClient(server.url).wait_ready()
            per_thread = 8
            threads = 6
            served = []
            sheds = []

            def worker():
                client = ServingClient(server.url)
                for _ in range(per_thread):
                    try:
                        client.rank(np.ones((4, 3)), {}, top_k=1)
                        served.append(1)
                    except ServingError as error:
                        # Any status other than a structured overload
                        # shed fails the test by re-raising.
                        assert error.status == 429
                        assert error.kind == "overloaded"
                        assert error.retry_after_s is not None
                        assert error.retry_after_s >= 1
                        sheds.append(1)

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()

            submitted = per_thread * threads
            assert len(served) + len(sheds) == submitted
            assert sheds, "the burst never hit the admission bound"
            assert served, "shedding must not starve admitted traffic"
            stats = ServingClient(server.url).stats()
            assert stats["server"]["shed_requests"] == len(sheds)
            scorer = next(iter(stats["scorers"].values()))
            assert scorer["max_backlog_rows"] == 8
            # The pool-level race backstop may or may not have fired; the
            # gate plus backstop together must never under-count.
            assert scorer["shed_requests"] <= len(sheds)
        finally:
            server.close()

    def test_operational_endpoints_never_shed(self):
        """Monitoring must keep answering while scoring traffic sheds."""
        server = _make_server(delay_s=0.3, max_backlog_rows=4)
        try:
            client = ServingClient(server.url)
            client.wait_ready()
            blocker = threading.Thread(
                target=lambda: ServingClient(server.url, timeout=15).rank(
                    np.ones((4, 3)), {}, top_k=1))
            filler = threading.Thread(
                target=lambda: ServingClient(server.url, timeout=15).rank(
                    np.ones((4, 3)), {}, top_k=1))
            blocker.start()
            time.sleep(0.05)            # worker collects the first request
            filler.start()
            time.sleep(0.05)            # backlog now at the bound
            with pytest.raises(ServingError) as excinfo:
                client.rank(np.ones((4, 3)), {}, top_k=1)
            assert excinfo.value.status == 429
            # Shed for scoring, open for operations — same instant.
            assert client.healthz()["status"] == "ok"
            stats = client.stats()
            assert stats["server"]["shed_requests"] >= 1
            blocker.join()
            filler.join()
        finally:
            server.close()

    def test_shed_response_shape_pinned(self):
        """The 429 contract: error schema, Retry-After header, counted."""
        server = _make_server(delay_s=0.3, max_backlog_rows=4)
        try:
            ServingClient(server.url).wait_ready()
            holders = [threading.Thread(
                target=lambda: ServingClient(server.url, timeout=15).rank(
                    np.ones((4, 3)), {}, top_k=1)) for _ in range(2)]
            for holder in holders:
                holder.start()
                time.sleep(0.05)
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            connection.request("POST", "/rank", _rank_payload(),
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 429
            assert response.getheader("Retry-After") is not None
            assert int(response.getheader("Retry-After")) >= 1
            assert body["error"]["type"] == "overloaded"
            connection.close()
            for holder in holders:
                holder.join()
        finally:
            server.close()


class TestGracefulDrain:
    def test_close_answers_in_flight_requests(self, backend):
        """The shutdown-drop regression: a request being scored when
        close() starts must still receive its response (the old teardown
        cancelled dispatch futures and reset the connection)."""
        server = _make_server(delay_s=0.3, max_backlog_rows=None)
        result = {}

        def slow_request():
            client = ServingClient(server.url, timeout=15)
            result["response"] = client.rank(np.ones((4, 3)), {}, top_k=1)

        ServingClient(server.url).wait_ready()
        requester = threading.Thread(target=slow_request)
        requester.start()
        time.sleep(0.1)                 # request is now inside the scorer
        server.close()
        requester.join(timeout=10)
        assert "response" in result, "in-flight request dropped by close()"
        assert result["response"]["scores"].shape == (1,)

    def test_selector_drain_marks_last_response_close(self):
        """A drain begun mid-request finishes it with Connection: close,
        then the serve loop exits on its own (no forced shutdown)."""
        server = _make_server(delay_s=0.3, max_backlog_rows=None)
        try:
            ServingClient(server.url).wait_ready()
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            connection.request("POST", "/rank", _rank_payload(),
                               {"Content-Type": "application/json"})
            time.sleep(0.1)             # in flight on the gateway
            server.request_drain()
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            connection.close()
            server._thread.join(timeout=5)
            assert not server._thread.is_alive(), \
                "serve loop did not exit after the drain finished"
        finally:
            server.close()

    def test_sigterm_drains_and_exits(self):
        """SIGTERM through install_signal_handlers: every accepted
        request answered, loop exits within the deadline, clean close."""
        server = _make_server(delay_s=0.3, max_backlog_rows=None)
        previous = server.install_signal_handlers()
        result = {}
        try:
            ServingClient(server.url).wait_ready()

            def slow_request():
                client = ServingClient(server.url, timeout=15)
                result["response"] = client.rank(np.ones((4, 3)), {}, top_k=1)

            requester = threading.Thread(target=slow_request)
            requester.start()
            time.sleep(0.1)             # in flight when the signal lands
            os.kill(os.getpid(), signal.SIGTERM)
            requester.join(timeout=10)
            assert "response" in result, "SIGTERM dropped an accepted request"
            server._thread.join(timeout=5)
            assert not server._thread.is_alive(), \
                "serve loop still running after SIGTERM drain"
            # New connections are refused once the drain began.
            with pytest.raises(OSError):
                ServingClient(server.url).healthz()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            server.close()

    def test_drain_deadline_cuts_stuck_requests(self):
        """A request slower than the deadline cannot wedge shutdown."""
        server = _make_server(delay_s=3.0, max_backlog_rows=None,
                              drain_deadline_s=0.2)
        ServingClient(server.url).wait_ready()

        def doomed_request():
            client = ServingClient(server.url, timeout=15)
            try:
                client.rank(np.ones((4, 3)), {}, top_k=1)
            except (ServingError, OSError):
                pass                    # cut off by the deadline: expected

        requester = threading.Thread(target=doomed_request)
        requester.start()
        time.sleep(0.1)
        started = time.monotonic()
        server.close()
        elapsed = time.monotonic() - started
        requester.join(timeout=15)
        # close() = deadline (0.2s) + executor wait for the 3s handler;
        # well under the full request plus a 10s default deadline.
        assert elapsed < 6.0, f"drain deadline did not bound close: {elapsed:.1f}s"
