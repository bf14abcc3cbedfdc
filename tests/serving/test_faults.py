"""Fault-tolerance tests: deadlines, supervision, breaker, corruption.

Three layers of coverage:

* Library level — :class:`CircuitBreaker` state machine, deadline drops
  inside :class:`ScorerPool`, worker-crash respawn by the pool
  supervisor, lost-resolution accounting, atomic checkpoint writes with
  checksum verification, and registry quarantine of corrupt checkpoints.
* Wire level — a real gateway with ``--enable-fault-injection``
  semantics: expired deadlines answer structured 504s, a killed worker
  is respawned under traffic, a torn checkpoint write quarantines on
  reload while the last good version keeps serving.
* Harness level — a shortened ``loadgen --chaos`` run must pass its own
  acceptance checks end to end (the same checks CI gates on).
"""

import threading
import time

import numpy as np
import pytest

from repro import serving
from repro.models import build_model
from repro.serving import (BreakerConfig, CheckpointCorrupted, CircuitBreaker,
                           DeadlineExceeded, FaultInjector, ModelRegistry,
                           RankingService, ScorerPool, ServingClient,
                           ServingError, candidate_batch)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serving.client import DEADLINE_HEADER
from repro.serving.faults import InjectedFault, WorkerKilled
from repro.serving.handlers import GatewayDispatcher
from repro.serving.loadgen import run_chaos
from repro.utils.serialization import (atomic_write_bytes, checksum_file,
                                       load_checkpoint)


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        config = dict(window_s=10.0, failure_threshold=0.5, min_requests=4,
                      cooldown_s=1.0, probe_successes=2)
        config.update(overrides)
        return CircuitBreaker(BreakerConfig(**config), clock=clock)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=1.5)
        with pytest.raises(ValueError):
            BreakerConfig(window_s=0)
        with pytest.raises(ValueError):
            BreakerConfig(min_requests=0)

    def test_stays_closed_below_min_requests(self):
        breaker = self._breaker(lambda: 0.0)
        for _ in range(3):              # min_requests is 4
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_at_failure_ratio_and_rejects(self):
        breaker = self._breaker(lambda: 0.0)
        breaker.record_success()
        for _ in range(3):
            breaker.record_failure()    # 3/4 failures >= 0.5
        assert breaker.state == OPEN
        assert not breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot["opens"] == 1
        assert snapshot["rejected"] == 1

    def test_successes_keep_it_closed(self):
        breaker = self._breaker(lambda: 0.0)
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()        # 1/4 < 0.5
        assert breaker.state == CLOSED

    def test_cooldown_half_open_probes_close(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        now[0] = 0.5                    # still cooling down
        assert breaker.state == OPEN
        now[0] = 1.5                    # past cooldown
        assert breaker.state == HALF_OPEN
        # Concurrent probes are bounded by probe_successes.
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        # The cleared window: the old failures cannot re-trip it.
        assert breaker.snapshot()["window_requests"] == 0

    def test_half_open_failure_reopens(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        now[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2

    def test_abandon_frees_probe_slot(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0], probe_successes=1)
        for _ in range(4):
            breaker.record_failure()
        now[0] = 1.5
        assert breaker.allow()
        assert not breaker.allow()      # the only probe slot is taken
        breaker.abandon()               # probe ended without a verdict
        assert breaker.allow()


# ----------------------------------------------------------------------
# Pool-level deadlines, supervision, lost resolutions
# ----------------------------------------------------------------------
def _rows(n):
    return candidate_batch(np.linspace(0.0, 1.0, n)[:, None], {})


class TestPoolDeadlines:
    def test_pre_submit_expiry_raises_and_counts(self):
        with ScorerPool(lambda: (lambda b: b.numeric[:, 0]),
                        num_workers=1) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.submit(_rows(3), deadline=time.monotonic() - 0.5)
            stats = pool.stats()
        assert stats.expired_requests == 1
        assert stats.expired_rows == 3

    def test_expired_in_queue_dropped_at_collect(self):
        release = threading.Event()

        def factory():
            def score(batch):
                release.wait(10)
                return batch.numeric[:, 0]
            return score

        with ScorerPool(factory, num_workers=1) as pool:
            blocker = pool.submit(_rows(2))     # occupies the sole worker
            time.sleep(0.05)
            doomed = pool.submit(_rows(4),
                                 deadline=time.monotonic() + 0.01)
            time.sleep(0.05)                    # let the deadline lapse
            release.set()
            assert blocker.result(timeout=10).shape == (2,)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            for _ in range(100):                # stats update post-resolve
                if pool.stats().expired_requests:
                    break
                time.sleep(0.01)
            stats = pool.stats()
        assert stats.expired_requests == 1
        assert stats.expired_rows == 4

    def test_lost_resolution_counted_not_swallowed(self):
        release = threading.Event()

        def factory():
            def score(batch):
                release.wait(10)
                return batch.numeric[:, 0]
            return score

        with ScorerPool(factory, num_workers=1) as pool:
            blocker = pool.submit(_rows(2))
            time.sleep(0.05)
            abandoned = pool.submit(_rows(3))
            assert abandoned.cancel()           # caller gave up while queued
            release.set()
            blocker.result(timeout=10)
            for _ in range(100):
                if pool.stats().lost_resolutions:
                    break
                time.sleep(0.01)
            stats = pool.stats()
        assert stats.lost_resolutions == 1


# An injected kill *is* an unhandled exception escaping the worker
# thread — that is the mechanism under test, not a leak.
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestWorkerSupervision:
    def test_dead_worker_respawned_with_fresh_plan(self):
        injector = FaultInjector()
        plans = []

        def factory():
            def score(batch):
                return batch.numeric[:, 0]
            plans.append(score)
            return score

        with ScorerPool(factory, num_workers=2,
                        fault_injector=injector) as pool:
            np.testing.assert_allclose(pool.score(_rows(3)),
                                       np.linspace(0, 1, 3))
            plans_before = len(plans)
            injector.arm_worker_kills(1)
            with pytest.raises(WorkerKilled):
                pool.score(_rows(3))            # resolved, then thread dies
            deadline = time.monotonic() + 5.0
            while pool.worker_restarts < 1:
                assert time.monotonic() < deadline, "supervisor never respawned"
                time.sleep(0.02)
            # The replacement got its own compiled plan and the pool
            # keeps serving at full strength.
            assert len(plans) == plans_before + 1
            np.testing.assert_allclose(pool.score(_rows(5)),
                                       np.linspace(0, 1, 5))
            stats = pool.stats()
        assert stats.worker_restarts == 1
        assert stats.workers == 2
        assert injector.snapshot()["kills_delivered"] == 1

    def test_restart_counters_fold_retired_work(self):
        """Requests served before a crash stay in the pool totals after
        the worker is replaced."""
        injector = FaultInjector()
        with ScorerPool(lambda: (lambda b: b.numeric[:, 0]),
                        num_workers=1,
                        fault_injector=injector) as pool:
            for _ in range(3):
                pool.score(_rows(2))
            injector.arm_worker_kills(1)
            with pytest.raises(WorkerKilled):
                pool.score(_rows(2))
            deadline = time.monotonic() + 5.0
            while pool.worker_restarts < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            pool.score(_rows(2))
            stats = pool.stats()
        assert stats.requests == 4              # 3 pre-crash + 1 post-respawn
        assert stats.rows == 8

    def test_close_during_respawn_is_averted(self):
        """The respawn/close TOCTOU race, interleaved deterministically.

        A respawner that passed its top-of-loop closed check and is deep
        inside the (slow, lock-free) factory call must NOT publish and
        start its replacement once ``close()`` wins — pre-fix it did,
        leaking a worker thread that no sentinel would ever stop.
        """
        injector = FaultInjector()
        in_factory = threading.Event()
        release = threading.Event()
        builds = []

        def factory():
            if builds:                          # respawn path only
                in_factory.set()
                assert release.wait(timeout=10)

            def score(batch):
                return batch.numeric[:, 0]
            builds.append(score)
            return score

        pool = ScorerPool(factory, num_workers=1,
                          fault_injector=injector)
        injector.arm_worker_kills(1)
        with pytest.raises(WorkerKilled):
            pool.score(_rows(2))
        deadline = time.monotonic() + 5.0
        while pool.worker_stats() and pool._workers[0].thread.is_alive():
            assert time.monotonic() < deadline, "killed worker never died"
            time.sleep(0.01)
        # Take over the supervisor's role so the interleaving is ours.
        pool._supervisor_stop.set()
        pool._supervisor.join()
        respawner = threading.Thread(target=pool._respawn_dead_workers)
        respawner.start()
        assert in_factory.wait(timeout=5), "respawn never reached factory"
        pool.close()                            # wins the race mid-respawn
        release.set()
        respawner.join(timeout=5)
        assert not respawner.is_alive()
        # The replacement was abandoned: not published, never started.
        assert pool.averted_respawns == 1
        assert pool.worker_restarts == 0
        assert not pool._workers[0].thread.is_alive()
        assert pool.stats().averted_respawns == 1


# ----------------------------------------------------------------------
# Service-level breaker + degraded fallback
# ----------------------------------------------------------------------
class _FlakyModel:
    def __init__(self):
        self.mode = "ok"

    def score(self, batch):
        if self.mode == "boom":
            raise RuntimeError("model exploded")
        if self.mode == "client":
            raise ValueError("bad candidate data")
        return np.asarray(batch.numeric[:, 0], dtype=np.float64)


class TestDegradedFallback:
    def _service(self, model, **breaker_overrides):
        config = dict(window_s=10.0, failure_threshold=0.5, min_requests=2,
                      cooldown_s=0.2, probe_successes=1)
        config.update(breaker_overrides)
        registry = ModelRegistry()
        registry.register("m", model)
        return RankingService(registry, default_model="m",
                              breaker_config=BreakerConfig(**config))

    def test_open_breaker_serves_degraded_prior(self):
        model = _FlakyModel()
        with self._service(model) as service:
            candidates = _rows(6)
            model.mode = "boom"
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    service.rank(candidates)
            assert service.breaker_stats()["m"]["state"] == OPEN
            response = service.rank(candidates)
            assert response.degraded is True
            assert service.degraded_responses == 1
            # The model-free prior: sigmoid of the numeric mean — and
            # crucially, no model call (still in boom mode).
            prior = 1.0 / (1.0 + np.exp(-candidates.numeric.mean(axis=1)))
            order = np.argsort(-prior, kind="stable")[:10]
            np.testing.assert_array_equal(response.indices, order)
            np.testing.assert_allclose(response.scores, prior[order])

    def test_breaker_recloses_after_successful_probe(self):
        model = _FlakyModel()
        with self._service(model) as service:
            candidates = _rows(4)
            model.mode = "boom"
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    service.rank(candidates)
            model.mode = "ok"
            time.sleep(0.25)            # past the cooldown
            response = service.rank(candidates)   # the half-open probe
            assert response.degraded is False
            assert service.breaker_stats()["m"]["state"] == CLOSED

    def test_client_errors_exempt_from_breaker(self):
        model = _FlakyModel()
        with self._service(model) as service:
            model.mode = "client"
            for _ in range(4):
                with pytest.raises(ValueError):
                    service.rank(_rows(3))
            snapshot = service.breaker_stats()["m"]
            assert snapshot["state"] == CLOSED
            assert snapshot["window_requests"] == 0

    def test_degraded_prior_override(self):
        model = _FlakyModel()
        registry = ModelRegistry()
        registry.register("m", model)
        with RankingService(
                registry, default_model="m",
                breaker_config=BreakerConfig(min_requests=1, cooldown_s=60.0),
                degraded_prior=lambda batch: -np.arange(float(len(batch)))
        ) as service:
            model.mode = "boom"
            with pytest.raises(RuntimeError):
                service.rank(_rows(5))
            response = service.rank(_rows(5))
            assert response.degraded
            np.testing.assert_array_equal(response.indices, np.arange(5))


# ----------------------------------------------------------------------
# Corruption-safe checkpoints
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model(dataset, taxonomy, tiny_model_config):
    return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                       tiny_model_config, train_dataset=dataset)


class TestCorruptionSafety:
    def test_checkpoint_checksum_round_trip(self, model, dataset, taxonomy,
                                            tmp_path):
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        state, meta = load_checkpoint(tmp_path / "ranker")
        assert meta["checksum"]["weights"].startswith("sha256:")
        assert meta["checksum"]["weights"] \
            == checksum_file(tmp_path / "ranker.npz")
        assert state

    def test_flipped_byte_detected(self, model, tmp_path):
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        weights = tmp_path / "ranker.npz"
        raw = bytearray(weights.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        weights.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorrupted):
            load_checkpoint(tmp_path / "ranker")

    def test_truncated_archive_detected(self, model, tmp_path):
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        FaultInjector().tear_file(tmp_path / "ranker.npz")
        with pytest.raises(CheckpointCorrupted):
            load_checkpoint(tmp_path / "ranker")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"x" * 1024)
        assert target.read_bytes() == b"x" * 1024
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_reload_quarantines_and_keeps_last_good(self, model, dataset,
                                                    taxonomy, tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        registry = ModelRegistry()
        first = registry.reload_from_directory(tmp_path, dataset.spec,
                                               taxonomy)
        assert [(e.name, e.version) for e in first] == [("ranker", 1)]
        # Torn write lands with *different* bytes: the reload must refuse
        # it, remember why, and keep serving v1.
        FaultInjector().tear_file(tmp_path / "ranker.npz")
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        quarantined = registry.quarantined()
        assert "ranker" in quarantined
        assert "CheckpointCorrupted" in quarantined["ranker"]["reason"]
        assert registry.latest_version("ranker") == 1
        registry.get("ranker").score(dataset.batch(np.arange(4)))
        # Re-polling unchanged corrupt bytes stays quiet and idempotent.
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        assert registry.quarantined() == quarantined
        # Repair path 1 — rollback: restoring the registered version's
        # exact bytes clears the quarantine without a new version.
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        assert registry.quarantined() == {}
        assert registry.latest_version("ranker") == 1
        # Repair path 2 — roll forward: new good bytes register as v2.
        FaultInjector().tear_file(tmp_path / "ranker.npz")
        registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        assert "ranker" in registry.quarantined()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = state[key] + 0.125
        model.load_state_dict(state)
        try:
            serving.save_checkpoint(model, tmp_path / "ranker",
                                    "adv-hsc-moe")
            repaired = registry.reload_from_directory(tmp_path, dataset.spec,
                                                      taxonomy)
        finally:                        # module-scoped model: restore it
            state[key] = state[key] - 0.125
            model.load_state_dict(state)
        assert [(e.name, e.version) for e in repaired] == [("ranker", 2)]
        assert registry.quarantined() == {}

    def test_same_size_same_mtime_rewrite_detected(self, model, dataset,
                                                   taxonomy, tmp_path):
        """The content fingerprint catches what mtime+size cannot: an
        in-place rewrite of equal length inside mtime granularity."""
        import os

        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        registry = ModelRegistry()
        registry.reload_from_directory(tmp_path, dataset.spec, taxonomy)
        weights = tmp_path / "ranker.npz"
        stat = weights.stat()
        raw = bytearray(weights.read_bytes())
        # npz members are stored uncompressed: flipping low bits inside
        # one weight array keeps the byte length identical.
        raw[len(raw) // 2] ^= 0x01
        weights.write_bytes(bytes(raw))
        os.utime(weights, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = weights.stat()
        assert (after.st_size, after.st_mtime_ns) \
            == (stat.st_size, stat.st_mtime_ns)
        # mtime+size says "unchanged"; the checksum knows better.  Here
        # the changed bytes break the checksum manifest, so the correct
        # outcome is quarantine — not a silent skip.
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy) == []
        assert "ranker" in registry.quarantined()


# ----------------------------------------------------------------------
# Client-side deadline header + backoff
# ----------------------------------------------------------------------
class TestClientRetries:
    def _client(self, **kwargs):
        return ServingClient("http://127.0.0.1:9", **kwargs)

    def test_deadline_header_sent(self, monkeypatch):
        client = self._client()
        seen = {}

        def fake_once(method, path, data, headers):
            seen.update(headers)
            return {"indices": [], "scores": []}

        monkeypatch.setattr(client, "_request_once", fake_once)
        client.rank(np.zeros((1, 2)), {}, deadline_ms=75.5)
        assert seen[DEADLINE_HEADER] == "75.5"

    def test_backoff_retries_429_honoring_retry_after(self, monkeypatch):
        client = self._client(max_retries=2, backoff_base_s=0.01)
        responses = [ServingError(429, "overloaded", "x", retry_after_s=0.5),
                     ServingError(429, "overloaded", "x"),
                     {"ok": True}]
        sleeps = []
        monkeypatch.setattr(
            client, "_request_once",
            lambda *a: (_ for _ in ()).throw(responses.pop(0))
            if isinstance(responses[0], Exception) else responses.pop(0))
        monkeypatch.setattr("repro.serving.client.time.sleep", sleeps.append)
        assert client._request("GET", "/x") == {"ok": True}
        assert client.backoff_retries == 2
        assert len(sleeps) == 2
        assert sleeps[0] >= 0.5         # Retry-After floor, jitter on top

    def test_no_retries_by_default_and_never_on_other_statuses(
            self, monkeypatch):
        client = self._client()
        calls = []

        def fake_once(*args):
            calls.append(1)
            raise ServingError(429, "overloaded", "x")

        monkeypatch.setattr(client, "_request_once", fake_once)
        with pytest.raises(ServingError):
            client._request("GET", "/x")
        assert len(calls) == 1          # max_retries defaults to 0

        retrying = self._client(max_retries=3)
        calls.clear()

        def fake_500(*args):
            calls.append(1)
            raise ServingError(500, "internal", "x")

        monkeypatch.setattr(retrying, "_request_once", fake_500)
        with pytest.raises(ServingError):
            retrying._request("GET", "/x")
        assert len(calls) == 1          # 500 may have executed: no retry


# ----------------------------------------------------------------------
# Over the wire
# ----------------------------------------------------------------------
@pytest.fixture(params=["selector"])
def backend(request):
    """Names the transport in the test ids."""
    return request.param


@pytest.fixture()
def fault_server(model, dataset, taxonomy, tmp_path, backend):
    serving.save_environment(tmp_path, dataset.spec, taxonomy)
    serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
    server = serving.serve_from_directory(
        tmp_path, port=0, num_workers=2,
        enable_fault_injection=True,
        # Fault tests repeat identical payloads and need every request to
        # reach the scorer, so the result cache must be off.
        cache_entries=0,
        breaker_config=BreakerConfig(window_s=5.0, failure_threshold=0.9,
                                     min_requests=50, cooldown_s=0.5,
                                     probe_successes=1))
    server.start()
    client = ServingClient(server.url)
    client.wait_ready(timeout_s=30)
    yield server, client
    server.close()


@pytest.fixture()
def wire_batch(dataset):
    return dataset.batch(np.arange(12))


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestFaultsOverTheWire:
    def test_faults_endpoint_gated_without_flag(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with RankingService(registry, default_model="m") as service:
            dispatcher = GatewayDispatcher(service)
            status, payload, _ = dispatcher.dispatch("POST", "/faults", b"{}")
            assert status == 403
            assert payload["error"]["type"] == "fault_injection_disabled"

    def test_expired_deadline_is_structured_504(self, fault_server,
                                                wire_batch):
        _, client = fault_server
        with pytest.raises(ServingError) as excinfo:
            client.rank(wire_batch.numeric, wire_batch.sparse,
                        deadline_ms=0.001)
        assert excinfo.value.status == 504
        assert excinfo.value.kind == "deadline_exceeded"
        stats = client.stats()["server"]
        assert stats["deadline_exceeded"] >= 1
        # And without a deadline the same request scores fine.
        result = client.rank(wire_batch.numeric, wire_batch.sparse)
        assert result["degraded"] is False

    def test_malformed_deadline_header_ignored(self, fault_server,
                                               wire_batch):
        _, client = fault_server
        seen = client.rank(wire_batch.numeric, wire_batch.sparse,
                           deadline_ms=-5)        # non-positive: no budget
        assert seen["scores"].size > 0

    def test_worker_kill_recovers_under_traffic(self, fault_server,
                                                wire_batch):
        _, client = fault_server
        client.rank(wire_batch.numeric, wire_batch.sparse)
        client.faults(kill_workers=1)
        # The kill surfaces as one structured 500 (the victim request's
        # future is resolved before the worker thread dies).
        with pytest.raises(ServingError) as excinfo:
            client.rank(wire_batch.numeric, wire_batch.sparse)
        assert excinfo.value.status == 500
        deadline = time.monotonic() + 5.0
        while True:
            scorers = client.stats()["scorers"]
            if sum(s["worker_restarts"] for s in scorers.values()) >= 1:
                break
            assert time.monotonic() < deadline, "no respawn on /stats"
            time.sleep(0.05)
        result = client.rank(wire_batch.numeric, wire_batch.sparse)
        assert result["degraded"] is False
        for stats in client.stats()["scorers"].values():
            assert stats["workers"] == 2
        assert client.stats()["faults"]["kills_delivered"] == 1

    def test_torn_checkpoint_quarantined_last_good_serves(self, fault_server,
                                                          wire_batch):
        _, client = fault_server
        before = client.rank(wire_batch.numeric, wire_batch.sparse)
        assert before["model_version"] == 1
        torn = client.faults(tear_checkpoint=True)
        assert torn["torn"]["path"].endswith("ranker.npz")
        reloaded = client.reload()
        assert reloaded["registered"] == []
        assert "ranker" in reloaded["quarantined"]
        # The last good version keeps serving, and /stats reports the
        # quarantine for operators.
        after = client.rank(wire_batch.numeric, wire_batch.sparse)
        assert after["model_version"] == 1
        np.testing.assert_allclose(after["scores"].sum(),
                                   before["scores"].sum(), atol=1e-9)
        assert "ranker" in client.stats()["quarantined"]

    def test_metrics_expose_fault_counters(self, fault_server, wire_batch):
        server, client = fault_server
        client.rank(wire_batch.numeric, wire_batch.sparse)
        import urllib.request
        body = urllib.request.urlopen(server.url + "/metrics",
                                      timeout=10).read().decode()
        for needle in ("gateway_deadline_exceeded_total",
                       "gateway_degraded_responses_total",
                       "scorer_worker_restarts_total",
                       "scorer_expired_requests_total",
                       "scorer_lost_resolutions_total",
                       'breaker_state{model="ranker",state="closed"} 1'):
            assert needle in body, f"missing {needle}"


# ----------------------------------------------------------------------
# The chaos harness end to end
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestChaosHarness:
    def test_short_chaos_run_passes_its_own_gate(self, model, dataset,
                                                 taxonomy, tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(model, tmp_path / "ranker", "adv-hsc-moe")
        server = serving.serve_from_directory(
            tmp_path, port=0, num_workers=2,
            enable_fault_injection=True,
            cache_entries=0,
            breaker_config=BreakerConfig(window_s=3.0, failure_threshold=0.05,
                                         min_requests=5, cooldown_s=0.5,
                                         probe_successes=2))
        server.start()
        try:
            summary, detail, failures = run_chaos(
                server.url, duration_s=4.0, clients=8, rows_per_request=6,
                error_rate=0.3, deadline_ms=10.0, deadline_fraction=0.2,
                recovery_timeout_s=15.0)
            assert failures == [], f"chaos gate failed: {failures}"
            assert summary.transport_errors == 0
            assert summary.degraded >= 1
            assert detail["recovered"]
            assert detail["stats_after"]["quarantined"]
            assert [e["event"] for e in detail["events"]] == [
                "inject_errors", "kill_worker", "tear_checkpoint", "heal"]
        finally:
            server.close()
