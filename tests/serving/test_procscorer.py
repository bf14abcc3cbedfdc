"""Tests for the multi-process scorer backend (PR 9 tentpole).

Three layers are covered:

* the binary frame codec (pure functions, no processes),
* the shared weight store — content-addressed ``.npy`` extraction that
  lets N processes mmap one physical copy of every parameter,
* :class:`ProcessScorerHost` itself: byte-for-byte parity with the
  in-process model, transparent child respawn, structured error
  propagation, and counter aggregation,

plus an end-to-end gateway slice: ``--scorer-processes 2`` behind
``--gateway-shards 2``, including hot-reload atomicity across shards.

Children are real spawned processes (the serving default): each one
re-imports numpy and hydrates the model from disk, so the process-backed
tests trade a few seconds of spawn time for fidelity.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro import serving
from repro.models import build_model
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
from repro.serving import (ProcessScorerError, ProcessScorerHost,
                           ServingClient, ensure_weight_store,
                           load_model_shared, load_shared_state)
from repro.serving.checkpoint import checksum_file
from repro.serving.procscorer import (FRAME_MAGIC, KIND_BATCH, KIND_SCORES,
                                      decode_batch, decode_frame,
                                      decode_scores, encode_batch,
                                      encode_frame, encode_scores)


@pytest.fixture(scope="module")
def model(dataset, taxonomy, tiny_model_config):
    return build_model("adv-hsc-moe", dataset.spec, taxonomy,
                       tiny_model_config, train_dataset=dataset)


@pytest.fixture(scope="module")
def checkpoint_dir(model, dataset, taxonomy, tmp_path_factory):
    directory = tmp_path_factory.mktemp("procscorer-ckpts")
    serving.save_environment(directory, dataset.spec, taxonomy)
    serving.save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    return directory


@pytest.fixture(scope="module")
def batch(dataset):
    return dataset.batch(np.arange(20))


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_batch_round_trip(self, batch):
        kind, payload = decode_frame(encode_batch(batch))
        assert kind == KIND_BATCH
        decoded = decode_batch(payload)
        np.testing.assert_array_equal(decoded.numeric, batch.numeric)
        assert set(decoded.sparse) == set(batch.sparse)
        for name in batch.sparse:
            np.testing.assert_array_equal(decoded.sparse[name],
                                          batch.sparse[name])
            assert decoded.sparse[name].dtype == batch.sparse[name].dtype
        # Serving placeholders: labels/session ids travel as zeros.
        assert (decoded.labels == 0).all()
        assert (decoded.session_ids == 0).all()

    def test_batch_round_trip_float32_and_empty_sparse(self):
        batch = serving.candidate_batch(
            np.linspace(0, 1, 12, dtype=np.float32).reshape(4, 3), {})
        decoded = decode_batch(decode_frame(encode_batch(batch))[1])
        assert decoded.numeric.dtype == np.float32
        np.testing.assert_array_equal(decoded.numeric, batch.numeric)
        assert decoded.sparse == {}

    def test_scores_round_trip_is_writable_copy(self):
        scores = np.linspace(-1, 1, 7)
        kind, payload = decode_frame(encode_scores(scores))
        assert kind == KIND_SCORES
        decoded = decode_scores(payload)
        np.testing.assert_array_equal(decoded, scores)
        decoded[0] = 42.0                       # owned, not a pipe view

    def test_frame_header(self):
        frame = encode_frame(KIND_SCORES, b"xyz")
        assert frame[:2] == FRAME_MAGIC
        kind, payload = decode_frame(frame)
        assert kind == KIND_SCORES and bytes(payload) == b"xyz"

    def test_bad_magic_rejected(self):
        with pytest.raises(ProcessScorerError, match="magic"):
            decode_frame(b"XX" + bytes([KIND_BATCH]))

    def test_short_frame_rejected(self):
        with pytest.raises(ProcessScorerError, match="short"):
            decode_frame(b"R")


# ----------------------------------------------------------------------
# Shared weight store
# ----------------------------------------------------------------------
class TestWeightStore:
    def test_store_holds_every_param_keyed_by_content(self, model,
                                                      checkpoint_dir):
        store = ensure_weight_store(checkpoint_dir / "ranker")
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["kind"] == "weight_store"
        assert manifest["fingerprint"] \
            == checksum_file(checkpoint_dir / "ranker.npz")
        assert set(manifest["params"]) == set(model.state_dict())
        state = load_shared_state(store)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(state[name], value)

    def test_shared_state_is_read_only_mmap(self, checkpoint_dir):
        store = ensure_weight_store(checkpoint_dir / "ranker")
        state = load_shared_state(store)
        array = next(iter(state.values()))
        assert isinstance(array, np.memmap)
        assert not array.flags.writeable

    def test_idempotent_second_call_reuses_store(self, checkpoint_dir):
        store = ensure_weight_store(checkpoint_dir / "ranker")
        marker = store / "marker"
        marker.touch()
        assert ensure_weight_store(checkpoint_dir / "ranker") == store
        assert marker.exists()                  # not rebuilt

    def test_changed_weights_get_a_fresh_store(self, model, dataset, taxonomy,
                                               tiny_model_config, tmp_path):
        serving.save_checkpoint(model, tmp_path / "m", "adv-hsc-moe")
        first = ensure_weight_store(tmp_path / "m")
        other = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                            tiny_model_config, train_dataset=dataset)
        for param in other.parameters():
            param.data = param.data + 0.5       # force different bytes
        serving.save_checkpoint(other, tmp_path / "m", "adv-hsc-moe")
        second = ensure_weight_store(tmp_path / "m")
        assert first != second

    def test_shared_model_scores_match_exactly(self, model, dataset, taxonomy,
                                               checkpoint_dir, batch):
        shared = load_model_shared(checkpoint_dir / "ranker", dataset.spec,
                                   taxonomy)
        np.testing.assert_array_equal(shared.score(batch), model.score(batch))


# ----------------------------------------------------------------------
# ProcessScorerHost
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def host(checkpoint_dir):
    with ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                           processes=2, seed=0, version=1) as host:
        yield host


class TestProcessScorerHost:
    def test_every_process_scores_byte_identically(self, host, model, batch):
        reference = model.score(batch)
        for _ in range(host.processes):         # round-robin hits them all
            np.testing.assert_array_equal(host.make_scorer()(batch),
                                          reference)

    def test_child_failure_is_structured_and_survivable(self, host, model,
                                                        batch):
        score = host.make_scorer()
        bad = serving.candidate_batch(np.zeros((3, 999)), {})  # wrong width
        with pytest.raises(ProcessScorerError):
            score(bad)
        # Same child answered the error — no respawn for a scoring error.
        assert host.process_restarts == 0
        np.testing.assert_array_equal(score(batch), model.score(batch))

    def test_invalid_process_count_rejected(self, checkpoint_dir):
        with pytest.raises(ValueError):
            ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                              processes=0)


class TestChildLifecycle:
    def test_killed_child_is_respawned_transparently(self, checkpoint_dir,
                                                     model, batch):
        with ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                               processes=1) as host:
            score = host.make_scorer()
            np.testing.assert_array_equal(score(batch), model.score(batch))
            victim = host._channels[0].process
            victim.kill()
            victim.join(timeout=10)
            # The next call finds the corpse, respawns, and still answers.
            np.testing.assert_array_equal(score(batch), model.score(batch))
            assert host.process_restarts == 1
            assert host._channels[0].process.pid != victim.pid

    def test_broken_channel_raises_once_then_recovers(self, checkpoint_dir,
                                                      model, batch):
        with ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                               processes=1) as host:
            score = host.make_scorer()
            np.testing.assert_array_equal(score(batch), model.score(batch))
            host._channels[0].conn.close()      # sever the pipe mid-life
            with pytest.raises(ProcessScorerError, match="died mid-request"):
                score(batch)
            assert host.process_restarts == 1
            np.testing.assert_array_equal(score(batch), model.score(batch))

    def test_stats_aggregate_across_children(self, checkpoint_dir, batch):
        with ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                               processes=1) as host:
            score = host.make_scorer()
            for _ in range(3):
                score(batch)
            stats = host.stats()
            assert set(stats) == {"processes", "process_restarts", "requests",
                                  "rows", "busy_seconds"}
            assert stats["processes"] == 1
            assert stats["process_restarts"] == 0
            assert stats["requests"] == 3
            assert stats["rows"] == 3 * len(batch)
            assert stats["busy_seconds"] > 0

    def test_closed_host_refuses_work(self, checkpoint_dir, batch):
        host = ProcessScorerHost(checkpoint_dir / "ranker", checkpoint_dir,
                                 processes=1)
        score = host.make_scorer()
        host.close()
        host.close()                            # idempotent
        with pytest.raises(ProcessScorerError, match="closed"):
            score(batch)
        assert not host._channels[0].process.is_alive()


# ----------------------------------------------------------------------
# End to end: scorer processes behind a sharded gateway
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway_dir(model, dataset, taxonomy, log, tmp_path_factory):
    # Own directory: the reload test rewrites the checkpoint.
    directory = tmp_path_factory.mktemp("multiproc-gateway")
    serving.save_environment(directory, dataset.spec, taxonomy)
    serving.save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    classifier = QueryCategoryClassifier(
        log.queries.vocab_size, taxonomy.max_sc_id() + 1,
        QueryClassifierConfig(embedding_dim=8, hidden_size=10))
    serving.save_classifier_checkpoint(classifier, directory / "querycat")
    return directory


@pytest.fixture(scope="module")
def gateway(gateway_dir):
    server = serving.serve_from_directory(gateway_dir, port=0, num_workers=2,
                                          scorer_processes=2,
                                          gateway_shards=2)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def gateway_client(gateway):
    client = ServingClient(gateway.url)
    client.wait_ready(timeout_s=30)
    return client


class TestMultiprocessShardedGateway:
    def test_rank_parity_through_processes_and_shards(self, gateway_client,
                                                      model, batch):
        reference = model.score(batch)
        result = gateway_client.rank(batch.numeric, batch.sparse, top_k=6)
        np.testing.assert_allclose(result["scores"],
                                   np.sort(reference)[::-1][:6], atol=1e-9)

    def test_stats_report_process_fleet(self, gateway_client, batch):
        gateway_client.rank(batch.numeric, batch.sparse)
        scorers = gateway_client.stats()["scorers"]
        assert scorers
        for stats in scorers.values():
            assert stats["processes"] == 2
            assert stats["workers"] == 2
            assert stats["process_restarts"] == 0
            assert stats["process_busy_seconds"] > 0

    def test_metrics_expose_process_gauges(self, gateway, gateway_client,
                                           batch):
        gateway_client.rank(batch.numeric, batch.sparse)
        text = urllib.request.urlopen(gateway.url + "/metrics",
                                      timeout=10).read().decode()
        assert 'scorer_processes{pool="ranker:v1"} 2' in text
        assert "scorer_process_restarts_total" in text
        assert "scorer_process_busy_seconds_total" in text

    def test_reload_is_atomic_across_shards(self, gateway, gateway_client,
                                            gateway_dir, model, dataset,
                                            taxonomy, tiny_model_config,
                                            batch):
        """After one ``POST /reload``, every shard serves the new weights:
        fresh connections (kernel-balanced across shard listeners) must
        all answer with the new model's scores and version."""
        replacement = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                                  tiny_model_config, train_dataset=dataset)
        for param in replacement.parameters():
            param.data = param.data * 1.5 + 0.25
        serving.save_checkpoint(replacement, gateway_dir / "ranker",
                                "adv-hsc-moe")
        payload = gateway_client.reload()
        assert "ranker" in payload["models"]
        want = np.sort(replacement.score(batch))[::-1][:6]
        old = np.sort(model.score(batch))[::-1][:6]
        assert not np.allclose(want, old)
        for _ in range(6):                      # fresh connection each time
            probe = ServingClient(gateway.url)
            result = probe.rank(batch.numeric, batch.sparse, top_k=6)
            assert result["model_version"] == 2
            np.testing.assert_allclose(result["scores"], want, atol=1e-9)
