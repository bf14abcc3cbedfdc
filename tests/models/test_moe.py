"""Tests for MoERanker and its variants."""

import numpy as np
import pytest

from repro import nn
from repro.models import ModelConfig, MoERanker, build_model
from repro.models.regularizers import (adversarial_loss, hsc_loss,
                                       load_balancing_loss,
                                       sample_disagreeing_experts)


@pytest.fixture()
def batch(train_dataset):
    return train_dataset.batch(np.arange(32))


@pytest.fixture()
def moe(train_dataset, taxonomy, tiny_model_config):
    return MoERanker(train_dataset.spec, taxonomy, tiny_model_config)


@pytest.fixture()
def full_model(train_dataset, taxonomy, tiny_model_config):
    return MoERanker(train_dataset.spec, taxonomy, tiny_model_config,
                     use_hsc=True, use_adv=True)


class TestForward:
    def test_output_shapes(self, moe, batch, tiny_model_config):
        out = moe.forward(batch)
        n = tiny_model_config.num_experts
        assert out.logits.shape == (32,)
        assert out.expert_logits.shape == (32, n)
        assert out.gate_probs.shape == (32, n)
        assert out.topk_indices.shape == (32, tiny_model_config.top_k)

    def test_prediction_is_topk_mixture(self, moe, batch):
        """The ensemble logit equals sum_i P_i * E_i over selected experts."""
        moe.eval()
        out = moe.forward(batch)
        manual = (out.gate_probs.data * out.expert_logits.data).sum(axis=1)
        np.testing.assert_allclose(out.logits.data, manual, atol=1e-12)

    def test_scores_are_probabilities(self, moe, batch):
        scores = moe.predict(batch)
        assert scores.shape == (32,)
        assert (scores > 0).all() and (scores < 1).all()

    def test_predict_restores_training_mode(self, moe, batch):
        moe.train()
        moe.predict(batch)
        assert moe.training

    def test_same_session_same_gate(self, moe, train_dataset):
        """Gate input is query-side only ⇒ one expert set per session (§5.4)."""
        moe.eval()
        session = train_dataset.session_ids[0]
        rows = np.flatnonzero(train_dataset.session_ids == session)
        out = moe.forward(train_dataset.batch(rows))
        gate = out.extras["gate"]
        assert (gate.topk_mask == gate.topk_mask[0]).all()
        assert np.abs(out.gate_probs.data - out.gate_probs.data[0]).max() < 1e-12


class TestLoss:
    def test_vanilla_loss_is_ce_only(self, moe, batch, rng):
        loss, info = moe.loss(batch, rng=rng)
        assert set(info) == {"ce", "total"}
        assert loss.item() == pytest.approx(info["ce"])

    def test_hsc_variant_adds_term(self, train_dataset, taxonomy, tiny_model_config, batch, rng):
        model = MoERanker(train_dataset.spec, taxonomy, tiny_model_config, use_hsc=True)
        loss, info = model.loss(batch, rng=rng)
        assert "hsc" in info
        assert loss.item() == pytest.approx(
            info["ce"] + tiny_model_config.lambda_hsc * info["hsc"])

    def test_adv_variant_subtracts_term(self, train_dataset, taxonomy, tiny_model_config, batch, rng):
        model = MoERanker(train_dataset.spec, taxonomy, tiny_model_config, use_adv=True)
        loss, info = model.loss(batch, rng=rng)
        assert "adv" in info
        assert loss.item() == pytest.approx(
            info["ce"] - tiny_model_config.lambda_adv * info["adv"])

    def test_combined_objective(self, full_model, batch, rng):
        """Eq. 14: J = CE + λ1 HSC − λ2 AdvLoss."""
        config = full_model.config
        loss, info = full_model.loss(batch, rng=rng)
        expected = (info["ce"] + config.lambda_hsc * info["hsc"]
                    - config.lambda_adv * info["adv"])
        assert loss.item() == pytest.approx(expected)

    def test_hsc_requires_taxonomy(self, train_dataset, tiny_model_config):
        with pytest.raises(ValueError):
            MoERanker(train_dataset.spec, None, tiny_model_config, use_hsc=True)


class TestGradientRouting:
    """The paper's eq. 15-16: HSC gradients must never reach expert weights."""

    def test_hsc_gradient_skips_experts(self, train_dataset, taxonomy,
                                        tiny_model_config, batch, rng):
        model = MoERanker(train_dataset.spec, taxonomy, tiny_model_config, use_hsc=True)
        output = model.forward(batch)
        gate = output.extras["gate"]
        x_tc = model.embedder.embed("query_tc", batch.sparse["query_tc"])
        constraint = model.constraint_gate(x_tc)
        from repro.models.regularizers import hsc_loss
        hsc = hsc_loss(gate, constraint.full_softmax)
        model.zero_grad()
        hsc.backward()
        # ∇_{expert} HSC ≡ 0 (experts are not in the HSC graph).
        for expert in model.experts:
            for _, param in expert.named_parameters():
                assert param.grad is None
        # But the inference gate and constraint gate do learn from HSC.
        assert model.inference_gate.weight.grad is not None
        assert model.constraint_gate.weight.grad is not None

    def test_adv_gradient_skips_gate_weights(self, train_dataset, taxonomy,
                                             tiny_model_config, batch, rng):
        """AdvLoss depends on expert outputs only; the discrete selection
        gives the gate weight exactly zero AdvLoss gradient."""
        model = MoERanker(train_dataset.spec, taxonomy, tiny_model_config, use_adv=True)
        output = model.forward(batch)
        gate = output.extras["gate"]
        from repro.models.regularizers import adversarial_loss, sample_disagreeing_experts
        disagreeing = sample_disagreeing_experts(gate.topk_mask, 1, rng)
        adv = adversarial_loss(output.expert_logits, gate.topk_indices, disagreeing)
        model.zero_grad()
        adv.backward()
        assert model.inference_gate.weight.grad is None
        assert any(p.grad is not None for e in model.experts for p in e.parameters())

    def test_full_loss_reaches_all_parameters(self, full_model, batch, rng):
        loss, _ = full_model.loss(batch, rng=rng)
        full_model.zero_grad()
        loss.backward()
        # Legitimately grad-free: the noiseless constraint gate's noise
        # weights, and embedding tables for features outside the model input
        # (query_bucket is only used in the Table 5 gate ablation).
        used_tables = {f"embedder.tables.{full_model.embedder._table_index[n]}.weight"
                       for n in (*full_model.config.input_features, "query_tc")}
        missing = [name for name, p in full_model.named_parameters()
                   if p.grad is None
                   and "noise" not in name
                   and (not name.startswith("embedder.") or name in used_tables)]
        assert not missing, f"parameters without gradient: {missing}"


class TestAnalysisHooks:
    def test_gate_vectors(self, full_model, batch, tiny_model_config):
        vectors = full_model.gate_vectors(batch)
        assert vectors.shape == (32, tiny_model_config.num_experts)
        np.testing.assert_allclose(vectors.sum(axis=1), np.ones(32))

    def test_expert_scores(self, full_model, batch, tiny_model_config):
        scores, mask = full_model.expert_scores(batch)
        assert scores.shape == (32, tiny_model_config.num_experts)
        assert (scores > 0).all() and (scores < 1).all()
        assert (mask.sum(axis=1) == tiny_model_config.top_k).all()


class TestTrainingBehaviour:
    def test_one_step_decreases_loss(self, full_model, train_dataset, rng):
        batch = train_dataset.batch(np.arange(128))
        optimizer = nn.optim.Adam(full_model.parameters(), lr=1e-2)
        loss0, _ = full_model.loss(batch, rng=np.random.default_rng(0))
        for _ in range(8):
            optimizer.zero_grad()
            loss, _ = full_model.loss(batch, rng=np.random.default_rng(0))
            loss.backward()
            optimizer.step()
        loss1, _ = full_model.loss(batch, rng=np.random.default_rng(0))
        assert loss1.item() < loss0.item()


# ----------------------------------------------------------------------
# Sparse expert dispatch in training
# ----------------------------------------------------------------------
MOE_NAMES = ("moe", "adv-moe", "hsc-moe", "adv-hsc-moe")


def _dense_loss(model, batch, rng):
    """Eq. 14 through the dense ``forward(batch)``, every tower on every
    row, with D drawn after the forward: the reference the dispatched
    ``loss`` must equal.  Returns ``(total, gate, disagreeing)``."""
    output = model.forward(batch)
    gate = output.extras["gate"]
    config = model.config
    total = nn.losses.bce_with_logits(output.logits, batch.labels)
    if model.use_hsc:
        x_tc = model.embedder.embed("query_tc", batch.sparse["query_tc"])
        constraint = model.constraint_gate(x_tc)
        total = total + config.lambda_hsc * hsc_loss(
            gate, constraint.full_softmax,
            restrict_to_topk=config.hsc_restrict_topk)
    if config.lambda_load > 0:
        total = total + config.lambda_load * load_balancing_loss(gate.probs)
    disagreeing = None
    if model.use_adv and config.num_disagreeing > 0:
        disagreeing = sample_disagreeing_experts(gate.topk_mask,
                                                 config.num_disagreeing, rng)
        total = total - config.lambda_adv * adversarial_loss(
            output.expert_logits, gate.topk_indices, disagreeing,
            on_sigmoid=config.adv_on_sigmoid)
    return total, gate, disagreeing


def _gradients(model, loss) -> dict:
    model.zero_grad()
    loss.backward()
    return {name: param.grad for name, param in model.named_parameters()}


def _twins(name, dataset, taxonomy, config):
    """Two identically seeded models: one for the reference, one under test."""
    return [build_model(name, dataset.spec, taxonomy, config) for _ in range(2)]


def _record_tower_rows(monkeypatch) -> list[tuple]:
    """Record ``(tower, rows fed)`` for every ``MLP.forward`` call."""
    calls = []
    forward = nn.MLP.forward

    def recording(tower, x):
        calls.append((tower, x.shape[0]))
        return forward(tower, x)
    monkeypatch.setattr(nn.MLP, "forward", recording)
    return calls


@pytest.fixture()
def strong_config(tiny_model_config):
    # Regularizer weights large enough that a wrong HSC, AdvLoss or
    # load-balance gradient would stand far above the 1e-10 tolerance.
    return tiny_model_config.with_updates(lambda_hsc=0.5, lambda_adv=0.5,
                                          lambda_load=0.1)


class TestDispatchedTraining:
    """``loss`` runs each row's towers only on its top-K and D cells; the
    value and every gradient must equal the dense reference."""

    # With N=6 and D=1, top_k=5 makes K + D = N for the AdvLoss variants.
    @pytest.mark.parametrize("top_k", [2, 5])
    @pytest.mark.parametrize("rows", ["mixed", "one-row"])
    @pytest.mark.parametrize("name", MOE_NAMES)
    def test_matches_dense_reference(self, name, rows, top_k, train_dataset,
                                     taxonomy, strong_config):
        config = strong_config.with_updates(top_k=top_k, num_disagreeing=1)
        batch = train_dataset.batch(np.arange(32) if rows == "mixed"
                                    else np.array([3]))
        reference, model = _twins(name, train_dataset, taxonomy, config)
        expected, _, _ = _dense_loss(reference, batch, np.random.default_rng(4))
        actual, _ = model.loss(batch, rng=np.random.default_rng(4))
        assert abs(actual.item() - expected.item()) <= 1e-10
        want = _gradients(reference, expected)
        got = _gradients(model, actual)
        for param_name, grad in want.items():
            if grad is None:
                assert got[param_name] is None, param_name
            else:
                np.testing.assert_allclose(got[param_name], grad, rtol=0,
                                           atol=1e-10, err_msg=param_name)

    @pytest.mark.parametrize("name", MOE_NAMES)
    def test_towers_run_once_on_k_plus_d_rows_per_row(
            self, name, monkeypatch, train_dataset, taxonomy,
            tiny_model_config):
        model = build_model(name, train_dataset.spec, taxonomy,
                            tiny_model_config)
        batch = train_dataset.batch(np.arange(40))
        calls = _record_tower_rows(monkeypatch)
        model.loss(batch, rng=np.random.default_rng(0))
        assert [tower for tower, _ in calls] == list(model.experts)
        cells = tiny_model_config.top_k + \
            (tiny_model_config.num_disagreeing if model.use_adv else 0)
        assert sum(count for _, count in calls) == cells * len(batch)

    def test_forward_alone_stays_dense(self, monkeypatch, full_model, batch):
        calls = _record_tower_rows(monkeypatch)
        full_model.forward(batch)
        assert [count for _, count in calls] == [len(batch)] * len(full_model.experts)

    def test_unrouted_expert_gets_zero_gradient(self, full_model, train_dataset):
        """A tower no row routes to still ends backward with a zero
        gradient, as in the dense pass, so AdamW keeps decaying it and
        stepping its moments instead of skipping it."""
        batch = train_dataset.batch(np.array([3]))
        output = full_model.forward(batch, rng=np.random.default_rng(0))
        used = output.extras["gate"].topk_mask.copy()
        np.put_along_axis(used, output.extras["disagreeing"], True, axis=1)
        idle = np.flatnonzero(~used[0])
        assert idle.size == full_model.config.num_experts - 3
        loss, _ = full_model.loss(batch, rng=np.random.default_rng(0))
        full_model.zero_grad()
        loss.backward()
        for index in idle:
            for param in full_model.experts[index].parameters():
                assert param.grad is not None
                assert not param.grad.any()
        for index in np.flatnonzero(used[0]):
            assert any(p.grad.any() for p in full_model.experts[index].parameters())

    @pytest.mark.parametrize("name", MOE_NAMES)
    def test_draws_match_the_dense_reference(self, name, train_dataset,
                                             taxonomy, tiny_model_config):
        """Same generators, same draw order: gate noise from the gate's own
        stream, then D from the loss ``rng``, so a seeded run picks the
        same top-K and D sets as before dispatch and leaves both streams in
        the same state."""
        batch = train_dataset.batch(np.arange(64))
        reference, model = _twins(name, train_dataset, taxonomy,
                                  tiny_model_config)
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        _, gate, disagreeing = _dense_loss(reference, batch, ref_rng)
        output = model.forward(batch, rng=rng)
        np.testing.assert_array_equal(output.extras["gate"].topk_indices,
                                      gate.topk_indices)
        if disagreeing is None:
            assert "disagreeing" not in output.extras
        else:
            np.testing.assert_array_equal(output.extras["disagreeing"],
                                          disagreeing)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert model.inference_gate._rng.bit_generator.state == \
            reference.inference_gate._rng.bit_generator.state
