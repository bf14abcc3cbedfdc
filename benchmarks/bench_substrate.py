"""Micro-benchmarks of the substrates (autograd, data generator, metrics).

Not paper tables — these track the cost of the building blocks so
regressions in the pure-numpy engine are visible.  The MLP step benchmark
comes in three flavours so the fast-path speedups are tracked explicitly:

* ``test_mlp_forward_backward``          — fused kernels, float64 (default)
* ``test_mlp_forward_backward_unfused``  — the seed's per-op graph (baseline)
* ``test_mlp_forward_backward_float32``  — fused kernels + float32 fast mode

Acceptance target: fused+float32 >= 1.5x the unfused float64 baseline.

The BiGRU step benchmark mirrors the same three flavours for the recurrent
fast path (fused ``gru_sequence`` kernels vs the per-op reference graph,
float64 vs float32), over a querycat-shaped workload: batch 64, 20
timesteps, ragged lengths, forward + backward through both directions.

Acceptance target: fused f64 >= 3x the per-op float64 baseline.

The packed-vs-masked BiGRU benchmarks compare the packed ragged scan
(sort by length once, per-timestep prefix-only compute) against the
masked fused kernel over two length mixes: uniform (lengths 5..32) and
heavy-ragged (75% short queries of 2..6 tokens, 25% long tails), both
float32 with T=32.

Acceptance target: packed >= 1.5x masked on the heavy-ragged mix.
"""

import numpy as np

from repro import nn
from repro.data import LogConfig, WorldConfig, SyntheticWorld, simulate_log
from repro.hierarchy import default_taxonomy
from repro.metrics import session_auc, session_ndcg


def _unfused_forward(tower, x):
    """The seed's MLP path: one graph node per Linear / ReLU module."""
    for module in tower._items:
        x = module(x)
    return x


def _unfused_bce_with_logits(logits, targets):
    """The seed's 8-node BCE chain (relu/mul/abs/neg/exp/add/log/mean)."""
    targets = nn.as_tensor(targets)
    loss = logits.relu() - logits * targets + (1.0 + (-(logits.abs())).exp()).log()
    return loss.mean()


def _make_tower_and_batch(dtype=np.float64):
    rng = np.random.default_rng(0)
    tower = nn.MLP(64, [512, 256], 1, rng=rng).astype(dtype)
    x = nn.Tensor(rng.normal(size=(256, 64)).astype(dtype))
    y = rng.integers(0, 2, size=(256, 1)).astype(dtype)
    return tower, x, y


def test_mlp_forward_backward(benchmark):
    tower, x, y = _make_tower_and_batch()

    def step():
        tower.zero_grad()
        loss = nn.losses.bce_with_logits(tower(x), y)
        loss.backward()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_mlp_forward_backward_unfused(benchmark):
    tower, x, y = _make_tower_and_batch()

    def step():
        tower.zero_grad()
        loss = _unfused_bce_with_logits(_unfused_forward(tower, x), y)
        loss.backward()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_mlp_forward_backward_float32(benchmark):
    tower, x, y = _make_tower_and_batch(np.float32)

    def step():
        tower.zero_grad()
        loss = nn.losses.bce_with_logits(tower(x), y)
        loss.backward()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)
    assert all(p.dtype == np.float32 for p in tower.parameters())


def _make_bigru_and_batch(dtype=np.float64, fused=True):
    """A querycat-shaped recurrent workload: (64, 20, 16) ragged batch."""
    rng = np.random.default_rng(0)
    gru = nn.BiGRU(16, 32, rng=rng, fused=fused)
    if dtype != np.float64:
        gru.astype(dtype)
    x = nn.Tensor(rng.normal(size=(64, 20, 16)).astype(dtype))
    lengths = rng.integers(5, 21, size=64)
    return gru, x, lengths


def _bigru_step(gru, x, lengths):
    gru.zero_grad()
    out = gru(x, lengths=lengths)
    out.sum().backward()
    return out.data


def test_bigru_step(benchmark):
    """Fused recurrent kernels, float64."""
    gru, x, lengths = _make_bigru_and_batch()
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def test_bigru_step_unfused(benchmark):
    """The per-op reference graph (~10 autograd nodes per step per
    direction plus four mask nodes) — the baseline the fused path is
    measured against."""
    gru, x, lengths = _make_bigru_and_batch(fused=False)
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def test_bigru_step_float32(benchmark):
    """Fused recurrent kernels + float32 fast mode."""
    gru, x, lengths = _make_bigru_and_batch(np.float32)
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()
    assert out.dtype == np.float32
    assert all(p.dtype == np.float32 for p in gru.parameters())


def _make_packed_bigru_batch(packed, mix):
    """A (64, 32, 16) float32 ragged batch for packed-vs-masked runs.

    ``mix="uniform"`` draws lengths 5..32; ``mix="heavy"`` models the
    querycat head/tail split — 75% short queries (2..6 tokens) plus 25%
    long tails — where prefix-only compute pays off most.
    """
    rng = np.random.default_rng(0)
    gru = nn.BiGRU(16, 32, rng=rng, packed=packed).astype(np.float32)
    x = nn.Tensor(rng.normal(size=(64, 32, 16)).astype(np.float32))
    lengths_rng = np.random.default_rng(1)
    if mix == "heavy":
        lengths = np.where(lengths_rng.random(64) < 0.75,
                           lengths_rng.integers(2, 7, size=64),
                           lengths_rng.integers(16, 33, size=64))
        lengths[0] = 32  # keep one full-length row so T is exercised
    else:
        lengths = lengths_rng.integers(5, 33, size=64)
    return gru, x, lengths


def test_bigru_step_masked_heavy_ragged(benchmark):
    """Masked fused kernel on the heavy-ragged mix: every row pays all 32
    timesteps, finished rows ride along under the mask."""
    gru, x, lengths = _make_packed_bigru_batch(packed=False, mix="heavy")
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def test_bigru_step_packed_heavy_ragged(benchmark):
    """Packed scan on the heavy-ragged mix: one argsort, then each
    timestep touches only the still-active prefix.  Measured ≈1.6x the
    masked kernel above (acceptance target ≥1.5x)."""
    gru, x, lengths = _make_packed_bigru_batch(packed=True, mix="heavy")
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def test_bigru_step_masked_uniform(benchmark):
    gru, x, lengths = _make_packed_bigru_batch(packed=False, mix="uniform")
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def test_bigru_step_packed_uniform(benchmark):
    """Uniform lengths still leave ≈40% of the (row, t) grid padded, so
    the packed scan wins ≈1.4x — below the heavy-ragged ratio because
    the active prefix shrinks more slowly."""
    gru, x, lengths = _make_packed_bigru_batch(packed=True, mix="uniform")
    out = benchmark(_bigru_step, gru, x, lengths)
    assert np.isfinite(out).all()


def _make_score_tower(dtype=np.float64):
    rng = np.random.default_rng(0)
    tower = nn.MLP(64, [512, 256], 1, rng=rng)
    if dtype != np.float64:
        tower.astype(dtype)
    return tower


def test_tower_score_single_no_grad(benchmark):
    """Serving baseline: one request (batch 1) through the no_grad Tensor
    forward of the paper's 512x256x1 tower.  Measured ≈60 µs/row (f64)."""
    tower = _make_score_tower()
    x = nn.Tensor(np.random.default_rng(1).normal(size=(1, 64)))

    def score():
        with nn.no_grad():
            return tower(x).data

    assert np.isfinite(benchmark(score)).all()


def test_tower_score_single_compiled(benchmark):
    """One request through the compiled graph-free plan (same tower)."""
    tower = _make_score_tower()
    plan = tower.compiled()
    x = np.random.default_rng(1).normal(size=(1, 64))

    out = benchmark(plan, x)
    assert np.isfinite(out).all()


def test_tower_score_microbatch_compiled(benchmark):
    """A serving micro-batch (32 rows) through the compiled plan.

    This is the configuration ``repro.serving.ScorerPool`` produces under
    concurrent traffic.  Measured ≈10 µs/row f64 (≈5 µs/row f32) vs the
    ≈54 µs/row single-request no_grad baseline — the micro-batched compiled
    path clears the ≥3x acceptance target with ≈5x in float64 alone
    (≈10x in the float32 serving configuration).
    """
    tower = _make_score_tower()
    plan = tower.compiled()
    x = np.random.default_rng(1).normal(size=(32, 64))

    out = benchmark(plan, x)
    assert out.shape == (32, 1) and np.isfinite(out).all()


def test_tower_score_microbatch_compiled_float32(benchmark):
    """The float32 serving configuration of the same micro-batch."""
    tower = _make_score_tower(np.float32)
    plan = tower.compiled()
    x = np.random.default_rng(1).normal(size=(32, 64)).astype(np.float32)

    out = benchmark(plan, x)
    assert out.dtype == np.float32 and np.isfinite(out).all()


def _gru_epoch(gru, tokens_embedded, lengths, batch_size, bucketed):
    """One forward+backward pass over a ragged pool of sequences.

    ``bucketed`` sorts the pool by length and trims every batch to its own
    max length — the serving-relevant half of the length-bucketing
    satellite (the querycat trainer does the same per epoch).
    """
    order = np.argsort(lengths, kind="stable") if bucketed \
        else np.arange(len(lengths))
    total = 0.0
    for start in range(0, len(order), batch_size):
        rows = order[start:start + batch_size]
        batch_lengths = lengths[rows]
        batch = tokens_embedded[rows]
        if bucketed:
            batch = batch[:, :int(batch_lengths.max())]
        gru.zero_grad()
        out = gru(nn.Tensor(batch), lengths=batch_lengths)
        out.sum().backward()
        total += float(out.data.sum())
    return total


def _make_ragged_pool():
    """A querycat-shaped pool: 256 sequences, lengths 2..20, dim 16."""
    rng = np.random.default_rng(0)
    gru = nn.BiGRU(16, 32, rng=rng)
    pool = rng.normal(size=(256, 20, 16))
    lengths = rng.integers(2, 21, size=256)
    return gru, pool, lengths


def test_bigru_epoch_unbucketed(benchmark):
    """Baseline: arbitrary batch composition, every batch padded to T=20.
    Measured ≈78 ms vs ≈50 ms for the bucketed epoch below (≈1.6x) — the
    trimmed scan runs 55 timesteps instead of 80 and skips most masks."""
    gru, pool, lengths = _make_ragged_pool()
    result = benchmark(_gru_epoch, gru, pool, lengths, 64, False)
    assert np.isfinite(result)


def test_bigru_epoch_bucketed(benchmark):
    """Length-bucketed batches trimmed to their own max length: the GRU
    scan runs fewer timesteps and skips almost all masked steps."""
    gru, pool, lengths = _make_ragged_pool()
    result = benchmark(_gru_epoch, gru, pool, lengths, 64, True)
    assert np.isfinite(result)


def test_adamw_step_float64_vs_inplace(benchmark):
    """In-place AdamW update over paper-sized parameters."""
    rng = np.random.default_rng(0)
    tower = nn.MLP(64, [512, 256], 1, rng=rng)
    params = list(tower.parameters())
    optimizer = nn.optim.AdamW(params, lr=1e-4)
    for p in params:
        p.grad = rng.normal(size=p.shape)

    def step():
        optimizer.step()
        return optimizer.step_count

    assert benchmark(step) > 0


def test_embedding_lookup_backward(benchmark):
    rng = np.random.default_rng(0)
    table = nn.Embedding(10_000, 16, rng=rng)
    ids = rng.integers(0, 10_000, size=4096)

    def step():
        table.zero_grad()
        out = table(ids)
        out.sum().backward()
        return out.shape

    assert benchmark(step) == (4096, 16)


def test_world_and_log_generation(benchmark):
    taxonomy = default_taxonomy()

    def generate():
        world = SyntheticWorld.generate(taxonomy, WorldConfig(seed=0))
        log = simulate_log(world, LogConfig(seed=1, num_queries=1000))
        return log.num_examples

    examples = benchmark(generate)
    assert examples > 5000


def test_session_metrics(benchmark):
    rng = np.random.default_rng(0)
    n = 50_000
    sessions = np.repeat(np.arange(n // 10), 10)
    labels = (rng.random(n) < 0.1).astype(np.int64)
    scores = rng.random(n)

    def compute():
        return (session_auc(scores, labels, sessions),
                session_ndcg(scores, labels, sessions, k=10))

    auc, ndcg = benchmark(compute)
    assert 0.4 < auc < 0.6
