"""Base classes shared by every ranking model.

``FeatureEmbedder`` implements the paper's input construction (eq. 2): each
sparse feature id is embedded (dimension q, 16 in the paper) and concatenated
with the normalized numeric features into one input vector X.  All models —
and all gate networks — share the same embedding tables, reflecting
"x_sc ∈ X is SC embedding vector, a part of all input vector defined in (2)".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..data.dataset import Batch
from ..data.schema import FeatureSpec
from ..nn.infer import sigmoid_array
from ..nn.layers import check_embedding_ids

__all__ = ["ModelOutput", "FeatureEmbedder", "RankingModel",
           "DEFAULT_INPUT_FEATURES", "GATE_FEATURE_PRESETS"]

# Sparse features entering the model input X by default.  The query TC is
# omitted (derivable from SC — §4.3); the query hash bucket is available but
# excluded by default since it mostly adds vocabulary noise.
DEFAULT_INPUT_FEATURES = ("query_sc", "brand", "item_sc", "user_segment")

# Table 5 gate-input presets.  "all" additionally appends the numeric vector.
GATE_FEATURE_PRESETS: dict[str, tuple[str, ...]] = {
    "sc": ("query_sc",),
    "tc_sc": ("query_tc", "query_sc"),
    "query_tc_sc": ("query_bucket", "query_tc", "query_sc"),
    "user_tc_sc": ("user_segment", "query_tc", "query_sc"),
    "all": ("query_sc", "query_tc", "brand", "item_sc", "user_segment", "query_bucket"),
}


@dataclass
class ModelOutput:
    """Everything a forward pass produces.

    ``logits`` drive the loss; the gate fields are populated by MoE variants
    and consumed by the regularizers and the Fig. 6 / Fig. 8 analyses.
    """

    logits: nn.Tensor                       # (b,) ensemble prediction logits
    expert_logits: nn.Tensor | None = None  # (b, N) per-expert logits
    gate_probs: nn.Tensor | None = None     # (b, N) top-K masked probabilities
    gate_logits_clean: nn.Tensor | None = None  # (b, N) noiseless gate logits
    topk_indices: np.ndarray | None = None  # (b, K)
    extras: dict = field(default_factory=dict)

    @property
    def scores(self) -> np.ndarray:
        """Predicted purchase probabilities as a plain array.

        Uses the shared stable sigmoid so the Tensor path and the compiled
        serving path produce bit-identical probabilities.
        """
        return sigmoid_array(self.logits.data)


class FeatureEmbedder(nn.Module):
    """Shared embedding tables + input concatenation (paper eq. 2)."""

    def __init__(self, spec: FeatureSpec, embedding_dim: int,
                 input_features: tuple[str, ...] = DEFAULT_INPUT_FEATURES,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.spec = spec
        self.embedding_dim = embedding_dim
        self.input_features = tuple(input_features)
        unknown = [f for f in input_features if f not in spec.sparse_names]
        if unknown:
            raise ValueError(f"unknown input features: {unknown}")
        self.tables = nn.ModuleList()
        self._table_index: dict[str, int] = {}
        # Embeddings start at std ~1/sqrt(q) so gate logits (a linear map of
        # the SC embedding, eq. 5) have a workable scale from step one.
        std = 1.0 / float(embedding_dim) ** 0.5
        for feature in spec.sparse:
            self._table_index[feature.name] = len(self.tables)
            self.tables.append(nn.Embedding(feature.cardinality, embedding_dim,
                                            rng=rng, std=std))

    @property
    def dtype(self) -> np.dtype:
        """The float dtype the embedder computes in (its tables' dtype)."""
        return self.tables[0].weight.dtype

    @property
    def input_width(self) -> int:
        """Width of X: k*q + m (eq. 2)."""
        return len(self.input_features) * self.embedding_dim + self.spec.num_numeric

    def gate_input_width(self, gate_features: tuple[str, ...], include_numeric: bool) -> int:
        """Width of a gate's input vector for a given feature preset."""
        width = len(gate_features) * self.embedding_dim
        if include_numeric:
            width += self.spec.num_numeric
        return width

    def embed(self, name: str, ids: np.ndarray) -> nn.Tensor:
        """Embed one sparse feature column."""
        return self.tables[self._table_index[name]](ids)

    def _numeric_tensor(self, batch: Batch) -> nn.Tensor:
        """Wrap the batch's numeric block at the embedder's dtype.

        ``np.asarray`` is a no-copy pass-through when the dataset was cast
        once at load time (:meth:`repro.data.LTRDataset.astype`); a
        mismatched dataset still trains correctly, just with a per-batch
        cast instead of silently upcasting the whole graph to float64.
        """
        return nn.Tensor(np.asarray(batch.numeric, dtype=self.dtype))

    def model_input(self, batch: Batch) -> nn.Tensor:
        """Build X = [embeddings | numeric] for the ranking towers."""
        parts = [self.embed(name, batch.sparse[name]) for name in self.input_features]
        parts.append(self._numeric_tensor(batch))
        return nn.concatenate(parts, axis=1)

    def gate_input(self, batch: Batch, gate_features: tuple[str, ...],
                   include_numeric: bool = False) -> nn.Tensor:
        """Build the gate input vector (x_sc in the default configuration)."""
        parts = [self.embed(name, batch.sparse[name]) for name in gate_features]
        if include_numeric:
            parts.append(self._numeric_tensor(batch))
        return parts[0] if len(parts) == 1 and not include_numeric else nn.concatenate(parts, axis=1)

    # ------------------------------------------------------------------
    # Graph-free input construction (the serving fast lane)
    # ------------------------------------------------------------------
    def embed_array(self, name: str, ids: np.ndarray) -> np.ndarray:
        """Embed one sparse feature column as a plain array (no graph).

        Shares the Tensor path's id contract (a corrupt serving request
        must fail, not wrap) via :func:`repro.nn.layers.check_embedding_ids`.
        """
        table = self.tables[self._table_index[name]]
        ids = check_embedding_ids(ids, table.num_embeddings,
                                  context=f"feature {name!r}")
        return table.weight.data[ids]

    def model_input_array(self, batch: Batch) -> np.ndarray:
        """Plain-numpy X = [embeddings | numeric]; same values as
        :meth:`model_input` with zero Tensor/graph bookkeeping."""
        parts = [self.embed_array(name, batch.sparse[name]) for name in self.input_features]
        parts.append(np.asarray(batch.numeric, dtype=self.dtype))
        return np.concatenate(parts, axis=1)

    def gate_input_array(self, batch: Batch, gate_features: tuple[str, ...],
                         include_numeric: bool = False) -> np.ndarray:
        """Plain-numpy gate input; same values as :meth:`gate_input`."""
        parts = [self.embed_array(name, batch.sparse[name]) for name in gate_features]
        if include_numeric:
            parts.append(np.asarray(batch.numeric, dtype=self.dtype))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


class RankingModel(nn.Module):
    """Interface all ranking models implement."""

    def __init__(self):
        super().__init__()
        # Serializes compiled scoring (shared plan scratch buffers) and
        # guards the lazy scorer build.
        self._scorer_lock = threading.Lock()
        self._scorer = None

    def forward(self, batch: Batch) -> ModelOutput:
        raise NotImplementedError

    def loss(self, batch: Batch, rng: np.random.Generator | None = None
             ) -> tuple[nn.Tensor, dict[str, float]]:
        """Return (total loss tensor, scalar diagnostics)."""
        raise NotImplementedError

    def predict(self, batch: Batch) -> np.ndarray:
        """Purchase probabilities via the Tensor reference path (no_grad).

        This builds (and discards) no backward closures but still routes
        through :class:`~repro.nn.tensor.Tensor` ops; :meth:`score` is the
        compiled graph-free fast lane and is what evaluation and serving
        use.  ``predict`` is kept as the reference the parity tests compare
        against.
        """
        with nn.no_grad():
            was_training = self.training
            self.eval()
            try:
                output = self.forward(batch)
            finally:
                self.train(was_training)
        return output.scores

    # ------------------------------------------------------------------
    # Compiled scoring (the serving fast lane)
    # ------------------------------------------------------------------
    def score(self, batch: Batch) -> np.ndarray:
        """Purchase probabilities via the compiled graph-free plan.

        The scorer is compiled lazily on first use and cached; it reads
        parameters live, so training steps and ``load_state_dict`` are
        picked up without invalidation.  Matches :meth:`predict` to float
        rounding (the parity suite pins ≤1e-12 f64 / ≤1e-6 f32).

        Calls are serialized by a per-model lock: the compiled plan's
        scratch buffers are shared state, and one model object may sit
        behind several serving routes (or be scored from caller threads
        directly), so thread safety belongs here, not in the callers.
        """
        with self._scorer_lock:
            if self._scorer is None:
                self._scorer = self._build_scorer()
            return self._scorer(batch)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Alias for :meth:`score` (sklearn-style naming)."""
        return self.score(batch)

    def make_scorer(self):
        """A fresh compiled scoring closure for one caller's exclusive use.

        Unlike :meth:`score` (one cached plan per model, serialized by a
        lock), every call compiles an independent plan over the same live
        parameters — so a :class:`~repro.serving.ScorerPool` can hand one
        to each worker and score this model from several threads at once.
        The base ``_build_scorer`` fallback returns the bound
        :meth:`predict`, which toggles shared module state (train/eval)
        and is therefore handed out lock-serialized instead.
        """
        scorer = self._build_scorer()
        if getattr(scorer, "__self__", None) is self:
            lock = self._scorer_lock

            def serialized(batch: Batch) -> np.ndarray:
                with lock:
                    return scorer(batch)

            return serialized
        return scorer

    def _build_scorer(self):
        """Build the compiled scoring closure.

        Subclasses compile their towers/gates into plain-numpy plans; the
        base fallback is the Tensor reference path, so custom models get a
        working (if slower) ``score`` for free.  The closure should return
        a caller-owned array — not a compiled plan's scratch buffer (the
        in-repo scorers all end with an allocating sigmoid/softmax).
        """
        return self.predict
