"""The DNN baseline: a single MLP over the concatenated input (§5.1.3).

"The DNN and a single expert tower have the same network structure,
512 x 256 x 1, as well as embedding dimension" — so this is exactly one
expert tower applied to X with no gating.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.dataset import Batch
from ..data.schema import FeatureSpec
from ..nn.infer import sigmoid_array
from .base import FeatureEmbedder, ModelOutput, RankingModel
from .config import ModelConfig

__all__ = ["DNNRanker"]


class DNNRanker(RankingModel):
    """Feed-forward baseline ranker."""

    def __init__(self, spec: FeatureSpec, config: ModelConfig | None = None):
        super().__init__()
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        self.embedder = FeatureEmbedder(spec, self.config.embedding_dim,
                                        input_features=self.config.input_features, rng=rng)
        self.tower = nn.MLP(self.embedder.input_width, list(self.config.hidden_sizes), 1, rng=rng)

    def forward(self, batch: Batch) -> ModelOutput:
        x = self.embedder.model_input(batch)
        logits = self.tower(x).reshape(-1)
        return ModelOutput(logits=logits)

    def _build_scorer(self):
        """Compiled scoring: embedding gather -> compiled tower -> sigmoid."""
        tower = self.tower.compiled()

        def score(batch: Batch) -> np.ndarray:
            x = self.embedder.model_input_array(batch)
            return sigmoid_array(tower(x).reshape(-1))
        return score

    def loss(self, batch: Batch, rng: np.random.Generator | None = None
             ) -> tuple[nn.Tensor, dict[str, float]]:
        output = self.forward(batch)
        # The fused BCE kernel casts labels to the logits dtype itself, so no
        # up-front float64 copy is needed (and float32 mode stays float32).
        ce = nn.losses.bce_with_logits(output.logits, batch.labels)
        return ce, {"ce": ce.item()}
