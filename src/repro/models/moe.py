"""MoE ranking models: vanilla MoE, Adv-MoE, HSC-MoE, and Adv & HSC-MoE.

One class covers all four variants — the regularizers are switched on by
setting λ1 (HSC) and/or λ2 (AdvLoss) to non-zero, exactly mirroring how the
paper builds its model zoo (§5.1.3).  The combined objective is eq. (14):

    J(Θ) = mean( CE + λ1·HSC(x_sc, x_tc) − λ2·AdvLoss(X, x_sc) )

Implementation notes
--------------------
* Training (``loss``) evaluates each row's towers only on the cells the
  objective reads: the K experts the noisy top-K gate selects (eq. 8) and,
  with AdvLoss on, the D disagreeing experts it samples (eq. 12).  Every
  other cell already had exactly zero weight and zero gradient (the masked
  softmax fills it with ``-inf``; AdvLoss gathers only top-K and D
  columns), so skipping it changes summation order, not the math.
* ``forward(batch)`` alone stays dense, every expert on every row: it is
  the reference ``predict``, ``expert_scores`` and the Fig. 8 case study
  read.
* Compiled scoring (``score`` / ``make_scorer``, what serving runs)
  dispatches sparsely too: each row runs only the K expert towers its
  gate selects (eq. 8), with no capacity limit, so no row is dropped.
* Gradient routing (eq. 15-16) holds structurally; see
  :mod:`repro.models.regularizers`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.dataset import Batch
from ..data.schema import FeatureSpec
from ..hierarchy import Taxonomy
from ..nn import functional as F
from ..nn.infer import (RowBufferPool, compile_module, masked_softmax_array,
                        sigmoid_array)
from .base import FeatureEmbedder, ModelOutput, RankingModel
from .config import ModelConfig
from .gates import NoisyTopKGate
from .regularizers import (adversarial_loss, hsc_loss, load_balancing_loss,
                           sample_disagreeing_experts)

__all__ = ["MoERanker"]


def _expert_groups(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the True cells of a (rows, experts) mask expert-major.

    Returns ``(rows, bounds)``: expert ``e`` owns rows
    ``rows[bounds[e]:bounds[e + 1]]``, in ascending order, and an expert
    with no cell has equal bounds.
    """
    owner, rows = np.nonzero(cells.T)
    bounds = np.searchsorted(owner, np.arange(cells.shape[1] + 1))
    return rows, bounds


class MoERanker(RankingModel):
    """Noisy top-K mixture-of-experts ranker with optional HSC / AdvLoss.

    Parameters
    ----------
    spec:
        Feature schema (embedding cardinalities).
    taxonomy:
        Category tree; required when ``use_hsc`` (the constraint gate needs
        TC ids, which are derived from SC ids through the hierarchy).
    config:
        Hyper-parameters; ``config.lambda_hsc`` / ``config.lambda_adv``
        only take effect when the corresponding ``use_*`` flag is set.
    use_hsc / use_adv:
        Enable the Hierarchical Soft Constraint and/or the adversarial
        regularizer.
    """

    def __init__(self, spec: FeatureSpec, taxonomy: Taxonomy | None = None,
                 config: ModelConfig | None = None,
                 use_hsc: bool = False, use_adv: bool = False):
        super().__init__()
        self.config = config or ModelConfig()
        self.use_hsc = use_hsc
        self.use_adv = use_adv
        if use_hsc and taxonomy is None:
            raise ValueError("HSC requires a taxonomy to map SC ids to TC ids")
        self.taxonomy = taxonomy
        rng = np.random.default_rng(self.config.seed)
        self._rng = np.random.default_rng(self.config.seed + 1)

        self.embedder = FeatureEmbedder(spec, self.config.embedding_dim,
                                        input_features=self.config.input_features, rng=rng)
        self.experts = nn.ModuleList([
            nn.MLP(self.embedder.input_width, list(self.config.hidden_sizes), 1, rng=rng)
            for _ in range(self.config.num_experts)
        ])
        gate_width = self.embedder.gate_input_width(
            self.config.gate_features, self.config.gate_include_numeric)
        self.inference_gate = NoisyTopKGate(gate_width, self.config.num_experts,
                                            k=self.config.top_k,
                                            noisy=self.config.noisy_gating, rng=rng)
        if use_hsc:
            # "The constraint gate and inference gate have the same structure"
            # (§4.3.2) but its input is the TC embedding.
            self.constraint_gate = NoisyTopKGate(self.config.embedding_dim,
                                                 self.config.num_experts,
                                                 k=self.config.top_k,
                                                 noisy=False, rng=rng)
        else:
            self.constraint_gate = None

    # ------------------------------------------------------------------
    def expert_outputs(self, x: nn.Tensor, cells: np.ndarray | None = None
                       ) -> nn.Tensor:
        """Expert logits, shape (b, N).

        With a boolean (b, N) ``cells`` mask each tower runs once, on only
        the rows whose cells it owns, and every other entry is a constant
        0.  Every tower runs even when no row routes to it, so its
        parameters still end backward with a (zero) gradient, as in the
        dense pass.
        """
        if cells is None:
            return nn.concatenate([expert(x) for expert in self.experts], axis=1)
        rows, bounds = _expert_groups(cells)
        inputs = F.dispatch_rows(x, rows, bounds)
        outputs = [expert(part) for expert, part in zip(self.experts, inputs)]
        return F.combine_rows(outputs, rows, x.shape[0])

    @property
    def _num_disagreeing(self) -> int:
        """D, the disagreeing experts sampled per row (0 without AdvLoss)."""
        return self.config.num_disagreeing if self.use_adv else 0

    def forward(self, batch: Batch, rng: np.random.Generator | None = None
                ) -> ModelOutput:
        """Gate and experts for ``batch``.

        ``forward(batch)`` runs every expert on every row: the dense
        reference.  With ``rng``, as :meth:`loss` passes it, the towers run
        only on the cells eq. 14 reads: each row's top-K experts plus, with
        AdvLoss on, D disagreeing experts drawn from ``rng`` (returned as
        ``extras["disagreeing"]``).  ``expert_logits`` is then 0 in every
        other cell, where the gate's probability is exactly 0.
        """
        x = self.embedder.model_input(batch)
        gate_in = self.embedder.gate_input(batch, self.config.gate_features,
                                           self.config.gate_include_numeric)
        gate = self.inference_gate(gate_in)
        extras = {"gate": gate}
        if rng is None:
            expert_logits = self.expert_outputs(x)
        else:
            cells = gate.topk_mask
            if self._num_disagreeing:
                disagreeing = sample_disagreeing_experts(
                    gate.topk_mask, self._num_disagreeing, rng)
                cells = cells.copy()
                np.put_along_axis(cells, disagreeing, True, axis=1)
                extras["disagreeing"] = disagreeing
            expert_logits = self.expert_outputs(x, cells)
        # yhat logit = sum_i P_i(x_sc, K) * E_i(X)  (eq. 8; masked softmax
        # zeroes non-selected experts, so only top-K contribute).
        logits = (gate.probs * expert_logits).sum(axis=1)
        return ModelOutput(
            logits=logits,
            expert_logits=expert_logits,
            gate_probs=gate.probs,
            gate_logits_clean=gate.clean_logits,
            topk_indices=gate.topk_indices,
            extras=extras,
        )

    def loss(self, batch: Batch, rng: np.random.Generator | None = None
             ) -> tuple[nn.Tensor, dict[str, float]]:
        rng = rng if rng is not None else self._rng
        output = self.forward(batch, rng=rng)
        gate = output.extras["gate"]
        # The fused BCE kernel casts labels to the logits dtype itself, so no
        # up-front float64 copy is needed (and float32 mode stays float32).
        ce = nn.losses.bce_with_logits(output.logits, batch.labels)
        total = ce
        diagnostics = {"ce": ce.item()}

        if self.use_hsc:
            tc_ids = batch.sparse["query_tc"]
            x_tc = self.embedder.embed("query_tc", tc_ids)
            constraint = self.constraint_gate(x_tc)
            hsc = hsc_loss(gate, constraint.full_softmax,
                           restrict_to_topk=self.config.hsc_restrict_topk)
            total = total + self.config.lambda_hsc * hsc
            diagnostics["hsc"] = hsc.item()

        if self.config.lambda_load > 0:
            balance = load_balancing_loss(gate.probs)
            total = total + self.config.lambda_load * balance
            diagnostics["load_balance"] = balance.item()

        if self._num_disagreeing:
            adv = adversarial_loss(output.expert_logits, gate.topk_indices,
                                   output.extras["disagreeing"],
                                   on_sigmoid=self.config.adv_on_sigmoid)
            total = total - self.config.lambda_adv * adv
            diagnostics["adv"] = adv.item()

        diagnostics["total"] = total.item()
        return total, diagnostics

    def _build_scorer(self):
        """Compiled scoring with sparse top-K expert dispatch.

        The numpy gate (clean logits, eval semantics) selects each row's
        K experts.  Each selected expert's compiled tower then runs once,
        on only the rows that selected it, and writes into a ``(B, N)``
        logit matrix that is zero elsewhere, so the eq. 8 mix is the
        eval-mode forward's.  A tower that every row selected gets ``x``
        itself, with no gather: under the default ``sc`` gate all rows of
        one request share one top-K set.

        The N towers share one :class:`RowBufferPool`.  They run one after
        another and each output is copied out before the next tower runs,
        so one scratch set serves all of them, and ragged per-expert row
        counts cost at most one buffer per power of two.
        """
        pool = RowBufferPool()
        experts = [compile_module(expert, pool) for expert in self.experts]
        gate = self.inference_gate
        config = self.config

        def score(batch: Batch) -> np.ndarray:
            x = self.embedder.model_input_array(batch)
            gate_in = self.embedder.gate_input_array(
                batch, config.gate_features, config.gate_include_numeric)
            clean = gate_in @ gate.weight.data
            mask = F.scatter_topk_mask(clean, gate.k)
            probs = masked_softmax_array(clean, mask, axis=1)
            rows = x.shape[0]
            expert_logits = np.zeros((rows, len(experts)), dtype=x.dtype)
            picked, bounds = _expert_groups(mask)
            for index in np.flatnonzero(np.diff(bounds)):
                start, stop = bounds[index], bounds[index + 1]
                if stop - start == rows:
                    expert_logits[:, index] = experts[index](x).reshape(-1)
                else:
                    group = picked[start:stop]
                    expert_logits[group, index] = \
                        experts[index](x[group]).reshape(-1)
            return sigmoid_array((probs * expert_logits).sum(axis=1))
        return score

    # ------------------------------------------------------------------
    def gate_vectors(self, batch: Batch) -> np.ndarray:
        """Inference gate probability vectors for analysis (Fig. 6).

        Evaluated without noise (eval mode) and without graph construction.
        """
        with nn.no_grad():
            was_training = self.training
            self.eval()
            try:
                gate_in = self.embedder.gate_input(batch, self.config.gate_features,
                                                   self.config.gate_include_numeric)
                gate = self.inference_gate(gate_in)
            finally:
                self.train(was_training)
        return gate.probs.data.copy()

    def expert_scores(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Per-expert sigmoid scores and the top-K mask (Fig. 8 case study)."""
        with nn.no_grad():
            was_training = self.training
            self.eval()
            try:
                output = self.forward(batch)
            finally:
                self.train(was_training)
        sigma = sigmoid_array(output.expert_logits.data)
        return sigma, output.extras["gate"].topk_mask
