"""The benchmark's own evaluation of the ranker, apart from the program.

It reads raw parameter arrays (a checkpoint's ``.npz`` or a state dict)
and computes the paper's eq. 5-8 with plain float64 numpy:

* eq. 5: gate logits from the sub-category (SC) embedding, ``x_sc @ W_g``;
* eq. 6-7: keep the K largest logits per row, softmax over those K;
* eq. 8: the expert MLP towers (ReLU between layers, linear output),
  mixed by the K probabilities, then the sigmoid.

Only the K selected towers are evaluated, as eq. 8 reads them; the
program evaluates all N and multiplies the rest by zero, so the two
agree to float32 rounding.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Scores are float32 on the program side; this bounds |program - reference|.
SCORE_ATOL = 2e-5


class MoEReference:
    """Eq. 5-8 over one ranker's parameter arrays."""

    def __init__(self, arrays: dict[str, np.ndarray], config: dict,
                 sparse_names: list[str]):
        self.dtype = np.asarray(arrays["inference_gate.weight"]).dtype
        self.tables = {name: np.asarray(arrays[f"embedder.tables.{index}.weight"],
                                        dtype=np.float64)
                       for index, name in enumerate(sparse_names)}
        self.input_features = list(config["input_features"])
        self.gate_features = list(config["gate_features"])
        self.gate_numeric = bool(config["gate_include_numeric"])
        self.k = int(config["top_k"])
        self.gate = np.asarray(arrays["inference_gate.weight"], dtype=np.float64)
        self.towers = []
        for expert in range(int(config["num_experts"])):
            layers = sorted(int(key.split(".")[2]) for key in arrays
                            if key.startswith(f"experts.{expert}.")
                            and key.endswith(".weight"))
            self.towers.append([
                (np.asarray(arrays[f"experts.{expert}.{layer}.weight"], dtype=np.float64),
                 np.asarray(arrays[f"experts.{expert}.{layer}.bias"], dtype=np.float64))
                for layer in layers])

    @classmethod
    def from_checkpoint(cls, directory: Path, name: str) -> "MoEReference":
        meta = json.loads((directory / f"{name}.json").read_text())
        environment = json.loads((directory / "environment.json").read_text())
        sparse_names = [feature["name"] for feature in environment["spec"]["sparse"]]
        with np.load(directory / f"{name}.npz") as arrays:
            return cls(dict(arrays), meta["config"], sparse_names)

    def _numeric(self, numeric) -> np.ndarray:
        # The program computes in its parameter dtype: round the inputs
        # the same way, then evaluate in float64.
        return np.asarray(numeric, dtype=self.dtype).astype(np.float64)

    def gate_probs(self, sparse: dict, numeric) -> tuple[np.ndarray, np.ndarray]:
        """Top-K expert indices and their softmax weights, eq. 5-7."""
        parts = [self.tables[name][np.asarray(sparse[name])]
                 for name in self.gate_features]
        if self.gate_numeric:
            parts.append(self._numeric(numeric))
        logits = np.concatenate(parts, axis=1) @ self.gate
        chosen = np.argsort(-logits, axis=1, kind="stable")[:, :self.k]
        picked = np.take_along_axis(logits, chosen, axis=1)
        weights = np.exp(picked - picked.max(axis=1, keepdims=True))
        return chosen, weights / weights.sum(axis=1, keepdims=True)

    def tower(self, expert: int, x: np.ndarray) -> np.ndarray:
        layers = self.towers[expert]
        for index, (weight, bias) in enumerate(layers):
            x = x @ weight + bias
            if index < len(layers) - 1:
                x = np.maximum(x, 0.0)
        return x[:, 0]

    def scores(self, sparse: dict, numeric) -> np.ndarray:
        """Purchase probabilities for rows given as feature columns."""
        x = np.concatenate([self.tables[name][np.asarray(sparse[name])]
                            for name in self.input_features]
                           + [self._numeric(numeric)], axis=1)
        chosen, weights = self.gate_probs(sparse, numeric)
        logits = np.zeros(x.shape[0])
        for expert in np.unique(chosen):
            rows, slot = np.nonzero(chosen == expert)
            logits[rows] += weights[rows, slot] * self.tower(int(expert), x[rows])
        return 1.0 / (1.0 + np.exp(-logits))


def parent_map(directory: Path) -> dict[int, int]:
    """Sub-category id -> top-category id, from ``environment.json``."""
    environment = json.loads((directory / "environment.json").read_text())
    return {int(entry["sc_id"]): int(entry["tc_id"])
            for entry in environment["taxonomy"]["sub_categories"]}


def session_auc(scores: np.ndarray, labels: np.ndarray,
                sessions: np.ndarray) -> float:
    """Mean per-session pairwise AUC over sessions holding both labels."""
    values = []
    for session in np.unique(sessions):
        mask = sessions == session
        positive = scores[mask][labels[mask] > 0.5]
        negative = scores[mask][labels[mask] <= 0.5]
        if positive.size and negative.size:
            wins = (positive[:, None] > negative[None, :]).mean()
            ties = (positive[:, None] == negative[None, :]).mean()
            values.append(wins + 0.5 * ties)
    return float(np.mean(values))


def log_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    clipped = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(labels * np.log(clipped)
                          + (1.0 - labels) * np.log1p(-clipped)))
