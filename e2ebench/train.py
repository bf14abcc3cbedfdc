"""The training workload's own process: one seeded epoch of adv-hsc-moe.

Run by ``run.py`` (or under ``tracing.py train``)::

    python e2ebench/train.py --seed 3 --epochs 1 --out result.json

It builds the CI-scale world and a paper-sized ranker (N=32, K=4, D=1,
512x256 towers, embedding 16, float32), drives ``Trainer.train_epoch``
over the training split at batch 256 and lr 1e-3, and times every step
at the data boundary: a step is the time from handing the trainer one
batch to its asking for the next.  The output checks run after the
timed epoch and write nothing the timing depends on.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from procfs import peak_rss_mb, steal_ticks
from reference import SCORE_ATOL, MoEReference, log_loss, session_auc
from world import PAPER_MODEL, build_world

BATCH_ROWS = 256
LEARNING_RATE = 1e-3
# One epoch at lr 1e-3 reaches ~0.84 held-out session AUC from ~0.5.
MIN_AUC = 0.75
MIN_AUC_GAIN = 0.1


class StepClock:
    """The training split, with the trainer's steps stamped at hand-off.

    ``samples`` holds ``(time, host steal ticks, process CPU ns)`` at each
    hand-off of a batch and once after the last step, so step ``i`` is
    the interval between samples ``i`` and ``i + 1``: the trainer's work
    on batch ``i`` plus cutting batch ``i + 1``.
    """

    def __init__(self, dataset):
        self._dataset = dataset
        self.samples: list[tuple[float, int, int]] = []
        self.rows: list[int] = []

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def __len__(self) -> int:
        return len(self._dataset)

    def _stamp(self) -> None:
        self.samples.append((time.monotonic(), steal_ticks(), time.process_time_ns()))

    def iter_batches(self, batch_size, rng=None, shuffle=True):
        for batch in self._dataset.iter_batches(batch_size, rng=rng,
                                                shuffle=shuffle):
            if not self.samples:
                self._stamp()
            self.rows.append(len(batch))
            yield batch
            self._stamp()


def _reference(state: dict, config, sparse_names) -> MoEReference:
    return MoEReference(state, {"input_features": config.input_features,
                                "gate_features": config.gate_features,
                                "gate_include_numeric": config.gate_include_numeric,
                                "top_k": config.top_k,
                                "num_experts": config.num_experts}, sparse_names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one timed training epoch")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    marks = {"imported": time.monotonic()}

    from repro import nn
    from repro.experiments.common import CI, model_config
    from repro.models import build_model
    from repro.training import TrainConfig, Trainer

    env = build_world()
    train = env.train.astype(np.float32)
    marks["world"] = time.monotonic()
    config = model_config(CI, seed=args.seed, **PAPER_MODEL)
    with nn.default_dtype(np.float32):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            config, train_dataset=train)
    trainer = Trainer(model, TrainConfig(epochs=args.epochs, batch_size=BATCH_ROWS,
                                         learning_rate=LEARNING_RATE,
                                         seed=args.seed))
    initial = {name: value.copy() for name, value in model.state_dict().items()}
    clock = StepClock(train)
    marks["model"] = time.monotonic()

    losses = [trainer.train_epoch(clock)[0] for _ in range(args.epochs)]
    marks["trained"] = time.monotonic()

    result = {"marks": marks, "samples": clock.samples, "rows": clock.rows,
              "peak_rss_mb": peak_rss_mb("self"),
              "epoch_losses": losses, "failures": []}
    failures = result["failures"]
    state = model.state_dict()
    bad = [name for name, value in state.items() if not np.all(np.isfinite(value))]
    if bad or not np.all(np.isfinite(losses)):
        failures.append(f"non-finite parameters or loss after training: {bad[:5]}")
    else:
        names = env.dataset.spec.sparse_names
        test = env.test
        before = _reference(initial, config, names)
        after = _reference(state, config, names)
        held_before = before.scores(test.sparse, test.numeric)
        held_after = after.scores(test.sparse, test.numeric)
        served = np.asarray(model.score(test.astype(np.float32).full_batch()),
                            dtype=np.float64)
        gap = float(np.max(np.abs(served - held_after)))
        if gap > SCORE_ATOL:
            failures.append(f"trained model.score departs from the eq. 5-8 "
                            f"reference by {gap:.3g}")
        auc_before = session_auc(held_before, test.labels, test.session_ids)
        auc_after = session_auc(held_after, test.labels, test.session_ids)
        result["auc"] = [auc_before, auc_after]
        if auc_after < MIN_AUC or auc_after - auc_before < MIN_AUC_GAIN:
            failures.append(f"held-out AUC {auc_after:.3f} (untrained "
                            f"{auc_before:.3f}) is not far above chance")
        sample = train.batch(np.arange(0, len(train), 4))
        loss_before = log_loss(before.scores(sample.sparse, sample.numeric), sample.labels)
        loss_after = log_loss(after.scores(sample.sparse, sample.numeric), sample.labels)
        result["train_loss"] = [loss_before, loss_after]
        if not loss_after < loss_before:
            failures.append(f"training loss did not fall: {loss_before:.4f} "
                            f"-> {loss_after:.4f}")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
