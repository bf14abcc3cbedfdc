"""Deployments and seeded request sequences for the serving workloads.

The synthetic world is the program's own CI-scale log (``repro.data``);
the benchmark checkpoints two deployments from it and turns its held-out
split into ``/rank`` requests.  Warm-up requests come from the training
split, so they never touch a key the timed sequence later uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Paper-sized adv-hsc-moe (§5.1.4 towers at the Fig. 7 best point).
PAPER_MODEL = dict(embedding_dim=16, hidden_sizes=(512, 256), num_experts=32,
                   top_k=4, num_disagreeing=1)
RANKER = "ranker"
BULK_ROWS = 64
ZIPF_SKEW = 1.0


@dataclass
class Request:
    rid: str                    # sent as X-Request-Id; spans key on it
    body: bytes
    rows: np.ndarray            # held-out row indices, in request order
    session: int                # held-out session index, or -1 (bulk)


@dataclass
class Sessions:
    """One split's sessions: row indices and query tokens per session."""

    rows: list[np.ndarray]
    tokens: list[list[int]]


def build_world():
    """The CI-scale synthetic world, log and train/held-out split."""
    from repro.experiments.common import CI, build_environment
    return build_environment(CI)


def write_deployment(directory: Path, env, paper: bool, seed: int) -> None:
    """Checkpoint a ranker, a query classifier and the environment.

    ``paper`` picks the paper-sized ranker; otherwise the CI-scale shape
    the gateway's ``--bootstrap-demo`` serves (10 experts, 12-unit towers).
    """
    from repro import nn
    from repro.experiments.common import CI, model_config
    from repro.models import build_model
    from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
    from repro.serving.checkpoint import (save_checkpoint,
                                          save_classifier_checkpoint,
                                          save_environment)

    overrides = dict(PAPER_MODEL) if paper else {}
    config = model_config(CI, seed=seed, **overrides)
    with nn.default_dtype(np.float32):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            config, train_dataset=env.train)
        classifier = QueryCategoryClassifier(
            env.log.queries.vocab_size, env.taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=12, seed=seed))
    directory.mkdir(parents=True, exist_ok=True)
    save_environment(directory, env.dataset.spec, env.taxonomy)
    save_checkpoint(model, directory / RANKER, "adv-hsc-moe")
    save_classifier_checkpoint(classifier, directory / "querycat")


def sessions_of(dataset, queries) -> Sessions:
    order = np.argsort(dataset.session_ids, kind="stable")
    _, starts = np.unique(dataset.session_ids[order], return_index=True)
    rows = np.split(order, starts[1:])
    tokens = []
    for session_rows in rows:
        query = int(dataset.query_ids[session_rows[0]])
        length = int(queries.lengths[query])
        tokens.append([int(t) for t in queries.tokens[query, :length]])
    return Sessions(rows=rows, tokens=tokens)


def rank_body(dataset, rows: np.ndarray, tokens: list[int] | None) -> bytes:
    payload = {"candidates": {
        "numeric": dataset.numeric[rows].tolist(),
        "sparse": {name: ids[rows].tolist()
                   for name, ids in dataset.sparse.items()}},
        "top_k": int(len(rows))}
    if tokens is not None:
        payload["query_tokens"] = tokens
    return json.dumps(payload).encode()


def session_requests(dataset, sessions: Sessions, order, prefix: str) -> list[Request]:
    """One request per session in ``order``, with the session's query tokens.

    Repeats of a session share one encoded body (the request id travels
    in a header), so set-up encodes each session once.
    """
    bodies: dict[int, bytes] = {}
    requests = []
    for n, s in enumerate(order):
        if s not in bodies:
            bodies[s] = rank_body(dataset, sessions.rows[s], sessions.tokens[s])
        requests.append(Request(rid=f"{prefix}{n}", body=bodies[s],
                                rows=sessions.rows[s], session=int(s)))
    return requests


def replay_order(num_sessions: int, passes: int, seed: int) -> np.ndarray:
    """Every held-out session once per pass, each pass freshly shuffled."""
    rng = np.random.default_rng([seed, 1])
    return np.concatenate([rng.permutation(num_sessions) for _ in range(passes)])


def zipf_order(num_sessions: int, count: int, seed: int) -> np.ndarray:
    """``count`` sessions drawn Zipf(1.0) over a seeded popularity ranking."""
    rng = np.random.default_rng([seed, 2])
    ranking = rng.permutation(num_sessions)
    weights = 1.0 / np.arange(1, num_sessions + 1) ** ZIPF_SKEW
    return ranking[rng.choice(num_sessions, size=count, p=weights / weights.sum())]


def bulk_requests(dataset, count: int, seed: int, prefix: str) -> list[Request]:
    """64-row requests, rows drawn across the whole split, no query tokens."""
    rng = np.random.default_rng([seed, 3])
    requests = []
    for n in range(count):
        rows = rng.choice(len(dataset), size=BULK_ROWS, replace=False)
        requests.append(Request(rid=f"{prefix}{n}",
                                body=rank_body(dataset, rows, None),
                                rows=rows, session=-1))
    return requests
