"""Traced launcher: wraps the program's public calls, then runs an entry point.

Usage::

    python e2ebench/tracing.py --spans OUT.json serve -- <gateway args>
    python e2ebench/tracing.py --spans OUT.json train -- <train.py args>

``serve`` runs ``repro.serving.server.main`` and ``train`` runs this
directory's ``train.py``, after replacing a fixed set of methods with
wrappers that record one span per call: name, start, end, parent span,
request id, wall time and thread CPU time.  Spans stay in memory and are
written to ``OUT.json`` when the entry point returns (the gateway returns
once SIGTERM has drained it).  Untraced runs never import this module.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

_spans: list[tuple] = []
_ids = itertools.count()
_local = threading.local()
# id(batch) -> request id, for batches waiting in a ScorerPool.
_waiting: dict[int, str] = {}
_weight_bytes: dict[int, int] = {}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record(name: str, call, rid=None, count_fn=None, only_under=None):
    """Wrap ``call`` so each invocation appends one span.

    ``rid`` computes the request id from the call's arguments (default:
    the enclosing span's); ``count_fn`` a count stored with the span;
    ``only_under`` skips recording unless the enclosing span has that name.
    """
    @functools.wraps(call)
    def traced(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else (-1, None, None)
        if only_under is not None and parent[1] != only_under:
            return call(*args, **kwargs)
        request = rid(args, kwargs) if rid is not None else parent[2]
        index = next(_ids)
        stack.append((index, name, request))
        count = count_fn(args) if count_fn is not None else 0
        cpu = time.thread_time()
        start = time.monotonic()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.monotonic()
            cpu = time.thread_time() - cpu
            stack.pop()
            _spans.append((index, parent[0], name, request, start, end, cpu, count))
    return traced


def _patch(owner, attr: str, name: str, **options) -> None:
    setattr(owner, attr, _record(name, getattr(owner, attr), **options))


def _module_bytes(plan) -> int:
    key = id(plan.module)
    if key not in _weight_bytes:
        _weight_bytes[key] = sum(p.data.nbytes for p in plan.module.parameters())
    return _weight_bytes[key]


def install_serving() -> None:
    """Wrap the gateway's layer boundaries (see README, "Per-layer")."""
    from repro.models.base import FeatureEmbedder, RankingModel
    from repro.nn.infer import CompiledPlan
    from repro.serving import cache, scorer, service
    from repro.serving.handlers import GatewayDispatcher

    def header_rid(args, kwargs):
        headers = kwargs.get("headers") or (args[4] if len(args) > 4 else None)
        return (headers or {}).get("x-request-id")

    _patch(GatewayDispatcher, "dispatch", "handlers.dispatch", rid=header_rid)
    _patch(service.RankingService, "rank", "service.rank")
    _patch(service.RankingService, "classify_query", "querycat.classify")
    _patch(service, "canonical_key", "cache.key")
    _patch(cache.ResultCache, "get", "cache.get")
    _patch(cache.ResultCache, "put", "cache.put")

    pool_score = scorer.ScorerPool.score

    def score(self, batch, *args, **kwargs):
        _waiting[id(batch)] = _stack()[-1][2]   # the scorer.score span's request
        try:
            return pool_score(self, batch, *args, **kwargs)
        finally:
            _waiting.pop(id(batch), None)
    scorer.ScorerPool.score = _record("scorer.score", functools.wraps(pool_score)(score))

    concat = scorer.concat_batches

    def carried(batches):
        # Runs on the pool worker just before the scoring call: remember
        # which requests the merged batch carries.
        _local.carried = ",".join(str(_waiting.get(id(b))) for b in batches)
        return concat(batches)
    scorer.concat_batches = functools.wraps(concat)(carried)

    make_scorer = RankingModel.make_scorer

    def traced_make_scorer(self):
        return _record("models.score", make_scorer(self),
                       rid=lambda args, kwargs: getattr(_local, "carried", None),
                       count_fn=lambda args: len(args[0]))
    RankingModel.make_scorer = functools.wraps(make_scorer)(traced_make_scorer)

    _patch(FeatureEmbedder, "model_input_array", "models.embed")
    _patch(FeatureEmbedder, "gate_input_array", "models.embed")
    # Expert towers are the compiled plans called inside a scoring call
    # (the query classifier's plans run elsewhere and are not recorded);
    # each span counts (rows fed, weight bytes of the tower).
    _patch(CompiledPlan, "__call__", "models.expert", only_under="models.score",
           count_fn=lambda args: (int(args[1].shape[0]), _module_bytes(args[0])))


def install_training() -> None:
    """Wrap the training step's forward, loss, backward and optimizer."""
    from repro import nn
    from repro.models.moe import MoERanker

    _patch(MoERanker, "forward", "training.forward",
           count_fn=lambda args: len(args[1]))
    _patch(MoERanker, "loss", "training.loss")
    _patch(nn.Tensor, "backward", "training.backward")
    _patch(nn.optim.AdamW, "step", "optim.step")
    _patch(nn.MLP, "forward", "training.expert", only_under="training.forward",
           count_fn=lambda args: int(args[1].shape[0]))


def dump(path: Path) -> None:
    path.write_text(json.dumps(_spans))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("entry", choices=["serve", "train"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args
    if options.entry == "serve":
        install_serving()
        from repro.serving.server import main as entry
    else:
        install_training()
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from train import main as entry
    try:
        return entry(args)
    finally:
        dump(options.spans)


if __name__ == "__main__":
    raise SystemExit(main())
