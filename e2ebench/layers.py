"""Per-layer metrics derived from a traced run's spans.

A span is ``[id, parent, name, request, start, end, cpu_s, count]`` as
written by ``tracing.py``.  Serving layer times are per ``/rank`` request
(means over the timed requests), attributed so that they add up to the
client's round trip:

    round trip = transport.self + handlers.self + service.self + querycat
               + cache + scorer.wait + models.embed + models.experts
               + models.combine

where the ``models.*`` terms are those of the scoring call that carried
the request (a call carrying two requests counts in full for each).
Training layer times are per training step.
"""

from __future__ import annotations

import collections
from statistics import mean

import numpy as np

CACHE = ("cache.key", "cache.get", "cache.put")
SERVING = {
    "transport.self_ms": "ms", "handlers.self_ms": "ms",
    "handlers.self_cpu_ms": "ms", "service.self_ms": "ms",
    "service.self_cpu_ms": "ms", "querycat.ms": "ms", "querycat.cpu_ms": "ms",
    "cache.ms": "ms", "cache.cpu_ms": "ms", "cache.hit_ratio": "ratio",
    "scorer.wait_ms": "ms", "scorer.rows_per_batch": "rows/call",
    "models.embed_ms": "ms", "models.embed_cpu_ms": "ms",
    "models.experts_ms": "ms", "models.experts_cpu_ms": "ms",
    "models.combine_ms": "ms", "models.combine_cpu_ms": "ms",
    "models.expert_rows_per_row": "rows/row",
    "models.expert_mb_per_batch": "MiB/call"}
TRAINING = {
    "training.forward_ms": "ms", "training.forward_cpu_ms": "ms",
    "training.loss_ms": "ms", "training.loss_cpu_ms": "ms",
    "training.backward_ms": "ms", "training.backward_cpu_ms": "ms",
    "optim.step_ms": "ms", "optim.step_cpu_ms": "ms",
    "training.expert_rows_per_row": "rows/row"}
SETUP = {"setup.environment_s": "s", "setup.checkpoint_s": "s",
         "setup.boot_s": "s", "setup.warmup_s": "s"}
OVERHEAD = {"trace.overhead_p50_ms": "ms", "trace.overhead_cpu_us_per_row": "us/row"}
# Every per-layer metric a traced run prints, in order, with its unit.
# A layer a workload never calls reads 0 on that workload.
UNITS = {**SERVING, **TRAINING, **SETUP, **OVERHEAD}


class Spans:
    """Spans indexed by id and by parent."""

    def __init__(self, rows: list):
        self.by_id = {row[0]: row for row in rows}
        self.children = collections.defaultdict(list)
        for row in rows:
            self.children[row[1]].append(row)

    def under(self, span, names) -> list:
        """Descendants of ``span`` with one of ``names`` (outermost only)."""
        found, todo = [], list(self.children[span[0]])
        while todo:
            row = todo.pop()
            if row[2] in names:
                found.append(row)
            else:
                todo.extend(self.children[row[0]])
        return found


def _wall(rows) -> float:
    return sum(row[5] - row[4] for row in rows)


def _cpu(rows) -> float:
    return sum(row[6] for row in rows)


def serving(spans: list, exchanges, requests: dict, stats: tuple[dict, dict]
            ) -> tuple[dict, dict]:
    """Per-layer metrics and the independent-path row counts."""
    tree = Spans(spans)
    dispatch = {row[3]: row for row in spans
                if row[2] == "handlers.dispatch" and row[3] in requests}
    calls = [row for row in spans if row[2] == "models.score"
             and all(rid in requests for rid in str(row[3]).split(","))]
    carrying = {rid: call for call in calls for rid in call[3].split(",")}
    models = {}
    for call in calls:
        embed = tree.under(call, ("models.embed",))
        experts = tree.under(call, ("models.expert",))
        models[call[0]] = {
            "embed": (_wall(embed), _cpu(embed)),
            "experts": (_wall(experts), _cpu(experts)),
            "combine": (_wall([call]) - _wall(embed) - _wall(experts),
                        _cpu([call]) - _cpu(embed) - _cpu(experts)),
            "expert_rows": sum(row[7][0] for row in experts),
            "expert_bytes": sum(row[7][1] for row in experts)}

    per = collections.defaultdict(list)
    wait_by_rows = collections.defaultdict(list)
    for exchange in exchanges:
        if exchange.status != 200:
            continue
        root = dispatch[exchange.rid]
        rank = tree.under(root, ("service.rank",))[0]
        intent = tree.under(rank, ("querycat.classify",))
        inner = tree.under(rank, CACHE + ("querycat.classify", "scorer.score"))
        direct_cache = [row for row in inner if row[2] in CACHE]
        intent_cache = [row for span in intent for row in tree.under(span, CACHE)]
        score = tree.under(rank, ("scorer.score",))
        call = carrying.get(exchange.rid)
        model = models[call[0]] if call else None
        per["transport.self_ms"].append(exchange.received - exchange.sent
                                        - _wall([root]))
        per["handlers.self_ms"].append(_wall([root]) - _wall([rank]))
        per["handlers.self_cpu_ms"].append(_cpu([root]) - _cpu([rank]))
        per["service.self_ms"].append(_wall([rank]) - _wall(inner))
        per["service.self_cpu_ms"].append(_cpu([rank]) - _cpu(inner))
        per["querycat.ms"].append(_wall(intent) - _wall(intent_cache))
        per["querycat.cpu_ms"].append(_cpu(intent) - _cpu(intent_cache))
        per["cache.ms"].append(_wall(direct_cache + intent_cache))
        per["cache.cpu_ms"].append(_cpu(direct_cache + intent_cache))
        wait = _wall(score) - (_wall([call]) if call else 0.0)
        per["scorer.wait_ms"].append(wait)
        if call:
            wait_by_rows[len(requests[exchange.rid].rows)].append(wait * 1e3)
        for part in ("embed", "experts", "combine"):
            wall, cpu = model[part] if model else (0.0, 0.0)
            per[f"models.{part}_ms"].append(wall)
            per[f"models.{part}_cpu_ms"].append(cpu)

    metrics = {name: mean(values) * 1e3 for name, values in per.items()}
    rows_scored = sum(call[7] for call in calls)
    metrics["scorer.rows_per_batch"] = rows_scored / len(calls) if calls else 0.0
    metrics["models.expert_rows_per_row"] = (
        sum(m["expert_rows"] for m in models.values()) / rows_scored
        if rows_scored else 0.0)
    metrics["models.expert_mb_per_batch"] = (
        sum(m["expert_bytes"] for m in models.values()) / len(calls) / 2**20
        if calls else 0.0)
    before, after = (s["cache"] for s in stats)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    metrics["cache.hit_ratio"] = ((after["hits"] - before["hits"]) / lookups
                                  if lookups else 0.0)
    counts = {
        "rows_scoring_calls": rows_scored,
        "rows_stats_delta": sum(entry["rows"] for entry in stats[1]["scorers"].values())
        - sum(entry["rows"] for entry in stats[0]["scorers"].values()),
        "rows_uncached_answers": sum(len(requests[x.rid].rows) for x in exchanges
                                     if x.status == 200 and not x.json()["cached"]),
        "wait_ms_by_rows": {rows: (len(v), float(np.median(v)))
                            for rows, v in sorted(wait_by_rows.items())},
    }
    return {name: metrics[name] for name in SERVING}, counts


def training(spans: list, window: tuple[float, float], steps: int,
             rows: int) -> dict:
    start, end = window
    inside = [row for row in spans if row[4] >= start and row[5] <= end]
    tree = Spans(inside)

    def outer(name):
        return [row for row in inside if row[2] == name
                and tree.by_id.get(row[1], (None,) * 3)[2] != name]

    forward, loss = outer("training.forward"), outer("training.loss")
    loss_forward = [row for span in loss for row in tree.under(span, ("training.forward",))]
    backward, step = outer("training.backward"), outer("optim.step")
    experts = outer("training.expert")
    per_step = 1e3 / steps
    return {
        "training.forward_ms": _wall(forward) * per_step,
        "training.forward_cpu_ms": _cpu(forward) * per_step,
        "training.loss_ms": (_wall(loss) - _wall(loss_forward)) * per_step,
        "training.loss_cpu_ms": (_cpu(loss) - _cpu(loss_forward)) * per_step,
        "training.backward_ms": _wall(backward) * per_step,
        "training.backward_cpu_ms": _cpu(backward) * per_step,
        "optim.step_ms": _wall(step) * per_step,
        "optim.step_cpu_ms": _cpu(step) * per_step,
        "training.expert_rows_per_row": sum(row[7] for row in experts) / rows,
    }
