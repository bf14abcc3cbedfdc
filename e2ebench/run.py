"""End-to-end benchmark of the category-gated MoE ranker: serving and training.

    python3 e2ebench/run.py --workload replay_paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  Serving workloads boot the real gateway
(``python -m repro.serving.server``) from a checkpoint directory this
command writes, drive it over keep-alive connections with a seeded
request sequence, and check every answer; ``train_epoch_paper`` trains
seeded epochs in their own process.  ``--seconds`` sizes the fixed
request sequence and the number of epochs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the
per-layer ones from a separate traced run (see README.md).
"""

from __future__ import annotations

import os

# One BLAS thread in every process: the load process and the program
# must not oversubscribe the two vCPUs this benchmark was tuned on.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# Bytecode of the benchmark and the program goes to scratch output, not
# next to the sources.
sys.pycache_prefix = str(OUT / "pycache")

from procfs import host_line, process_start_monotonic  # noqa: E402

STARTED = process_start_monotonic()
TRAIN_WORKLOAD = "train_epoch_paper"
SECONDS_PER_EPOCH = 7


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, figures: dict, rss_mb: float) -> dict:
    # rows_per_s is printed with the figures but is no end-to-end metric:
    # it did not hold within a useful bound (see README.md).
    return {"setup_s": metric(setup_s, "s"),
            "p50_ms": metric(figures["p50_ms"], "ms"),
            "cpu_us_per_row": metric(figures["cpu_us_per_row"], "us/row"),
            "peak_rss_mb": metric(rss_mb, "MiB")}


def measured(segs: list) -> tuple[dict, list[str]]:
    """Quiet-segment figures, plus lines with the whole-window ones."""
    import segments
    calm = segments.quiet(segs)
    figures = segments.figures(calm)
    latencies = sorted(value for s in segs for value in s.latencies_ms)
    lines = [
        f"steal: {sum(s.steal for s in segs)} ticks over "
        f"{sum(s.seconds for s in segs):.3f}s; {len(calm)}/{len(segs)} "
        f"segments quiet",
        "quiet: " + _figures_line(figures),
        "whole window: " + _figures_line(segments.figures(segs)),
        "whole-window latency: " + " ".join(
            f"p{q}={latencies[_rank(len(latencies), q)]:.3f}ms "
            f"({len(latencies) - _rank(len(latencies), q) - 1} of "
            f"{len(latencies)} above)" for q in (50, 90, 99))]
    return figures, lines


def _figures_line(figures: dict) -> str:
    return " ".join(f"{name}={value:.4f}" for name, value in figures.items())


def _rank(count: int, q: int) -> int:
    return min(count - 1, int(count * q / 100))


def per_layer(values: dict) -> dict:
    from layers import UNITS
    return {name: metric(values[name], unit) for name, unit in UNITS.items()}


def overhead(traced: dict, untraced: dict) -> dict:
    return {"trace.overhead_p50_ms": traced["p50_ms"] - untraced["p50_ms"],
            "trace.overhead_cpu_us_per_row": (traced["cpu_us_per_row"]
                                              - untraced["cpu_us_per_row"])}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def hung(result) -> None:
    """Report a gateway that outlived SIGTERM, with the stacks it dumped."""
    if result.exit_code is None:
        print(f"WARNING: the gateway was still running 20 s after SIGTERM and "
              f"was killed; its thread stacks:\n{result.log.read_text()[-20000:]}",
              file=sys.stderr)


def serving(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import layers
    import segments
    import serve

    workload = serve.WORKLOADS[name]
    marks = {}
    the_plan = serve.plan(workload, seed, seconds, OUT, marks)
    requests = {request.rid: request for request in the_plan.requests}

    def segments_of(result):
        return segments.from_samples(result.samples, [
            (x.sent, x.received, len(requests[x.rid].rows))
            for x in result.exchanges if x.status == 200])

    first = serve.run_pass(ROOT, OUT, the_plan)
    failures = serve.check(the_plan, first)
    hung(first)
    failed = sum(x.status != 200 for x in first.exchanges)
    failed += len(requests) - len(first.exchanges)
    figures, lines = measured(segments_of(first))
    cpu_s = (first.samples[-1][2] - first.samples[0][2]) / 1e9
    lines.insert(0, f"window: {len(first.exchanges)} requests in "
                    f"{first.window_s:.3f}s, gateway cpu {cpu_s:.3f}s")
    metrics = end_to_end(first.marks["first"] - STARTED, figures, first.peak_rss_mb)
    if trace:
        spans_path = OUT / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced = serve.run_pass(ROOT, OUT, the_plan, spans=spans_path)
        failures += serve.check(the_plan, traced)
        hung(traced)
        if not spans_path.exists():
            raise RuntimeError("the traced gateway wrote no spans: it did not "
                               "drain on SIGTERM")
        values, counts = layers.serving(json.loads(spans_path.read_text()),
                                        traced.exchanges, requests, traced.stats)
        paths = {key: counts[key] for key in ("rows_scoring_calls",
                                              "rows_stats_delta",
                                              "rows_uncached_answers")}
        lines.append(f"scored rows by independent paths: {paths}")
        if len(set(paths.values())) != 1:
            failures.append(f"scored-row counts disagree: {paths}")
        lines.append("scorer.wait_ms median by request rows "
                     "(rows: [requests, ms]): " + json.dumps(counts["wait_ms_by_rows"]))
        values.update({name: 0.0 for name in layers.TRAINING})
        values.update(zip(layers.SETUP, [
            marks["world"] - STARTED, marks["checkpoint"] - marks["world"],
            first.marks["ready"] - first.marks["spawn"],
            first.marks["first"] - first.marks["ready"]]))
        values.update(overhead(measured(segments_of(traced))[0], figures))
        metrics = per_layer(values)
    return metrics, len(requests), failed, failures, lines


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def train_pass(seed: int, epochs: int, spans: Path | None) -> dict:
    from serve import child_env
    out = OUT / "train.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "train.py")]
    if spans:
        command = [sys.executable, str(HERE / "tracing.py"), "--spans",
                   str(spans), "train", "--"]
    code = subprocess.run([*command, "--seed", str(seed), "--epochs", str(epochs),
                           "--out", str(out)], cwd=ROOT, env=child_env(ROOT, OUT),
                          timeout=170).returncode
    if code != 0:
        raise RuntimeError(f"training process exited {code}")
    return json.loads(out.read_text())


def step_segments(result: dict) -> list:
    """Segments over the epoch; each training step is one operation."""
    from segments import from_samples
    samples = result["samples"]
    return from_samples(samples, [(samples[i][0], samples[i + 1][0], rows)
                                  for i, rows in enumerate(result["rows"])])


def training(seed: int, seconds: float, trace: bool) -> tuple:
    import layers

    epochs = max(1, round(seconds / SECONDS_PER_EPOCH))
    first = train_pass(seed, epochs, None)
    marks = first["marks"]
    figures, lines = measured(step_segments(first))
    lines.insert(0, f"window: {len(first['rows'])} steps in "
                    f"{marks['trained'] - marks['model']:.3f}s, held-out AUC "
                    f"untrained/trained {first.get('auc')}, train log-loss "
                    f"before/after {first.get('train_loss')}")
    metrics = end_to_end(marks["model"] - STARTED, figures, first["peak_rss_mb"])
    failures = list(first["failures"])
    if trace:
        spans_path = OUT / "spans.json"
        traced = train_pass(seed, epochs, spans_path)
        failures += traced["failures"]
        values = {name: 0.0 for name in layers.SERVING}
        values.update(layers.training(
            json.loads(spans_path.read_text()),
            (traced["marks"]["model"], traced["marks"]["trained"]),
            len(traced["rows"]), sum(traced["rows"])))
        values.update(zip(layers.SETUP, [
            marks["world"] - marks["imported"], marks["model"] - marks["world"],
            marks["imported"] - STARTED, 0.0]))
        values.update(overhead(measured(step_segments(traced))[0], figures))
        metrics = per_layer(values)
    return metrics, len(first["rows"]), 0, failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serving" / "server.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    print(host_line(ROOT), flush=True)

    import serve
    if args.workload == TRAIN_WORKLOAD:
        outcome = training(args.seed, args.seconds, bool(args.trace))
    elif args.workload in serve.WORKLOADS:
        outcome = serving(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics, attempted, failed, failures, lines = outcome
    for line in lines:
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"operations: attempted={attempted} failed={failed}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
