"""Serving workloads: boot the real gateway, drive it, check every answer."""

from __future__ import annotations

import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import world
from client import Connection, Exchange, run_closed_loop
from procfs import Sampler, peak_rss_mb
from reference import SCORE_ATOL, MoEReference, parent_map

HERE = Path(__file__).resolve().parent
CACHE_TTL_S = 30.0              # repro.serving.server's --cache-ttl-s default


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    paper: bool                 # paper-sized ranker, else the demo shape
    cache: bool                 # gateway's default result cache, else off
    lanes: int                  # keep-alive connections
    kind: str                   # "replay" | "bulk" | "zipf"
    requests_per_s: float       # sizes the fixed sequence from --seconds
    warmup: int                 # warm-up requests per lane


WORKLOADS = {w.name: w for w in (
    ServingWorkload("replay_paper", paper=True, cache=False, lanes=1,
                    kind="replay", requests_per_s=100.0, warmup=48),
    ServingWorkload("bulk_mixed_paper", paper=True, cache=False, lanes=2,
                    kind="bulk", requests_per_s=90.0, warmup=12),
    ServingWorkload("zipf_cached_demo", paper=False, cache=True, lanes=2,
                    kind="zipf", requests_per_s=1500.0, warmup=48),
)}


def child_env(root: Path, out: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1",
               PYTHONPYCACHEPREFIX=str(out / "pycache"))
    return env


class Gateway:
    """``python -m repro.serving.server`` as a child process."""

    def __init__(self, root: Path, out: Path, directory: Path, cache: bool,
                 spans: Path | None = None):
        args = ["--checkpoint-dir", str(directory), "--port", "0"]
        if not cache:
            args += ["--cache-entries", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro.serving.server", *args]
        else:
            command = [sys.executable, str(HERE / "tracing.py"), "--spans",
                       str(spans), "serve", "--", *args]
        self.log = out / ("gateway-traced.log" if spans else "gateway.log")
        # faulthandler lets stop() dump every thread's stack into the log
        # when a SIGTERM does not end the gateway.
        env = dict(child_env(root, out), PYTHONFAULTHANDLER="1")
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(command, cwd=root, stdout=log,
                                            stderr=subprocess.STDOUT, env=env)
        self.url = ""

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"gateway exited early:\n{self.log.read_text()}")
            if not self.url:
                match = re.search(r" on (http://[\d.]+:\d+)", self.log.read_text())
                self.url = match.group(1) if match else ""
            if self.url:
                try:
                    conn = Connection(self.url, timeout_s=5.0)
                    try:
                        if conn.get_json("/healthz").get("status") == "ok":
                            return
                    finally:
                        conn.close()
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("gateway did not answer /healthz in time")

    def stop(self, timeout_s: float = 20.0) -> int | None:
        """SIGTERM (graceful drain) and wait; returns the exit code.

        ``None`` means the gateway was still alive ``timeout_s`` after
        SIGTERM (twice the drain deadline): it is then sent SIGABRT, so
        faulthandler writes its threads' stacks to the log, and killed.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.send_signal(signal.SIGABRT)
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            return None


@dataclass
class Plan:
    """A workload's inputs: deployment, warm-up and timed requests."""

    workload: ServingWorkload
    directory: Path
    held_out: object            # the LTRDataset the timed requests come from
    lanes: list[list[world.Request]]
    warm: list[list[world.Request]]

    @property
    def requests(self) -> list[world.Request]:
        return [request for lane in self.lanes for request in lane]


def plan(workload: ServingWorkload, seed: int, seconds: float, out: Path,
         marks: dict) -> Plan:
    """Build the world, checkpoint the deployment, make the requests."""
    env = world.build_world()
    marks["world"] = time.monotonic()
    directory = out / "checkpoints"
    for stale in directory.glob("*") if directory.exists() else []:
        stale.unlink()
    world.write_deployment(directory, env, paper=workload.paper, seed=seed)
    marks["checkpoint"] = time.monotonic()

    test, queries = env.test, env.log.queries
    held = world.sessions_of(test, queries)
    spare = world.sessions_of(env.train, queries)
    count = max(1, round(seconds * workload.requests_per_s))
    if workload.kind == "bulk":
        timed = world.bulk_requests(test, count, seed, "m")
        warm = world.bulk_requests(env.train, workload.warmup * workload.lanes,
                                   seed, "w")
    else:
        if workload.kind == "replay":
            passes = math.ceil(count / len(held.rows))
            order = world.replay_order(len(held.rows), passes, seed)
        else:
            order = world.zipf_order(len(held.rows), count, seed)
        timed = world.session_requests(test, held, order, "m")
        warm_order = np.random.default_rng([seed, 4]).permutation(
            len(spare.rows))[:workload.warmup * workload.lanes]
        warm = world.session_requests(env.train, spare, warm_order, "w")
    lanes = [timed[index::workload.lanes] for index in range(workload.lanes)]
    warm_lanes = [warm[index::workload.lanes] for index in range(workload.lanes)]
    return Plan(workload, directory, test, lanes, warm_lanes)


@dataclass
class Pass:
    """One gateway lifetime's measurements."""

    exchanges: list[Exchange]
    window_s: float
    samples: list               # (time, steal ticks, gateway CPU ns)
    peak_rss_mb: float
    stats: tuple[dict, dict]
    exit_code: int | None       # None: still alive after SIGTERM, killed
    marks: dict
    log: Path


def _stats(url: str) -> dict:
    conn = Connection(url)
    try:
        return conn.get_json("/stats")
    finally:
        conn.close()


def _lane_pairs(lanes: list[list[world.Request]]) -> list[list[tuple[str, bytes]]]:
    return [[(request.rid, request.body) for request in lane] for lane in lanes]


def run_pass(root: Path, out: Path, the_plan: Plan,
             spans: Path | None = None) -> Pass:
    marks = {"spawn": time.monotonic()}
    gateway = Gateway(root, out, the_plan.directory, the_plan.workload.cache, spans)
    try:
        gateway.wait_ready()
        marks["ready"] = time.monotonic()
        warm = run_closed_loop(gateway.url, _lane_pairs(the_plan.warm))
        if any(x.status != 200 for lane in warm for x in lane):
            raise RuntimeError("warm-up requests failed")
        before = _stats(gateway.url)
        marks["first"] = time.monotonic()
        with Sampler(gateway.pid) as sampler:
            lanes = run_closed_loop(gateway.url, _lane_pairs(the_plan.lanes))
        after = _stats(gateway.url)
        rss = peak_rss_mb(gateway.pid)
    finally:
        exit_code = gateway.stop()
    exchanges = [x for lane in lanes for x in lane]
    done = [x for x in exchanges if not x.error]
    window = (max(x.received for x in done) - min(x.sent for x in done)
              if done else 0.0)
    return Pass(exchanges, window, sampler.samples, rss, (before, after),
                exit_code, marks, gateway.log)


def check(the_plan: Plan, result: Pass) -> list[str]:
    """Every answer against the eq. 5-8 reference and stated properties."""
    failures = []
    # A gateway that never exits is an intermittent fault of the program
    # (see CHANGES.md): run.py reports it, but a check that fails now and
    # then cannot gate the benchmark.  Any exit code but 0 fails.
    if result.exit_code not in (0, None):
        failures.append(f"gateway exited {result.exit_code} on SIGTERM")
    directory = the_plan.directory
    reference = MoEReference.from_checkpoint(directory, world.RANKER)
    parents = parent_map(directory)
    test = the_plan.held_out
    expected = reference.scores(test.sparse, test.numeric)
    requests = {request.rid: request for request in the_plan.requests}
    tokens = the_plan.workload.kind != "bulk"
    first: dict[int, tuple] = {}
    for exchange in result.exchanges:
        if exchange.status != 200:
            continue                    # counted as failed, not as wrong
        request, answer = requests[exchange.rid], exchange.json()
        problem = _check_answer(request, answer, expected, parents, tokens,
                                the_plan.workload.cache)
        if problem is None and the_plan.workload.cache:
            key = (tuple(answer["indices"]), tuple(answer["scores"]))
            if first.setdefault(request.session, key) != key:
                problem = "answer differs bit-wise from the first for its session"
        if problem:
            failures.append(f"{exchange.rid}: {problem}")
    if the_plan.workload.cache:
        failures += _cache_rule(result.exchanges, requests)
    return failures[:20]


def _check_answer(request, answer, expected, parents, tokens, cache):
    rows = request.rows
    indices = np.asarray(answer["indices"], dtype=np.int64)
    scores = np.asarray(answer["scores"], dtype=np.float64)
    if sorted(indices.tolist()) != list(range(len(rows))):
        return "indices are not a permutation of the request's rows"
    if np.any(np.diff(scores) > 0):
        return "scores are not in descending order"
    gap = float(np.max(np.abs(scores - expected[rows[indices]])))
    if gap > SCORE_ATOL:
        return f"scores depart from the eq. 5-8 reference by {gap:.3g}"
    if answer["degraded"]:
        return "answer came from the degraded fallback"
    if answer["cached"] and not cache:
        return "cached answer with the cache off"
    sc, tc = answer["predicted_sc"], answer["predicted_tc"]
    if tokens and (sc not in parents or parents[sc] != tc):
        return f"predicted_tc {tc} is not the parent of predicted_sc {sc}"
    if not tokens and (sc, tc) != (None, None):
        return "intent predicted for a request without query tokens"
    return None


def _cache_rule(exchanges, requests) -> list[str]:
    """A request sent after an answer for its session came back must hit.

    Entries live ``CACHE_TTL_S`` (the gateway's default) from the answer
    that filled them; later requests may miss again and are not judged.
    """
    answered: dict[int, float] = {}
    for exchange in exchanges:
        if exchange.status == 200:
            session = requests[exchange.rid].session
            answered[session] = min(answered.get(session, math.inf),
                                    exchange.received)
    return [f"{x.rid}: missed the cache after its session was answered"
            for x in exchanges if x.status == 200 and not x.json()["cached"]
            and 0 < x.sent - answered[requests[x.rid].session] < CACHE_TTL_S - 1]
