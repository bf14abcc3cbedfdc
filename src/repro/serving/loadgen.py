"""Closed-loop load generator for the HTTP serving gateway.

``run_load`` drives N client threads against a gateway for a fixed
duration, each looping rank requests with randomly generated (but
schema-valid) candidates — the feature shapes come from the gateway's own
``GET /models`` spec block, so the generator needs no local dataset.  The
result is a :class:`LoadSummary` with throughput and client-observed
latency percentiles; the CLI writes it as JSON (the CI serving smoke job
uploads that file as a build artifact) and exits non-zero when any request
errored::

    python -m repro.serving.loadgen --url http://127.0.0.1:8000 \\
        --duration 5 --clients 4 --rows 8 --out latency_summary.json

Errors are split by cause: ``transport_errors`` (socket-level failures —
the gateway broke its contract or vanished) versus ``error_statuses``
(structured HTTP error responses, keyed by status).  A 429 is the gateway
*working as designed* under overload, not a failure, which is what the
``--overload`` mode asserts: drive the gateway past its admission bound
and verify every request was either served or cleanly shed (client-side
429 count matches the gateway's own shed counter exactly, no transport
errors, no other statuses)::

    python -m repro.serving.loadgen --url http://127.0.0.1:8000 \\
        --overload --clients 32 --duration 5 --out overload_summary.json

``--sweep`` replaces the single run with a connection-count sweep — one
closed-loop run per count, all summaries in one JSON artifact — which is
how the gateway's connection scaling is measured and CI-gated::

    python -m repro.serving.loadgen --url http://127.0.0.1:8000 \\
        --sweep 1,8,64,256 --duration 3 --out connection_sweep.json

``--chaos`` is the fault-tolerance acceptance mode: while the closed
loop runs, an orchestrator thread drives the gateway's ``POST /faults``
endpoint through a scripted failure sequence (injected scoring errors
and latency, a worker kill, a torn checkpoint write + reload, then
heal) and a fraction of requests carry tight ``X-Deadline-Ms`` budgets.
The gateway must degrade *structurally*: zero transport errors, every
failure a structured status or a ``"degraded": true`` fallback
response, the dead worker respawned (``worker_restarts`` moves), the
torn checkpoint quarantined with the last good version still serving,
and every breaker back to ``closed`` once the faults stop::

    python -m repro.serving.loadgen --url http://127.0.0.1:8000 \\
        --chaos --clients 32 --duration 10 --out chaos_summary.json

(The gateway must be started with ``--enable-fault-injection``, and with
a breaker threshold below the injected error rate — e.g.
``--breaker-threshold 0.05`` against the default 10% injection — or the
breaker never opens and the run fails its recovery check.)

``--zipf S`` replaces the per-request random candidates with a Zipfian
key workload: each request draws a key from a bounded universe
(``--zipf-universe``) with p(rank r) ∝ r^-S, and every key maps to one
deterministic payload — identical across clients and iterations — so the
gateway's version-keyed result cache sees realistic repeat traffic.  The
summary gains the gateway's own cache hit/miss deltas for the run plus a
``warm_hit_rate`` that excludes each distinct key's unavoidable
cold-start miss; ``--min-hit-rate`` turns that into a CI gate::

    python -m repro.serving.loadgen --url http://127.0.0.1:8000 \\
        --zipf 1.0 --zipf-universe 64 --duration 5 --clients 8 \\
        --min-hit-rate 0.5 --out zipf_summary.json
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .client import ServingClient, ServingError
from .scorer import latency_percentile

__all__ = ["LoadSummary", "run_load", "run_sweep", "run_chaos", "main"]


@dataclass
class LoadSummary:
    """One load run's aggregate results (latencies are client-observed).

    ``errors`` is the total of ``transport_errors`` and every count in
    ``error_statuses`` — kept as a field (not a property) so the JSON
    artifact stays a flat dict and older tooling reading ``errors`` keeps
    working.  ``shed_requests`` is the 429 slice of ``error_statuses``
    (the gateway's overload self-protection answering instead of
    queueing), and ``retry_after_hint_s`` the largest ``Retry-After`` the
    gateway attached to those sheds.

    ``deadline_exceeded`` (structured 504s for requests whose
    ``X-Deadline-Ms`` budget passed) and ``degraded`` (successful
    responses served by the circuit breaker's model-free fallback) are
    **distinct counters, not errors**: both are the gateway honoring its
    fault-tolerance contract — a deadline miss is the client's budget
    expiring, a degraded response is still an answer — so neither feeds
    ``errors`` or ``error_statuses``.

    The ``zipf_s``/cache fields are populated only by Zipfian runs
    (``--zipf``): ``cache_hits``/``cache_misses`` are the gateway's own
    result-cache counter deltas over the run, ``cold_start_misses`` the
    distinct keys the run touched (each key's first request can never
    hit), and ``warm_hit_rate`` the hit rate with those unavoidable
    misses excluded — the steady-state number a long-running gateway
    would see.
    """

    duration_s: float                   # nominal: the configured --duration
    clients: int
    rows_per_request: int
    requests: int
    rows: int
    errors: int
    transport_errors: int
    # Measured wall time from the first request sent to the last response
    # received (across all clients).  This — not the nominal duration — is
    # the denominator behind rps/rows_per_s: client ramp-up and overrun
    # otherwise skew every published rate.
    elapsed_s: float = 0.0
    error_statuses: dict = field(default_factory=dict)  # status -> count
    shed_requests: int = 0
    retry_after_hint_s: float = 0.0
    deadline_exceeded: int = 0          # structured 504s (not errors)
    degraded: int = 0                   # breaker-fallback 200s (not errors)
    rps: float = 0.0                    # successful requests per second
    rows_per_s: float = 0.0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    zipf_s: float | None = None         # Zipfian runs only, from here down
    zipf_universe: int = 0
    distinct_keys: int = 0
    cache_hits: int = 0                 # gateway counter deltas
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    cold_start_misses: int = 0          # first touch of each distinct key
    warm_hit_rate: float = 0.0          # hit rate net of cold starts

    def to_dict(self) -> dict:
        payload = asdict(self)
        # JSON object keys are strings; make that explicit rather than
        # relying on json.dump's silent int-key coercion.
        payload["error_statuses"] = {str(status): count for status, count
                                     in self.error_statuses.items()}
        return payload

    def format(self) -> str:
        shed = f", {self.shed_requests} shed (429)" if self.shed_requests \
            else ""
        extra = ""
        if self.deadline_exceeded:
            extra += f", {self.deadline_exceeded} deadline-exceeded (504)"
        if self.degraded:
            extra += f", {self.degraded} degraded"
        if self.zipf_s is not None:
            extra += (f"; zipf s={self.zipf_s:g} over {self.zipf_universe} "
                      f"keys ({self.distinct_keys} touched): cache "
                      f"{self.cache_hits} hits / {self.cache_misses} misses "
                      f"({self.cache_hit_rate:.1%}, warm "
                      f"{self.warm_hit_rate:.1%})")
        measured = self.elapsed_s if self.elapsed_s > 0 else self.duration_s
        return (f"{self.requests} requests ({self.rows} rows) in "
                f"{measured:.2f}s measured "
                f"(nominal {self.duration_s:g}s) from {self.clients} clients — "
                f"{self.rps:,.0f} req/s, {self.rows_per_s:,.0f} rows/s, "
                f"{self.errors} errors ({self.transport_errors} transport)"
                f"{shed}{extra}; latency mean {self.mean_ms:.2f}ms "
                f"p50 {self.p50_ms:.2f}ms p95 {self.p95_ms:.2f}ms "
                f"p99 {self.p99_ms:.2f}ms max {self.max_ms:.2f}ms")


def _measured_elapsed(windows: list[list[float | None]]) -> float:
    """Wall time from the earliest first-send to the latest last-response.

    ``windows`` holds one ``[first_sent, last_done]`` pair per client
    (``None`` entries mean that client never got a request off).  This is
    the honest rate denominator: the nominal ``--duration`` misses both
    client ramp-up (threads that start late) and overrun (in-flight
    requests completing after the deadline).
    """
    starts = [w[0] for w in windows if w[0] is not None]
    ends = [w[1] for w in windows if w[1] is not None]
    if not starts or not ends:
        return 0.0
    return max(max(ends) - min(starts), 0.0)


def _summarize(duration_s: float, clients: int, rows_per_request: int,
               latencies: list[float], transport_errors: int,
               error_statuses: dict, retry_after_hint_s: float,
               deadline_exceeded: int = 0, degraded: int = 0,
               elapsed_s: float | None = None) -> LoadSummary:
    samples = np.asarray(latencies, dtype=np.float64)
    requests = int(samples.size)
    # Rates divide by the *measured* elapsed time; the nominal duration is
    # only a fallback for callers that never measured (and is kept in the
    # summary untouched either way).
    denominator = elapsed_s if elapsed_s is not None else duration_s
    return LoadSummary(
        duration_s=duration_s,
        clients=clients,
        rows_per_request=rows_per_request,
        requests=requests,
        rows=requests * rows_per_request,
        errors=transport_errors + sum(error_statuses.values()),
        transport_errors=transport_errors,
        elapsed_s=elapsed_s if elapsed_s is not None else 0.0,
        error_statuses=dict(sorted(error_statuses.items())),
        shed_requests=error_statuses.get(429, 0),
        retry_after_hint_s=retry_after_hint_s,
        deadline_exceeded=deadline_exceeded,
        degraded=degraded,
        rps=requests / denominator if denominator > 0 else 0.0,
        rows_per_s=requests * rows_per_request / denominator
        if denominator > 0 else 0.0,
        mean_ms=float(samples.mean() * 1000.0) if requests else 0.0,
        p50_ms=latency_percentile(samples, 50) * 1000.0,
        p95_ms=latency_percentile(samples, 95) * 1000.0,
        p99_ms=latency_percentile(samples, 99) * 1000.0,
        max_ms=float(samples.max() * 1000.0) if requests else 0.0,
    )


def _candidate_generator(spec: dict, rows: int, rng: np.random.Generator):
    """Yield (numeric, sparse) payloads valid under the gateway's spec."""
    num_numeric = len(spec["numeric"])
    cardinalities = spec["sparse"]

    def generate():
        numeric = rng.standard_normal((rows, num_numeric))
        sparse = {name: rng.integers(0, cardinality, size=rows)
                  for name, cardinality in cardinalities.items()}
        return numeric, sparse

    return generate


def _zipf_sampler(zipf_s: float, zipf_universe: int):
    """Bounded Zipfian rank sampler: p(rank r) ∝ r^-s, r in [0, universe).

    numpy's ``rng.zipf`` draws from the unbounded distribution; a cache
    workload needs a *bounded* key universe, so sample by inverting the
    normalized cumulative mass instead.
    """
    if zipf_universe <= 0:
        raise ValueError(f"zipf_universe must be positive, got {zipf_universe}")
    ranks = np.arange(1, zipf_universe + 1, dtype=np.float64)
    probs = ranks ** -zipf_s
    cumulative = np.cumsum(probs / probs.sum())
    cumulative[-1] = 1.0                # guard float undershoot

    def sample(rng: np.random.Generator) -> int:
        return int(np.searchsorted(cumulative, rng.random(), side="right"))

    return sample


def _zipf_payload(spec: dict, rows: int, seed: int, key: int):
    """The deterministic candidate payload for one Zipfian key.

    Seeded by ``(seed, key)`` alone, so every client thread (and every
    repeat draw of the key) produces byte-identical features — exactly
    what a repeat query for the same items looks like to the gateway's
    result cache.
    """
    rng = np.random.default_rng((seed, key))
    return _candidate_generator(spec, rows, rng)()


def _gateway_cache_counts(url: str, ready_timeout_s: float = 30.0) -> dict:
    """The gateway's result-cache counters from ``GET /stats``."""
    probe = ServingClient(url)
    probe.wait_ready(timeout_s=ready_timeout_s)
    cache = probe.stats().get("cache", {})
    return {"hits": int(cache.get("hits", 0)),
            "misses": int(cache.get("misses", 0))}


def run_load(url: str, duration_s: float = 5.0, clients: int = 4,
             rows_per_request: int = 8, top_k: int = 5, seed: int = 0,
             ready_timeout_s: float = 30.0,
             deadline_ms: float | None = None,
             deadline_fraction: float = 0.0,
             zipf_s: float | None = None,
             zipf_universe: int = 512) -> LoadSummary:
    """Drive ``clients`` closed-loop rank threads against ``url``.

    Each thread waits for its previous response before sending the next
    request (closed loop), so concurrency equals ``clients``.  Socket
    failures count as ``transport_errors``; structured HTTP errors are
    tallied per status in ``error_statuses`` (a shed 429's ``Retry-After``
    is recorded, not slept on — a closed-loop generator that backed off
    would stop measuring the overload it is there to produce).  Latencies
    are recorded for successful requests only.

    When ``deadline_ms`` is set, each request independently carries that
    ``X-Deadline-Ms`` budget with probability ``deadline_fraction``;
    structured 504 ``deadline_exceeded`` answers and ``"degraded": true``
    fallback responses are counted separately from errors (see
    :class:`LoadSummary`).

    When ``zipf_s`` is set, requests draw a key from a bounded Zipfian
    distribution over ``zipf_universe`` keys and send that key's
    deterministic payload (shared across all clients), and the summary
    carries the gateway's result-cache hit/miss deltas for the run.
    """
    probe = ServingClient(url)
    probe.wait_ready(timeout_s=ready_timeout_s)
    spec = probe.models().get("spec")
    if spec is None:
        raise RuntimeError(f"gateway at {url} publishes no feature spec; "
                           "start it with spec= (or from a checkpoint dir)")
    sample_key = _zipf_sampler(zipf_s, zipf_universe) \
        if zipf_s is not None else None
    cache_before = _gateway_cache_counts(url, ready_timeout_s) \
        if zipf_s is not None else None

    latencies: list[list[float]] = [[] for _ in range(clients)]
    transport_errors = [0] * clients
    status_counts: list[dict] = [{} for _ in range(clients)]
    retry_hints = [0.0] * clients
    deadline_misses = [0] * clients
    degraded_counts = [0] * clients
    keys_touched: list[set] = [set() for _ in range(clients)]
    # Per-client [first_sent, last_done] timestamps; every attempt updates
    # last_done (success or error), so the measured window spans first
    # request out → last response (or failure) in.
    send_windows: list[list[float | None]] = [[None, None]
                                              for _ in range(clients)]
    started = threading.Event()
    deadline_holder = [0.0]

    def worker(index: int) -> None:
        client = ServingClient(url)
        rng = np.random.default_rng(seed + index)
        generate = _candidate_generator(spec, rows_per_request, rng)
        started.wait()
        while time.monotonic() < deadline_holder[0]:
            if sample_key is not None:
                key = sample_key(rng)
                keys_touched[index].add(key)
                numeric, sparse = _zipf_payload(spec, rows_per_request,
                                                seed, key)
            else:
                numeric, sparse = generate()
            budget = deadline_ms if deadline_ms is not None \
                and rng.random() < deadline_fraction else None
            t0 = time.monotonic()
            window = send_windows[index]
            if window[0] is None:
                window[0] = t0
            try:
                result = client.rank(numeric, sparse, top_k=top_k,
                                     deadline_ms=budget)
            except ServingError as error:
                if error.kind == "deadline_exceeded":
                    # The gateway honoring the budget we sent — a
                    # distinct outcome, not an error.
                    deadline_misses[index] += 1
                    continue
                counts = status_counts[index]
                counts[error.status] = counts.get(error.status, 0) + 1
                if error.retry_after_s is not None:
                    retry_hints[index] = max(retry_hints[index],
                                             error.retry_after_s)
                continue
            except OSError:
                transport_errors[index] += 1
                continue
            finally:
                window[1] = time.monotonic()
            if result.get("degraded"):
                degraded_counts[index] += 1
            latencies[index].append(time.monotonic() - t0)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    run_started = time.monotonic()
    deadline_holder[0] = run_started + duration_s
    started.set()
    for thread in threads:
        thread.join()
    merged = [sample for bucket in latencies for sample in bucket]
    merged_statuses: dict = {}
    for counts in status_counts:
        for status, count in counts.items():
            merged_statuses[status] = merged_statuses.get(status, 0) + count
    summary = _summarize(duration_s, clients, rows_per_request, merged,
                         sum(transport_errors), merged_statuses,
                         max(retry_hints),
                         deadline_exceeded=sum(deadline_misses),
                         degraded=sum(degraded_counts),
                         elapsed_s=_measured_elapsed(send_windows))
    if zipf_s is not None:
        cache_after = _gateway_cache_counts(url, ready_timeout_s)
        distinct = len(set().union(*keys_touched)) if clients else 0
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        lookups = hits + misses
        # Each distinct key's first request can never hit; the warm rate
        # judges only the lookups a hit was possible for.
        warm_lookups = max(lookups - distinct, 0)
        summary.zipf_s = zipf_s
        summary.zipf_universe = zipf_universe
        summary.distinct_keys = distinct
        summary.cache_hits = hits
        summary.cache_misses = misses
        summary.cache_hit_rate = hits / lookups if lookups else 0.0
        summary.cold_start_misses = distinct
        summary.warm_hit_rate = min(hits / warm_lookups, 1.0) \
            if warm_lookups else 0.0
    return summary


def run_sweep(url: str, client_counts: list[int], duration_s: float = 3.0,
              rows_per_request: int = 8, top_k: int = 5, seed: int = 0,
              ready_timeout_s: float = 30.0) -> list[LoadSummary]:
    """Connection-scaling sweep: one closed-loop run per client count.

    Each step reuses :func:`run_load` (fresh clients, fresh connections),
    so a step's summary is exactly what a standalone run at that
    concurrency would report.  This is the measurement behind the
    gateway's "sustains N concurrent keep-alive connections" acceptance
    gate.
    """
    return [run_load(url, duration_s=duration_s, clients=clients,
                     rows_per_request=rows_per_request, top_k=top_k,
                     seed=seed, ready_timeout_s=ready_timeout_s)
            for clients in client_counts]


def _gateway_shed_count(url: str, ready_timeout_s: float = 30.0) -> int:
    """The gateway's own shed counter from ``GET /stats``.

    Waits for readiness first: the before-run probe may race a gateway
    that is still booting (run_load does its own wait, but this read
    happens ahead of it).
    """
    probe = ServingClient(url)
    probe.wait_ready(timeout_s=ready_timeout_s)
    return int(probe.stats()["server"].get("shed_requests", 0))


def _check_overload(summary: LoadSummary, shed_before: int,
                    shed_after: int) -> list[str]:
    """The ``--overload`` acceptance conditions; returns failure reasons.

    Under deliberate overload the gateway must degrade *cleanly*: every
    request is either served or answered with a structured 429 — never a
    dropped connection, never a different error — and the gateway's own
    shed counter agrees exactly with what clients observed (this loadgen
    being the sole traffic source), so no shed goes unaccounted.
    """
    failures = []
    if summary.requests == 0:
        failures.append("no successful requests")
    if summary.transport_errors:
        failures.append(f"{summary.transport_errors} transport errors "
                        "(overload must shed, not drop connections)")
    unexpected = {status: count for status, count
                  in summary.error_statuses.items() if status != 429}
    if unexpected:
        failures.append(f"non-429 error responses: {unexpected}")
    if summary.shed_requests == 0:
        failures.append("no requests were shed — the run did not reach "
                        "the admission bound (raise --clients or lower "
                        "the gateway's --max-backlog-rows)")
    gateway_sheds = shed_after - shed_before
    if gateway_sheds != summary.shed_requests:
        failures.append(f"gateway shed counter moved by {gateway_sheds} "
                        f"but clients saw {summary.shed_requests} 429s")
    if summary.shed_requests and summary.retry_after_hint_s <= 0:
        failures.append("429 responses carried no Retry-After hint")
    return failures


# ----------------------------------------------------------------------
# Chaos mode
# ----------------------------------------------------------------------
def _chaos_schedule(control: ServingClient, error_rate: float):
    """The scripted failure sequence, as ``(run fraction, name, action)``.

    Latency injection rides along with the error injection so tight
    deadline budgets reliably expire in the scoring queue (without it, a
    lightly loaded gateway can answer inside even a ~10ms budget).
    """

    def tear_and_reload():
        control.faults(tear_checkpoint=True)
        # The reload must *survive* the torn bytes: quarantine the
        # checkpoint, keep the last good version serving.
        control.reload()

    return [
        (0.10, "inject_errors",
         lambda: control.faults(score_error_rate=error_rate,
                                latency_rate=0.2, latency_ms=40.0)),
        (0.35, "kill_worker", lambda: control.faults(kill_workers=1)),
        (0.55, "tear_checkpoint", tear_and_reload),
        (0.70, "heal", lambda: control.faults(reset=True)),
    ]


def _await_recovery(control: ServingClient, probe=None,
                    timeout_s: float = 10.0) -> tuple[bool, dict]:
    """Poll ``/stats`` until every breaker is closed and every scoring
    backlog has drained; returns ``(recovered, final stats)``.

    This is the "self-healing" half of the chaos contract: once the
    faults stop, the gateway must converge back to a clean steady state
    — no restart, no operator action.  ``probe`` (a zero-argument rank
    call, failures ignored) keeps light traffic flowing while we wait:
    a breaker leaves half-open only through scored probe requests, so a
    silent poll loop would watch an idle gateway sit in half-open
    forever and call it stuck.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        if probe is not None:
            try:
                probe()
            except (ServingError, OSError):
                pass                    # recovery is judged from /stats
        stats = control.stats()
        breakers_closed = all(snapshot.get("state") == "closed"
                              for snapshot in stats["breakers"].values())
        backlog_drained = all(entry.get("backlog_rows", 0) == 0
                              for entry in stats["scorers"].values())
        if breakers_closed and backlog_drained:
            return True, stats
        if time.monotonic() >= deadline:
            return False, stats
        time.sleep(0.2)


def _check_chaos(summary: LoadSummary, before: dict, after: dict,
                 recovered: bool) -> list[str]:
    """The ``--chaos`` acceptance conditions; returns failure reasons.

    Under injected faults the gateway must fail *structurally*: no
    dropped connections, every failure a structured status (500 for an
    injected scoring error, 429 for a shed, 504 for a deadline — the
    latter a distinct counter) or a degraded fallback response; the dead
    worker respawned; the torn checkpoint quarantined; every breaker
    back to closed once the faults stop.
    """
    failures = []
    if summary.requests == 0:
        failures.append("no successful requests")
    if summary.transport_errors:
        failures.append(f"{summary.transport_errors} transport errors "
                        "(faults must surface structurally, not as "
                        "dropped connections)")
    unexpected = {status: count for status, count
                  in summary.error_statuses.items()
                  if status not in (429, 500)}
    if unexpected:
        failures.append(f"unexpected error statuses: {unexpected} "
                        "(only 429 sheds and structured 500s are "
                        "legitimate under injected faults)")
    restarts_before = sum(entry.get("worker_restarts", 0)
                          for entry in before["scorers"].values())
    restarts_after = sum(entry.get("worker_restarts", 0)
                         for entry in after["scorers"].values())
    if restarts_after - restarts_before < 1:
        failures.append("worker kill did not move worker_restarts — the "
                        "supervisor never respawned the dead worker")
    opens_before = sum(snapshot.get("opens", 0)
                       for snapshot in before.get("breakers", {}).values())
    opens_after = sum(snapshot.get("opens", 0)
                      for snapshot in after.get("breakers", {}).values())
    if opens_after - opens_before < 1:
        failures.append("no breaker opened — start the gateway with a "
                        "breaker threshold below the injected error rate "
                        "(e.g. --breaker-threshold 0.05)")
    if summary.degraded < 1:
        failures.append("no degraded fallback responses were served "
                        "while the breaker was open")
    if not after.get("quarantined"):
        failures.append("torn checkpoint was not quarantined")
    if not recovered:
        open_breakers = {name: snapshot.get("state")
                         for name, snapshot in after["breakers"].items()
                         if snapshot.get("state") != "closed"}
        failures.append(f"gateway did not recover after the faults "
                        f"stopped (breakers: {open_breakers or 'closed'}, "
                        f"backlogs: "
                        f"{ {k: v.get('backlog_rows') for k, v in after['scorers'].items()} })")
    return failures


def run_chaos(url: str, duration_s: float = 10.0, clients: int = 32,
              rows_per_request: int = 8, top_k: int = 5, seed: int = 0,
              ready_timeout_s: float = 30.0, error_rate: float = 0.1,
              deadline_ms: float = 25.0, deadline_fraction: float = 0.25,
              recovery_timeout_s: float = 10.0) \
        -> tuple[LoadSummary, dict, list[str]]:
    """Closed-loop load under a scripted failure sequence.

    Returns ``(summary, detail payload, failure reasons)`` — an empty
    failure list means the gateway honored the fault-tolerance contract
    end to end.  Requires a gateway started with
    ``--enable-fault-injection`` (the orchestrator drives ``/faults``).
    """
    control = ServingClient(url)
    control.wait_ready(timeout_s=ready_timeout_s)
    stats_before = control.stats()
    if "faults" not in stats_before:
        raise RuntimeError(f"gateway at {url} has fault injection disabled; "
                           "start it with --enable-fault-injection")

    events: list[dict] = []
    stop = threading.Event()

    def orchestrate() -> None:
        run_started = time.monotonic()
        for fraction, name, action in _chaos_schedule(control, error_rate):
            delay = run_started + fraction * duration_s - time.monotonic()
            if stop.wait(max(delay, 0.0)):
                return
            event = {"at_s": round(time.monotonic() - run_started, 3),
                     "event": name}
            try:
                action()
            except (ServingError, OSError) as error:
                event["error"] = str(error)
            events.append(event)

    orchestrator = threading.Thread(target=orchestrate, daemon=True,
                                    name="chaos-orchestrator")
    orchestrator.start()
    try:
        summary = run_load(url, duration_s=duration_s, clients=clients,
                           rows_per_request=rows_per_request, top_k=top_k,
                           seed=seed, ready_timeout_s=ready_timeout_s,
                           deadline_ms=deadline_ms,
                           deadline_fraction=deadline_fraction)
    finally:
        stop.set()
        orchestrator.join()
    # Belt and braces: whatever the schedule reached, leave the gateway
    # fault-free before judging recovery.
    try:
        control.faults(reset=True)
    except (ServingError, OSError):
        pass
    spec = control.models().get("spec")
    generate = _candidate_generator(spec, rows_per_request,
                                    np.random.default_rng(seed + clients))

    def probe():
        numeric, sparse = generate()
        control.rank(numeric, sparse, top_k=top_k)

    recovered, stats_after = _await_recovery(
        control, probe=probe, timeout_s=recovery_timeout_s)
    detail = {
        "events": events,
        "recovered": recovered,
        "stats_before": {"scorers": stats_before["scorers"],
                         "breakers": stats_before["breakers"]},
        "stats_after": {"scorers": stats_after["scorers"],
                        "breakers": stats_after["breakers"],
                        "quarantined": stats_after.get("quarantined", {}),
                        "server": stats_after.get("server", {}),
                        "faults": stats_after.get("faults", {})},
    }
    failures = _check_chaos(summary, stats_before, stats_after, recovered)
    return summary, detail, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description="Closed-loop load generator for the serving gateway.")
    parser.add_argument("--url", required=True)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--sweep", default=None,
                        help="comma-separated client counts; runs one "
                             "closed-loop load per count (--duration each) "
                             "instead of a single --clients run")
    parser.add_argument("--overload", action="store_true",
                        help="overload-acceptance mode: expect 429 sheds, "
                             "fail on transport errors, non-429 statuses, "
                             "or a shed count the gateway's own /stats "
                             "counter does not confirm")
    parser.add_argument("--chaos", action="store_true",
                        help="fault-tolerance acceptance mode: drive the "
                             "gateway's /faults endpoint through injected "
                             "errors, a worker kill, and a torn checkpoint "
                             "while loading it; fail unless every failure "
                             "is structured, the worker respawns, the "
                             "checkpoint is quarantined, and the breaker "
                             "re-closes (requires a gateway started with "
                             "--enable-fault-injection)")
    parser.add_argument("--error-rate", type=float, default=0.1,
                        help="chaos mode: injected scoring error rate")
    parser.add_argument("--deadline-ms", type=float, default=25.0,
                        help="chaos mode: X-Deadline-Ms budget carried by "
                             "a fraction of requests")
    parser.add_argument("--deadline-fraction", type=float, default=0.25,
                        help="chaos mode: fraction of requests carrying "
                             "the deadline budget")
    parser.add_argument("--recovery-timeout", type=float, default=10.0,
                        help="chaos mode: seconds to wait for breakers to "
                             "re-close and backlogs to drain after faults "
                             "stop")
    parser.add_argument("--zipf", type=float, default=None, metavar="S",
                        help="Zipfian workload mode: draw each request's "
                             "key with p(rank r) ∝ r^-S from a bounded "
                             "universe and send that key's deterministic "
                             "payload, so the gateway's result cache sees "
                             "repeat traffic; the summary gains the "
                             "gateway's cache hit/miss deltas")
    parser.add_argument("--zipf-universe", type=int, default=512,
                        help="Zipfian mode: number of distinct keys")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="Zipfian mode: fail unless the run's warm "
                             "cache hit rate (cold-start misses excluded) "
                             "reaches this floor")
    parser.add_argument("--rows", type=int, default=8,
                        help="candidate rows per rank request")
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="write the JSON summary to this path")
    parser.add_argument("--allow-errors", action="store_true",
                        help="exit 0 even when some requests errored")
    args = parser.parse_args(argv)
    if sum(bool(flag) for flag in
           (args.overload, args.sweep, args.chaos,
            args.zipf is not None)) > 1:
        parser.error("--overload, --sweep, --chaos, and --zipf are "
                     "mutually exclusive")
    if args.min_hit_rate is not None and args.zipf is None:
        parser.error("--min-hit-rate requires --zipf")

    if args.chaos:
        summary, detail, failures = run_chaos(
            args.url, duration_s=args.duration, clients=args.clients,
            rows_per_request=args.rows, top_k=args.top_k, seed=args.seed,
            error_rate=args.error_rate, deadline_ms=args.deadline_ms,
            deadline_fraction=args.deadline_fraction,
            recovery_timeout_s=args.recovery_timeout)
        print(summary.format())
        for event in detail["events"]:
            note = f" ({event['error']})" if "error" in event else ""
            print(f"  chaos t+{event['at_s']:.1f}s: {event['event']}{note}")
        payload = {**summary.to_dict(), "chaos": detail}
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"summary written to {args.out}")
        for reason in failures:
            print(f"FAIL: {reason}")
        if not failures:
            print(f"chaos OK: {summary.requests} served "
                  f"({summary.degraded} degraded, "
                  f"{summary.deadline_exceeded} deadline-exceeded, "
                  f"{sum(summary.error_statuses.values())} structured "
                  f"errors), worker respawned, checkpoint quarantined, "
                  f"breaker re-closed")
        return 1 if failures else 0

    if args.sweep:
        try:
            counts = [int(part) for part in args.sweep.split(",") if part]
        except ValueError:
            parser.error(f"--sweep must be comma-separated integers, "
                         f"got {args.sweep!r}")
        summaries = run_sweep(args.url, counts, duration_s=args.duration,
                              rows_per_request=args.rows, top_k=args.top_k,
                              seed=args.seed)
        for summary in summaries:
            print(summary.format())
        payload = {"sweep": [summary.to_dict() for summary in summaries]}
    else:
        shed_before = _gateway_shed_count(args.url) if args.overload else 0
        summaries = [run_load(args.url, duration_s=args.duration,
                              clients=args.clients,
                              rows_per_request=args.rows,
                              top_k=args.top_k, seed=args.seed,
                              zipf_s=args.zipf,
                              zipf_universe=args.zipf_universe)]
        print(summaries[0].format())
        payload = summaries[0].to_dict()

    if args.overload:
        shed_after = _gateway_shed_count(args.url)
        payload["gateway_sheds"] = shed_after - shed_before

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"summary written to {args.out}")

    if args.overload:
        failures = _check_overload(summaries[0], shed_before, shed_after)
        for reason in failures:
            print(f"FAIL: {reason}")
        if not failures:
            print(f"overload OK: {summaries[0].shed_requests} sheds "
                  f"confirmed by the gateway, retry-after hint "
                  f"{summaries[0].retry_after_hint_s:g}s")
        return 1 if failures else 0

    if any(summary.requests == 0 for summary in summaries):
        print("FAIL: no successful requests")
        return 1
    errors = sum(summary.errors for summary in summaries)
    if errors and not args.allow_errors:
        print(f"FAIL: {errors} error responses")
        return 1
    if args.min_hit_rate is not None:
        summary = summaries[0]
        if summary.warm_hit_rate < args.min_hit_rate:
            print(f"FAIL: warm cache hit rate {summary.warm_hit_rate:.1%} "
                  f"below the --min-hit-rate floor "
                  f"{args.min_hit_rate:.1%} ({summary.cache_hits} hits / "
                  f"{summary.cache_misses} misses, "
                  f"{summary.cold_start_misses} cold starts)")
            return 1
        print(f"zipf OK: warm hit rate {summary.warm_hit_rate:.1%} ≥ "
              f"{args.min_hit_rate:.1%} floor "
              f"({summary.cache_hits} hits, {summary.cache_misses} misses, "
              f"{summary.cold_start_misses} cold starts over "
              f"{summary.distinct_keys} keys)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
