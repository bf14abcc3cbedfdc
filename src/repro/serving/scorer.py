"""Micro-batched scoring: the latency/throughput workhorse of the serving layer.

Single-request scoring on the compiled plan is memory-bound — every request
re-streams the full weight matrices.  Micro-batching amortizes that stream
across concurrent requests: score requests land on a shared queue and a
worker drains whatever is queued in batches of up to ``max_batch_rows``
rows (measured on the paper tower: ≈54 µs/row at batch 1 vs ≈10 µs/row at
batch 32 in float64 — the batching itself is a >3x per-row win before
dtype even enters).

:class:`ScorerPool` runs N workers, each owning its *own* score closure
built by a caller-supplied factory (compiled plans are cheap; see
:meth:`repro.models.base.RankingModel.make_scorer`).  Each worker also
serializes access to its closure, so a non-thread-safe score function
(a compiled plan's scratch buffers) is safe behind
``ScorerPool(lambda: fn, num_workers=1)``.  Collection is pipelined
against scoring: a collector token lets exactly one worker assemble a
micro-batch at a time (racing collectors would shred the queue into
fragment batches and give up the amortization that justifies
micro-batching), while the workers *holding finished batches* score
concurrently.  One worker's collection therefore overlaps the others'
scoring even on one core, and on multi-core BLAS the scoring itself
parallelizes too.

The micro-batch cap is **adaptive**: recomputed at collect time as
``clamp(ceil(backlog_rows / workers), min_batch_rows, max_batch_rows)``,
so an idle pool scores immediately while a backed-up pool splits its
backlog into per-worker shares — no hand-tuned per-deployment
``max_batch_rows`` required (see :meth:`ScorerPool._collect_cap` for why
the divisor is the whole pool).

A score function that returns non-finite scores fails the requests
whose rows carry them with :class:`NonFiniteScores`: a NaN is never an
answer, and JSON has no spelling for it.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..data.dataset import Batch
from .faults import WorkerKilled

__all__ = ["DeadlineExceeded", "NonFiniteScores", "PoolOverloaded",
           "ScorerPool", "ScorerStats", "concat_batches", "latency_percentile"]


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before its rows reached a model.

    Raised into the caller's future when a collector drops an expired
    queue entry (or immediately by ``submit`` when the deadline is
    already past) — scoring rows nobody is waiting for burns pool
    capacity the live requests behind them need.  The gateway maps this
    to a structured 504; like :class:`PoolOverloaded` it is not evidence
    the model is unhealthy, so the circuit breaker ignores it.
    """

    def __init__(self, late_by_s: float = 0.0):
        super().__init__(
            f"request deadline exceeded ({late_by_s * 1000.0:.1f} ms late)")
        self.late_by_s = late_by_s


class PoolOverloaded(RuntimeError):
    """Submission refused: the pool's row backlog is at its admission bound.

    Backpressure, not failure — the caller should shed the request (the
    gateway answers a structured 429) and retry after ``retry_after_s``,
    which estimates how long the pool needs to drain its current backlog
    at its recently observed drain rate.
    """

    def __init__(self, name: str, backlog_rows: int, max_backlog_rows: int,
                 retry_after_s: float):
        super().__init__(
            f"scorer pool {name!r} backlog of {backlog_rows} rows is at its "
            f"{max_backlog_rows}-row admission bound")
        self.name = name
        self.backlog_rows = backlog_rows
        self.max_backlog_rows = max_backlog_rows
        self.retry_after_s = retry_after_s


class NonFiniteScores(RuntimeError):
    """The model returned NaN or ±inf for some of this request's rows.

    Raised into the future of each request whose own slice of a scored
    micro-batch is not all finite; co-batched requests with finite
    scores are still answered.  Unlike the data errors a bad request
    causes, this says the model itself is unhealthy, so the gateway
    answers a structured 500 and the circuit breaker records a failure.
    """

    def __init__(self, bad_rows: int, rows: int):
        super().__init__(f"model returned non-finite scores for {bad_rows} "
                         f"of {rows} rows")


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate request batches into one scoring batch (row order kept)."""
    if len(batches) == 1:
        return batches[0]
    return Batch(
        numeric=np.concatenate([b.numeric for b in batches]),
        sparse={key: np.concatenate([b.sparse[key] for b in batches])
                for key in batches[0].sparse},
        labels=np.concatenate([b.labels for b in batches]),
        session_ids=np.concatenate([b.session_ids for b in batches]),
    )


def latency_percentile(samples: np.ndarray, q: float) -> float:
    """Percentile of latency ``samples`` with pinned small-window semantics.

    Uses the nearest-rank-above method, so the reported value is always a
    latency that was actually observed — with one sample every percentile
    is that sample, and p95 of a tiny window equals its max instead of an
    interpolated value below anything measured.  An **empty window is
    defined as 0.0** (no traffic yet / stats just rotated) rather than
    letting ``np.percentile``'s empty-array error leak to callers.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return 0.0
    return float(np.percentile(samples, q, method="higher"))


@dataclass
class ScorerStats:
    """Aggregate serving statistics since scorer start.

    Latency fields summarize a sliding window of the most recent request
    latencies (``latency_samples`` of them, capped per worker); when the
    window is empty they are all exactly 0.0 — see
    :func:`latency_percentile` for the small-sample semantics.
    """

    requests: int = 0                   # score requests completed
    rows: int = 0                       # candidate rows scored
    batches: int = 0                    # model invocations
    busy_seconds: float = 0.0           # time inside the score function
    latency_samples: int = 0            # samples behind the latency fields
    mean_latency_ms: float = 0.0        # request submit -> result
    p95_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    workers: int = 1                    # workers aggregated into this view
    # Admission-control view (pool-level; per-worker snapshots leave the
    # defaults): the live queue state behind the overload gauges.
    backlog_rows: int = 0               # rows enqueued but not yet collected
    max_backlog_rows: int | None = None  # admission bound (None = unbounded)
    shed_requests: int = 0              # submissions refused at the bound
    shed_rows: int = 0                  # rows those submissions carried
    drain_rate_rows_per_s: float = 0.0  # recent wall-clock drain rate
    # Fault-tolerance view (pool-level, like the admission counters).
    worker_restarts: int = 0            # dead workers respawned by the supervisor
    averted_respawns: int = 0           # respawns abandoned because close() won
    expired_requests: int = 0           # requests dropped at their deadline
    expired_rows: int = 0               # rows those requests carried
    lost_resolutions: int = 0           # futures already cancelled/raced at resolve
    # Multi-process view (zero when scoring stays in-process): the parent
    # aggregates its scorer processes' counters into these so the pinned
    # /stats schema stays truthful about where the work actually ran.
    processes: int = 0                  # scorer processes behind this pool
    process_restarts: int = 0           # dead scorer processes respawned
    process_busy_seconds: float = 0.0   # child-measured time inside the plan

    @property
    def mean_batch_rows(self) -> float:
        """Average rows per model invocation (micro-batching effectiveness)."""
        return self.rows / self.batches if self.batches else 0.0

    @property
    def throughput_rows_per_s(self) -> float:
        """Rows scored per second of model time."""
        return self.rows / self.busy_seconds if self.busy_seconds > 0 else 0.0

    @staticmethod
    def from_window(requests: int, rows: int, batches: int,
                    busy_seconds: float, latencies: np.ndarray,
                    workers: int = 1) -> "ScorerStats":
        """Build stats from raw counters + a latency window (may be empty)."""
        latencies = np.asarray(latencies, dtype=np.float64)
        stats = ScorerStats(requests=requests, rows=rows, batches=batches,
                            busy_seconds=busy_seconds,
                            latency_samples=int(latencies.size),
                            workers=workers)
        if latencies.size:
            stats.mean_latency_ms = float(latencies.mean() * 1000.0)
            stats.p95_latency_ms = latency_percentile(latencies, 95) * 1000.0
            stats.max_latency_ms = float(latencies.max() * 1000.0)
        return stats


class _Request:
    __slots__ = ("batch", "future", "enqueued_at", "deadline")

    def __init__(self, batch: Batch, deadline: float | None = None):
        self.batch = batch
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        self.deadline = deadline        # absolute time.monotonic(), or None


_SHUTDOWN = object()
_LATENCY_WINDOW = 4096                  # latency samples kept per worker
_DRAIN_WINDOW_S = 5.0                   # window behind drain_rate_rows_per_s
_SUPERVISE_INTERVAL_S = 0.25            # dead-worker sweep cadence


def _resolve(future: Future, result=None, error=None) -> bool:
    """Complete a future; False when it was already cancelled or resolved.

    The False case is a *lost response*: someone raced us (cancelled the
    future, or a dying worker's cleanup already failed it).  Callers on
    the normal resolution path count it via
    :meth:`ScorerPool._note_lost_resolution` so the loss shows up on
    ``/stats`` instead of vanishing into a bare ``pass``.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except Exception:
        return False                    # cancelled/raced future
    return True


class _Worker:
    """One scoring worker: a thread + its own score closure and counters.

    The counters are written only by the worker thread; the lock orders
    those writes against concurrent :meth:`snapshot` readers.
    """

    def __init__(self, pool: "ScorerPool", index: int, score_fn):
        self.index = index
        self._pool = pool
        self._score_fn = score_fn
        self._lock = threading.Lock()
        self._requests = 0
        self._rows = 0
        self._batches = 0
        self._busy_seconds = 0.0
        self._latencies: list[float] = []
        self.thread = threading.Thread(
            target=self._loop, daemon=True,
            name=f"{type(pool).__name__}-{pool.name}-{index}")

    # -- stats ----------------------------------------------------------
    def snapshot(self) -> ScorerStats:
        with self._lock:
            return ScorerStats.from_window(
                self._requests, self._rows, self._batches,
                self._busy_seconds, np.asarray(self._latencies))

    def latency_window(self) -> np.ndarray:
        with self._lock:
            return np.asarray(self._latencies, dtype=np.float64)

    # -- loop -----------------------------------------------------------
    def _loop(self) -> None:
        while True:
            # The collector token serializes batch assembly (preserving
            # the single-worker coalescing semantics); scoring below runs
            # token-free, so it pipelines with the next worker's collect.
            # ``pending`` is owned by this frame so that if the thread
            # dies mid-iteration (a WorkerKilled injection, or a bug) the
            # except block can still fail every future the worker holds —
            # a dying worker must never take responses to the grave.  The
            # ``with`` block guarantees the collector token itself is
            # released on any exit path.
            pending: list[_Request] = []
            shutdown = False
            try:
                with self._pool._collect_lock:
                    item = self._pool._queue.get()
                    if item is _SHUTDOWN:
                        return
                    self._pool._note_dequeued(item)
                    shutdown = self._collect(item, pending)
                self._run_batch(pending)
            except BaseException as error:
                # Emergency cleanup for a dying worker.  _run_batch has
                # already resolved (and cleared) anything it handled, so
                # whatever is left here is genuinely unresolved; no
                # lost-resolution counting — failing these futures is the
                # *correct* outcome, not a race.
                for request in pending:
                    _resolve(request.future, error=error)
                raise               # thread dies; the supervisor respawns it
            if shutdown:
                return

    def _collect(self, first: _Request, pending: list[_Request]) -> bool:
        """Gather queued requests up to the row cap into ``pending``;
        True means shut down.

        The row cap is re-read from the pool every iteration: it tracks
        the live backlog, so a queue that backs up mid-collect widens
        this very batch instead of the next one.  The worker never waits
        for a straggler: with nothing queued it scores what it holds at
        once, even a lone request smaller than ``min_batch_rows``.

        Deadline enforcement lives here: an entry whose deadline already
        passed is dropped — its future fails with
        :class:`DeadlineExceeded` and it never joins the micro-batch, so
        no model time is spent on an answer nobody is waiting for.
        ``pending`` is caller-owned (not returned) so the worker loop can
        fail whatever was gathered if this thread dies mid-collect.
        """
        rows = self._admit(first, pending)
        while rows < self._pool._collect_cap(rows):
            try:
                item = self._pool._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return True
            self._pool._note_dequeued(item)
            rows += self._admit(item, pending)
        return False

    def _admit(self, item: _Request, pending: list[_Request]) -> int:
        """Append ``item`` to the micro-batch unless it already expired;
        returns the rows it contributed (0 for a dropped entry)."""
        if item.deadline is not None:
            late_by = time.monotonic() - item.deadline
            if late_by >= 0.0:
                self._pool._note_expired(item)
                if not _resolve(item.future, error=DeadlineExceeded(late_by)):
                    self._pool._note_lost_resolution()
                return 0
        pending.append(item)
        return len(item.batch)

    def _run_batch(self, pending: list[_Request]) -> None:
        """Score one micro-batch.  Must not raise — an escaping exception
        kills the worker thread — so *any* failure (merging, scoring, bad
        score shape, an injected fault) is routed to the waiting futures
        instead.  The one deliberate exception: :class:`WorkerKilled` is
        re-raised *after* every future is resolved, so fault injection
        can prove the supervisor's respawn path without ever losing a
        response.  Consumes ``pending`` (clears it) once every future is
        resolved, so the loop's emergency cleanup never double-fails.

        A request whose own rows scored NaN or ±inf fails with
        :class:`NonFiniteScores`; the rest of the batch is answered."""
        if not pending:
            return                  # every collected entry expired
        try:
            merged = concat_batches([request.batch for request in pending])
            started = time.monotonic()
            injector = self._pool._fault_injector
            if injector is not None:
                injector.before_score()
            scores = np.asarray(self._score_fn(merged))
            busy = time.monotonic() - started
            if scores.ndim == 0 or scores.shape[0] != len(merged):
                raise ValueError(
                    f"score_fn returned shape {scores.shape} for {len(merged)} rows")
            finite = np.isfinite(scores).reshape(len(merged), -1).all(axis=1)
        except BaseException as error:  # propagate to every waiting caller
            for request in pending:
                if not _resolve(request.future, error=error):
                    self._pool._note_lost_resolution()
            pending.clear()
            if isinstance(error, WorkerKilled):
                raise               # deliberate worker death (fault injection)
            return
        finished = time.monotonic()
        self._pool._note_drained(len(merged), finished)
        offset = 0
        for request in pending:
            count = len(request.batch)
            bad_rows = count - int(
                np.count_nonzero(finite[offset:offset + count]))
            if bad_rows:
                resolved = _resolve(request.future,
                                    error=NonFiniteScores(bad_rows, count))
            else:
                # Copy the slice: the compiled plan owns (and will
                # overwrite) the backing buffer on its next call.
                result = scores[offset:offset + count].copy()
                resolved = _resolve(request.future, result=result)
            if not resolved:
                self._pool._note_lost_resolution()
            offset += count
        with self._lock:
            self._requests += len(pending)
            self._rows += len(merged)
            self._batches += 1
            self._busy_seconds += busy
            self._latencies.extend(finished - r.enqueued_at for r in pending)
            if len(self._latencies) > _LATENCY_WINDOW:
                del self._latencies[:-_LATENCY_WINDOW]
        pending.clear()                 # fully handled: see the docstring


class ScorerPool:
    """N micro-batching workers around one shared request queue.

    Parameters
    ----------
    scorer_factory:
        Zero-argument callable returning a ``Batch -> (n,) scores``
        closure.  It is invoked once per worker *on the constructing
        thread* (so a failing compile raises here, not in a daemon
        thread), and each worker owns its closure exclusively — pass
        :meth:`repro.models.base.RankingModel.make_scorer` to score one
        model from several workers, each on an independent compiled plan.
    num_workers:
        Worker thread count.  While one worker (the collector) assembles
        the next micro-batch, the others score the batches they already
        hold — so collection pipelines with scoring, and on multi-core
        BLAS the scoring itself parallelizes.
    max_batch_rows:
        Upper clamp of the micro-batch cap, which is recomputed at
        collect time as ``clamp(ceil(backlog_rows / workers),
        min_batch_rows, max_batch_rows)`` — an idle pool scores small
        batches immediately (latency), a backed-up pool splits its
        backlog into per-worker shares (throughput), and no
        per-deployment ``max_batch_rows`` tuning is needed.
    min_batch_rows:
        Lower clamp on the cap: while requests are queued, a worker keeps
        taking them until it holds this many rows.  With nothing queued
        it scores what it holds at once.
    max_backlog_rows:
        Admission bound: with this many rows already enqueued, further
        submissions raise :class:`PoolOverloaded` instead of queueing —
        an unbounded backlog is how a traffic burst turns into an
        unbounded p99.  ``None`` (the default) keeps the pre-admission
        unbounded behavior for library callers; the gateway always
        serves with a bound.
    fault_injector:
        Optional :class:`~repro.serving.faults.FaultInjector` whose
        ``before_score`` hook runs ahead of every model invocation —
        the chaos-testing seam.  ``None`` (the default) costs one
        attribute read per batch.

    Every pool runs a **supervisor**: a daemon thread that sweeps for
    dead worker threads every ~250 ms and respawns them with a *fresh*
    closure from ``scorer_factory`` (a worker that died mid-score may
    have left its compiled plan's scratch buffers in an undefined
    state).  A respawn is counted in ``stats().worker_restarts``, and a
    dead worker's lifetime counters are folded into the pool totals so
    ``/stats`` counters stay monotonic across restarts.

    ``submit`` returns a :class:`~concurrent.futures.Future`; ``score`` is
    the blocking convenience wrapper.  Use as a context manager (or call
    :meth:`close`) to stop the workers.
    """

    def __init__(self, scorer_factory, num_workers: int = 4,
                 max_batch_rows: int = 256,
                 name: str = "pool", min_batch_rows: int = 8,
                 max_backlog_rows: int | None = None,
                 fault_injector=None):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if max_batch_rows <= 0:
            raise ValueError("max_batch_rows must be positive")
        if min_batch_rows <= 0:
            raise ValueError("min_batch_rows must be positive")
        if max_backlog_rows is not None and max_backlog_rows <= 0:
            raise ValueError("max_backlog_rows must be positive (or None)")
        self.name = name
        self._max_batch_rows = int(max_batch_rows)
        self._min_batch_rows = min(int(min_batch_rows), self._max_batch_rows)
        self._max_backlog_rows = (int(max_backlog_rows)
                                  if max_backlog_rows is not None else None)
        # Live backlog (rows sitting in the queue) behind the adaptive cap
        # and the admission bound; shed counters and the drain-rate window
        # share the same lock.
        self._state_lock = threading.Lock()
        self._backlog_rows = 0
        self._shed_requests = 0
        self._shed_rows = 0
        self._drained: collections.deque[tuple[float, int]] = collections.deque()
        # Fault-tolerance counters (under _state_lock); the retired
        # totals accumulate counters from workers the supervisor
        # replaced, keeping /stats monotonic across restarts.
        self._worker_restarts = 0
        self._averted_respawns = 0
        self._expired_requests = 0
        self._expired_rows = 0
        self._lost_resolutions = 0
        self._retired = ScorerStats(workers=0)
        self._queue: queue.Queue = queue.Queue()
        # Collector token: at most one worker assembles a micro-batch at
        # a time (see the worker loop).
        self._collect_lock = threading.Lock()
        # Serializes submit against close: without it a submit could pass
        # the closed check, lose the CPU, and enqueue after the workers
        # exited — leaving its future forever unresolved.
        self._submit_lock = threading.Lock()
        self._closed = False
        self._fault_injector = fault_injector
        self._scorer_factory = scorer_factory
        self._workers = [_Worker(self, index, scorer_factory())
                         for index in range(num_workers)]
        for worker in self._workers:
            worker.thread.start()
        # Supervisor: respawns dead workers (see the class docstring).
        self._supervisor_stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True,
            name=f"{type(self).__name__}-{name}-supervisor")
        self._supervisor.start()

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` began; submissions will be refused."""
        return self._closed

    @property
    def max_backlog_rows(self) -> int | None:
        """Admission bound in rows (``None`` = unbounded)."""
        return self._max_backlog_rows

    @property
    def backlog_rows(self) -> int:
        """Rows enqueued but not yet collected into a micro-batch.

        Lock-free read of one int: this is the admission gate's hot path,
        read by the gateway *before* any JSON parsing cost is spent."""
        return self._backlog_rows

    @property
    def shed_requests(self) -> int:
        """Submissions refused at the admission bound since start."""
        return self._shed_requests

    @property
    def shed_rows(self) -> int:
        """Rows carried by refused submissions since start."""
        return self._shed_rows

    @property
    def worker_restarts(self) -> int:
        """Dead workers respawned by the supervisor since start."""
        return self._worker_restarts

    @property
    def averted_respawns(self) -> int:
        """Respawns abandoned because close() won the race (see
        :meth:`_respawn_dead_workers`); each one is a leaked-thread
        near-miss the lock converted into a clean no-op."""
        return self._averted_respawns

    # ------------------------------------------------------------------
    # Worker supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Supervisor loop: sweep for dead workers until close()."""
        while not self._supervisor_stop.wait(_SUPERVISE_INTERVAL_S):
            self._respawn_dead_workers()

    def _respawn_dead_workers(self) -> None:
        """Replace every dead worker thread with a freshly built one.

        The supervisor thread is the only mutator of ``_workers`` after
        construction, so this needs no lock against itself; concurrent
        ``stats()`` readers see either the dying worker or its
        replacement, both of which snapshot safely.  A failing
        ``scorer_factory`` (e.g. the model was hot-swapped away
        mid-crash) leaves the slot dead and is retried on the next
        sweep rather than killing the supervisor.
        """
        for index, worker in enumerate(self._workers):
            if worker.thread.is_alive():
                continue
            if self._closed:
                return              # close() owns worker lifetime now
            try:
                replacement = _Worker(self, index, self._scorer_factory())
            except Exception:
                continue            # factory failed; retry next sweep
            # Fold the dead worker's lifetime counters into the retired
            # totals before dropping our reference to it.
            final = worker.snapshot()
            with self._state_lock:
                # Re-check closed under the same lock close() takes when it
                # flips the flag: the factory call above can be slow (it
                # compiles a scoring plan), and a close() landing between
                # the top-of-loop check and thread.start() would enumerate
                # _workers without the replacement — a worker thread nobody
                # ever sentinels or joins.  Holding _state_lock across
                # publish + start makes check→start atomic against close.
                if self._closed:
                    self._averted_respawns += 1
                    return
                self._retired.requests += final.requests
                self._retired.rows += final.rows
                self._retired.batches += final.batches
                self._retired.busy_seconds += final.busy_seconds
                self._worker_restarts += 1
                self._workers[index] = replacement
                replacement.thread.start()

    def _note_expired(self, request: _Request) -> None:
        with self._state_lock:
            self._expired_requests += 1
            self._expired_rows += len(request.batch)

    def _note_lost_resolution(self) -> None:
        with self._state_lock:
            self._lost_resolutions += 1

    # ------------------------------------------------------------------
    # Drain rate (behind Retry-After)
    # ------------------------------------------------------------------
    def _note_drained(self, rows: int, finished: float) -> None:
        with self._state_lock:
            self._drained.append((finished, rows))
            cutoff = finished - _DRAIN_WINDOW_S
            while self._drained and self._drained[0][0] < cutoff:
                self._drained.popleft()

    def drain_rate_rows_per_s(self) -> float:
        """Rows scored per wall-clock second over the recent window.

        Unlike :attr:`ScorerStats.throughput_rows_per_s` (rows per second
        of *model* time since start), this is the pool's current
        end-to-end drain speed — the number a shed client's ``Retry-After``
        must be derived from.  0.0 when nothing drained recently.
        """
        now = time.monotonic()
        with self._state_lock:
            cutoff = now - _DRAIN_WINDOW_S
            while self._drained and self._drained[0][0] < cutoff:
                self._drained.popleft()
            if not self._drained:
                return 0.0
            rows = sum(drained for _, drained in self._drained)
            span = now - self._drained[0][0]
        return rows / max(span, 1e-3)

    def retry_after_s(self) -> float:
        """Seconds a shed caller should wait before retrying.

        Time to drain the current backlog at the recent drain rate,
        clamped to [0.5, 30]: never tell a client "now" while the queue
        is full, never push it out further than a load balancer's
        health-check horizon.  With no recent drains (a pool that just
        seized up) the floor applies.
        """
        rate = self.drain_rate_rows_per_s()
        backlog = self._backlog_rows
        if rate <= 0.0:
            return 1.0
        return min(max(backlog / rate, 0.5), 30.0)

    # ------------------------------------------------------------------
    # Adaptive collect cap
    # ------------------------------------------------------------------
    def _note_dequeued(self, request: _Request) -> None:
        with self._state_lock:
            self._backlog_rows -= len(request.batch)

    def _collect_cap(self, held_rows: int) -> int:
        """Row cap for the micro-batch being assembled right now.

        Split the outstanding work (rows already held + rows still
        queued) into per-worker shares — ``cap = clamp(ceil(backlog /
        workers), min_batch_rows, max_batch_rows)``.

        The divisor is the whole pool, not just the workers idle this
        instant: a busy worker rejoins the queue within one batch, so on
        the horizon of the batch being assembled every worker is an idle
        worker.  Dividing by only the currently-idle count hands the last
        free worker the entire backlog (cap = backlog/1) and serializes
        exactly the load a pool should spread; per-pool-share batches
        self-balance instead — early finishers come back for another
        share, so temporal skew in arrivals evens out (measured ≈25%
        faster than idle-count division on the cap-policy bench).

        With no backlog the cap collapses to ``min_batch_rows``; ``_collect``
        stops at an empty queue anyway, so a lone request below
        ``min_batch_rows`` is scored at once.
        """
        with self._state_lock:
            backlog = self._backlog_rows
        outstanding = held_rows + max(backlog, 0)
        cap = -(-outstanding // len(self._workers))     # ceil division
        return max(self._min_batch_rows, min(cap, self._max_batch_rows))

    def current_batch_cap(self) -> int:
        """The cap a collect starting now would use (introspection)."""
        return self._collect_cap(0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, batch: Batch, deadline: float | None = None) -> Future:
        """Enqueue a batch for scoring; resolves to its (n,) score array.

        With ``max_backlog_rows`` set, a submission that would push the
        backlog past the bound raises :class:`PoolOverloaded` instead of
        queueing (and is counted in :attr:`shed_requests`) — the queue
        stays bounded, so queueing delay does too.

        ``deadline`` is an absolute :func:`time.monotonic` instant: a
        submission whose deadline already passed raises
        :class:`DeadlineExceeded` immediately, and a queued request whose
        deadline passes before a collector reaches it has its future
        failed with :class:`DeadlineExceeded` instead of being scored.
        """
        rows = len(batch)
        with self._submit_lock:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if deadline is not None:
                late_by = time.monotonic() - deadline
                if late_by >= 0.0:
                    with self._state_lock:
                        self._expired_requests += 1
                        self._expired_rows += rows
                    raise DeadlineExceeded(late_by)
            # Count the rows before they become visible to a collector,
            # so the backlog counter can never go negative.
            with self._state_lock:
                # An empty backlog always admits (even one request larger
                # than the bound — refusing it forever would deadlock the
                # caller, and an idle pool can absorb it immediately).
                if self._max_backlog_rows is not None and self._backlog_rows \
                        and self._backlog_rows + rows > self._max_backlog_rows:
                    self._shed_requests += 1
                    self._shed_rows += rows
                    backlog = self._backlog_rows
                    overloaded = True
                else:
                    self._backlog_rows += rows
                    overloaded = False
            if overloaded:
                raise PoolOverloaded(self.name, backlog,
                                     self._max_backlog_rows,
                                     self.retry_after_s())
            request = _Request(batch, deadline=deadline)
            self._queue.put(request)
        return request.future

    def score(self, batch: Batch, deadline: float | None = None) -> np.ndarray:
        """Blocking score: submit and wait for the result."""
        return self.submit(batch, deadline=deadline).result()

    def stats(self) -> ScorerStats:
        """Aggregate statistics across all workers.

        Counters are summed; the latency window is the union of the
        per-worker windows (percentiles are computed over the merged
        samples, so they reflect the whole pool's traffic).
        """
        per_worker = self.worker_stats()
        # Re-derive percentiles over the merged windows rather than
        # averaging per-worker percentiles (which would be meaningless).
        windows = [w.latency_window() for w in self._workers]
        merged = np.concatenate(windows) if windows else np.asarray([])
        with self._state_lock:
            retired = ScorerStats(**{
                field: getattr(self._retired, field)
                for field in ("requests", "rows", "batches", "busy_seconds")})
        stats = ScorerStats.from_window(
            requests=sum(s.requests for s in per_worker) + retired.requests,
            rows=sum(s.rows for s in per_worker) + retired.rows,
            batches=sum(s.batches for s in per_worker) + retired.batches,
            busy_seconds=(sum(s.busy_seconds for s in per_worker)
                          + retired.busy_seconds),
            latencies=merged, workers=len(self._workers))
        with self._state_lock:
            stats.backlog_rows = self._backlog_rows
            stats.shed_requests = self._shed_requests
            stats.shed_rows = self._shed_rows
            stats.worker_restarts = self._worker_restarts
            stats.averted_respawns = self._averted_respawns
            stats.expired_requests = self._expired_requests
            stats.expired_rows = self._expired_rows
            stats.lost_resolutions = self._lost_resolutions
        stats.max_backlog_rows = self._max_backlog_rows
        stats.drain_rate_rows_per_s = self.drain_rate_rows_per_s()
        return stats

    def worker_stats(self) -> list[ScorerStats]:
        """Per-worker statistics snapshots (index-aligned with workers)."""
        return [worker.snapshot() for worker in self._workers]

    def close(self) -> None:
        """Stop the workers; pending requests are completed first.

        Requests always precede the shutdown sentinels in the FIFO queue
        (``submit`` and ``close`` share a lock), so every enqueued request
        is picked up — and therefore completed — by some worker before
        that worker can see a sentinel.

        The supervisor is stopped and joined *before* the sentinels go
        out, so the worker list is stable for the joins below and a
        mid-close respawn can never resurrect a worker the sentinels
        were not counted for.
        """
        with self._submit_lock:
            if self._closed:
                return
            # Flip the flag while also holding _state_lock: a respawner
            # that already passed its top-of-loop closed check is either
            # inside the locked publish+start region (its replacement is
            # in _workers before we proceed, so it gets a sentinel and a
            # join below) or will take the lock after us and avert.  No
            # interleaving can start a thread this method never joins.
            with self._state_lock:
                self._closed = True
        self._supervisor_stop.set()
        self._supervisor.join()
        with self._submit_lock:
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        for worker in self._workers:
            worker.thread.join()
        # Defensive: the FIFO argument above makes leftovers impossible
        # while every worker lives — but a worker that died *after* the
        # supervisor stopped leaves its share of the queue unconsumed,
        # and an unresolved future would hang its caller forever.  Fail
        # whatever remains loudly rather than silently.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                _resolve(item.future,
                         error=RuntimeError("scorer closed before request ran"))

    def __enter__(self) -> "ScorerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
