"""Connection transport for the serving gateway.

The transport layer of the three-layer gateway split owns sockets and
nothing else: bytes in, bytes out, connection lifecycle.  Requests are
framed by :mod:`repro.serving.protocol` and answered by a
:class:`~repro.serving.handlers.GatewayDispatcher`.

:class:`SelectorTransport` is one event-loop thread that multiplexes
every connection through stdlib :mod:`selectors` (non-blocking
accept/read/write, per-connection parser state machines, keep-alive and
idle-timeout reaping).  A request that never waits on a scorer — a
health check, or a ``/rank`` body the dispatcher's memo answers — is
answered on the loop thread, its bytes going straight into the
connection's output buffer.  Every other request is handed to a small
dispatch pool (whose threads block on the
:class:`~repro.serving.ScorerPool` futures — scoring stays on the scorer
workers) and its response comes back through a completion queue that
wakes the loop.  A slow client therefore costs one buffer, never a
thread: the loop trickles its bytes out as the socket drains, which is
what lets the gateway hold hundreds of concurrent sockets.
:class:`ShardedTransport` runs several such loops on one port.

:class:`GatewayCounters` is the connection-counter block the transport
maintains and ``GET /stats`` reports.
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .handlers import GatewayDispatcher
from .protocol import (MAX_BODY_BYTES, MAX_HEADER_BYTES, ProtocolError,
                       Request, RequestParser, encode_body, encode_error,
                       encode_head)

__all__ = ["GatewayCounters", "SelectorTransport", "ShardedTransport",
           "create_transport"]

_RECV_CHUNK = 65536
# Write backpressure: once a connection's outbound buffer passes this,
# stop reading it until the buffer drains.  Without the pause, a client
# that pipelines requests but never reads responses grows the buffer
# without bound — and its own reads would keep resetting the idle timer.
_OUT_HIGH_WATER = 1 << 20
DEFAULT_IDLE_TIMEOUT_S = 30.0


class GatewayCounters:
    """Connection-level counters shared by the transport and ``/stats``.

    ``open`` is the number of currently connected sockets, ``accepted``
    the total ever accepted, ``requests`` the responses served,
    ``keepalive_reuses`` how many requests arrived on an already-used
    connection (i.e. how much work keep-alive saved), and ``in_flight``
    how many requests are inside a handler or queued for a dispatch
    thread right now: a load gauge for ``/stats`` and ``/metrics``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.open = 0
        self.accepted = 0
        self.requests = 0
        self.keepalive_reuses = 0
        self.in_flight = 0

    def connection_opened(self) -> None:
        with self._lock:
            self.open += 1
            self.accepted += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.open -= 1

    def dispatch_started(self) -> None:
        with self._lock:
            self.in_flight += 1

    def dispatch_finished(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def request_served(self, reused: bool) -> None:
        with self._lock:
            self.requests += 1
            if reused:
                self.keepalive_reuses += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"open": self.open, "accepted": self.accepted,
                    "requests": self.requests,
                    "keepalive_reuses": self.keepalive_reuses,
                    "in_flight": self.in_flight}


# ----------------------------------------------------------------------
# Selector-based event loop transport
# ----------------------------------------------------------------------
class _Connection:
    """Per-socket state machine for the selector loop.

    Owned by the event-loop thread; dispatch threads only ever read the
    :class:`Request` they were handed and push results onto the
    completion queue, so no per-connection locking is needed.
    """

    __slots__ = ("sock", "parser", "out", "pending", "in_flight",
                 "requests_dispatched", "last_activity", "close_after_write",
                 "read_closed", "registered", "alive")

    def __init__(self, sock: socket.socket, max_header_bytes: int,
                 max_body_bytes: int):
        self.sock = sock
        self.parser = RequestParser(max_header_bytes=max_header_bytes,
                                    max_body_bytes=max_body_bytes)
        self.out = bytearray()
        # Parsed-but-not-dispatched items, strictly in arrival order.  A
        # trailing ProtocolError rides the same queue so its error
        # response cannot jump ahead of responses the client is owed.
        self.pending: deque[Request | ProtocolError] = deque()
        self.in_flight = False              # one pooled dispatch at a time:
        self.requests_dispatched = 0        # responses stay in pipeline order
        self.last_activity = time.monotonic()
        self.close_after_write = False
        self.read_closed = False            # stream desynced: stop reading
        self.registered = True              # currently in the selector
        self.alive = True


class SelectorTransport:
    """Non-blocking event-loop front-end on stdlib :mod:`selectors`.

    The loop thread answers a request itself when the dispatcher says it
    never waits on a scorer (:meth:`GatewayDispatcher.answers_inline`:
    ``GET /healthz``, or a ``/rank`` body its memo replays), with the
    same one :meth:`GatewayDispatcher.dispatch` call a dispatch thread
    makes and no hand-off.  It never decodes, validates, classifies or
    scores: everything else, ``/stats`` and ``/metrics`` included, goes
    to the dispatch pool, and a connection's later requests wait behind
    a pooled one, so responses keep arrival order across both paths.

    Parameters
    ----------
    dispatcher:
        The :class:`GatewayDispatcher` answering completed requests.
    idle_timeout_s:
        A connection with no byte activity for this long is reaped: a
        quiet keep-alive connection is closed silently, a mid-request
        stall (slow-loris) is answered with a structured 408 first.
    max_body_bytes / max_header_bytes:
        Framing limits; violations answer structurally (413/431) and
        close, since the stream can no longer be trusted.
    dispatch_workers:
        Threads for requests that may wait on a scorer (they block on
        its futures).  This caps in-flight *handler* concurrency, not
        connections — idle keep-alive sockets cost nothing.  Health
        checks and memo answers (see
        :meth:`GatewayDispatcher.answers_inline`) never take one: the
        loop answers them itself, so they neither queue behind scoring
        nor pay the hand-off to a thread and back.
    """

    def __init__(self, host: str, port: int, dispatcher: GatewayDispatcher,
                 counters: GatewayCounters | None = None,
                 idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 dispatch_workers: int = 8,
                 listener: socket.socket | None = None,
                 reuse_port: bool = False):
        if idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if dispatch_workers <= 0:
            raise ValueError("dispatch_workers must be positive")
        self.dispatcher = dispatcher
        self.counters = counters if counters is not None else GatewayCounters()
        self.idle_timeout_s = idle_timeout_s
        self._max_body_bytes = max_body_bytes
        self._max_header_bytes = max_header_bytes
        if listener is not None:
            # Sharding: the caller owns socket creation (SO_REUSEPORT
            # siblings or dup()'d fds of one acceptor) and each shard
            # loop drives one pre-bound listener.
            self._listener = listener
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                self._listener.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_REUSEPORT, 1)
            self._listener.bind((host, port))
            self._listener.listen(1024)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        # Self-pipe: dispatch threads finishing a response must wake the
        # loop out of select() to get it written.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._completions: queue.Queue = queue.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="gateway-dispatch")
        self._connections: set[_Connection] = set()
        self._shutdown_requested = threading.Event()
        self._drain_requested = threading.Event()
        self._draining = False              # loop-thread view of the above
        self._loop_done = threading.Event()
        self._loop_done.set()               # not serving yet
        # select() returns since serve_forever began — the regression
        # gauge for the event-driven loop: with every connection's
        # handler in flight there is nothing to poll for, so the count
        # must stay near zero instead of ticking at a poll interval.
        self.loop_wakeups = 0

    @property
    def server_address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        # A shutdown() issued before the serve thread got here must win:
        # never clear the flag (serving is one-shot), never touch a
        # selector that server_close() may already have closed.
        if self._shutdown_requested.is_set():
            return
        self._loop_done.clear()
        sel = self._selector
        try:
            try:
                sel.register(self._listener, selectors.EVENT_READ, "accept")
                sel.register(self._wake_r, selectors.EVENT_READ, "wake")
            except (OSError, ValueError, KeyError):
                return                  # closed before serving began
            while not self._shutdown_requested.is_set():
                events = sel.select(self._select_timeout())
                self.loop_wakeups += 1
                if self._drain_requested.is_set() and not self._draining:
                    self._start_drain()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        connection = key.data
                        if connection.alive and mask & selectors.EVENT_READ:
                            self._on_readable(connection)
                        if connection.alive and mask & selectors.EVENT_WRITE:
                            self._on_writable(connection)
                self._apply_completions()
                self._reap_idle()
                if self._draining:
                    self._sweep_drained()
        finally:
            for connection in list(self._connections):
                self._close_connection(connection)
            for sock in (self._listener, self._wake_r):
                try:
                    sel.unregister(sock)
                except (OSError, ValueError, KeyError):
                    pass
            self._loop_done.set()

    def shutdown(self) -> None:
        """Ask the loop to exit and wait until it has.

        Immediate stop: in-flight responses are abandoned (their
        connections are closed in the loop's cleanup).  Restart paths
        want :meth:`drain` instead — this is the escape hatch behind its
        deadline.
        """
        self._shutdown_requested.set()
        self._wake()
        self._loop_done.wait()

    def begin_drain(self) -> None:
        """Non-blocking graceful stop: quit accepting, answer everything
        accepted (in flight *and* pipelined), force ``Connection: close``
        on each connection's final response, then let ``serve_forever``
        return on its own.

        Callable from any thread — in particular from a signal handler's
        helper while the serving thread is inside ``select()``; the loop
        applies the transition on its next wakeup.
        """
        self._drain_requested.set()
        self._wake()

    def drain(self, deadline_s: float) -> None:
        """Blocking drain with a bounded deadline.

        Waits for the loop to answer every accepted request; whatever
        cannot finish by ``deadline_s`` is cut off by a forced
        :meth:`shutdown` (which is a no-op when the drain completed in
        time).
        """
        self.begin_drain()
        self._loop_done.wait(timeout=max(deadline_s, 0.0))
        self.shutdown()

    def server_close(self) -> None:
        self._listener.close()
        # Let in-flight dispatch finish instead of cancelling it: the
        # previous wait=False/cancel_futures=True here reset accepted
        # requests on every restart.  Waiting is bounded — the scorer
        # pools are still alive at this point (ServingServer.close shuts
        # the service down *after* the transport) and pool workers always
        # resolve their futures, so no handler can block forever.
        self._executor.shutdown(wait=True)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _select_timeout(self) -> float | None:
        """Sleep until the next idle deadline could fire — or block.

        Only reapable connections (no handler in flight) bound the sleep
        — a long-scoring request must not spin the loop at its past-due
        deadline.  With nothing reapable the loop blocks in ``select()``
        indefinitely: every state change it must act on arrives as a
        selector event (readable/writable sockets, a fresh accept) or a
        self-pipe wake (completions, shutdown, drain), so a timed poll
        only burns wakeups (a 50 ms floor would wake a fully-loaded loop
        20x/s for nothing).
        """
        reapable = [c.last_activity for c in self._connections
                    if not c.in_flight]
        if not reapable:
            return None
        next_deadline = min(reapable) + self.idle_timeout_s
        return min(max(next_deadline - time.monotonic(), 0.01), 0.5)

    def _start_drain(self) -> None:
        """Loop-thread drain transition: stop accepting, keep answering.

        The listener closes immediately so the OS refuses new connections
        (a load balancer sees connection-refused and routes elsewhere)
        while every accepted connection keeps being served.
        ``_sweep_drained`` then retires connections as they go quiet and
        ends the loop once none remain.
        """
        self._draining = True
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _sweep_drained(self) -> None:
        """Close connections with nothing left to answer; exit when done.

        A connection survives the sweep while it has a handler in flight,
        queued pipelined requests, unflushed response bytes, or a request
        mid-arrival — everything the drain promised to answer.  Idle
        keep-alive connections (the common case: clients waiting to send
        their *next* request) are closed immediately rather than waiting
        out the idle timeout.
        """
        for connection in list(self._connections):
            if not connection.in_flight and not connection.pending \
                    and not connection.out \
                    and not connection.parser.mid_request:
                self._close_connection(connection)
        if not self._connections:
            self._shutdown_requested.set()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass                        # already pending / already closed

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return                  # listener closed under us
            sock.setblocking(False)
            # Small JSON responses on persistent connections stall ~5x
            # on delayed ACKs without NODELAY.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock, self._max_header_bytes,
                                     self._max_body_bytes)
            self._connections.add(connection)
            self.counters.connection_opened()
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def _on_readable(self, connection: _Connection) -> None:
        if connection.read_closed or connection.close_after_write:
            # Already answering a framing violation: the parser is dead
            # and further bytes must not mint duplicate error responses.
            return
        try:
            data = connection.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(connection)
            return
        if not data:                    # peer closed its end
            self._close_connection(connection)
            return
        connection.last_activity = time.monotonic()
        try:
            requests = connection.parser.feed(data)
        except ProtocolError as error:
            # The byte stream is desynced: stop reading, answer any
            # requests this feed still completed, then the error — all
            # through the ordered pending queue — and close.
            self.dispatcher.record_protocol_error()
            connection.pending.extend(error.completed)
            connection.pending.append(error)
            connection.read_closed = True
            self._update_interest(connection)
            self._pump_dispatch(connection)
            return
        connection.pending.extend(requests)
        self._pump_dispatch(connection)

    def _pump_dispatch(self, connection: _Connection) -> None:
        """Answer the connection's queued requests in arrival order.

        A request that never waits on a scorer
        (:meth:`GatewayDispatcher.answers_inline`) is answered right here
        on the loop thread: no dispatch-pool hand-off, completion queue or
        self-pipe wake-up.  The first request that may wait goes to the
        dispatch pool and the queue stops behind it until its completion
        comes back, so back-to-back requests in one segment can never
        interleave or reorder their responses.
        """
        while connection.pending and not connection.in_flight \
                and not connection.close_after_write:
            item = connection.pending.popleft()
            if isinstance(item, ProtocolError):
                # Terminal by construction (reads stopped when it was
                # queued): emit the structured error in turn, then close
                # once written.
                connection.out += encode_error(item.status, item.kind,
                                               str(item))
                connection.close_after_write = True
                break
            reused = connection.requests_dispatched > 0
            connection.requests_dispatched += 1
            if self.dispatcher.answers_inline(item.method, item.target,
                                              item.body):
                self.counters.dispatch_started()
                answer = self._answer(item, inline=True)
                if answer is not None:
                    self._deliver(connection, answer, reused)
                    continue
            connection.in_flight = True
            self.counters.dispatch_started()
            self._executor.submit(self._run_handler, connection, item, reused)
        if connection.out:
            # Opportunistic write: the socket is almost always writable
            # for a small response, so skip a select() round trip.
            self._on_writable(connection)

    def _answer(self, request: Request, inline: bool = False):
        """Dispatch one request and render its body; ends the in-flight
        count its caller started.

        Returns ``(status, body, content type, headers, force_close)``,
        or ``None`` from an inline call whose memo entry went stale (the
        request then goes to the pool).  Only the *body* is rendered
        here — the head waits for :meth:`_deliver` on the loop thread,
        which alone knows whether this response must carry
        ``Connection: close`` (drain mode closes each connection on its
        final response, but a pipelined request already queued behind
        this one must still be answered first).
        """
        force_close = not request.keep_alive
        try:
            # Raw target: the dispatcher owns path normalization.
            # received_at is the parser's off-the-wire stamp, so the
            # deadline budget counts queueing inside the gateway
            # (dispatch backlog, scorer queue) but not client-side send
            # time.
            answer = self.dispatcher.dispatch(
                request.method, request.target, request.body,
                headers=request.headers, received_at=request.received_at,
                inline=inline)
            if answer is None:
                return None
            status, payload, headers = answer
            body, content_type = encode_body(payload)
        except BaseException as error:  # encoding failed: still must answer
            status, headers = 500, {}
            body, content_type = encode_body(
                {"error": {"type": "internal",
                           "message": f"{type(error).__name__}: {error}"}})
            force_close = True
        finally:
            self.counters.dispatch_finished()
        return status, body, content_type, headers, force_close

    def _run_handler(self, connection: _Connection, request: Request,
                     reused: bool) -> None:
        """Dispatch-pool job: answer one request, enqueue it, wake the loop."""
        self._completions.put((connection, self._answer(request), reused))
        self._wake()

    def _apply_completions(self) -> None:
        while True:
            try:
                connection, answer, reused = self._completions.get_nowait()
            except queue.Empty:
                return
            if not connection.alive:
                continue                # client vanished while we scored
            connection.in_flight = False
            self._deliver(connection, answer, reused)
            self._pump_dispatch(connection)

    def _deliver(self, connection: _Connection, answer: tuple,
                 reused: bool) -> None:
        """Append one answer, head and body, to the output buffer."""
        status, body, content_type, headers, force_close = answer
        keep_alive = not force_close
        if self._draining and not connection.pending \
                and not connection.parser.mid_request:
            # The connection's last promised response: tell the client
            # not to reuse the socket, so the drain converges instead of
            # racing the client's next request forever.
            keep_alive = False
        connection.out += encode_head(
            status, len(body), keep_alive=keep_alive,
            content_type=content_type, extra_headers=headers) + body
        connection.close_after_write |= not keep_alive
        connection.last_activity = time.monotonic()
        self.counters.request_served(reused=reused)

    def _on_writable(self, connection: _Connection) -> None:
        if not connection.out:
            self._update_interest(connection)
            return
        try:
            sent = connection.sock.send(memoryview(connection.out))
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(connection)
            return
        if sent:
            del connection.out[:sent]
            connection.last_activity = time.monotonic()
        if not connection.out and connection.close_after_write:
            self._close_connection(connection)
            return
        # Recompute interest on every write: draining below the
        # high-water mark resumes reads a backpressured peer earned back.
        self._update_interest(connection)

    def _update_interest(self, connection: _Connection) -> None:
        if not connection.alive:
            return
        # Read only while the stream is trusted (a dead parser must not
        # be fed) and the peer is keeping up with its responses (write
        # backpressure: past the high-water mark, reads pause until the
        # buffer drains, so a never-reading pipeliner eventually goes
        # idle and is reaped instead of growing the buffer forever).
        mask = 0
        if not connection.close_after_write and not connection.read_closed \
                and len(connection.out) < _OUT_HIGH_WATER:
            mask = selectors.EVENT_READ
        if connection.out:
            mask |= selectors.EVENT_WRITE
        try:
            if not mask:
                # Nothing to watch (e.g. waiting on an in-flight handler
                # with the stream already desynced): park the socket
                # entirely.  Registering EVENT_WRITE with an empty out
                # buffer would make the always-writable socket spin
                # select() at 100% CPU; completions re-register it.
                if connection.registered:
                    self._selector.unregister(connection.sock)
                    connection.registered = False
            elif connection.registered:
                self._selector.modify(connection.sock, mask, connection)
            else:
                self._selector.register(connection.sock, mask, connection)
                connection.registered = True
        except (KeyError, ValueError, OSError):
            pass                        # unregistered in a racing close

    def _reap_idle(self) -> None:
        if not self._connections:
            return
        now = time.monotonic()
        for connection in list(self._connections):
            if connection.in_flight:
                continue                # a handler is working: not idle
            if now - connection.last_activity <= self.idle_timeout_s:
                continue                # write progress also bumps activity
            if connection.out:
                # Write-stalled: the peer stopped reading its response
                # (send() has made no progress for a full idle window).
                # Nothing can be delivered, so drop it — otherwise a
                # never-reading client leaks the socket + buffer forever.
                self._close_connection(connection)
            elif connection.parser.mid_request or connection.pending:
                # Slow-loris: a request started arriving and stalled.
                # Answer so a confused-but-honest client learns why.
                self.dispatcher.record_protocol_error()
                connection.out += encode_error(
                    408, "request_timeout",
                    f"request idle for more than {self.idle_timeout_s:g}s")
                connection.close_after_write = True
                self._update_interest(connection)
                self._on_writable(connection)
            else:
                self._close_connection(connection)

    def _close_connection(self, connection: _Connection) -> None:
        if not connection.alive:
            return
        connection.alive = False
        self._connections.discard(connection)
        self.counters.connection_closed()
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass


class ShardedTransport:
    """N selector event loops accepting on one port.

    One selector loop eventually saturates a core on accept + parse +
    buffer shuffling; sharding runs ``shards`` independent
    :class:`SelectorTransport` loops whose listeners all bind the same
    address via ``SO_REUSEPORT`` — the kernel load-balances incoming
    connections across the shard listeners.  Where ``SO_REUSEPORT`` is
    unavailable the fallback is one bound acceptor socket ``dup()``-ed
    into every shard: all loops select on the same underlying listener
    and accept races resolve through the non-blocking ``EAGAIN`` path
    (a thundering herd, but a correct one).

    Every shard drives the **same** dispatcher and counters: routing,
    model registry, scorer pools, and the result cache are shared, so a
    ``POST /reload`` is atomic across shards by construction — there is
    exactly one registry swap, and every shard's next request sees it
    (or none does, when the reload is rejected).  Each shard gets its
    own dispatch pool of ``dispatch_workers // shards`` threads so the
    total handler concurrency matches the unsharded configuration, and
    answers health checks and memo answers on its own loop.

    The lifecycle surface mirrors :class:`SelectorTransport`;
    ``serve_forever`` runs shard 0 on the calling thread and the rest on
    ``gateway-shard-N`` threads.
    """

    def __init__(self, host: str, port: int, dispatcher: GatewayDispatcher,
                 counters: GatewayCounters | None = None,
                 shards: int = 2,
                 idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 dispatch_workers: int = 8,
                 force_dup_fallback: bool = False):
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.dispatcher = dispatcher
        self.counters = counters if counters is not None else GatewayCounters()
        self.idle_timeout_s = idle_timeout_s
        listeners, self.reuse_port = self._make_listeners(
            host, port, shards, allow_reuse_port=not force_dup_fallback)
        per_shard_workers = max(1, dispatch_workers // shards)
        self._shards = [SelectorTransport(
            host, port, dispatcher, counters=self.counters,
            idle_timeout_s=idle_timeout_s, max_body_bytes=max_body_bytes,
            max_header_bytes=max_header_bytes,
            dispatch_workers=per_shard_workers, listener=listener)
            for listener in listeners]
        self._threads: list[threading.Thread] = []

    @staticmethod
    def _make_listeners(host: str, port: int, shards: int,
                        allow_reuse_port: bool = True
                        ) -> tuple[list[socket.socket], bool]:
        """Bind one listener per shard on a single address.

        Returns ``(listeners, used_reuse_port)``.  The REUSEPORT path
        binds shard 0 first (resolving ``port=0`` to a concrete port)
        and the siblings to that concrete port; any failure falls back
        to the single-acceptor ``dup()`` layout.
        """
        listeners: list[socket.socket] = []
        if allow_reuse_port and hasattr(socket, "SO_REUSEPORT"):
            try:
                bound_port = port
                for _ in range(shards):
                    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                    sock.bind((host, bound_port))
                    bound_port = sock.getsockname()[1]
                    sock.listen(1024)
                    listeners.append(sock)
                return listeners, True
            except OSError:
                for sock in listeners:
                    sock.close()
                listeners = []
        base = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        base.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        base.bind((host, port))
        base.listen(1024)
        listeners = [base] + [base.dup() for _ in range(shards - 1)]
        return listeners, False

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def server_address(self) -> tuple[str, int]:
        return self._shards[0].server_address

    @property
    def loop_wakeups(self) -> int:
        return sum(shard.loop_wakeups for shard in self._shards)

    # ------------------------------------------------------------------
    # Lifecycle (mirrors SelectorTransport)
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        self._threads = [threading.Thread(
            target=shard.serve_forever,
            name=f"gateway-shard-{index}", daemon=True)
            for index, shard in enumerate(self._shards[1:], start=1)]
        for thread in self._threads:
            thread.start()
        try:
            self._shards[0].serve_forever()
        finally:
            for thread in self._threads:
                thread.join()

    def shutdown(self) -> None:
        for shard in self._shards:
            shard.shutdown()

    def begin_drain(self) -> None:
        for shard in self._shards:
            shard.begin_drain()

    def drain(self, deadline_s: float) -> None:
        """Drain every shard against one shared wall-clock deadline."""
        self.begin_drain()
        deadline = time.monotonic() + max(deadline_s, 0.0)
        for shard in self._shards:
            shard._loop_done.wait(timeout=max(deadline - time.monotonic(), 0.0))
        self.shutdown()

    def server_close(self) -> None:
        for shard in self._shards:
            shard.server_close()


def create_transport(host: str, port: int, dispatcher: GatewayDispatcher,
                     shards: int = 1, **kwargs):
    """Build the gateway transport: one :class:`SelectorTransport`, or a
    :class:`ShardedTransport` running ``shards`` selector loops on one
    port when ``shards`` > 1."""
    if shards > 1:
        return ShardedTransport(host, port, dispatcher, shards=shards,
                                **kwargs)
    return SelectorTransport(host, port, dispatcher, **kwargs)
