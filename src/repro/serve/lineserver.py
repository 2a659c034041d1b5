"""The JSON-lines server under both the daemon and the fleet router.

:class:`LineServer` owns everything about a client connection that does
not depend on what the server does with a request: binding the unix or
TCP socket, framing (one request per line, bounded by
``protocol.MAX_LINE_BYTES``), one FIFO writer per connection so
responses return in request-arrival order, the connection counters,
and the stop sequence.  A subclass supplies the policy through four
hooks:

* ``_open()`` brings up its backends before the socket is bound;
* ``_route(conn, line)`` answers one request line by enqueueing a
  future that resolves to the encoded response line;
* ``_drain(drain)`` finishes or refuses admitted work once admissions
  have stopped;
* ``_close_backends()`` shuts the backends down after the socket.

:class:`ServerThread` runs any line server on a private event loop in a
background thread (tests, the load generator and the CLI use it).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from typing import Optional, Tuple

from . import protocol

_EOF = object()    # per-connection write-queue sentinel


class Connection:
    """Per-client state: a FIFO of response-line futures and one writer."""

    def __init__(self, writer: asyncio.StreamWriter, stats):
        self.writer = writer
        self.stats = stats
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.inflight = 0
        self.broken = False
        self.writer_task = asyncio.ensure_future(self._write_loop())

    def enqueue(self, future: "asyncio.Future") -> None:
        self.inflight += 1
        self.queue.put_nowait(future)

    async def _write_loop(self) -> None:
        """Write responses strictly in request-arrival order."""
        while True:
            item = await self.queue.get()
            if item is _EOF:
                break
            line = await item
            if not self.broken:
                try:
                    self.writer.write(line)
                    await self.writer.drain()
                    self.stats.responses_sent += 1
                except (ConnectionError, OSError):
                    # client went away mid-stream: keep draining
                    # futures (their results are simply dropped)
                    self.broken = True
                    self.stats.disconnects += 1
            self.inflight -= 1

    async def quiesce(self) -> None:
        while self.inflight > 0:
            await asyncio.sleep(0.005)

    def close(self) -> None:
        self.queue.put_nowait(_EOF)
        with contextlib.suppress(Exception):
            self.writer.close()


class LineServer:
    """Accept loop, framing, bind and drain lifecycle for one socket.

    *config* provides ``socket_path``, ``host``, ``port`` and
    ``drain_grace``; *stats* provides the connection and request
    counters (``connections_opened``/``closed``,
    ``requests_received``, ``responses_sent``, ``protocol_errors``,
    ``disconnects``).
    """

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self._connections: set = set()
        self._handler_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False        # no longer admitting work
        self._stop_requested = False  # stop() body claimed
        self._stopped = asyncio.Event()
        self.address: Optional[Tuple] = None

    # ------------------------------------------------------------ hooks
    async def _open(self) -> None:
        """Bring up the backends; runs before the socket is bound."""

    async def _route(self, conn: Connection, line: bytes) -> None:
        raise NotImplementedError

    async def _drain(self, drain: bool) -> bool:
        """Finish (``drain``) or refuse admitted work.  Return True when
        every response future is resolved, so the writers may flush."""
        return True

    async def _close_backends(self) -> None:
        """Shut the backends down; runs after the socket is closed."""

    # ------------------------------------------------------------ setup
    async def start(self) -> None:
        """Open the backends and bind the socket; returns once ready."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self._open()
        path = self.config.socket_path
        if path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            # bind under a staging name and move it into place once
            # listening: clients that wait for the path to appear must
            # not find it while connects are still refused
            staging = path + "~"
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=staging,
                limit=protocol.MAX_LINE_BYTES)
            os.replace(staging, path)
            self.address = ("unix", path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port, limit=protocol.MAX_LINE_BYTES)
            sock = self._server.sockets[0]
            self.address = ("tcp",) + sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    # ------------------------------------------------------- connections
    def _resolved(self, response: dict) -> "asyncio.Future":
        future = self._loop.create_future()
        future.set_result(protocol.encode(response))
        return future

    def _shutdown(self, conn: Connection, request_id) -> None:
        """The ``shutdown`` op: acknowledge, then drain and stop."""
        conn.enqueue(self._resolved(protocol.ok_response(
            request_id, {"stopping": True})))
        asyncio.ensure_future(self.stop(drain=True))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = Connection(writer, self.stats)
        self._connections.add(conn)
        self._handler_tasks.add(asyncio.current_task())
        self.stats.connections_opened += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # request line beyond the framing limit: the stream
                    # is unrecoverable — answer once, then hang up
                    self.stats.protocol_errors += 1
                    conn.enqueue(self._resolved(protocol.error_response(
                        None, "oversized",
                        f"line exceeds {protocol.MAX_LINE_BYTES} bytes")))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.stats.requests_received += 1
                await self._route(conn, line)
        finally:
            conn.queue.put_nowait(_EOF)
            try:
                await conn.writer_task
            except BaseException:  # incl. CancelledError at teardown
                conn.writer_task.cancel()
            finally:
                with contextlib.suppress(Exception):
                    writer.close()
                self._connections.discard(conn)
                self._handler_tasks.discard(asyncio.current_task())
                self.stats.connections_closed += 1

    # -------------------------------------------------------------- stop
    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain or refuse admitted work, flush every
        connection, then shut the backends down."""
        if self._stop_requested:
            await self._stopped.wait()
            return
        self._stop_requested = True
        if drain and self.config.drain_grace > 0:
            # let the loop process sockets that are already readable
            # (accepts and buffered request lines that raced this call)
            # so they are admitted and drained instead of dropped
            await asyncio.sleep(self.config.drain_grace)
        self._stopping = True
        if self._server is not None:
            # close() alone stops the accept loop.  wait_closed() must
            # come *after* connection teardown: from Python 3.12 it
            # also waits for every accepted transport to detach, so
            # awaiting it here deadlocks against a client that holds
            # its connection open across the drain.
            self._server.close()
        if await self._drain(drain):
            for conn in list(self._connections):
                await conn.quiesce()
        for conn in list(self._connections):
            conn.close()
        for task in list(self._handler_tasks):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(task, timeout=5.0)
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
        await self._close_backends()
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        self._stopped.set()

    def request_stop(self, drain: bool = True) -> None:
        """Thread-safe stop trigger (for signal handlers / test code)."""
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(self.stop(drain=drain),
                                             self._loop)


class ServerThread:
    """Run a line server on a private event loop in a background thread::

        with DaemonThread(ServeConfig(max_delay=0.005)) as daemon:
            client = ServeClient(daemon.address)
            ...

    *timeout* bounds both start-up and ``stop()``'s join.
    """

    def __init__(self, server: LineServer, name: str, timeout: float):
        self.server = server
        self.timeout = timeout
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=self.timeout):
            raise RuntimeError(f"{self._thread.name} failed to start "
                               f"in time")
        if self._error is not None:
            raise RuntimeError(
                f"{self._thread.name} failed to start") from self._error
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the server to stop; True once it has."""
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    def stop(self, drain: bool = True) -> None:
        if self._thread.is_alive():
            self.server.request_stop(drain=drain)
            self.join(self.timeout)

    @property
    def address(self) -> Tuple:
        return self.server.address

    @property
    def stats(self):
        return self.server.stats

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
