"""``repro serve``: the long-running optimization-as-a-service daemon.

Architecture (one asyncio event loop, one dispatch thread, N worker
processes)::

    client --- JSON lines ---> connection handler --+--> memo hit:
    client --- JSON lines ---> connection handler --+    answered here
                                                    |
                                                    +--> admission queue
                                                         |
                                           batcher task: take what is
                                           queued (up to max_batch,
                                           no linger), group by
                                           pipeline config, then
                                                         |
                                           compile_many(..., executor=
                                           persistent process pool,
                                           cache=shared warm cache,
                                           on_error="capture")
                                                         |
    client <-- response lines (arrival order) <-- per-request futures

A repeat of a memoized source is answered at admission, straight from
the warm cache, and never waits behind a compile.  Admission batching
amortizes dispatch overhead and lets concurrent clients share one warm
cache: the first compile of a program pays the pipeline, every repeat
— from any client, any connection, any worker process — is a cache
hit.  Responses stream back per request as each batch completes; a
connection's responses always come back in its request-arrival order,
so clients may pipeline arbitrarily deep.

The socket, framing, per-connection writer and stop sequence live in
:class:`~repro.serve.lineserver.LineServer`; this module keeps only the
daemon's policy: admission, batching, the source->key memo and the
cache.

Graceful degradation is deliberate and tested: malformed or oversized
requests get structured error responses, a client disconnecting
mid-stream only increments a counter, cache-directory loss degrades
the store to memory-only, and shutdown drains every admitted request
before closing connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cache import CompilationCache
from ..core.batch import CompileJob, compile_many
from ..core.pipeline import ALL_OPTIMIZERS, MerlinPipeline
from ..verifier import KERNELS
from . import protocol
from .fairness import FairAdmissionQueue
from .lineserver import Connection, LineServer, ServerThread
from .metrics import ServiceStats
from .protocol import ProtocolError, Request

_STOP = object()   # admission-queue sentinel: drain, then exit


@dataclass
class ServeConfig:
    """Everything that shapes one daemon instance."""

    socket_path: Optional[str] = None   # unix domain socket (default)
    host: Optional[str] = None          # or TCP on host:port
    port: int = 0
    jobs: int = 1                       # compile worker processes
    cache_dir: Optional[str] = None     # shared warm cache (None: temp)
    max_memory_entries: int = 4096
    max_batch: int = 16                 # admission batch size cap
    #: seconds; accepted and reported in ``stats`` but unused: a batch
    #: is whatever is already queued, with no linger
    max_delay: float = 0.01
    kernel: str = "6.5"
    queue_limit: int = 4096             # admission backpressure
    #: how long ``stop(drain=True)`` lets the event loop keep admitting
    #: already-readable sockets before refusing new work — shrinks the
    #: window in which a request racing the stop call is dropped
    drain_grace: float = 0.05
    #: per-tenant admission weights (missing tenants weigh 1); the
    #: fair queue serves a backlogged tenant at most ``weight``
    #: consecutive slots per round
    tenant_weights: Optional[Dict[str, int]] = None
    #: a request at this priority or above closes its admission batch
    #: at once: it takes no more companions
    preempt_priority: int = 1
    #: idle TTL for cache entries (seconds; None = keep forever)
    cache_ttl: Optional[float] = None
    #: disk-store size budget enforced by the periodic sweep
    cache_max_bytes: Optional[int] = None
    #: how often the eviction sweep runs when either bound is set
    sweep_interval: float = 5.0
    #: fleet shard index (set by the router; labels stats snapshots)
    shard_id: Optional[int] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not 0 <= self.preempt_priority <= protocol.MAX_PRIORITY + 1:
            raise ValueError("preempt_priority out of range")
        if self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if self.socket_path is None and self.host is None:
            self.socket_path = os.path.join(
                tempfile.mkdtemp(prefix="repro-serve-"), "serve.sock")

    def describe(self) -> dict:
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "jobs": self.jobs,
            "max_batch": self.max_batch,
            "max_delay_ms": round(self.max_delay * 1000, 3),
            "kernel": self.kernel,
            "cache_dir": self.cache_dir,
            "preempt_priority": self.preempt_priority,
            "cache_ttl_seconds": self.cache_ttl,
            "cache_max_bytes": self.cache_max_bytes,
            "shard_id": self.shard_id,
        }


class _Pending:
    """One compile request: its response future and admission time."""

    __slots__ = ("request", "future", "enqueued", "dispatched")

    def __init__(self, request: Request, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()
        self.dispatched = 0.0


class OptimizationDaemon(LineServer):
    """The asyncio service around :func:`repro.core.batch.compile_many`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        super().__init__(config or ServeConfig(), ServiceStats())
        self._own_cache_dir: Optional[str] = None
        cache_dir = self.config.cache_dir
        if cache_dir is None and self.config.jobs > 1:
            # worker processes share the warm cache through disk only
            cache_dir = self._own_cache_dir = tempfile.mkdtemp(
                prefix="repro-serve-cache-")
            self.config.cache_dir = cache_dir
        self.cache = CompilationCache(
            directory=cache_dir,
            max_memory_entries=self.config.max_memory_entries,
            ttl_seconds=self.config.cache_ttl,
            max_disk_bytes=self.config.cache_max_bytes)
        self._pipelines: Dict[tuple, MerlinPipeline] = {}
        # source-text -> cache-key memo: repeat requests skip the
        # frontend entirely and answer straight from the warm cache
        self._source_keys: "OrderedDict[tuple, str]" = OrderedDict()
        self._queue = FairAdmissionQueue(
            maxsize=self.config.queue_limit,
            weights=self.config.tenant_weights)
        self._batcher_task: Optional[asyncio.Task] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._dispatch_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch")
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------ setup
    def _pipeline_for(self, request: Request) -> MerlinPipeline:
        key = request.config_key
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            enabled = key[1] if key[1] is not None else ALL_OPTIMIZERS
            pipeline = MerlinPipeline(kernel=KERNELS[key[0]],
                                      enabled=frozenset(enabled))
            self._pipelines[key] = pipeline
        return pipeline

    async def _open(self) -> None:
        if self.config.jobs > 1:
            # spawn (not fork): the daemon is multi-threaded by design
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"))
        self._batcher_task = asyncio.ensure_future(self._batch_loop())
        if self.config.cache_ttl is not None \
                or self.config.cache_max_bytes is not None:
            self._sweep_task = asyncio.ensure_future(self._sweep_loop())

    async def _sweep_loop(self) -> None:
        """Periodic TTL/size-budget eviction over the shared store.

        The walk runs off-loop (default thread executor) so a large
        tree never stalls request handling; the sweep itself is safe
        against concurrent sweepers in other shard daemons — the
        tombstone rename arbitrates every removal.
        """
        while not self._stopping:
            await asyncio.sleep(self.config.sweep_interval)
            if self._stopping:
                break
            try:
                await self._loop.run_in_executor(None, self.cache.sweep)
            except Exception:  # pragma: no cover - sweep is best-effort
                pass

    # ----------------------------------------------------------- routing
    async def _route(self, conn: Connection, line: bytes) -> None:
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            conn.enqueue(self._resolved(protocol.error_from(exc)))
            return
        if request.op == "ping":
            conn.enqueue(self._resolved(protocol.ok_response(
                request.id, {"pong": True,
                             "protocol_version": protocol.PROTOCOL_VERSION})))
            return
        if request.op == "stats":
            conn.enqueue(self._resolved(protocol.ok_response(
                request.id, self.snapshot())))
            return
        if request.op == "shutdown":
            self._shutdown(conn, request.id)
            return
        # compile / validate
        if self._stopping:
            self.stats.rejected += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request.id, "shutting-down",
                "daemon is draining; request not admitted")))
            return
        future = self._loop.create_future()
        pending = _Pending(request, future)
        if self._fast_path(pending):
            # a memo hit costs a lookup, not a place in the queue
            conn.enqueue(future)
            return
        try:
            self._queue.put_nowait(pending, priority=request.priority,
                                   tenant=request.tenant)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request.id, "shutting-down", "admission queue full")))
            return
        depth = self._queue.qsize()
        if depth > self.stats.peak_queue_depth:
            self.stats.peak_queue_depth = depth
        conn.enqueue(future)

    # ---------------------------------------------------------- batching
    def _preempts(self, pending: _Pending) -> bool:
        return pending.request.priority >= self.config.preempt_priority

    async def _batch_loop(self) -> None:
        """Admission batching by group commit: take the first request,
        then everything already admitted (up to ``max_batch``) without
        waiting, then dispatch them as one batch.

        Nothing lingers for companions: batches form under load from
        whatever queued while the previous batch compiled, and a wait
        would only delay the first request.  Under open-loop load a
        10 ms linger was most of a one-worker daemon's p50 and gave a
        two-worker pool no bigger batches.

        The fair queue hands requests over highest-priority-first and
        weighted round-robin across tenants; a request at or above
        ``preempt_priority`` closes the batch at once, so an urgent
        request's batch carries no bulk traffic queued behind it.
        """
        stop_seen = False
        while not stop_seen:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            preempted = self._preempts(item)
            while len(batch) < self.config.max_batch and not preempted:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stop_seen = True
                    break
                batch.append(nxt)
                preempted = self._preempts(nxt)
            if preempted:
                self.stats.preempted_batches += 1
            await self._dispatch(batch)
        # drain anything admitted after the sentinel was queued
        leftovers: List[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP:
                leftovers.append(item)
        if leftovers:
            await self._dispatch(leftovers)

    # one memo entry per distinct request shape; bounded like the cache
    _MEMO_LIMIT = 8192

    def _memo_key(self, request: Request) -> tuple:
        return (request.source, request.entry, request.name,
                request.prog_type, request.mcpu, request.ctx_size,
                request.asm, request.pgo, request.superopt,
                request.config_key)

    def _fast_path(self, pending: _Pending) -> bool:
        """Answer a repeat request straight from the warm cache.

        Tried at admission, so a hit never enters the queue, and again
        at dispatch for a source memoized while its request waited.

        The content-addressed cache key hashes canonical IR, so a
        plain lookup still pays the full frontend.  The daemon sees
        identical *source text* over and over (the Zipf head), so it
        memoizes source -> key after the first compile and serves
        repeats without parsing anything.  Entries stored under a
        ``validate=True`` key were certified at store time, so
        replaying the raise check is unnecessary here.
        """
        key = self._source_keys.get(self._memo_key(pending.request))
        if key is None:
            return False
        hit = self.cache.get(key)
        if hit is None:
            return False
        program, report = hit
        report.cached = True
        self.stats.fast_path_hits += 1
        self.stats.compiles_completed += 1
        self.stats.observe_served(pending.request.tenant,
                                  pending.request.priority)
        self._finish(pending, protocol.ok_response(
            pending.request.id,
            self._payload(pending.request, program, report)))
        return True

    def _memoize(self, request: Request, report) -> None:
        if getattr(report, "cache_key", None) is None:
            return
        memo = self._memo_key(request)
        self._source_keys[memo] = report.cache_key
        self._source_keys.move_to_end(memo)
        while len(self._source_keys) > self._MEMO_LIMIT:
            self._source_keys.popitem(last=False)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Group one admitted batch by pipeline config and compile."""
        now = time.monotonic()
        for pending in batch:
            pending.dispatched = now
            self.stats.queue_latency.observe(now - pending.enqueued)
        batch = [p for p in batch if not self._fast_path(p)]
        groups: Dict[tuple, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.request.config_key,
                              []).append(pending)
        for key, members in groups.items():
            pipeline = self._pipeline_for(members[0].request)
            jobs = [CompileJob(name=p.request.name, source=p.request.source,
                               entry=p.request.entry,
                               prog_type=p.request.prog_type,
                               mcpu=p.request.mcpu,
                               ctx_size=p.request.ctx_size,
                               pgo=p.request.pgo,
                               superopt=p.request.superopt)
                    for p in members]
            validate = members[0].request.validate
            worker_jobs = self.config.jobs if self._pool is not None else 1
            call = lambda: compile_many(  # noqa: E731 - bound per group
                pipeline, jobs, jobs=worker_jobs, cache=self.cache,
                executor=self._pool, validate=validate,
                on_error="capture")
            try:
                report = await self._loop.run_in_executor(
                    self._dispatch_thread, call)
            except Exception as exc:  # pool died, pickle failure, ...
                for pending in members:
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "internal",
                        f"{type(exc).__name__}: {exc}"))
                continue
            self.stats.observe_batch(len(members), report.wall_seconds)
            # Resolve strictly by position, and resolve *every* member:
            # a report that somehow came back short (a broken batch
            # implementation, a truncated worker result) must still
            # answer the unmatched requests — an unresolved future
            # wedges its connection's write loop and stop(drain=True)
            # then never finishes quiescing.
            for index, pending in enumerate(members):
                if index >= len(report.programs):
                    self.stats.compile_errors += 1
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "internal",
                        "batch report shorter than the request group"))
                    continue
                program = report.programs[index]
                rep = report.reports[index]
                error = (report.errors[index]
                         if index < len(report.errors) else None)
                if error is not None or rep is None:
                    self.stats.compile_errors += 1
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "compile-error",
                        error or "no result for request"))
                else:
                    self.stats.compiles_completed += 1
                    self.stats.observe_served(pending.request.tenant,
                                              pending.request.priority)
                    self._memoize(pending.request, rep)
                    self._finish(pending, protocol.ok_response(
                        pending.request.id,
                        self._payload(pending.request, program, rep)))

    def _finish(self, pending: _Pending, response: dict) -> None:
        self.stats.latency.observe(time.monotonic() - pending.enqueued)
        if not pending.future.done():
            pending.future.set_result(protocol.encode(response))

    def _payload(self, request: Request, program, report) -> dict:
        result = {
            "name": report.name,
            "ni_original": report.ni_original,
            "ni_optimized": report.ni_optimized,
            "ni_reduction": round(report.ni_reduction, 4),
            "cached": report.cached,
            "mcpu": program.mcpu,
            "insns": program.ni,
            "compile_ms": round(report.compile_seconds * 1000, 3),
        }
        if request.validate:
            by_status: Dict[str, int] = {}
            for cert in report.certificates:
                by_status[cert.status] = by_status.get(cert.status, 0) + 1
            result["certificates"] = {
                "applications": len(report.certificates),
                "certified": all(c.certified
                                 for c in report.certificates),
                "by_status": by_status,
            }
        if request.pgo is not None:
            layout = [s for s in report.pass_stats if s.name == "layout"]
            result["layout"] = {
                "rewrites": sum(s.rewrites for s in layout),
                "profiled_runs": sum(s.details.get("profiled_runs", 0)
                                     for s in layout),
                "spec": request.pgo.fingerprint(),
            }
        if request.superopt is not None:
            superopt = [s for s in report.pass_stats
                        if s.name == "superopt"]
            result["superopt"] = {
                "rewrites": sum(s.rewrites for s in superopt),
                "searches": sum(s.details.get("searches", 0)
                                for s in superopt),
                "memo_hits": sum(s.details.get("memo_hits", 0)
                                 for s in superopt),
                "spec": request.superopt.fingerprint(),
            }
        if request.asm:
            from ..isa import disassemble

            result["asm"] = disassemble(program.insns)
        return result

    # ------------------------------------------------------------- stats
    def snapshot(self) -> dict:
        out = self.stats.snapshot(
            queue_depth=self._queue.qsize(),
            cache_stats=self.cache.stats.to_dict(),
            config=self.config.describe())
        from ..vm.engine import decode_cache_stats
        from ..vm.engine.jit import jit_cache_size, jit_cache_stats

        decode = decode_cache_stats()
        jit = jit_cache_stats()
        out["vm"] = {
            "decode_cache": {
                "hits": decode.hits,
                "misses": decode.misses,
                "hit_rate": round(decode.hit_rate, 4),
            },
            "jit_cache": {
                "hits": jit.hits,
                "misses": jit.misses,
                "hit_rate": round(jit.hit_rate, 4),
                "entries": jit_cache_size(),
            },
        }
        return out

    # -------------------------------------------------------------- stop
    async def _drain(self, drain: bool) -> bool:
        if not drain:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _STOP:
                    self.stats.rejected += 1
                    self._finish(item, protocol.error_response(
                        item.request.id, "shutting-down",
                        "daemon stopped without draining"))
        self._queue.put_control(_STOP)
        if self._batcher_task is not None:
            await self._batcher_task
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweep_task
        return True  # every admitted future is resolved

    async def _close_backends(self) -> None:
        self._dispatch_thread.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._own_cache_dir is not None:
            shutil.rmtree(self._own_cache_dir, ignore_errors=True)

    def final_stats(self) -> dict:
        """The ``stats`` payload, also after the daemon has stopped."""
        return self.snapshot()


class DaemonThread(ServerThread):
    """Run a daemon on a private event loop in a background thread.

    The pattern tests and the load generator use::

        with DaemonThread(ServeConfig(max_delay=0.005)) as daemon:
            client = ServeClient(daemon.address)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.daemon = OptimizationDaemon(config)
        super().__init__(self.daemon, name="repro-serve", timeout=60.0)
