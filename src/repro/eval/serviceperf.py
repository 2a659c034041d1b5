"""Service-mode benchmark: cold vs warm throughput under skewed load.

Starts one ``repro.serve`` daemon, drives it with the load generator's
Zipf-skewed tenant traffic (:mod:`repro.serve.loadgen`) twice — once
against an empty cache (*cold*) and once with the exact same request
stream against the now-warm cache (*warm*) — and reports
programs/sec, client-observed latency percentiles, and cache hit
rates for both phases.  ``repro bench-serve`` drives this and emits
``BENCH_service.json``, the service-scaling trajectory every future
scaling PR regresses against.

The pool is prefiltered through a full local compile (setup cost,
outside both timed phases), so every request in both phases is
expected to succeed; the cold run still enjoys within-run cache hits
on the Zipf head — that is the point of the skew — so the headline
``speedup`` understates the raw compile-vs-cache-hit ratio.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..serve.client import ServeClient
from ..serve.daemon import DaemonThread, ServeConfig
from ..serve.fleet import FleetConfig, FleetThread
from ..serve.loadgen import FaultPlan, LoadResult, build_pool, run_load
from ..serve.trace import TraceWriter, load_trace, replay_trace


@dataclass
class PhaseResult:
    """One timed load phase (cold or warm)."""

    phase: str
    requests: int
    ok: int
    dropped: int
    cached: int
    wall_seconds: float
    programs_per_second: float
    latency_ms: dict
    hit_rate: float
    errors: dict

    @classmethod
    def from_load(cls, phase: str, load: LoadResult,
                  hit_rate: float) -> "PhaseResult":
        d = load.to_dict()
        return cls(phase=phase, requests=d["sent"], ok=d["ok"],
                   dropped=d["dropped"], cached=d["cached"],
                   wall_seconds=d["wall_seconds"],
                   programs_per_second=d["requests_per_second"],
                   latency_ms=d["latency_ms"], hit_rate=hit_rate,
                   errors=d["errors"])

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "requests": self.requests,
            "ok": self.ok,
            "dropped": self.dropped,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "programs_per_second": self.programs_per_second,
            "latency_ms": self.latency_ms,
            "hit_rate": round(self.hit_rate, 4),
            "errors": self.errors,
        }


@dataclass
class ServiceBenchReport:
    """``BENCH_service.json``: the service-scaling trajectory entry."""

    config: dict
    cold: PhaseResult = None
    warm: PhaseResult = None
    daemon_stats: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.cold is None or self.warm is None \
                or not self.cold.programs_per_second:
            return 0.0
        return self.warm.programs_per_second / self.cold.programs_per_second

    def to_dict(self) -> dict:
        return {
            "benchmark": "service",
            "config": self.config,
            "cold": self.cold.to_dict() if self.cold else None,
            "warm": self.warm.to_dict() if self.warm else None,
            "warm_over_cold_speedup": round(self.speedup, 2),
            "daemon_stats": self.daemon_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def bench_service(requests: int = 1000, clients: int = 4,
                  unique: int = 80, seed: int = 2024,
                  zipf_s: float = 1.1, depth: int = 8, jobs: int = 1,
                  max_batch: int = 16, max_delay: float = 0.005,
                  faults: Optional[FaultPlan] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  ) -> ServiceBenchReport:
    """Run the cold-vs-warm service benchmark; see the module docs.

    *requests* is the total per phase, split evenly across *clients*
    (each client replays its own deterministic Zipf stream over a pool
    of *unique* distinct generated programs).
    """
    say = progress or (lambda line: None)
    per_client = max(1, requests // clients)
    config = ServeConfig(jobs=jobs, max_batch=max_batch,
                         max_delay=max_delay)
    report = ServiceBenchReport(config={
        "requests": per_client * clients,
        "clients": clients,
        "unique_programs": unique,
        "seed": seed,
        "zipf_s": zipf_s,
        "pipeline_depth": depth,
        "jobs": jobs,
        "max_batch": max_batch,
        "max_delay_ms": round(max_delay * 1000, 3),
    })

    say(f"generating pool: {unique} unique programs (seed {seed})")
    pool = build_pool(unique, seed=seed, prefilter="full")

    with DaemonThread(config) as daemon:
        say(f"cold phase: {per_client * clients} requests, "
            f"{clients} client(s)")
        cold = run_load(daemon.address, pool, requests=per_client,
                        clients=clients, seed=seed, zipf_s=zipf_s,
                        depth=depth, faults=faults)
        cold_stats = daemon.daemon.cache.stats
        cold_rate = cold_stats.hit_rate
        report.cold = PhaseResult.from_load("cold", cold, cold_rate)

        say(f"warm phase: same stream against the warm cache")
        lookups_before = cold_stats.lookups
        hits_before = cold_stats.hits
        warm = run_load(daemon.address, pool, requests=per_client,
                        clients=clients, seed=seed, zipf_s=zipf_s,
                        depth=depth, faults=faults)
        stats = daemon.daemon.cache.stats
        warm_lookups = stats.lookups - lookups_before
        warm_rate = ((stats.hits - hits_before) / warm_lookups
                     if warm_lookups else 0.0)
        report.warm = PhaseResult.from_load("warm", warm, warm_rate)
        report.daemon_stats = daemon.daemon.snapshot()
    return report


# ----------------------------------------------------------------- fleet
def scan_cache_tree(cache_dir: str) -> dict:
    """Walk a content-addressed cache tree and unpickle every entry —
    the torn-entry detector the fleet SLO gate runs after a bench.

    Transient ``.tmp-*`` / ``.tomb-*`` files (a writer or evictor was
    mid-flight when the walk passed) are counted separately, never as
    corruption; a ``torn`` entry is a ``*.pkl`` that exists but does
    not unpickle."""
    entries = torn = transients = 0
    total_bytes = 0
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            path = os.path.join(root, name)
            if not name.endswith(".pkl") or name.startswith("."):
                if ".tmp-" in name or ".tomb-" in name:
                    transients += 1
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except FileNotFoundError:
                entries -= 1   # evicted mid-walk: fine
            except Exception:
                torn += 1
    return {"entries": entries, "torn": torn,
            "transients": transients, "bytes": total_bytes}


def _phase_from_dict(phase: str, d: dict, hit_rate: float) -> PhaseResult:
    return PhaseResult(phase=phase, requests=d["sent"], ok=d["ok"],
                       dropped=d["dropped"], cached=d["cached"],
                       wall_seconds=d["wall_seconds"],
                       programs_per_second=d["requests_per_second"],
                       latency_ms=d["latency_ms"], hit_rate=hit_rate,
                       errors=d["errors"])


def _fleet_cache_counters(snapshot: dict) -> Dict[str, int]:
    cache = snapshot.get("fleet", {}).get("cache", {})
    return {key: int(cache.get(key, 0))
            for key in ("hits", "misses", "stores", "memory_hits",
                        "disk_hits", "read_errors", "write_errors",
                        "expired", "disk_evictions", "evictions")}


@dataclass
class FleetBenchReport:
    """``BENCH_service.json`` for a fleet run.

    Keeps the single-daemon report's headline keys (``cold``/``warm``/
    ``warm_over_cold_speedup``) so existing trajectory tooling keeps
    working, and adds the shard-level view the fleet SLO gate asserts
    on: per-shard latency histograms and queue depths, router
    counters, per-tenant goodput spread, and the cache-integrity scan.
    """

    config: dict
    cold: PhaseResult = None
    warm: PhaseResult = None
    fleet_stats: dict = field(default_factory=dict)
    fairness: dict = field(default_factory=dict)
    cache_integrity: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.cold is None or self.warm is None \
                or not self.cold.programs_per_second:
            return 0.0
        return self.warm.programs_per_second / self.cold.programs_per_second

    def shard_summary(self) -> List[dict]:
        out = []
        for entry in self.fleet_stats.get("shards", []):
            stats = entry.get("stats") or {}
            out.append({
                "shard": entry.get("shard"),
                "alive": entry.get("alive"),
                "forwarded": entry.get("forwarded"),
                "latency_ms": stats.get("latency", {}),
                "queue": stats.get("queue", {}),
                "batches": stats.get("batches", {}),
                "cache": stats.get("cache", {}),
            })
        return out

    def to_dict(self) -> dict:
        return {
            "benchmark": "service-fleet",
            "config": self.config,
            "cold": self.cold.to_dict() if self.cold else None,
            "warm": self.warm.to_dict() if self.warm else None,
            "warm_over_cold_speedup": round(self.speedup, 2),
            "fairness": self.fairness,
            "cache_integrity": self.cache_integrity,
            "trace": self.trace,
            "router": self.fleet_stats.get("router", {}),
            "fleet": self.fleet_stats.get("fleet", {}),
            "shards": self.shard_summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def bench_service_fleet(requests: int = 1000, clients: int = 8,
                        unique: int = 80, seed: int = 2024,
                        zipf_s: float = 1.1, depth: int = 16,
                        shards: int = 2, jobs: int = 1,
                        max_batch: int = 32, max_delay: float = 0.002,
                        cache_ttl: Optional[float] = None,
                        cache_max_bytes: Optional[int] = None,
                        priority_mix: Optional[Dict[int, float]] = None,
                        trace_path: Optional[str] = None,
                        record_path: Optional[str] = None,
                        speed: float = 0.0,
                        progress: Optional[Callable[[str], None]] = None,
                        ) -> FleetBenchReport:
    """Cold-vs-warm benchmark against a sharded fleet.

    Two load sources: by default the synthetic Zipf tenant streams
    (``tenants`` labelled, optional ``priority_mix``), or — when
    *trace_path* is given — a recorded trace replayed at *speed*
    (0 = flat out).  Either way the same stream runs twice: cold
    against an empty shared cache tree, then warm.  *record_path*
    captures the synthetic cold stream as a replayable trace.
    """
    say = progress or (lambda line: None)
    per_client = max(1, requests // clients)
    fleet_config = FleetConfig(shards=shards, shard=ServeConfig(
        jobs=jobs, max_batch=max_batch, max_delay=max_delay,
        cache_ttl=cache_ttl, cache_max_bytes=cache_max_bytes))
    events = None
    if trace_path is not None:
        events = load_trace(trace_path)
        say(f"loaded trace: {len(events)} events from {trace_path}")
    report = FleetBenchReport(config={
        "shards": shards,
        "jobs_per_shard": jobs,
        "requests": (len(events) if events is not None
                     else per_client * clients),
        "clients": (len({e.client for e in events})
                    if events is not None else clients),
        "unique_programs": None if events is not None else unique,
        "seed": seed,
        "zipf_s": zipf_s,
        "pipeline_depth": depth,
        "max_batch": max_batch,
        "max_delay_ms": round(max_delay * 1000, 3),
        "cache_ttl_seconds": cache_ttl,
        "cache_max_bytes": cache_max_bytes,
        "priority_mix": ({str(k): v for k, v in priority_mix.items()}
                         if priority_mix else None),
    })
    if events is not None:
        report.trace = {"path": trace_path, "events": len(events),
                        "speed": speed}

    pool = None
    if events is None:
        say(f"generating pool: {unique} unique programs (seed {seed})")
        pool = build_pool(unique, seed=seed, prefilter="full")

    def drive(recorder=None):
        if events is not None:
            replay = replay_trace(fleet.address, events, speed=speed,
                                  depth=depth)
            if replay.failures:
                raise RuntimeError(
                    f"replay clients failed: {replay.failures}")
            return (replay.to_dict(), replay.tenant_goodput(),
                    replay.tenant_offered(), replay.goodput_spread())
        load = run_load(fleet.address, pool, requests=per_client,
                        clients=clients, seed=seed, zipf_s=zipf_s,
                        depth=depth, tenants=True,
                        priority_mix=priority_mix, recorder=recorder)
        if load.failures:
            raise RuntimeError(f"load clients failed: {load.failures}")
        return (load.to_dict(), load.tenant_goodput,
                load.tenant_offered, load.goodput_spread())

    with FleetThread(fleet_config) as fleet:
        with ServeClient(fleet.address) as probe:
            say(f"cold phase: {report.config['requests']} requests, "
                f"{shards} shard(s)")
            recorder = TraceWriter(record_path) if record_path else None
            try:
                cold_dict, _, _, _ = drive(recorder)
            finally:
                if recorder is not None:
                    recorder.close()
            cold_snap = probe.stats()
            cold_cache = _fleet_cache_counters(cold_snap)
            cold_lookups = cold_cache["hits"] + cold_cache["misses"]
            report.cold = _phase_from_dict(
                "cold", cold_dict,
                cold_cache["hits"] / cold_lookups if cold_lookups
                else 0.0)

            say("warm phase: same stream against the warm cache")
            warm_dict, warm_tenants, warm_offered, spread = drive()
            warm_snap = probe.stats()
            warm_cache = _fleet_cache_counters(warm_snap)
            delta_hits = warm_cache["hits"] - cold_cache["hits"]
            delta_lookups = (warm_cache["hits"] + warm_cache["misses"]
                             - cold_lookups)
            report.warm = _phase_from_dict(
                "warm", warm_dict,
                delta_hits / delta_lookups if delta_lookups else 0.0)
            report.fleet_stats = warm_snap

            report.fairness = {
                "tenants": len(warm_offered),
                "goodput": dict(sorted(warm_tenants.items(),
                                       key=lambda kv: -kv[1])[:32]),
                "offered": dict(sorted(warm_offered.items(),
                                       key=lambda kv: -kv[1])[:32]),
                # max/min of per-tenant completion ratio; 1.0 = every
                # tenant's offered stream completed in full
                "goodput_spread": round(spread, 3),
            }
        say("scanning cache tree for torn entries")
        report.cache_integrity = scan_cache_tree(fleet_config.cache_dir)
        report.cache_integrity["read_errors"] = \
            _fleet_cache_counters(report.fleet_stats).get(
                "read_errors", 0)
    return report
