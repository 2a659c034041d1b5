"""``serve-mix``: open-loop load on one ``repro serve`` daemon.

Each rate step gets a fresh daemon (default ``max_batch``/``max_delay``,
``jobs=1``, a fresh ``--cache`` directory) whose 40-source hot set is
warmed first; that start-and-warm is the step's set-up.  One connection
then carries a fixed schedule: request *i* is due at ``i / rate``
seconds, every tenth request is a never-seen source from the miss pool
and the rest are Zipf picks from the hot set.  Misses sit at fixed
positions so that the tail does not hinge on how a seed happens to
cluster them; the seed picks the Zipf draws and the miss order.

Every request is timed from its due time.  A step meets the latency
limit when every request got an ok response, the p99 is under
``LIMIT_S``, and the daemon kept up: responses completed at no less
than ``KEEP_UP`` of the offered rate (a growing backlog fails this).
Steps run in ascending rate and stop at the first failure above the
nominal rate, so the last step normally overloads the daemon and its
completion rate measures capacity.  The daemon's ``stats`` verb is
read before and after each step for the queue, busy-time, batch and
cache deltas.

After the load, every distinct source served is compiled in-process
and each ok response's ``ni_optimized``/``insns`` must match it; the
in-process outputs then go through the same verifier, oracle-battery
and VM checks as the compile workloads.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import Outcome, median, peak_rss_mb, percentile
import compile_bench
import inputs
import oracle

_now = time.perf_counter

#: offered rates (requests/s), ascending; NOMINAL runs for --seconds,
#: the others for STEP_S
RATES = (25, 50, 100, 200, 400)
NOMINAL = 50
STEP_S = 3
MISS_EVERY = 10
LIMIT_S = 1.0
KEEP_UP = 0.9
#: timed in-process passes over the fixed set (one is only ~5 s)
COMPILE_PASSES = 2
#: how long a step waits for its last response before calling the
#: rest unanswered
ANSWER_GRACE_S = 60.0


@dataclass
class Step:
    rate: int
    seconds: int
    programs: List[inputs.Program]
    misses: List[bool]
    setup_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    responses: List[Optional[dict]] = field(default_factory=list)
    achieved_rps: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    daemon_rss_mb: float = 0.0

    @property
    def passed(self) -> bool:
        return (not self.failures
                and percentile(self.latencies_ms, 99) <= LIMIT_S * 1000.0
                and self.achieved_rps >= KEEP_UP * self.rate)


def schedule(rate: int, seconds: int, seed: int, hot, miss) -> Step:
    from repro.serve.loadgen import zipf_stream

    rng = random.Random(seed * 1000 + rate)
    count = rate * seconds
    picks = zipf_stream(rng, len(hot), count)
    n_miss = count // MISS_EVERY
    if n_miss > len(miss):
        raise ValueError(f"{rate} req/s for {seconds} s needs {n_miss} "
                         f"never-seen sources; the pool has {len(miss)}")
    order = list(range(n_miss))
    rng.shuffle(order)
    fresh = iter(order)
    programs, misses = [], []
    for index in range(count):
        is_miss = index % MISS_EVERY == MISS_EVERY - 1
        programs.append(miss[next(fresh)] if is_miss else hot[picks[index]])
        misses.append(is_miss)
    return Step(rate, seconds, programs, misses)


class Daemon:
    """One ``python -m repro serve`` process on a unix socket under
    *workdir* (relative, so the socket path stays short)."""

    def __init__(self, root: str, workdir: str):
        from repro.serve.client import ServeClient

        self.socket = os.path.join(workdir, "serve.sock")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(workdir, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--cache", os.path.join(workdir, "cache")],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("repro serve did not start")
            time.sleep(0.005)
        self.client = ServeClient(("unix", self.socket),
                                  timeout=ANSWER_GRACE_S)
        self.client.ping()

    def peak_rss_mb(self) -> float:
        """The daemon's resident high-water mark so far (Linux)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Ask for a drained shutdown, then make sure the process ended."""
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown()
            except (OSError, ConnectionError):
                pass
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _send_open_loop(client, step: Step) -> None:
    """Send on the fixed schedule; a second thread reads responses
    (they come back in request order on one connection)."""
    count = len(step.programs)
    received = [0.0] * count
    step.responses = [None] * count
    payloads = [inputs.request_payload(p) for p in step.programs]

    def receive() -> None:
        for index in range(count):
            try:
                step.responses[index] = client.recv()
            except (OSError, ConnectionError, ValueError):
                return  # the rest count as unanswered
            received[index] = _now()

    reader = threading.Thread(target=receive, name="perfbench-recv")
    start = _now() + 0.05
    reader.start()
    try:
        for index, payload in enumerate(payloads):
            due = start + index / step.rate
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            step.late_ms.append(max(0.0, _now() - due) * 1000.0)
            client.send(payload)
    finally:
        reader.join(timeout=step.seconds + ANSWER_GRACE_S)
    last = 0.0
    for index, response in enumerate(step.responses):
        due = start + index / step.rate
        if response is None:
            step.failures.append(f"{step.rate} req/s: request {index} "
                                 "unanswered")
            step.latencies_ms.append(float("inf"))
        elif not response.get("ok"):
            code = (response.get("error") or {}).get("code")
            step.failures.append(f"{step.rate} req/s: request {index} "
                                 f"refused ({code})")
            step.latencies_ms.append(float("inf"))
        else:
            step.latencies_ms.append((received[index] - due) * 1000.0)
            last = max(last, received[index])
    step.achieved_rps = count / (last - start) if last > start else 0.0


def run_step(step: Step, hot, root: str) -> None:
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(
        prefix="serve-", dir=os.path.join(root, ".perfbench")))
    try:
        start = _now()
        daemon = Daemon(root, workdir)
        try:
            # one at a time, so the warm-up leaves no queueing behind
            # in the daemon's queue-wait window
            warm = [daemon.client.request(inputs.request_payload(p))
                    for p in hot]
            step.setup_s = _now() - start
            for program, response in zip(hot, warm):
                if not response.get("ok"):
                    step.failures.append(f"warm-up of {program.name} failed")
            step.stats_before = daemon.client.stats()
            _send_open_loop(daemon.client, step)
            step.stats_after = daemon.client.stats()
            step.daemon_rss_mb = daemon.peak_rss_mb()
        finally:
            daemon.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _delta(step: Step, *path: str) -> float:
    after, before = step.stats_after, step.stats_before
    for key in path:
        after, before = after[key], before[key]
    return after - before


def serve_layers(step: Step) -> Dict[str, float]:
    """The serve and cache layers as the ``stats`` verb saw one step."""
    requests = _delta(step, "requests", "received")
    batches = _delta(step, "batches", "dispatched")
    hits = _delta(step, "cache", "hits")
    lookups = hits + _delta(step, "cache", "misses")
    hit_ms = [l for l, m in zip(step.latencies_ms, step.misses) if not m]
    miss_ms = [l for l, m in zip(step.latencies_ms, step.misses) if m]
    queue = step.stats_after["queue_wait"]
    return {
        "serve.fast_path_ratio":
            _delta(step, "requests", "fast_path_hits") / requests,
        "serve.batch_mean": (_delta(step, "batches", "requests") / batches
                             if batches else 0.0),
        "serve.busy_s": _delta(step, "throughput", "busy_seconds"),
        "serve.busy_ratio": (_delta(step, "throughput", "busy_seconds")
                             / step.seconds),
        "serve.queue_ms_p50": queue["p50_ms"],
        "serve.queue_ms_p99": queue["p99_ms"],
        "serve.hit_ms_p99": percentile(hit_ms, 99),
        "serve.miss_ms_p50": percentile(miss_ms, 50),
        "serve.late_ms": percentile(step.late_ms, 99),
        "serve.peak_queue_depth": step.stats_after["queue"]["peak_depth"],
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.disk_write_errors": _delta(step, "cache", "write_errors"),
    }


def run(seed: int, seconds: int, trace: bool, root: str) -> Outcome:
    outcome = Outcome()
    start = _now()
    hot, miss = inputs.hot_pool(), inputs.miss_pool()
    expected = oracle.load()["serve-mix"]
    inputs_s = _now() - start

    steps: List[Step] = []
    for rate in RATES:
        step = schedule(rate, seconds if rate == NOMINAL else STEP_S, seed,
                        hot, miss)
        run_step(step, hot, root)
        steps.append(step)
        if rate > NOMINAL and not step.passed:
            break
    nominal = next(s for s in steps if s.rate == NOMINAL)
    # the highest completion rate sustained: the offered rate on steps
    # the daemon kept up with, its capacity on the step that overloaded
    # it (continuous, where the highest passing grid rate jumps 2x when
    # host speed drifts across a grid point)
    max_rps = max(step.achieved_rps for step in steps)
    passing = [s.rate for s in steps if s.passed]
    outcome.report["highest_passing_rate"] = max(passing, default=0)

    # in-process reference compiles: the fixed set (hot + the nominal
    # step's misses) is timed and measured; sources only the higher
    # steps sent are compiled once and checked, untimed
    fixed = hot + miss[:nominal.rate * nominal.seconds // MISS_EVERY]
    fixed_names = {p.name for p in fixed}
    extra = list({p.name: p for s in steps for p in s.programs
                  if p.name not in fixed_names}.values())
    compiled, compile_s = compile_bench.timed_passes(
        fixed, compile_bench.SYSDIG_TIERS, COMPILE_PASSES)

    tracers = []
    if trace:
        tracers.append(compile_bench.traced_compile(
            fixed, compile_bench.SYSDIG_TIERS, compiled, compile_s, outcome))
        tracers.append(compile_bench.Tracer())
    feeds = compile_bench.vm_inputs(fixed, seed)
    vm = compile_bench.vm_phase(compiled, feeds, seed,
                                tracers[-1] if trace else None)
    totals = compile_bench.check_outputs(compiled, expected, outcome)
    # before the extra compiles, whose number depends on the steps run
    load_rss = peak_rss_mb()
    compiled_extra = compile_bench.compile_all(extra,
                                               compile_bench.SYSDIG_TIERS)
    compile_bench.check_outputs(compiled_extra, expected, outcome)

    by_name = {c.program.name: c for c in compiled + compiled_extra}
    for step in steps:
        outcome.failures.extend(step.failures)
        for program, response in zip(step.programs, step.responses):
            if response is None or not response.get("ok"):
                continue
            reference = by_name[program.name].output
            result = response["result"]
            if (reference is None or result["insns"] != reference.ni
                    or result["ni_optimized"] != reference.ni):
                outcome.fail(f"{step.rate} req/s: {program.name} served "
                             "output differs from the in-process compile")
    outcome.attempted = (sum(len(s.programs) + len(hot) for s in steps)
                         + len(by_name))

    outcome.metrics.update({
        "setup_s": inputs_s + median([s.setup_s for s in steps]),
        "ni_optimized": totals["ni"],
        "verifier_npi": totals["npi"],
        "cycles_per_run": totals["cycles"] / totals["runs"],
        "peak_rss_mb": load_rss + nominal.daemon_rss_mb,
    })
    outcome.layers.update(compile_bench.host_sensitive(
        compile_s, max_rps, vm, nominal.latencies_ms))
    if trace:
        outcome.layers.update(compile_bench.vm_layers(vm, tracers[-1]))
        outcome.layers.update(compile_bench.check_layers(totals))
        outcome.layers.update(serve_layers(nominal))
    outcome.report.update({
        "vm": vm,
        "tracers": tracers,
        "steps": [{"rate": s.rate, "seconds": s.seconds,
                   "requests": len(s.programs), "passed": s.passed,
                   "setup_s": s.setup_s, "achieved_rps": s.achieved_rps,
                   "p50_ms": percentile(s.latencies_ms, 50),
                   "p99_ms": percentile(s.latencies_ms, 99),
                   "late_p99_ms": percentile(s.late_ms, 99),
                   "failures": len(s.failures), **serve_layers(s)}
                  for s in steps],
    })
    return outcome
