"""Compile workloads: ``compile-sysdig`` and ``tiers-xdp``.

Both compile a fixed program set cold, in one process, one program at a
time: ``compile_source`` then ``MerlinPipeline(verify_after=True)
.compile``.  The traced run then replays every compile layer by layer
(the same calls, in the same order as ``MerlinPipeline.compile``) with
spans around each, and checks the replay emits byte-identical programs
and the same certificate verdicts.  Afterwards the outputs are loaded
into fresh jit ``Machine``s and run on seeded inputs (the compile
workloads' "service": packets or events served by the compiled code),
and finally every output is checked against the verifier model, its TV
certificates and the recorded oracle-battery observations.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from common import Outcome, median, peak_rss_mb, percentile
import inputs
import oracle
from tracing import Tracer, span_of, traced_cache, traced_dep

_now = time.perf_counter

#: setups per run; setup_s is their median.  One set-up takes only
#: 0.06-0.17 s, so a median of three swung 2x from run to run; with
#: fifteen, ten runs on a steady host stay within about +-10%
SETUPS = 15
#: packets each XDP program runs in the VM phase
XDP_PACKETS = 1000
#: inputs each tracepoint program runs in the VM phase
TRACE_INPUTS = 8


@dataclass(frozen=True)
class Tiers:
    """Which optional tiers a compile runs."""

    validate: bool = False
    superopt: bool = False
    pgo: bool = False


SYSDIG_TIERS = Tiers()
XDP_TIERS = Tiers(validate=True, superopt=True, pgo=True)


@dataclass
class Compiled:
    program: inputs.Program
    output: object = None       # BpfProgram
    report: object = None       # MerlinReport
    seconds: float = 0.0
    error: str = ""


def _fresh_cache(tiers: Tiers):
    """A fresh in-memory ``CompilationCache`` as the superopt memo."""
    if not tiers.superopt:
        return None
    from repro.cache import CompilationCache

    return CompilationCache()


def _pipeline():
    from repro.core import MerlinPipeline

    return MerlinPipeline(verify_after=True)


def compile_all(programs: Sequence[inputs.Program],
                tiers: Tiers) -> List[Compiled]:
    """The untraced path: exactly what a user calls."""
    from repro.frontend import compile_source
    from repro.tv import TranslationValidationError

    pipeline = _pipeline()
    cache = _fresh_cache(tiers)
    results = []
    for program in programs:
        item = Compiled(program)
        start = _now()
        try:
            module = compile_source(program.source, program.name)
            item.output, item.report = pipeline.compile(
                module.get(program.entry), module,
                prog_type=program.prog_type, mcpu=program.mcpu,
                ctx_size=program.ctx_size, cache=cache,
                validate=tiers.validate, pgo=tiers.pgo or None,
                superopt=tiers.superopt or None)
        except TranslationValidationError as exc:
            item.error = f"uncertified TV certificate: {exc}"
        except Exception as exc:  # any compile failure is a counted failure
            item.error = f"compile error: {type(exc).__name__}: {exc}"
        item.seconds = _now() - start
        results.append(item)
    return results


def timed_passes(programs: Sequence[inputs.Program], tiers: Tiers,
                 passes: int) -> Tuple[List[Compiled], float]:
    """Compile *programs* cold *passes* times, each pass with a fresh
    pipeline, memo and VM caches.  Returns the first pass's results,
    each carrying its mean compile seconds, and the mean pass wall time.
    A later pass that emits different bytes marks the program failed."""
    first: List[Compiled] = []
    total = 0.0
    for _ in range(passes):
        cold_vm_caches()
        start = _now()
        compiled = compile_all(programs, tiers)
        total += _now() - start
        if not first:
            first = compiled
            continue
        for kept, again in zip(first, compiled):
            kept.seconds += again.seconds
            if not kept.error and not same_outputs(kept, again):
                kept.error = "a second cold compile emitted different code"
    for item in first:
        item.seconds /= passes
    return first, total / passes


def _replay_one(pipeline, program: inputs.Program, tiers: Tiers, cache,
                tracer: Tracer):
    """``MerlinPipeline.compile`` step by step, one span per layer."""
    from repro import ir
    from repro.codegen import compile_function
    from repro.core import MerlinReport
    from repro.core.bytecode_passes.layout import (PgoSpec,
                                                   ProfileGuidedLayoutPass,
                                                   collect_profile)
    from repro.core.superopt import SuperoptimizerPass, SuperoptSpec
    from repro.frontend import compile_source
    from repro.tv import TranslationValidator, WitnessRecorder
    from repro.verifier import verify

    span = tracer.span
    with span("frontend"):
        module = compile_source(program.source, program.name)
    func = module.get(program.entry)
    where = dict(prog_type=program.prog_type, mcpu=program.mcpu,
                 ctx_size=program.ctx_size)
    pgo = PgoSpec() if tiers.pgo else None
    superopt = SuperoptSpec() if tiers.superopt else None
    key = None
    if cache is not None:
        key = cache.key_for_function(
            func, module, enabled=pipeline.enabled, kernel=pipeline.kernel,
            verify_after=pipeline.verify_after, validate=tiers.validate,
            pgo=pgo.fingerprint() if pgo else None,
            superopt=superopt.fingerprint() if superopt else None, **where)
        if cache.get(key) is not None:
            raise RuntimeError(f"{program.name}: cold replay hit the cache")
    recorder = WitnessRecorder() if tiers.validate else None
    start = _now()
    with span("codegen.baseline"):
        baseline = compile_function(func, module, **where)
    with span("ir.clone"):
        work = ir.parse_function(ir.print_function(func))
    with span("ir_passes"):
        stats = pipeline.optimize_ir(work, module, recorder=recorder)
    with span("codegen"):
        output = compile_function(work, module, **where)
    tracer.note("codegen.ni_emitted", output.ni)
    with span("bytecode_passes"):
        stats += pipeline.optimize_bytecode(output, recorder=recorder)
    if superopt is not None:
        with span("superopt"):
            pass_ = SuperoptimizerPass(superopt, memo=cache)
            if recorder is not None:
                pass_.recorder = recorder
            stat = pass_.run_timed(output)
            stat.details.update(pass_.counters)
            stats.append(stat)
    if pgo is not None:
        with span("layout"):
            profile = collect_profile(output, spec=pgo)
            pass_ = ProfileGuidedLayoutPass(profile)
            if recorder is not None:
                pass_.recorder = recorder
            stat = pass_.run_timed(output)
            stat.details["profiled_runs"] = profile.entries
            stat.details["profiled_faults"] = profile.faults
            stats.append(stat)
    report = MerlinReport(name=func.name, ni_original=baseline.ni,
                          ni_optimized=output.ni, pass_stats=stats,
                          compile_seconds=_now() - start, cache_key=key)
    if recorder is not None:
        with span("tv"):
            report.certificates = TranslationValidator().validate_all(
                recorder.witnesses, module=module, **where)
    with span("verifier"):
        report.verification = verify(output, pipeline.kernel)
    if cache is not None:
        cache.put(key, output, report)
    return output, report


def replay_all(programs: Sequence[inputs.Program], tiers: Tiers,
               tracer: Tracer, cache) -> List[Compiled]:
    """The traced path: same compiles, one span per layer call."""
    pipeline = _pipeline()
    results = []
    with traced_dep(tracer):
        for program in programs:
            item = Compiled(program)
            tracer.op = program.name
            start = _now()
            try:
                item.output, item.report = _replay_one(
                    pipeline, program, tiers, cache, tracer)
            except Exception as exc:  # counted, like the untraced path
                item.error = f"compile error: {type(exc).__name__}: {exc}"
            item.seconds = _now() - start
            results.append(item)
    return results


def _verdicts(report) -> list:
    return [(c.pass_name, c.tier, c.point, c.status)
            for c in report.certificates]


def same_outputs(untraced: Compiled, traced: Compiled) -> bool:
    """Byte-identical program and identical certificate verdicts."""
    if untraced.output is None or traced.output is None:
        return untraced.error == traced.error
    return (untraced.output.encode() == traced.output.encode()
            and untraced.output.mcpu == traced.output.mcpu
            and _verdicts(untraced.report) == _verdicts(traced.report))


def cold_vm_caches() -> None:
    """Empty the process-wide decode and JIT code caches, so every
    measured load starts cold whatever ran before it in this process."""
    from repro.vm.engine import clear_decode_cache
    from repro.vm.engine.jit import clear_jit_cache

    clear_decode_cache()
    clear_jit_cache()


def vm_inputs(programs: Sequence[inputs.Program], seed: int) -> list:
    """Seeded VM inputs per program: packets (with the generator whose
    flows seed the maps) for XDP, context bytes otherwise."""
    from repro.fuzz.oracle import generate_tests
    from repro.isa import BpfProgram, ProgramType
    from repro.workloads.packets import TrafficGenerator

    out = []
    for index, program in enumerate(programs):
        if program.prog_type == ProgramType.XDP:
            generator = TrafficGenerator(seed=seed * 1000 + index)
            packets = [generator.packet(64) for _ in range(XDP_PACKETS)]
            out.append((generator, packets))
        else:
            shape = BpfProgram(name=program.name, insns=[],
                               prog_type=program.prog_type,
                               ctx_size=program.ctx_size)
            tests = generate_tests(shape, count=TRACE_INPUTS,
                                   seed=seed * 1000 + index)
            out.append((None, [t.ctx for t in tests]))
    return out


def vm_phase(compiled: Sequence[Compiled], feeds: list, seed: int,
             tracer: Optional[Tracer] = None) -> Dict[str, float]:
    """Load every output into a fresh jit Machine and run its inputs.

    The wall time counts building each machine (cold JIT) and its map
    population as well as the runs themselves."""
    from repro.fuzz.oracle import populate_maps
    from repro.vm import Machine
    from repro.workloads.seeding import seed_maps

    span = span_of(tracer)
    cold_vm_caches()
    runs = cycles = insns = branch_misses = bails = 0
    start = _now()
    for item, (generator, feed) in zip(compiled, feeds):
        if item.output is None:
            continue
        with span("vm.build"):
            machine = Machine(item.output, engine="jit")
            if generator is not None:
                seed_maps(machine, generator)
            else:
                populate_maps(machine, 1.0, seed)
        with span("vm.run"):
            for data in feed:
                if generator is not None:
                    machine.run(packet=data)
                else:
                    machine.run(ctx=data)
                runs += 1
        counters = machine.counters
        cycles += counters.cycles
        insns += counters.instructions
        branch_misses += counters.branch_misses
        jit = machine.stats.get("jit", {})
        bails += sum(jit.get("bails", {}).values())
    wall = _now() - start
    return {"runs": runs, "wall_s": wall, "cycles": cycles, "insns": insns,
            "branch_misses": branch_misses, "jit_bails": bails}


def check_outputs(compiled: Sequence[Compiled], expected: Dict[str, dict],
                  outcome: Outcome) -> Dict[str, int]:
    """Verifier verdict, TV certificates and oracle-battery behaviour
    of every output; each failing program is one failed operation."""
    totals = {"cycles": 0, "runs": 0, "ni": 0, "npi": 0, "rejects": 0,
              "peak_states": 0, "certificates": 0, "uncertified": 0}
    for item in compiled:
        name = item.program.name
        if item.error:
            outcome.fail(f"{name}: {item.error}")
            continue
        verification = item.report.verification
        totals["ni"] += item.output.ni
        totals["npi"] += verification.npi
        totals["peak_states"] = max(totals["peak_states"],
                                    verification.peak_states)
        certificates = item.report.certificates
        uncertified = sum(not c.certified for c in certificates)
        totals["certificates"] += len(certificates)
        totals["uncertified"] += uncertified
        digests, cycles, runs = oracle.observe(item.output)
        totals["cycles"] += cycles
        totals["runs"] += runs
        if not verification.ok:
            totals["rejects"] += 1
            outcome.fail(f"{name}: verifier reject: {verification.reason}")
        elif uncertified:
            outcome.fail(f"{name}: {uncertified} uncertified TV "
                         "certificate(s)")
        else:
            mismatch = oracle.check(expected, name, item.program.source,
                                    digests)
            if mismatch:
                outcome.fail(mismatch)
    return totals


#: (self-time metric, share metric, span name) per compile layer
LAYERS = (
    ("frontend.s", "frontend.share", "frontend"),
    ("ir.clone_s", "ir.clone_share", "ir.clone"),
    ("ir_passes.s", "ir_passes.share", "ir_passes"),
    ("codegen.baseline_s", "codegen.baseline_share", "codegen.baseline"),
    ("codegen.s", "codegen.share", "codegen"),
    ("bytecode_passes.s", "bytecode_passes.share", "bytecode_passes"),
    ("dep.s", "dep.share", "dep"),
    ("superopt.s", "superopt.share", "superopt"),
    ("layout.s", "layout.share", "layout"),
    ("tv.s", "tv.share", "tv"),
    ("verifier.s", "verifier.share", "verifier"),
    ("cache.key_s", "cache.key_share", "cache.key"),
    ("cache.get_s", "cache.get_share", "cache.get"),
    ("cache.put_s", "cache.put_share", "cache.put"),
)


def layer_report(tracer: Tracer, compiled: Sequence[Compiled], cache,
                 traced_s: float, untraced_s: float) -> Dict[str, float]:
    """Self time and share of the traced compile for each layer, the
    uncovered remainder, the tracing overhead, and the layer counts."""
    self_times = tracer.self_times()
    out: Dict[str, float] = {}
    covered = 0.0
    for time_metric, share_metric, span_name in LAYERS:
        seconds = self_times.get(span_name, 0.0)
        covered += seconds
        out[time_metric] = seconds
        out[share_metric] = 100.0 * seconds / traced_s
    out["cache.share"] = sum(out[f"cache.{k}_share"]
                             for k in ("key", "get", "put"))
    out["trace.compile_s"] = traced_s
    out["uncovered.share"] = 100.0 * (traced_s - covered) / traced_s
    out["trace.overhead_share"] = (100.0 * (traced_s - untraced_s)
                                   / untraced_s)
    out["dep.builds"] = tracer.counts().get("dep", 0)
    for parent, seconds in tracer.self_time_by_parent("dep").items():
        out[f"dep.under.{parent}_s"] = seconds
    out["cache.hit_ratio"] = cache.stats.hit_rate if cache is not None else 0.0

    rewrites = {"ir": 0, "bytecode": 0, "layout": 0}
    superopt = {"windows": 0, "searches": 0, "memo_hits": 0, "applied": 0}
    for item in compiled:
        if item.report is None:
            continue
        for stat in item.report.pass_stats:
            if stat.name == "superopt":
                for key in superopt:
                    superopt[key] += stat.details.get(key, 0)
            elif stat.name == "layout":
                rewrites["layout"] += stat.rewrites
            else:
                rewrites[stat.tier] += stat.rewrites
    out["ir_passes.rewrites"] = rewrites["ir"]
    out["bytecode_passes.rewrites"] = rewrites["bytecode"]
    out["layout.rewrites"] = rewrites["layout"]
    out["codegen.ni_emitted"] = tracer.noted.get("codegen.ni_emitted", 0)
    for key, value in superopt.items():
        out[f"superopt.{key}"] = value
    return out


def vm_layers(vm: Dict[str, float], tracer: Tracer) -> Dict[str, float]:
    self_times = tracer.self_times()
    run_s = self_times["vm.run"]
    return {"vm.build_s": self_times["vm.build"], "vm.run_s": run_s,
            "vm.insns_per_s": vm["insns"] / run_s,
            "vm.jit_bails": vm["jit_bails"],
            "layout.branch_misses": vm["branch_misses"]}


def host_sensitive(compile_s: float, max_rps: float, vm: Dict[str, float],
                   latencies_ms: Sequence[float]) -> Dict[str, float]:
    """Wall-time figures measured on every run but listed as per-layer
    metrics, which carry no bound: the host's speed drifts too far
    between runs to gate them (see NOTES.md)."""
    return {"compile_s": compile_s, "serve_max_rps": max_rps,
            "vm_pps": vm["runs"] / vm["wall_s"],
            "serve_p50_ms": percentile(latencies_ms, 50),
            "serve_p99_ms": percentile(latencies_ms, 99)}


def check_layers(totals: Dict[str, int]) -> Dict[str, float]:
    return {"tv.certificates": totals["certificates"],
            "tv.uncertified": totals["uncertified"],
            "verifier.rejects": totals["rejects"],
            "verifier.peak_states": totals["peak_states"]}


def traced_compile(programs: Sequence[inputs.Program], tiers: Tiers,
                   compiled: Sequence[Compiled], untraced_s: float,
                   outcome: Outcome) -> Tracer:
    """Replay *programs* with spans, fail any output that differs from
    the untraced *compiled*, and fill ``outcome.layers``."""
    tracer = Tracer()
    cold_vm_caches()
    cache = traced_cache(_fresh_cache(tiers), tracer)
    start = _now()
    replayed = replay_all(programs, tiers, tracer, cache)
    traced_s = _now() - start
    for plain, traced in zip(compiled, replayed):
        if not same_outputs(plain, traced):
            outcome.fail(f"{plain.program.name}: traced replay output "
                         "differs from MerlinPipeline.compile")
    outcome.layers.update(layer_report(tracer, replayed, cache, traced_s,
                                       untraced_s))
    return tracer


# ---------------------------------------------------------------- workloads
#: workload -> (program set, tiers, timed compile passes, every how
#: many outputs the VM phase loads).  XDP compiles twice: one pass is
#: ~12 s, short enough for a few seconds of host slowdown to move it;
#: a cold jit build of a large sysdig program costs ~0.1 s, so sysdig
#: loads every fourth output.
WORKLOADS = {
    "compile-sysdig": (inputs.sysdig_programs, SYSDIG_TIERS, 1, 4),
    "tiers-xdp": (inputs.xdp_programs, XDP_TIERS, 2, 1),
}


def run(workload: str, seed: int, trace: bool) -> Outcome:
    load_programs, tiers, passes, vm_stride = WORKLOADS[workload]
    outcome = Outcome()

    def set_up():
        programs = load_programs()
        return (programs, oracle.load()[workload],
                vm_inputs(programs[::vm_stride], seed))

    setups = []
    loaded = None
    for _ in range(SETUPS):
        loaded = None   # each sample starts from a collected heap
        gc.collect()
        start = _now()
        loaded = set_up()
        setups.append(_now() - start)
    programs, expected, feeds = loaded

    compiled, compile_s = timed_passes(programs, tiers, passes)
    outcome.attempted = len(compiled)

    tracers = []
    if trace:
        tracers.append(traced_compile(programs, tiers, compiled, compile_s,
                                      outcome))
        tracers.append(Tracer())
    vm = vm_phase(compiled[::vm_stride], feeds, seed,
                  tracers[-1] if trace else None)
    totals = check_outputs(compiled, expected, outcome)

    if workload == "tiers-xdp":  # modelled cycles per packet of traffic
        cycles_per_run = vm["cycles"] / vm["runs"]
    else:                        # per run of the oracle battery
        cycles_per_run = totals["cycles"] / totals["runs"]
    outcome.metrics.update({
        "setup_s": median(setups),
        "ni_optimized": totals["ni"],
        "verifier_npi": totals["npi"],
        "cycles_per_run": cycles_per_run,
        "peak_rss_mb": peak_rss_mb(),
    })
    # as a service: one in-process worker compiling every request cold
    outcome.layers.update(host_sensitive(
        compile_s, len(compiled) / compile_s, vm,
        [item.seconds * 1000.0 for item in compiled]))
    if trace:
        outcome.layers.update(vm_layers(vm, tracers[-1]))
        outcome.layers.update(check_layers(totals))
        outcome.layers.update({"serve.fast_path_ratio": 0.0,
                               "serve.batch_mean": 0.0,
                               "serve.busy_ratio": 0.0})
    outcome.report["vm"] = vm
    outcome.report["tracers"] = tracers
    return outcome
