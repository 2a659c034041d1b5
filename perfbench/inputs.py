"""The programs each workload compiles, built from fixed generator seeds.

The program sets never depend on the run seed: the counts the benchmark
reports (instructions emitted, verifier-processed instructions, modelled
cycles on the oracle battery) must repeat exactly from run to run, and
the expected-observation file is recorded once for exactly these
programs.  The run seed picks everything the system is *fed* at run
time instead: VM inputs, packet streams, and the serve request schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa import ProgramType

#: paper population the sysdig workload draws from (Table 1, scaled)
SYSDIG_SEED = 2024
SYSDIG_SCALE = 0.2

#: fuzz-generator seeds of the serve pools: the hot set every request
#: stream repeats, and the never-seen sources the misses draw from
HOT_POOL_SEED = 11
MISS_POOL_SEED = 12
HOT_POOL_SIZE = 40
#: enough never-seen sources for the largest rate step (10% of
#: 400 req/s for the fixed step length in serve_bench)
MISS_POOL_SIZE = 160


@dataclass(frozen=True)
class Program:
    """One source to compile, with the load-time parameters it needs."""

    name: str
    source: str
    entry: str
    prog_type: ProgramType
    mcpu: str
    ctx_size: int


def sysdig_programs() -> List[Program]:
    from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite

    return [Program(p.name, p.source, p.entry, ProgramType.TRACEPOINT,
                    "v3", TRACE_CTX_SIZE)
            for p in generate_suite("sysdig", seed=SYSDIG_SEED,
                                    scale=SYSDIG_SCALE)]


def xdp_programs() -> List[Program]:
    from repro.workloads.xdp import ALL_XDP, XDP_CTX_SIZE

    return [Program(w.name, w.source, w.entry, ProgramType.XDP, "v2",
                    XDP_CTX_SIZE)
            for w in ALL_XDP]


def _pool(size: int, seed: int, prefix: str) -> List[Program]:
    from repro.serve.loadgen import build_pool

    return [Program(f"{prefix}_{i}", p.source, p.entry,
                    ProgramType(p.prog_type), p.mcpu, p.ctx_size)
            for i, p in enumerate(build_pool(size, seed=seed,
                                             prefilter="frontend"))]


def hot_pool() -> List[Program]:
    return _pool(HOT_POOL_SIZE, HOT_POOL_SEED, "hot")


def miss_pool() -> List[Program]:
    return _pool(MISS_POOL_SIZE, MISS_POOL_SEED, "miss")


def request_payload(program: Program) -> dict:
    """The serve ``compile`` request for *program* (default pipeline)."""
    return {"op": "compile", "name": program.name, "source": program.source,
            "entry": program.entry, "prog_type": program.prog_type.value,
            "mcpu": program.mcpu, "ctx_size": program.ctx_size}
