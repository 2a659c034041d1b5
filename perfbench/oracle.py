"""Expected observations on the oracle battery.

Every program the benchmark compiles is run, untimed, on the
differential oracle's battery (``repro.fuzz.oracle``: eight inputs,
map coverage cycling full / partial / empty, reference engine).  Each
observation -- return value, map contents, bytes pushed to user space,
packet rewrites, fault -- is reduced to a short digest.  The expected
digests were recorded once from the *unoptimized* baseline programs
(``compile_function`` without Merlin) and are kept in
``data/expected_observations.json``, so an optimized program passes
only when it behaves exactly like the code clang-style codegen emits.

Re-record (only when the workload inputs change on purpose)::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

DATA_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "expected_observations.json")

BATTERY_SIZE = 8
BATTERY_SEED = 7


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def observe(program) -> Tuple[List[str], int, int]:
    """(per-input digests, modelled cycles, executions) of *program* on
    the battery."""
    from repro.fuzz.oracle import generate_tests, observe_battery

    tests = generate_tests(program, count=BATTERY_SIZE, seed=BATTERY_SEED)
    observations = observe_battery(program, tests, seed=BATTERY_SEED,
                                   include_counters=True)
    digests = []
    cycles = 0
    for obs in observations:
        behaviour = repr((obs.return_value, obs.state, obs.fault))
        digests.append(hashlib.sha256(behaviour.encode()).hexdigest()[:12])
        cycles += obs.counters[1]  # PerfCounters field order: insns, cycles
    return digests, cycles, len(observations)


def load() -> Dict[str, Dict[str, dict]]:
    with open(DATA_FILE) as fh:
        return json.load(fh)


def check(expected: Dict[str, dict], name: str, source: str,
          digests: List[str]) -> str:
    """Empty string when *digests* match the recording, else why not."""
    entry = expected.get(name)
    if entry is None:
        return f"{name}: no expected observations recorded"
    if entry["source"] != source_digest(source):
        return f"{name}: source differs from the recorded one"
    for index, (got, want) in enumerate(zip(digests, entry["battery"])):
        if got != want:
            return f"{name}: battery input {index} behaves differently"
    if len(digests) != len(entry["battery"]):
        return f"{name}: battery size differs from the recording"
    return ""


def _baseline(program):
    from repro.codegen import compile_function
    from repro.frontend import compile_source

    module = compile_source(program.source, program.name)
    return compile_function(module.get(program.entry), module,
                            prog_type=program.prog_type, mcpu=program.mcpu,
                            ctx_size=program.ctx_size)


def record() -> Dict[str, Dict[str, dict]]:
    import inputs

    sets = {
        "compile-sysdig": inputs.sysdig_programs(),
        "tiers-xdp": inputs.xdp_programs(),
        "serve-mix": inputs.hot_pool() + inputs.miss_pool(),
    }
    out: Dict[str, Dict[str, dict]] = {}
    for workload, programs in sets.items():
        out[workload] = {}
        for program in programs:
            digests, _, _ = observe(_baseline(program))
            out[workload][program.name] = {
                "source": source_digest(program.source),
                "battery": digests,
            }
    return out


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    os.makedirs(os.path.dirname(DATA_FILE), exist_ok=True)
    recorded = record()
    with open(DATA_FILE, "w") as fh:  # one program per line
        fh.write("{\n")
        for w_index, workload in enumerate(sorted(recorded)):
            fh.write(f"{json.dumps(workload)}: {{\n")
            entries = sorted(recorded[workload].items())
            for index, (name, entry) in enumerate(entries):
                comma = "," if index + 1 < len(entries) else ""
                fh.write(f"{json.dumps(name)}: "
                         f"{json.dumps(entry, sort_keys=True)}{comma}\n")
            fh.write("}" + ("," if w_index + 1 < len(recorded) else "")
                     + "\n")
        fh.write("}\n")
    print(f"wrote {DATA_FILE}")
