"""Self-tests of the benchmark itself.

Run from the repository root (about a minute; two of them start fresh
benchmark processes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compile_bench  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import serve_bench  # noqa: E402
from common import Outcome  # noqa: E402


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_two_runs_give_identical_counts():
    """Counts that later changes are compared on must repeat exactly
    in fresh interpreters (random hash seeds differ between them)."""
    seen = []
    for _ in range(2):
        done = _run(ROOT, "--workload", "tiers-xdp", "--seed", "5",
                    "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        with open(os.path.join(ROOT, ".perfbench",
                               "tiers-xdp-seed5-trace1.json")) as fh:
            result = json.load(fh)
        counts = {name: result["metrics"][name] for name in
                  ("ni_optimized", "verifier_npi", "cycles_per_run")}
        counts.update({f"superopt.{key}": result["layers"][f"superopt.{key}"]
                       for key in ("windows", "searches", "memo_hits",
                                   "applied")})
        seen.append(counts)
    assert seen[0] == seen[1]
    assert seen[0]["superopt.windows"] > 0


def test_seed_changes_generated_inputs():
    hot, miss = inputs.hot_pool(), inputs.miss_pool()

    def names(seed):
        return [p.name for p in
                serve_bench.schedule(50, 2, seed, hot, miss).programs]

    def packets(seed):
        feeds = compile_bench.vm_inputs(inputs.xdp_programs()[:2], seed)
        return [feed for _, feed in feeds]

    assert names(1) == names(1) and names(1) != names(2)
    assert packets(1) == packets(1) and packets(1) != packets(2)
    # the program sets themselves are fixed, so counts stay comparable
    assert [p.source for p in inputs.xdp_programs()] == \
        [p.source for p in inputs.xdp_programs()]


def test_planted_wrong_program_fails_the_check():
    from repro.isa.instruction import mov64_imm

    programs = inputs.xdp_programs()[:3]
    compiled = compile_bench.compile_all(programs, compile_bench.SYSDIG_TIERS)
    expected = oracle.load()["tiers-xdp"]
    clean = Outcome()
    compile_bench.check_outputs(compiled, expected, clean)
    assert clean.failures == []

    # flip the first return value the program sets: still a valid
    # program (the verifier accepts it), but it behaves differently
    target = compiled[0].output
    mov_r0 = mov64_imm(0, 0).opcode
    index = next(i for i, insn in enumerate(target.insns)
                 if insn.opcode == mov_r0 and insn.dst == 0)
    target.insns[index] = dataclasses.replace(
        target.insns[index], imm=target.insns[index].imm ^ 1)
    planted = Outcome()
    compile_bench.check_outputs(compiled, expected, planted)
    assert len(planted.failures) == 1
    assert "behaves differently" in planted.failures[0]


def test_traced_replay_is_byte_identical():
    programs = inputs.xdp_programs()[:4]
    plain = compile_bench.compile_all(programs, compile_bench.XDP_TIERS)
    outcome = Outcome()
    tracer = compile_bench.traced_compile(programs, compile_bench.XDP_TIERS,
                                          plain, 1.0, outcome)
    assert outcome.failures == []
    assert outcome.layers["superopt.s"] > 0 and outcome.layers["dep.builds"]
    names = {span[0] for span in tracer.spans}
    assert {"frontend", "codegen", "superopt", "layout", "tv", "verifier",
            "dep", "cache.get", "cache.put"} <= names


def test_refuses_without_the_repository():
    """In a directory holding only the benchmark, exit non-zero and
    print no result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-",
                            dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "--workload", "tiers-xdp", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
