"""The Dep analysis against an independent reference.

``tv/regioncheck.py`` certifies bytecode rewrites with the same
:class:`BytecodeAnalysis` the passes use, so a bug shared by both would
pass translation validation unnoticed.  :class:`ReferenceAnalysis` below
is the textbook algorithm instead: ``Set[int]`` use/def facts read from
the ``Instruction`` properties, basic blocks over the live instructions
only, no incremental updates.  Every query of
``BytecodeAnalysis`` must agree with it, on fuzz-corpus and XDP
programs, after random edits picked up through ``refresh()``, and on
hand-built corner cases.
"""

import random
from typing import Dict, List, Optional, Set

import pytest

from repro.core import BytecodeAnalysis, SymbolicProgram
from repro.fuzz.differential import build_program
from repro.fuzz.generator import generate
from repro.isa import BpfProgram, Instruction, assemble
from repro.isa import instruction as ins
from repro.isa import opcodes as op
from repro.workloads.xdp import ALL_XDP, compile_workload


class ReferenceAnalysis:
    """Set-based liveness over blocks of live positions (test oracle)."""

    def __init__(self, sym: SymbolicProgram):
        self.sym = sym
        self.live = [i for i, item in enumerate(sym.insns) if not item.deleted]
        self.pos_of = {idx: p for p, idx in enumerate(self.live)}
        self.targets: Set[int] = set()
        for item in sym.insns:
            if not item.deleted and item.target is not None:
                self.targets.add(self._resolve(item.target))
        self._solve(self._blocks())

    def _resolve(self, index: int) -> int:
        while index < len(self.sym.insns) and self.sym.insns[index].deleted:
            index += 1
        return index

    def _insn(self, pos: int) -> Instruction:
        return self.sym.insns[self.live[pos]].insn

    @staticmethod
    def _uses(insn: Instruction) -> Set[int]:
        return set(insn.uses())

    @staticmethod
    def _defs(insn: Instruction) -> Set[int]:
        defs = set(insn.defs())
        if insn.is_call:
            defs.update(op.CALLER_SAVED)
        return defs

    def _blocks(self):
        n = len(self.live)
        leaders = {0} if n else set()
        for target in self.targets:
            if target in self.pos_of:
                leaders.add(self.pos_of[target])
        for p in range(n):
            insn = self._insn(p)
            if ((insn.is_jump and not insn.is_call) or insn.is_exit) \
                    and p + 1 < n:
                leaders.add(p + 1)
        starts = sorted(leaders)
        bounds = starts + [n]
        blocks = []
        for b, first in enumerate(starts):
            last = bounds[b + 1] - 1
            item = self.sym.insns[self.live[last]]
            succs: List[int] = []
            if not item.insn.is_exit:
                if item.insn.is_jump and not item.insn.is_call:
                    if item.target is not None:
                        pos = self.pos_of.get(self._resolve(item.target))
                        if pos is not None:
                            succs.append(pos)
                    if item.insn.jmp_op != op.BPF_JA and last + 1 < n:
                        succs.append(last + 1)
                elif last + 1 < n:
                    succs.append(last + 1)
            blocks.append((first, last, [starts.index(s) for s in succs]))
        return blocks

    def _solve(self, blocks) -> None:
        live_in: List[Set[int]] = [set() for _ in blocks]
        live_out: List[Set[int]] = [set() for _ in blocks]
        changed = True
        while changed:
            changed = False
            for b in reversed(range(len(blocks))):
                first, last, succs = blocks[b]
                out: Set[int] = set()
                for s in succs:
                    out |= live_in[s]
                new_in = set(out)
                for p in range(last, first - 1, -1):
                    new_in -= self._defs(self._insn(p))
                    new_in |= self._uses(self._insn(p))
                if out != live_out[b] or new_in != live_in[b]:
                    live_out[b], live_in[b] = out, new_in
                    changed = True
        self.live_after: Dict[int, Set[int]] = {}
        for b, (first, last, _) in enumerate(blocks):
            live = set(live_out[b])
            for p in range(last, first - 1, -1):
                self.live_after[self.live[p]] = set(live)
                live -= self._defs(self._insn(p))
                live |= self._uses(self._insn(p))

    def straightline(self, first: int, last: int) -> bool:
        p1, p2 = self.pos_of.get(first), self.pos_of.get(last)
        if p1 is None or p2 is None or p2 < p1:
            return False
        for p in range(p1, p2 + 1):
            if p > p1 and self.live[p] in self.targets:
                return False
            insn = self._insn(p)
            if p < p2 and (insn.is_jump or insn.is_exit):
                return False
        return True

    def dead_defs(self) -> List[int]:
        dead = []
        for idx in self.live:
            insn = self.sym.insns[idx].insn
            if insn.is_memory or insn.is_call or insn.is_jump or insn.is_exit:
                continue
            if not (insn.is_alu or insn.is_ld_imm64):
                continue
            if (insn.is_alu64 and insn.alu_op == op.BPF_MOV
                    and not insn.uses_imm and insn.dst == insn.src):
                dead.append(idx)
            elif insn.defs() and not set(insn.defs()) & self.live_after[idx]:
                dead.append(idx)
        return dead


def assert_agrees(analysis: BytecodeAnalysis) -> None:
    ref = ReferenceAnalysis(analysis.sym)
    assert analysis.live == ref.live
    assert analysis.pos_of == ref.pos_of
    for idx in ref.live:
        for reg in range(11):
            assert analysis.reg_dead_after(idx, reg) == \
                (reg not in ref.live_after[idx]), (idx, reg)
    for idx in range(len(analysis.sym.insns) + 1):
        assert analysis.is_branch_target(idx) == (idx in ref.targets), idx
        if idx < len(analysis.sym.insns) and idx not in ref.pos_of:
            with pytest.raises(KeyError):
                analysis.reg_dead_after(idx, 0)
    for p, first in enumerate(ref.live):
        for last in ref.live[p:p + 5]:
            assert analysis.straightline(first, last) == \
                ref.straightline(first, last), (first, last)
    assert analysis.dead_defs() == ref.dead_defs()


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpora() -> Dict[str, List[BpfProgram]]:
    fuzz = []
    for seed in range(12):
        for layer in ("source", "bytecode"):
            try:
                fuzz.append(build_program(generate(layer, seed)))
            except Exception:
                continue  # a generated case the frontend rejects
    return {"fuzz": fuzz,
            "xdp": [compile_workload(w) for w in ALL_XDP[:8]]}


def _non_control(rng: random.Random) -> Instruction:
    reg = rng.randrange(10)
    return rng.choice([
        ins.mov64_imm(reg, rng.randrange(100)),
        ins.mov64_reg(reg, rng.randrange(11)),
        ins.alu64("add", reg, src=rng.randrange(10)),
        ins.load(8, reg, op.FP, -8),
        ins.store_imm(4, op.FP, -16, 7),
        ins.call(1),
    ])


def _random_edit(sym: SymbolicProgram, rng: random.Random) -> None:
    live = sym.live_indices()
    if len(live) < 2:
        return
    roll = rng.random()
    index = rng.choice(live[:-1])  # keep the final exit
    item = sym.insns[index]
    if roll < 0.45:
        if item.target is None or rng.random() < 0.3:
            sym.delete(index)
    elif roll < 0.6:
        for jump in sym.jumps_to_next():
            sym.delete(jump)
            break
    elif roll < 0.85:
        # any slot but the last, deleted ones included
        index = rng.randrange(len(sym.insns) - 1)
        item = sym.insns[index]
        if item.target is None and not item.insn.is_exit:
            sym.replace(index, _non_control(rng))
    elif roll < 0.95:
        sym.delete(index)  # may be a branch: the CFG must be rebuilt
    else:
        sym.insert_before(index, _non_control(rng))


@pytest.mark.parametrize("corpus", ["fuzz", "xdp"])
def test_fresh_analysis_matches_reference(corpora, corpus):
    for program in corpora[corpus]:
        assert_agrees(BytecodeAnalysis(SymbolicProgram.from_program(program)))


@pytest.mark.parametrize("corpus", ["fuzz", "xdp"])
def test_refreshed_analysis_matches_reference(corpora, corpus):
    rng = random.Random(13)
    for program in corpora[corpus]:
        sym = SymbolicProgram.from_program(program)
        analysis = BytecodeAnalysis(sym)
        for _ in range(6):
            for _ in range(rng.randrange(1, 5)):
                _random_edit(sym, rng)
            assert_agrees(analysis.refresh())


# ---------------------------------------------------------------------------
# hand-built corner cases
# ---------------------------------------------------------------------------
def _sym(asm: str = "", insns: Optional[List[Instruction]] = None):
    return SymbolicProgram.from_program(
        BpfProgram("t", insns if insns is not None else assemble(asm)))


def _check_edits(sym: SymbolicProgram, *edits) -> BytecodeAnalysis:
    """Agreement before and after each edit, fresh and refreshed."""
    analysis = BytecodeAnalysis(sym)
    assert_agrees(analysis)
    for edit in edits:
        edit(sym)
        assert_agrees(analysis.refresh())
        assert_agrees(BytecodeAnalysis(sym))
    return analysis


def test_deleted_branch_target():
    sym = _sym("""
        r0 = 0
        r2 = 5
        if r1 == 0 goto t
        r2 = 1
    t:
        r3 = 2
        r0 = r2
        exit
    """)
    analysis = _check_edits(sym, lambda s: s.delete(4))
    assert analysis.is_branch_target(5) and not analysis.is_branch_target(4)
    assert not analysis.straightline(3, 5)


def test_deleted_ld_imm64():
    sym = _sym("""
        r2 = 0x123456789 ll
        r3 = 0x5 ll
        r0 = r3
        if r0 == 0 goto out
        r0 = r2
    out:
        exit
    """)
    analysis = _check_edits(sym, lambda s: s.delete(1),
                            lambda s: s.replace(2, ins.mov64_imm(0, 1)))
    assert 0 not in analysis.dead_defs()  # r2 is still read at 4
    sym.delete(4)
    assert 0 in analysis.refresh().dead_defs()


def test_helper_call_clobbers():
    sym = _sym("""
        r1 = 1
        r6 = 2
        r2 = 3
        call 5
        r0 = r6
        r0 += r2
        exit
    """)
    analysis = _check_edits(sym, lambda s: s.delete(1))
    assert not analysis.reg_dead_after(0, 1)   # the call reads r1-r5
    assert analysis.reg_dead_after(3, 1)       # ... and clobbers them
    assert not analysis.reg_dead_after(3, 6)
    assert not analysis.straightline(2, 4)


@pytest.mark.parametrize("atomic_op", [
    op.BPF_ATOMIC_ADD | op.BPF_FETCH, op.BPF_XCHG, op.BPF_CMPXCHG])
def test_atomics(atomic_op):
    insns = [
        ins.mov64_imm(0, 1),
        ins.mov64_imm(2, 2),
        ins.atomic(8, atomic_op, op.FP, -8, 2),
        ins.mov64_reg(3, 2),
        ins.alu64("add", 3, src=0),
        ins.mov64_reg(0, 3),
        ins.exit_(),
    ]
    analysis = _check_edits(_sym(insns=insns), lambda s: s.delete(3),
                            lambda s: s.delete(4))
    assert not analysis.reg_dead_after(1, 2)
    if atomic_op == op.BPF_CMPXCHG:
        assert not analysis.reg_dead_after(0, 0)  # compared against r0


def test_ja_to_end_of_program():
    insns = [ins.mov64_imm(0, 0), ins.jump("ja", off=1), ins.mov64_imm(0, 1)]
    sym = _sym(insns=insns)
    assert sym.insns[1].target == 3
    analysis = _check_edits(sym, lambda s: s.delete(2))
    # nothing is live after the end of the program
    assert analysis.reg_dead_after(0, 0)
    # a ja to the end is not a jump to the next instruction
    assert list(sym.jumps_to_next()) == []


def test_deleted_jump_to_next_keeps_edges(monkeypatch):
    sym = _sym("""
        r2 = 1
        if r1 == 0 goto skip
        r2 = 2
        goto next
        r2 = 3
    next:
        r0 = r2
    skip:
        exit
    """)
    analysis = BytecodeAnalysis(sym)
    builds = []
    build = BytecodeAnalysis._build
    monkeypatch.setattr(BytecodeAnalysis, "_build",
                        lambda self: builds.append(1) or build(self))
    sym.delete(4)
    assert_agrees(analysis.refresh())
    assert list(sym.jumps_to_next()) == [3]
    sym.delete(3)
    assert_agrees(analysis.refresh())
    assert builds == []  # both edits re-solved the masks only
    sym.delete(1)  # a conditional branch: the CFG changes
    assert_agrees(analysis.refresh())
    assert builds == [1]


def test_backward_loop():
    sym = _sym("""
        r1 = 10
        r0 = 0
        r4 = 7
    loop:
        r0 += r1
        r1 -= 1
        if r1 != 0 goto loop
        exit
    """)
    analysis = _check_edits(sym, lambda s: s.delete(2),
                            lambda s: s.replace(1, ins.mov64_imm(0, 3)))
    assert not analysis.reg_dead_after(4, 1)   # r1 loops back
    assert not analysis.reg_dead_after(3, 0)   # r0 accumulates
    assert analysis.is_branch_target(3)


def test_loop_liveness_drops_with_its_last_use():
    # r2 is live around the loop only because "r3 = r2" reads it; once
    # that read is gone, nothing may keep r2 alive by circular reasoning
    sym = _sym("""
        r1 = 10
        r2 = 1
    loop:
        r3 = r2
        r1 -= 1
        if r1 != 0 goto loop
        r0 = 0
        exit
    """)
    analysis = _check_edits(sym, lambda s: s.delete(2))
    assert analysis.reg_dead_after(1, 2)
    assert 1 in analysis.dead_defs()


def test_compile_builds_the_analysis_once_per_pass(monkeypatch):
    """Rebuild-per-round loops must not creep back: one sysdig compile
    (baseline and optimized cleanup, cp-dce twice, slm, peephole, cc)
    builds the CFG 7 times, where rebuilding per round took 18."""
    from repro.core import MerlinPipeline
    from repro.frontend import compile_source
    from repro.isa import ProgramType
    from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite

    builds = []
    build = BytecodeAnalysis._build
    monkeypatch.setattr(BytecodeAnalysis, "_build",
                        lambda self: builds.append(1) or build(self))
    program = generate_suite("sysdig", seed=2024, scale=0.2)[0]
    module = compile_source(program.source, program.name)
    MerlinPipeline().compile(module.get(program.entry), module,
                             prog_type=ProgramType.TRACEPOINT, mcpu="v3",
                             ctx_size=TRACE_CTX_SIZE)
    assert len(builds) <= 7
