"""Bytecode dependency analysis (the paper's "Dep" component).

Builds a CFG over logical instruction indices and solves register
liveness; the rewriting passes consult it to prove that a register is
dead after an instruction (CP/DCE, peephole) or that no branch target
splits a candidate pattern.

Register facts are masks (bit r stands for register r).  Each
instruction is predecoded once into a ``(use, defs, flags)`` record.
The CFG spans every slot of the :class:`SymbolicProgram`, deleted slots
being no-ops, so rewrites that delete or replace non-branch instructions
(or delete a ``ja`` to the next instruction) leave its edges valid:
:meth:`BytecodeAnalysis.refresh` then only updates the changed records
and re-runs the mask solve.  Any other rewrite rebuilds the CFG.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...isa import Instruction
from ...isa import opcodes as op
from .symbolic import SymbolicProgram

#: record flags
ENDS_BLOCK = 1   # jump (not a call) or exit
CONTROL = 2      # jump, call or exit: no straightline region runs past it
EXIT = 4
CONDITIONAL = 8  # block-ending jump that may fall through
PURE_DEF = 16    # ALU or ld_imm64 that only defines registers
SELF_MOVE = 32   # 64-bit ``mov rX, rX``

#: the record of a deleted slot (compared by identity)
_NOP = (0, 0, 0)
_CALLER_SAVED = sum(1 << reg for reg in op.CALLER_SAVED)

#: predecoded records keyed by the fields that decide them (all but
#: ``off``); cleared when full so memory stays bounded
_DECODED: Dict[Tuple[int, int, int, int], Tuple[int, int, int]] = {}
_DECODED_MAX = 4096


def _mask(regs: Iterable[int]) -> int:
    return sum(1 << reg for reg in set(regs))


def _decode(insn: Instruction) -> Tuple[int, int, int]:
    """Uses (calls read every argument register), defs (calls clobber
    r0-r5) and flags of *insn*."""
    own = _mask(insn.defs())
    flags = 0
    if insn.is_jump:  # calls and exits included
        flags = CONTROL
        if insn.is_exit:
            flags |= ENDS_BLOCK | EXIT
        elif not insn.is_call:
            flags |= ENDS_BLOCK
            if insn.jmp_op != op.BPF_JA:
                flags |= CONDITIONAL
    elif not insn.is_memory and (insn.is_alu or insn.is_ld_imm64):
        if (insn.is_alu64 and insn.alu_op == op.BPF_MOV
                and not insn.uses_imm and insn.dst == insn.src):
            flags = SELF_MOVE
        elif own:
            flags = PURE_DEF
    defs = own | _CALLER_SAVED if insn.is_call else own
    return _mask(insn.uses()), defs, flags


def decode(insn: Instruction) -> Tuple[int, int, int]:
    key = (insn.opcode, insn.dst, insn.src, insn.imm)
    rec = _DECODED.get(key)
    if rec is None:
        if len(_DECODED) >= _DECODED_MAX:
            _DECODED.clear()
        rec = _DECODED[key] = _decode(insn)
    return rec


@dataclass
class BytecodeBlock:
    """One basic block over logical instruction indices."""

    first: int
    last: int
    #: terminator shape: "exit" | "jump" | "cond" | "fall"
    kind: str = "fall"
    #: block ids; END (== number of blocks) is the one-past-the-end
    #: pseudo block, preserved so off-the-end control flow relocates
    taken: Optional[int] = None   # cond: jump-taken successor
    fall: Optional[int] = None    # cond/fall: fall-through; jump: target


def control_flow_blocks(sym: SymbolicProgram,
                        recs: Optional[Sequence[Tuple[int, int, int]]] = None
                        ) -> List[BytecodeBlock]:
    """Decompose a symbolic program into basic blocks: the one place
    the CFG is built, shared by liveness and the layout pass.  *recs*
    are the slots' records (deleted slots fall through); block id
    ``len(blocks)`` is the end-of-program pseudo target."""
    items = sym.insns
    if recs is None:
        recs = [_NOP if item.deleted else decode(item.insn) for item in items]
    n = len(items)
    leaders = {0} if n else set()
    for index, (item, rec) in enumerate(zip(items, recs)):
        if rec is not _NOP and item.target is not None and item.target < n:
            leaders.add(item.target)
        if rec[2] & ENDS_BLOCK and index + 1 < n:
            leaders.add(index + 1)
    starts = sorted(leaders)
    block_of = {start: bid for bid, start in enumerate(starts)}

    def resolve(index: Optional[int]) -> int:
        return len(starts) if index is None or index >= n else block_of[index]

    blocks: List[BytecodeBlock] = []
    for first, end in zip(starts, starts[1:] + [n]):
        block = BytecodeBlock(first=first, last=end - 1)
        flags, target = recs[end - 1][2], items[end - 1].target
        if flags & EXIT:
            block.kind = "exit"
        elif flags & CONDITIONAL:
            block.kind = "cond"
            block.taken, block.fall = resolve(target), resolve(end)
        elif flags & ENDS_BLOCK:
            block.kind, block.fall = "jump", resolve(target)
        else:
            block.fall = resolve(end)
        blocks.append(block)
    return blocks


class BytecodeAnalysis:
    """Liveness + CFG facts for the live instructions of a symbolic
    program.  Positions refer to indices in ``sym.insns`` (original
    logical indices), restricted to non-deleted entries.

    The facts describe the program as of construction or the last
    :meth:`refresh`; rewrites made in between do not show until then."""

    def __init__(self, sym: SymbolicProgram):
        self.sym = sym
        self._build()

    # --------------------------------------------------------------- building
    def _build(self) -> None:
        items = self.sym.insns
        n = len(items)
        self._items = list(items)
        self._seen = len(self.sym.edits)
        recs = self._recs = [_NOP if item.deleted else decode(item.insn)
                             for item in items]
        self._branches = [i for i, item in enumerate(items)
                          if not item.deleted and item.target is not None]
        blocks = control_flow_blocks(self.sym, recs)
        nblocks = len(blocks)
        self._starts = [block.first for block in blocks]
        self._lasts = [block.last for block in blocks]
        self._succs = [tuple(b for b in (block.taken, block.fall)
                             if b is not None and b < nblocks)
                       for block in blocks]
        self._gen, self._kill = [0] * nblocks, [0] * nblocks
        self._live_out = [0] * nblocks
        self._after = [0] * n
        self._solve(range(nblocks))

    def _edges_unchanged(self, index: int) -> bool:
        """Whether the CFG still holds after the edit of slot *index*:
        true for a non-branch replacing a non-branch, and for a deleted
        ``ja`` that lands where falling through would."""
        old_item, item = self._items[index], self.sym.insns[index]
        if self._recs[index] is _NOP:
            return item is old_item and item.deleted
        old_flags = self._recs[index][2]
        if item.deleted and item is old_item:
            if not old_flags & ENDS_BLOCK:
                return True
            return (not old_flags & (CONDITIONAL | EXIT)
                    and item.target is not None
                    and self.sym.resolve(item.target)
                    == self.sym.resolve(index + 1))
        return (old_item.target is None and item.target is None
                and not (old_flags | decode(item.insn)[2]) & ENDS_BLOCK)

    def refresh(self) -> "BytecodeAnalysis":
        """Bring the facts up to date with the program's edits: re-solve
        the masks when the CFG still holds, rebuild it otherwise."""
        sym = self.sym
        edits = sym.edits[self._seen:]
        if (len(sym.insns) != len(self._items)
                or not all(map(self._edges_unchanged, edits))):
            self._build()
            return self
        for index in edits:
            item = self._items[index] = sym.insns[index]
            self._recs[index] = _NOP if item.deleted else decode(item.insn)
        self._seen = len(sym.edits)
        if edits:
            self._solve({bisect_right(self._starts, i) - 1 for i in edits})
        return self

    def _solve(self, dirty: Iterable[int]) -> None:
        """Re-summarize the *dirty* blocks, solve liveness from empty
        sets over the block summaries, and refresh the per-slot facts of
        every block whose records or live-out set changed."""
        recs, gen, kill = self._recs, self._gen, self._kill
        starts, lasts = self._starts, self._lasts
        stale = set(dirty)
        for b in stale:
            g = k = 0
            for i in range(lasts[b], starts[b] - 1, -1):
                use, defs, _ = recs[i]
                g = (g & ~defs) | use
                k |= defs
            gen[b], kill[b] = g, k

        succs = self._succs
        live_in = list(gen)
        live_out = [0] * len(starts)
        order = range(len(starts) - 1, -1, -1)
        changed = True
        while changed:
            changed = False
            for b in order:
                out = 0
                for s in succs[b]:
                    out |= live_in[s]
                if out != live_out[b]:
                    live_out[b] = out
                    live_in[b] = gen[b] | (out & ~kill[b])
                    changed = True
        stale.update(b for b, (old, new) in
                     enumerate(zip(self._live_out, live_out)) if old != new)
        self._live_out = live_out

        after = self._after
        for b in stale:
            live = live_out[b]
            for i in range(lasts[b], starts[b] - 1, -1):
                after[i] = live
                use, defs, _ = recs[i]
                live = (live & ~defs) | use

        items = self.sym.insns
        self.live = [i for i, rec in enumerate(recs) if rec is not _NOP]
        self.pos_of: Dict[int, int] = {idx: p for p, idx in enumerate(self.live)}
        self.targets: Set[int] = {self.sym.resolve(items[i].target)
                                  for i in self._branches
                                  if recs[i] is not _NOP}

    # ----------------------------------------------------------------- queries
    def reg_dead_after(self, index: int, reg: int) -> bool:
        """True when *reg* is not read after the instruction at logical
        *index* before being redefined."""
        if index not in self.pos_of:
            raise KeyError(f"instruction {index} is deleted")
        return not self._after[index] >> reg & 1

    def is_branch_target(self, index: int) -> bool:
        return index in self.targets

    def straightline(self, first: int, last: int) -> bool:
        """True when control cannot enter or leave (first, last] except by
        falling through: no branch targets strictly inside, and no jumps,
        calls or exits in [first, last)."""
        p1, p2 = self.pos_of.get(first), self.pos_of.get(last)
        if p1 is None or p2 is None or p2 < p1:
            return False
        live, recs, targets = self.live, self._recs, self.targets
        for p in range(p1, p2):
            if recs[live[p]][2] & CONTROL or live[p + 1] in targets:
                return False
        return True

    def dead_defs(self) -> List[int]:
        """Logical indices whose only effect is defining never-read,
        side-effect-free registers (includes self-moves)."""
        recs, after = self._recs, self._after
        dead: List[int] = []
        for idx in self.live:
            _, defs, flags = recs[idx]
            if flags & SELF_MOVE or (flags & PURE_DEF
                                     and not defs & after[idx]):
                dead.append(idx)
        return dead
