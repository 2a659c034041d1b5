"""Symbolic (index-relocated) view of a bytecode program.

Bytecode rewriting changes instruction counts, which would silently
corrupt every relative branch.  ``SymbolicProgram`` converts branch
offsets into logical instruction indices, lets passes insert/delete/
replace instructions freely, and recomputes correct slot-relative
offsets on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ...isa import BpfProgram, Instruction
from ...isa import opcodes as op


class RelocationError(Exception):
    """Raised when branch targets cannot be resolved."""


@dataclass
class SymInsn:
    insn: Instruction
    target: Optional[int] = None  # logical index of the jump target
    deleted: bool = False


class SymbolicProgram:
    """A mutable, index-addressed program."""

    def __init__(self, insns: List[SymInsn]):
        self.insns = insns
        #: indices touched by :meth:`delete` and :meth:`replace`, in
        #: order; lets an analysis update only what changed
        self.edits: List[int] = []

    # --- conversion ---------------------------------------------------------
    @classmethod
    def from_program(cls, program: BpfProgram) -> "SymbolicProgram":
        insns = program.insns
        slot_at = program.slot_offsets()
        end_slot = slot_at[-1] + insns[-1].slots if insns else 0
        index_at = {slot: index for index, slot in enumerate(slot_at)}
        index_at[end_slot] = len(insns)

        sym: List[SymInsn] = []
        for insn, slot in zip(insns, slot_at):
            target = None
            if insn.is_jump and not insn.is_call and not insn.is_exit:
                target = index_at.get(slot + insn.slots + insn.off)
                if target is None:
                    raise RelocationError(
                        f"branch at slot {slot} lands inside an instruction"
                    )
            sym.append(SymInsn(insn, target))
        return cls(sym)

    def to_insns(self) -> List[Instruction]:
        """Drop deletions, recompute offsets, return final instructions."""
        # slot_at[i]: new slot of the first survivor at or after index i
        slot_at: List[int] = []
        slot = 0
        for sym in self.insns:
            slot_at.append(slot)
            if not sym.deleted:
                slot += sym.insn.slots
        slot_at.append(slot)

        result: List[Instruction] = []
        for index, sym in enumerate(self.insns):
            if sym.deleted:
                continue
            insn = sym.insn
            if sym.target is not None:
                target_slot = slot_at[min(sym.target, len(self.insns))]
                rel = target_slot - (slot_at[index] + insn.slots)
                insn = insn.with_(off=rel)
            result.append(insn)
        return result

    # --- queries ------------------------------------------------------------
    def resolve(self, index: int) -> int:
        """Where control at logical *index* really lands: the first live
        index at or after it, or ``len(insns)`` past the end."""
        insns = self.insns
        while index < len(insns) and insns[index].deleted:
            index += 1
        return index

    def branch_targets(self) -> Set[int]:
        """Logical indices some branch may land on (rewrite barriers)."""
        return {self.resolve(sym.target) for sym in self.insns
                if not sym.deleted and sym.target is not None}

    def live_indices(self) -> List[int]:
        return [i for i, sym in enumerate(self.insns) if not sym.deleted]

    def next_live(self, index: int) -> Optional[int]:
        nxt = self.resolve(index + 1)
        return nxt if nxt < len(self.insns) else None

    def jumps_to_next(self) -> Iterator[int]:
        """Live indices, in order, holding an unconditional ``ja`` that
        lands on the next live instruction, so deleting it changes
        nothing.  Lazy: each index is checked against the program as it
        is when the caller asks for the next one."""
        for index in self.live_indices():
            item = self.insns[index]
            insn = item.insn
            if item.target is None or not (
                    insn.is_jump and insn.jmp_op == op.BPF_JA
                    and not insn.is_exit and not insn.is_call):
                continue
            nxt = self.next_live(index)
            if nxt is not None and self.resolve(item.target) == nxt:
                yield index

    # --- mutation ---------------------------------------------------------------
    def delete(self, index: int) -> None:
        self.insns[index].deleted = True
        self.edits.append(index)

    def replace(self, index: int, insn: Instruction,
                target: Optional[int] = None) -> None:
        self.insns[index] = SymInsn(insn, target)
        self.edits.append(index)

    def insert_before(self, index: int, insn: Instruction,
                      target: Optional[int] = None) -> None:
        """Insert *insn* at logical *index*, shifting later indices up.

        Branches that targeted *index* keep targeting the original
        instruction (now at ``index + 1``) — the inserted instruction
        executes on fall-through only.  Pass *target* (pre-insertion
        index) to make the inserted instruction itself a branch.
        """
        if not 0 <= index <= len(self.insns):
            raise RelocationError(
                f"insert position {index} outside program of "
                f"{len(self.insns)} instructions")
        for sym in self.insns:
            if sym.target is not None and sym.target >= index:
                sym.target += 1
        if target is not None and target >= index:
            target += 1
        self.insns.insert(index, SymInsn(insn, target))
