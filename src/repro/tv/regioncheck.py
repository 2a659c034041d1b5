"""Bytecode-tier witness validation.

Every bytecode witness carries a snapshot of the whole pre-rewrite
program, so the validator re-derives each claim independently of the
pass that made it:

* ``region`` — recheck that the region really is straightline and that
  each claimed-clobbered register really is dead afterwards (fresh
  :class:`BytecodeAnalysis` on the snapshot), then symbolically execute
  the before/after instruction lists from a common initial state and
  prove every non-clobbered register and every written memory byte
  equal (:func:`repro.tv.expr.prove_equal`).
* ``dead-def`` — recheck the deleted instruction is side-effect-free
  and that everything it defines is dead.
* ``jump-thread`` — recheck the deleted jump resolved to the
  instruction that now falls through.

Alarm policy: a ``refuted`` certificate always carries a *concrete*
counterexample (a register/memory assignment under which the two
regions compute different states) or a failed structural claim that the
rewrite visibly depends on.  Inconclusive symbolic results degrade to
``checked``, never to an alarm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.bytecode_passes.analysis import SELF_MOVE, BytecodeAnalysis, decode
from ..core.bytecode_passes.symbolic import SymInsn, SymbolicProgram
from ..isa import Instruction
from ..isa import opcodes as op
from .expr import Sym, evaluate, prove_equal, render
from .state import SymState, Unsupported, initial_byte, run_region
from .witness import Certificate, RewriteWitness, Snapshot

_U64 = (1 << 64) - 1


def rebuild(snapshot: Snapshot) -> SymbolicProgram:
    """Reconstruct the pre-rewrite SymbolicProgram from a witness."""
    return SymbolicProgram(
        [SymInsn(insn, target, deleted) for insn, target, deleted in snapshot]
    )


def _refuted(witness: RewriteWitness, method: str, detail: str,
             counterexample: Optional[Dict[str, str]] = None) -> Certificate:
    return Certificate(witness.pass_name, witness.tier, witness.kind,
                       witness.point, method, "refuted",
                       counterexample=counterexample, detail=detail)


def _proved(witness: RewriteWitness, method: str,
            detail: str = "") -> Certificate:
    return Certificate(witness.pass_name, witness.tier, witness.kind,
                       witness.point, method, "proved", detail=detail)


def validate_bytecode_witness(witness: RewriteWitness,
                              seed: int = 0) -> Certificate:
    """Issue a certificate for one bytecode-tier rewrite witness."""
    if witness.kind == "region":
        return _validate_region(witness, seed)
    if witness.kind == "dead-def":
        return _validate_dead_def(witness)
    if witness.kind == "jump-thread":
        return _validate_jump_thread(witness)
    if witness.kind == "layout":
        return _validate_layout(witness)
    return Certificate(witness.pass_name, witness.tier, witness.kind,
                       witness.point, "structural", "checked",
                       detail=f"unknown witness kind {witness.kind!r}")


# ---------------------------------------------------------------------------
# structural kinds
# ---------------------------------------------------------------------------
def _validate_jump_thread(witness: RewriteWitness) -> Certificate:
    sym = rebuild(witness.snapshot)
    item = sym.insns[witness.first]
    insn = item.insn
    if not _is_plain_ja(insn):
        return _refuted(witness, "structural",
                        f"deleted instruction is not a plain jump: {insn}")
    if item.target is None:
        return _refuted(witness, "structural", "jump has no recorded target")
    resolved = sym.resolve(item.target)
    if resolved != sym.next_live(witness.first):
        return _refuted(
            witness, "structural",
            f"jump resolves to insn {resolved}, not the fall-through "
            f"{sym.next_live(witness.first)} — deleting it redirects "
            f"control flow")
    return _proved(witness, "structural",
                   "jump target is the fall-through instruction")


def _validate_dead_def(witness: RewriteWitness) -> Certificate:
    sym = rebuild(witness.snapshot)
    insn = sym.insns[witness.first].insn
    if insn.is_memory or insn.is_call or insn.is_jump or insn.is_exit:
        return _refuted(witness, "structural",
                        f"deleted instruction has side effects: {insn}")
    if decode(insn)[2] & SELF_MOVE:
        return _proved(witness, "structural", "64-bit self-move is a no-op")
    defs = insn.defs()
    if not defs:
        return _refuted(witness, "structural",
                        f"instruction defines nothing deletable: {insn}")
    analysis = BytecodeAnalysis(sym)
    for reg in defs:
        if not analysis.reg_dead_after(witness.first, reg):
            return _refuted(
                witness, "structural",
                f"r{reg} is read after insn {witness.first} — the deleted "
                f"definition was live")
    return _proved(witness, "structural",
                   "defined registers are dead; no side effects")


def _is_plain_ja(insn: Instruction) -> bool:
    return (insn.is_jump and not insn.is_call and not insn.is_exit
            and insn.jmp_op == op.BPF_JA)


def _is_cond_jump(insn: Instruction) -> bool:
    return (insn.is_jump and not insn.is_call and not insn.is_exit
            and insn.jmp_op != op.BPF_JA)


def _resolve_ja(sym: SymbolicProgram, index: Optional[int]) -> Tuple[str,
                                                                     int]:
    """Follow unconditional jumps until a real instruction.

    Returns ``("insn", i)``, ``("end", _)`` for one-past-the-end, or
    ``("spin", _)`` for a cycle made only of ``ja`` instructions (both
    sides then burn their instruction budget without observable effect).
    """
    n = len(sym.insns)
    seen = set()
    while True:
        if index is None or index >= n:
            return "end", n
        if index in seen:
            return "spin", index
        insn = sym.insns[index].insn
        if not _is_plain_ja(insn):
            return "insn", index
        seen.add(index)
        index = sym.insns[index].target


def _validate_layout(witness: RewriteWitness) -> Certificate:
    """Prove a re-layout behavior-preserving by bisimulation.

    Walks the before/after programs in lock-step from their entries,
    treating unconditional jumps as transparent (layout freely inserts
    and removes them).  At every matched pair, non-branch instructions
    must be identical, and conditional branches must be identical or
    complementary with swapped successors (straightening).  Since both
    programs are deterministic and every observable operation (ALU,
    memory, helper calls, exits, branch decisions) is matched 1:1, the
    two programs compute identical results on every input — only perf
    counters (and budget-fault timing on ``ja``-heavy paths) may differ,
    which is exactly the layout contract.
    """
    from ..core.bytecode_passes.layout import invert_condition
    from ..isa import BpfProgram

    before = rebuild(witness.snapshot)
    if any(item.deleted for item in before.insns):
        return _refuted(witness, "structural",
                        "layout witness snapshot contains deletions")
    try:
        after = SymbolicProgram.from_program(
            BpfProgram(witness.pass_name, list(witness.after_insns)))
    except Exception as exc:
        return _refuted(witness, "structural",
                        f"after-program does not relocate: {exc}")

    nb, na = len(before.insns), len(after.insns)
    agenda: List[Tuple[Optional[int], Optional[int]]] = [(0, 0)]
    matched = set()
    while agenda:
        raw_b, raw_a = agenda.pop()
        kind_b, b = _resolve_ja(before, raw_b)
        kind_a, a = _resolve_ja(after, raw_a)
        if kind_b != kind_a:
            return _refuted(
                witness, "structural",
                f"control flow diverges: before reaches {kind_b} at "
                f"{b}, after reaches {kind_a} at {a}")
        if kind_b != "insn":
            continue  # both ended, or both spin in a ja-only cycle
        if (b, a) in matched:
            continue
        matched.add((b, a))
        ib, ia = before.insns[b].insn, after.insns[a].insn
        if _is_cond_jump(ib) or _is_cond_jump(ia):
            if not (_is_cond_jump(ib) and _is_cond_jump(ia)):
                return _refuted(
                    witness, "structural",
                    f"before insn {b} and after insn {a} disagree on "
                    f"being a conditional branch")
            tb = before.insns[b].target
            ta = after.insns[a].target
            norm_b, norm_a = ib.with_(off=0), ia.with_(off=0)
            if norm_b == norm_a:
                agenda.append((tb, ta))
                agenda.append((b + 1, a + 1))
            elif invert_condition(norm_b) == norm_a:
                agenda.append((tb, a + 1))   # taken arm falls through now
                agenda.append((b + 1, ta))   # fall-through arm is the jump
            else:
                return _refuted(
                    witness, "structural",
                    f"condition at before insn {b} is neither preserved "
                    f"nor inverted at after insn {a}")
        else:
            if ib != ia:
                return _refuted(
                    witness, "structural",
                    f"instruction differs: before insn {b} ({ib}) vs "
                    f"after insn {a} ({ia})")
            if not ib.is_exit:
                agenda.append((b + 1, a + 1))
    return _proved(
        witness, "structural",
        f"lock-step bisimulation over {len(matched)} instruction "
        f"pair(s); jumps transparent, conditions preserved up to "
        f"inversion")


# ---------------------------------------------------------------------------
# region equivalence
# ---------------------------------------------------------------------------
def _validate_region(witness: RewriteWitness, seed: int) -> Certificate:
    sym = rebuild(witness.snapshot)
    analysis = BytecodeAnalysis(sym)

    if not analysis.straightline(witness.first, witness.last):
        return _refuted(
            witness, "structural",
            "rewritten region is not straightline — a branch can enter or "
            "leave it mid-way")
    for reg in witness.clobbered:
        if not analysis.reg_dead_after(witness.last, reg):
            return _refuted(
                witness, "structural",
                f"r{reg} is claimed clobbered but is read after insn "
                f"{witness.last}")

    try:
        before = run_region(witness.before_insns)
        after = run_region(witness.after_insns)
    except Unsupported as exc:
        return Certificate(witness.pass_name, witness.tier, witness.kind,
                           witness.point, "structural", "checked",
                           detail=f"outside the symbolic fragment: {exc}")
    return compare_states(witness, before, after, seed)


def compare_states(witness: RewriteWitness, before: SymState,
                   after: SymState, seed: int) -> Certificate:
    """Prove the two final states equal modulo the clobber set."""
    clobbered = set(witness.clobbered)
    goals: List[Tuple[str, object, object]] = []
    for reg in range(11):
        if reg in clobbered:
            continue
        if before.regs[reg] == after.regs[reg]:
            continue  # cheap structural pre-filter
        goals.append((f"r{reg}", before.regs[reg], after.regs[reg]))
    keys = set(before.memory) | set(after.memory)
    for base, off in sorted(keys, key=lambda k: (repr(k[0]), k[1])):
        lhs = before.memory.get((base, off), initial_byte(base, off))
        rhs = after.memory.get((base, off), initial_byte(base, off))
        if lhs == rhs:
            continue
        goals.append((render(initial_byte(base, off)), lhs, rhs))

    methods = set()
    checked = False
    for where, lhs, rhs in goals:
        status, method, env = prove_equal(lhs, rhs, seed=seed)
        methods.add(method)
        if status == "refuted":
            counterexample = _describe_counterexample(where, lhs, rhs, env)
            return _refuted(
                witness, method,
                f"{where} differs between the original and rewritten "
                f"region", counterexample)
        if status == "checked":
            checked = True

    method = ("symbolic" if not methods or methods == {"symbolic"}
              else "enumeration")
    status = "checked" if checked else "proved"
    detail = (f"{len(goals)} non-trivial goal(s)" if goals
              else "states are structurally identical")
    return Certificate(witness.pass_name, witness.tier, witness.kind,
                       witness.point, method, status, detail=detail)


def _describe_counterexample(where: str, lhs, rhs,
                             env: Optional[Dict[Sym, int]]
                             ) -> Dict[str, str]:
    env = env or {}
    out = {"location": where}
    for sym, value in sorted(env.items(), key=lambda kv: render(kv[0])):
        out[render(sym)] = hex(value)
    out["before"] = hex(evaluate(lhs, env))
    out["after"] = hex(evaluate(rhs, env))
    return out
