"""Content-addressed cache keys for compilation results.

A key digests everything that determines the output of
:meth:`MerlinPipeline.compile`:

* the **canonical IR text** of the function being compiled (the same
  textual form ``repro.fuzz`` round-trips through), plus the module's
  map declarations and sibling functions when a module is supplied —
  codegen reads both;
* the **enabled optimizer set** (sorted short names);
* the **kernel configuration** (every field: the gate decisions, limits
  and verifier cost model all feed the result);
* **mcpu**, **program type**, **ctx size**, ``verify_after``, and
  whether **translation validation** ran (a validated entry carries
  per-pass certificates in its report; an unvalidated one does not, so
  the two must never share an entry);
* the **profile-guided layout spec** when PGO is requested — the
  deterministic :class:`~repro.core.bytecode_passes.layout.PgoSpec`
  fingerprint (workload size, runs, seed, budget), not the collected
  counts: the spec fully determines the profile for a given program, so
  keying the spec keys the layout;
* the **superoptimizer spec** when the superopt tier is requested — the
  :class:`~repro.core.superopt.SuperoptSpec` fingerprint (window,
  search budget, seed): the tier is deterministic for a given spec, so
  keying the spec keys the rewrites.

The same store also holds the superoptimizer's *rewrite memo* under a
separate key namespace (:func:`key_for_window`): entries keyed by the
canonicalized window content plus the search-relevant spec parts, so
one discovery is shared by every program — and every serve worker —
that contains the same window shape.

Keys are hex SHA-256 digests, so they are safe as file names for the
on-disk store.  ``SCHEMA_VERSION`` is folded in; bump it whenever the
serialized entry format or pipeline semantics change incompatibly.
The :func:`build_fingerprint` of the optimizer's own sources is folded
in too, so a persistent, shared cache never serves an entry built by a
different implementation of the passes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
from typing import FrozenSet, Iterable, Optional

from .. import ir
from ..ir.printer import print_function, print_module
from ..isa import ProgramType
from ..verifier import KernelConfig

#: bump to invalidate every previously written cache entry
SCHEMA_VERSION = 4

#: subpackages of ``repro`` whose source decides what a compile emits
FINGERPRINTED = ("frontend", "ir", "codegen", "core", "isa", "verifier", "tv")


@functools.lru_cache(maxsize=None)
def build_fingerprint() -> str:
    """SHA-256 over the path and bytes of every ``.py`` file of the
    :data:`FINGERPRINTED` packages, computed once per process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for package in FINGERPRINTED:
        top = os.path.join(root, package)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def canonical_text(func: ir.Function, module: Optional[ir.Module] = None) -> str:
    """The text-canonical form of a compilation input.

    With a module, the whole module is rendered (maps and sibling
    functions can both affect codegen) and the entry point is recorded;
    without one, the function's own textual IR stands alone.
    """
    if module is not None:
        return f"entry @{func.name}\n{print_module(module)}"
    return print_function(func)


def kernel_fingerprint(kernel: KernelConfig) -> str:
    """Every field of the kernel config, in declaration order."""
    return ",".join(
        f"{f.name}={getattr(kernel, f.name)}"
        for f in dataclasses.fields(kernel)
    )


def compose_key(
    ir_text: str,
    enabled: Iterable[str],
    kernel: KernelConfig,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 64,
    verify_after: bool = False,
    validate: bool = False,
    pgo: Optional[str] = None,
    superopt: Optional[str] = None,
) -> str:
    """SHA-256 hex digest over the full compilation configuration.

    *pgo* is the :meth:`PgoSpec.fingerprint` string when profile-guided
    layout runs, or ``None``; the two configurations must never share
    an entry (layout reorders the emitted instruction stream).
    *superopt* is likewise the :meth:`SuperoptSpec.fingerprint` string
    when the superopt tier runs (it rewrites the instruction stream).
    """
    parts = (
        f"schema={SCHEMA_VERSION}",
        f"build={build_fingerprint()}",
        f"passes={','.join(sorted(enabled))}",
        f"kernel={kernel_fingerprint(kernel)}",
        f"prog_type={prog_type.value}",
        f"mcpu={mcpu}",
        f"ctx_size={ctx_size}",
        f"verify_after={int(verify_after)}",
        f"validate={int(validate)}",
        f"pgo={pgo if pgo is not None else '-'}",
        f"superopt={superopt if superopt is not None else '-'}",
        "ir:",
        ir_text,
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def key_for_bytecode(program) -> str:
    """Content key for a :class:`repro.isa.BpfProgram`'s *executable
    identity*: the encoded instruction stream plus the map declarations
    (map handles feed ``ld_imm64`` pseudo relocations).

    This is the key the VM's pre-decode cache (:mod:`repro.vm.engine`)
    uses, so a program decoded once is shared by every Machine built
    over the same bytecode — across batch runs, fuzz observations, and
    benchmark loops.  Name, prog type and ctx size do not affect
    decoding and are deliberately excluded.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION};vm-decode;".encode())
    for name, spec in program.maps.items():
        digest.update(
            f"map={name}:{spec.map_type}:{spec.key_size}:"
            f"{spec.value_size}:{spec.max_entries};".encode()
        )
    digest.update(program.encode())
    return digest.hexdigest()


def key_for_window(insns, search: str = "") -> str:
    """Content key for a *canonicalized* superoptimizer window — the
    rewrite-memo namespace.

    The digest covers the canonical instruction encoding (registers
    renamed, offsets rebased by :func:`repro.core.superopt
    .canonicalize_window`) plus *search*, the spec's search-relevant
    fingerprint: entries found under different search budgets or seeds
    must not answer for one another, or ``cached == fresh`` breaks.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION};build={build_fingerprint()};"
                  f"superopt-memo;{search};".encode())
    for insn in insns:
        digest.update(insn.encode())
    return digest.hexdigest()


def key_for_function(
    func: ir.Function,
    module: Optional[ir.Module] = None,
    *,
    enabled: FrozenSet[str],
    kernel: KernelConfig,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 64,
    verify_after: bool = False,
    validate: bool = False,
    pgo: Optional[str] = None,
    superopt: Optional[str] = None,
) -> str:
    """Key an IR function directly (renders its canonical text first)."""
    return compose_key(canonical_text(func, module), enabled, kernel,
                       prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size,
                       verify_after=verify_after, validate=validate,
                       pgo=pgo, superopt=superopt)
