"""Compile-identity golden digest.

One SHA-256 over the encoded output of a fixed program set, together
with each program's ``(ni_original, ni_optimized, verifier NPI,
[(pass, rewrites)])``:

* the first 25 programs of the sysdig suite (seed 2024) on the default
  pipeline with ``verify_after``;
* the 19 XDP workloads on the default pipeline with ``verify_after``;
* six small XDP workloads through every tier (translation validation,
  superoptimizer with a fresh in-memory memo, PGO layout), adding each
  pass's detail counters and every certificate's verdict.

These are the inputs of the Fig-10 tables, so the digest is the
standing guard that analysis or pass refactors leave every emitted byte
and every counter unchanged.  The digest may only change together with
an intended change of the optimizer's output, and that change must be
recorded in CHANGES.md with the new digest.
"""

import hashlib

from repro.cache import CompilationCache
from repro.core import MerlinPipeline
from repro.frontend import compile_source
from repro.isa import ProgramType
from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite
from repro.workloads.xdp import ALL_XDP, BY_NAME, XDP_CTX_SIZE

SYSDIG_DIGEST = ("70fbc6200ae6a7b356f6fea3732aa61e"
                 "4888cb5e45b15090ca8f80ba6e910b5e")
XDP_DIGEST = ("fd3d3ff56e007e9112a35505ab25f78e"
              "edca297af62f991637dc57b20bc01f47")
TIERED_XDP_DIGEST = ("183b69842d78fc1d0c1fe2e8af9bb259"
                     "2c290bf86af9869bba20daf932b46872")
TIERED_XDP = ("xdp1", "xdp2", "xdp_redirect_map", "xdp_ddos_mitigator",
              "xdp_dropcnt", "xdp_parse_dns")


def _digest(items, tiered: bool = False) -> str:
    """*items*: (name, source, entry, prog_type, mcpu, ctx_size)."""
    pipeline = MerlinPipeline(verify_after=True)
    tiers = {}
    if tiered:
        tiers = dict(cache=CompilationCache(), validate=True, pgo=True,
                     superopt=True)
    h = hashlib.sha256()
    for name, source, entry, prog_type, mcpu, ctx_size in items:
        module = compile_source(source, name)
        output, report = pipeline.compile(
            module.get(entry), module, prog_type=prog_type, mcpu=mcpu,
            ctx_size=ctx_size, **tiers)
        h.update(name.encode() + b"\0")
        h.update(output.encode())
        h.update(repr((report.ni_original, report.ni_optimized,
                       report.verification.npi,
                       [(s.name, s.rewrites) for s in report.pass_stats])
                      ).encode())
        if tiered:
            h.update(repr(([sorted(s.details.items())
                            for s in report.pass_stats],
                           [(c.pass_name, c.kind, c.point, c.status)
                            for c in report.certificates])).encode())
    return h.hexdigest()


def test_sysdig_subset_identity():
    programs = generate_suite("sysdig", seed=2024, scale=0.2)[:25]
    assert len(programs) == 25
    digest = _digest((p.name, p.source, p.entry, ProgramType.TRACEPOINT,
                      "v3", TRACE_CTX_SIZE) for p in programs)
    assert digest == SYSDIG_DIGEST


def test_xdp_identity():
    assert len(ALL_XDP) == 19
    digest = _digest((w.name, w.source, w.entry, ProgramType.XDP, "v2",
                      XDP_CTX_SIZE) for w in ALL_XDP)
    assert digest == XDP_DIGEST


def test_tiered_xdp_identity():
    workloads = [BY_NAME[name] for name in TIERED_XDP]
    digest = _digest(((w.name, w.source, w.entry, ProgramType.XDP, "v2",
                       XDP_CTX_SIZE) for w in workloads), tiered=True)
    assert digest == TIERED_XDP_DIGEST
