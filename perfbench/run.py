"""End-to-end benchmark of the Merlin reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile-sysdig --seed 1 \\
        --seconds 10 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):

* ``compile-sysdig`` -- cold compile of the 134-program Sysdig suite;
* ``tiers-xdp``      -- the 19 XDP programs through every tier, then run
                        on the jit VM over seeded traffic;
* ``serve-mix``      -- open-loop load on one ``repro serve`` daemon,
                        10% never-seen sources, over a fixed rate grid.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; ``--trace 1`` is the separate traced run that times every
layer from outside and reports the per-layer metrics.  Every run checks
its outputs; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result (environment fingerprint, every layer figure, failures) is
also written under ``.perfbench/`` in the current directory, and traced
runs write their spans there as JSON lines.

Exit status: 0 when every output was right, 1 when any was wrong, 2
when the repository to measure is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("compile-sysdig", "tiers-xdp", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the serve-mix step at the "
                             "nominal rate; the compile workloads "
                             "measure a fixed program set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from common import fingerprint

    units = _metric_units(bool(args.trace))
    env = fingerprint(ROOT)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env, sort_keys=True)}", flush=True)
    started = time.perf_counter()
    if args.workload == "serve-mix":
        import serve_bench

        outcome = serve_bench.run(args.seed, args.seconds, bool(args.trace),
                                  ROOT)
    else:
        import compile_bench

        outcome = compile_bench.run(args.workload, args.seed,
                                    bool(args.trace))
    values = outcome.layers if args.trace else outcome.metrics
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for name in units:
        if not math.isfinite(values[name]):  # e.g. p99 over lost requests
            outcome.fail(f"metric {name} is {values[name]}")
            values[name] = None

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for index, tracer in enumerate(outcome.report.pop("tracers", [])):
        tracer.dump(os.path.join(out_dir, f"{stem}-spans{index}.jsonl"))
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({"env": env, "args": vars(args),
                   "wall_s": time.perf_counter() - started,
                   "failures": outcome.failures,
                   "metrics": outcome.metrics, "layers": outcome.layers,
                   "report": outcome.report}, fh, indent=1, sort_keys=True,
                  default=str)
    for message in outcome.failures[:50]:
        print(f"FAIL {message}", flush=True)
    if args.trace:
        for name in sorted(outcome.layers):
            print(f"layer {name} = {outcome.layers[name]:.6g}")
    failed = len(outcome.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
