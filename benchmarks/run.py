"""Seeded, layered benchmark for semcomp.

Run from the root of a checkout of the repository:

    python3 benchmarks/run.py --workload skewed --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke
    python3 benchmarks/run.py --write-benchmark-json

A run prints a human-readable report, then, as its last line, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 0`
reports the end-to-end metrics and `--trace 1` the per-layer metrics (see
metrics.py and README.md).  The full record, and the spans of a traced run,
are written under `.bench_work/` in the checkout.  The exit code is 0 only if
every correctness check passed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"


def _import_harness():
    """Import the benchmark against the semcomp sources of this checkout."""
    if not (SRC / "semcomp" / "__init__.py").is_file():
        sys.exit("benchmarks/run.py: no semcomp sources under %s; run it from "
                 "a checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import harness
    import semcomp
    if not Path(semcomp.__file__).resolve().is_relative_to(SRC):
        sys.exit("benchmarks/run.py: imported semcomp from %s, not from %s"
                 % (semcomp.__file__, SRC))
    return harness


def report_line(result, units):
    """The last output line: correctness counts and the metrics with units."""
    gate = result.gate
    return json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    })


def _print_report(spec_name, seed, trace, result, units):
    info = result.info
    print("workload %s  seed %d  trace %d" % (spec_name, seed, trace))
    print("inputs   %s" % json.dumps(info["inputs"]))
    print("machine  %s" % json.dumps(info["machine"]))
    print("counts   %s" % json.dumps(info["counts"]))
    print("runs     set-up %d, round trips %d, planner %d"
          % (info["setup_runs"], info["roundtrip_samples"], info["plan_runs"]))
    if "beyond_p90" in info:
        print("p90      %d of %d round trips lie beyond it"
              % (info["beyond_p90"], info["roundtrip_samples"]))
    for name, value in result.metrics.items():
        print("  %-36s %14s %s" % (name, "n/a" if value is None
                                   else "%.6g" % value, units[name]))
    print("  %-36s %14.6g %s" % ("error_rate", info["error_rate"], "ratio"))
    for what, acc in info.get("accounting", {}).items():
        print("self time per %s: %s" % (what, json.dumps(acc)))
    for failure in result.gate.failures:
        print("FAILED: %s" % failure)


def main(argv=None):
    sys.path.insert(0, str(HERE))
    import metrics
    from workloads import SPECS, tiny

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload, tiny, untraced and traced")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from metrics.py")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(metrics.benchmark_json(),
                                             encoding="utf-8")
        return 0
    harness = _import_harness()

    if args.smoke:
        # Every workload at a tiny size, both modes, with the gate on; the
        # last line is the overall verdict.
        ok = True
        for spec in SPECS.values():
            for trace in (0, 1):
                result = harness.run(tiny(spec), args.seed, 0, bool(trace),
                                     WORKDIR)
                _print_report(spec.name, args.seed, trace, result,
                              metrics.UNITS)
                print(report_line(result, metrics.UNITS))
                ok = ok and result.gate.failed == 0
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1

    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    seconds = metrics.RUN_SECONDS if args.seconds is None else args.seconds
    spec = SPECS[args.workload]
    result = harness.run(spec, args.seed, seconds, bool(args.trace), WORKDIR)
    _print_report(spec.name, args.seed, args.trace, result, metrics.UNITS)
    record = WORKDIR / ("BENCH_%s_seed%d_trace%d.json"
                        % (spec.name, args.seed, args.trace))
    record.write_text(json.dumps({
        "workload": spec.name, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "metrics": result.metrics, "info": result.info,
        "failures": result.gate.failures}, indent=2) + "\n", encoding="utf-8")
    print(report_line(result, metrics.UNITS))
    return 0 if result.gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
