"""Metric definitions: the single source `BENCHMARK.json` is written from.

End-to-end metrics come from the untraced run (`--trace 0`), per-layer
metrics from the traced run (`--trace 1`).  README.md records which
end-to-end metric each per-layer metric should move, and on which workload.
"""

import json

from workloads import SPECS

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 30

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("roundtrip_p50_ms", "ms", "lower", 0.25),
    ("roundtrip_p90_ms", "ms", "lower", 0.25),
    ("msgs_per_s", "1/s", "higher", 0.25),
    ("wire_bytes_per_triple", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("plan_s", "s", "lower", 0.25),
]

# name, unit, better
PER_LAYER = [
    ("kg.load_s", "s", "lower"),
    ("probgraph.build_s", "s", "lower"),
    ("probgraph.content_hash_s", "s", "lower"),
    ("probgraph.to_bytes_s", "s", "lower"),
    ("probgraph.from_bytes_s", "s", "lower"),
    ("probgraph.spgr_bytes", "B", "lower"),
    ("compressor.compress_ms", "ms", "lower"),
    ("compressor.round1_ms", "ms", "lower"),
    ("compressor.later_rounds_ms", "ms", "lower"),
    ("compressor.comparisons_per_msg", "count", "lower"),
    ("compressor.omitted_per_msg", "count", "higher"),
    ("compressor.omit_yield", "ratio", "higher"),
    ("compressor.comparisons_per_omission", "count", "lower"),
    ("compressor.encode_us", "us", "lower"),
    ("compressor.decode_us", "us", "lower"),
    ("compressor.decompress_ms", "ms", "lower"),
    ("compressor.wire_bytes_per_msg", "B", "lower"),
    ("resource.model_bytes_per_msg", "B", "lower"),
    ("resource.wire_model_ratio", "ratio", "lower"),
    ("resource.comparison_calibration", "ratio", "lower"),
    ("resource.estimate_q_s", "s", "lower"),
    ("optimizer.solve_s", "s", "lower"),
    ("optimizer.solve_simplified_s", "s", "lower"),
    ("optimizer.solve_traditional_s", "s", "lower"),
    ("optimizer.feasible_share", "ratio", "higher"),
    ("experiments.run_sweep_s", "s", "lower"),
    ("experiments.emit_csv_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_roundtrip_ms", "ms", "lower"),
    ("trace.overhead_plan_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": s.name, "why": s.why} for s in SPECS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
