"""One benchmark run: set-up, a closed loop of round trips, the planner flow.

One client in one process drives semcomp through its public API.  The loop
is closed: the next message is compressed only after the previous one has
been reconstructed.  Every output is checked; a failed check is counted in
`Gate` and never stops the run.

With `trace=False` the run yields the end-to-end metrics.  With `trace=True`
it records spans (see tracing.py) and yields the per-layer metrics; the
untraced round trips and planner runs it makes alongside give the tracing
overhead.
"""

import gc
import json
import math
import os
import platform
import resource as rusage
import statistics
import tempfile
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import yaml
from click.testing import CliRunner

from semcomp import cli, compressor, kg, probgraph, resource
from tracing import Tracer
from workloads import Spec, generate

# The README's compression-pays regime (channel 100x weaker, computation 100x
# cheaper) with a latency budget loose enough that M=10^4 is feasible.  `q`
# and `m_total` are filled in per run from `estimate-q` and the workload.
PLANNER_CONFIG = {"path_gain": 1.0e-8, "tau1": 100, "tau2": 1.0e-30,
                  "latency_budget_ms": 100}
REL_TOL = 1e-9
PLAN_STEPS = ("build-graph", "estimate-q", "optimize", "sweep")


class Gate:
    """Counts correctness checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok


class Result:
    def __init__(self, metrics, info, gate):
        self.metrics = metrics  # name -> value (None if nothing succeeded)
        self.info = info        # inputs, machine and counts, for the report
        self.gate = gate


def run(spec: Spec, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Result:
    """Run one workload for about `seconds`, interleaving its three phases.

    Set-up repetitions, round trips and planner pipelines take turns, each
    kept near its share of the time (`Spec.shares`), so slow drift in the
    machine's speed during the run touches every metric alike.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        state = _Run(spec, generate(spec, seed), Path(tmp),
                     Tracer() if trace else None)
        setup_share, loop_share, plan_share = spec.shares
        n = spec.n_messages
        used = _interleave([
            (setup_share, spec.min_setups, None, state.setup_step),
            (loop_share, n, n if trace else None, state.loop_step),
            (plan_share, spec.min_plans, None, state.plan_step),
        ], seconds)
        _check_graph_file(Path(tmp) / "graph.spgr", state.calib_lines,
                          state.gate)
    return state.result(used[1], workdir / ("spans_%s_seed%d.jsonl"
                                            % (spec.name, seed)))


def _interleave(steps, seconds):
    """Run (share, minimum, maximum, step) entries in turns until each has
    run its minimum and `seconds` have passed; the next turn goes to the
    entry furthest below its share.  Returns the seconds spent per entry."""
    used = [0.0] * len(steps)
    done = [0] * len(steps)
    start = perf_counter()
    while True:
        late = perf_counter() - start >= seconds
        ready = [i for i, (_, low, high, _) in enumerate(steps)
                 if (high is None or done[i] < high)
                 and (not late or done[i] < low)]
        if not ready:
            return used
        pick = min(ready, key=lambda i: used[i] / steps[i][0])
        t0 = perf_counter()
        steps[pick][3]()
        used[pick] += perf_counter() - t0
        done[pick] += 1


def _median(values):
    return statistics.median(values) if values else None


class _Run:
    """State of one run and its three kinds of step."""

    def __init__(self, spec, inputs, tmp, tracer):
        self.spec = spec
        self.inputs = inputs
        self.tmp = tmp
        self.tracer = tracer
        self.gate = Gate()
        self.runner = CliRunner()
        self.calib_lines = inputs.corpus_lines[:spec.calib_samples]
        (tmp / "calib.jsonl").write_text("\n".join(self.calib_lines) + "\n",
                                         encoding="utf-8")
        self.graph = self.receiver = self.blob = self.messages = None
        self.setup_times = []
        self.latencies = []   # untraced round trips, seconds
        self.first_pass = []  # (msg, report, data) per message, or None
        self.traced = []      # traced round trips, seconds
        self.round1 = []      # compress(max_round=1) per message
        self.plans = {"untraced": [], "traced": [], "feasible_share": None}

    def setup_step(self):
        """One timed set-up.  The first one's graphs serve the round trips;
        later ones are discarded, so the serving graphs stay the same for
        the whole run."""
        gc.collect()  # each repetition starts from the same collector state
        tracer = self.tracer
        if tracer:
            tracer.install()
        try:
            span = tracer.open("bench.setup") if tracer else None
            t0 = perf_counter()
            graph, receiver, blob = _setup_once(self.inputs.corpus_lines)
            self.setup_times.append(perf_counter() - t0)
            if tracer:
                tracer.close(span)
        finally:
            if tracer:
                tracer.uninstall()
        self.gate.check(receiver.content_hash == graph.content_hash,
                        "set-up: receiver graph hash differs from the sender's")
        if self.graph is None:
            self.graph, self.receiver, self.blob = graph, receiver, blob
            self.messages = [_to_graph_ids(graph, m)
                             for m in self.inputs.messages]

    def loop_step(self):
        """One round trip; the traced run adds a traced one and round 1."""
        i = len(self.latencies)
        k = i % len(self.messages)
        message = self.messages[k]
        elapsed, out = _timed_roundtrip(self.graph, self.receiver, message,
                                        self.spec.max_round, self.gate,
                                        "message %d" % k)
        self.latencies.append(elapsed)
        if i < len(self.messages):
            self.first_pass.append(out)
        if not self.tracer:
            return
        self.tracer.install()
        try:
            self.tracer.msg = k
            elapsed, _ = _timed_roundtrip(self.graph, self.receiver, message,
                                          self.spec.max_round, self.gate,
                                          "traced message %d" % k, self.tracer)
            self.traced.append(elapsed)
            # Round 1 alone on the same message, measured from outside; the
            # later rounds' share is the difference.
            span = self.tracer.open("bench.round1")
            self.round1.append(compressor.compress(self.graph, message,
                                                   max_round=1))
            self.tracer.close(span)
        finally:
            self.tracer.msg = None
            self.tracer.uninstall()

    def plan_step(self):
        """One pipeline; the traced run pairs an untraced and a traced one."""
        for tracer in ((None, self.tracer) if self.tracer else (None,)):
            gc.collect()
            if tracer:
                tracer.install()
            try:
                done = _plan_once(self.spec, self.tmp, self.runner, tracer,
                                  self.gate)
            finally:
                if tracer:
                    tracer.uninstall()
            if done:
                wall, self.plans["feasible_share"] = done
                self.plans["traced" if tracer else "untraced"].append(wall)

    def result(self, loop_seconds, spans_path) -> Result:
        graph, gate = self.graph, self.gate
        counts = _counts(self.messages, self.first_pass)
        info = {
            "inputs": {
                "samples": len(self.inputs.corpus_lines),
                "pairs": graph.n_pairs,
                "triples": sum(len(support)
                               for quad in graph.quadruples.values()
                               for _, support in quad.relations),
                "messages": len(self.messages),
                "message_triples": statistics.mean(
                    len(m) for m in self.messages),
                "max_round": self.spec.max_round,
                "spgr_bytes": len(self.blob),
                "calib_samples": len(self.calib_lines),
                "plan_m": self.spec.plan_m,
                "sweep_points": self.spec.sweep_points,
            },
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "counts": counts,
            "error_rate": gate.failed / max(gate.attempted, 1),
            "setup_runs": len(self.setup_times),
            "roundtrip_samples": len(self.latencies),
            "plan_runs": len(self.plans["untraced"]),
        }
        if self.tracer:
            calibration = _comparison_calibration(graph, self.messages,
                                                  self.round1)
            by_root = _spans_by_root(self.tracer)
            metrics = _layer_metrics(by_root, self, counts, calibration)
            info["accounting"] = _accounting(by_root, self)
            self.tracer.dump(spans_path)
            return Result(metrics, info, gate)
        lat = self.latencies
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else None
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            "roundtrip_p50_ms": 1e3 * statistics.median(lat),
            "roundtrip_p90_ms": 1e3 * p90 if p90 is not None else None,
            "msgs_per_s": len(lat) / loop_seconds,
            "wire_bytes_per_triple": counts.get("wire_bytes_per_triple"),
            "peak_rss_mb":
                rusage.getrusage(rusage.RUSAGE_SELF).ru_maxrss / 1024.0,
            # A mean, not a median: the pipelines are identical work, so
            # their times split into the machine's fast and slow states, and
            # a median jumps between the two as their mix shifts.
            "plan_s": statistics.mean(self.plans["untraced"])
            if self.plans["untraced"] else None,
        }
        info["plan_walls_s"] = self.plans["untraced"]
        info["beyond_p90"] = sum(1 for x in lat if p90 is not None and x > p90)
        return Result(metrics, info, gate)


# -- set-up -----------------------------------------------------------------

def _setup_once(lines):
    """Corpus lines to a sender graph and a receiver graph, both ready."""
    corpus = kg.load_corpus_lines(lines)
    graph = probgraph.build(corpus)
    graph.content_hash  # the lazy hash is paid here, not by the first message
    blob = graph.to_bytes()
    receiver = probgraph.ProbabilityGraph.from_bytes(blob)
    return graph, receiver, blob


def _to_graph_ids(graph, triples):
    ids = []
    for h, r, t in triples:
        triple = kg.Triple(graph.entities.id_of(h), graph.relations.id_of(r),
                           graph.entities.id_of(t))
        if None in triple:
            raise ValueError("generator bug: message label absent from the "
                             "graph: %r" % ((h, r, t),))
        ids.append(triple)
    return kg.KnowledgeGraph(ids)


# -- closed loop of round trips ---------------------------------------------

def _timed_roundtrip(graph, receiver, message, max_round, gate, label,
                     tracer=None):
    """(seconds, (msg, report, data) or None); failures go to the gate."""
    out = None
    t0 = perf_counter()
    span = tracer.open("bench.roundtrip") if tracer else None
    try:
        msg, report = compressor.compress(graph, message, max_round=max_round)
        data = compressor.encode_message(msg)
        restored = compressor.decompress(receiver,
                                         compressor.decode_message(data))
    except Exception:  # a failed round trip is counted, not fatal
        restored = None
        error = traceback.format_exc(limit=4)
    finally:
        if tracer:
            tracer.close(span)
    elapsed = perf_counter() - t0
    if restored is None:
        gate.check(False, "%s: %s" % (label, error))
    elif gate.check(restored.triple_set() == message.triple_set(),
                    "%s: restored triples differ from the input" % label):
        out = (msg, report, data)
    return elapsed, out


def _counts(messages, first_pass):
    """Deterministic per-message counts over the first pass of the loop."""
    link = resource.LinkModel.from_config(PLANNER_CONFIG)
    done = [(m, out) for m, out in zip(messages, first_pass) if out]
    if not done:
        return {}
    comparisons = omitted = later = candidates = wire = triples = 0
    model_bits = 0
    for message, (msg, report, data) in done:
        comparisons += report.comparison_count
        omitted += len(msg.omissions)
        later += sum(1 for rec in msg.omissions if rec.round >= 2)
        candidates += sum(stage.candidates for stage in report.stages)
        wire += len(data)
        triples += len(message)
        model_bits += resource.payload_bits(link, len(message),
                                            len(msg.omissions))
    k = len(done)
    return {
        "comparisons_per_msg": comparisons / k,
        "omitted_per_msg": omitted / k,
        "later_round_omitted_per_msg": later / k,
        "omit_yield": omitted / candidates,
        "comparisons_per_omission": comparisons / omitted if omitted else None,
        "wire_bytes_per_msg": wire / k,
        "wire_bytes_per_triple": wire / triples,
        "model_bytes_per_msg": model_bits / 8 / k,
        "wire_model_ratio": wire / (model_bits / 8),
    }


def _comparison_calibration(graph, messages, round1):
    """Round-1 comparisons per message over the model's `load(mean E)`.

    The profile is `estimate_q` at round 1 over the loop's own messages, so
    `load(mean E)` is finite.  A deeper profile can put the mean E past the
    last breakpoint, where the model's load is infinite.
    """
    profile = resource.estimate_q(graph, kg.Corpus(samples=messages),
                                  max_round=1)
    n = len(messages)
    comparisons = sum(report.comparison_count for _, report in round1)
    mean_e = Fraction(sum(len(msg.omissions) for msg, _ in round1), n)
    load = profile.load(mean_e)
    return (comparisons / n) / load if load and math.isfinite(load) else None


# -- planner flow through the CLI -------------------------------------------

def sweep_grid(m_max, points):
    """Log-spaced, strictly increasing integer M values ending at m_max."""
    grid = []
    for i in range(1, points + 1):
        m = round(m_max ** (i / points))
        grid.append(max(m, grid[-1] + 1) if grid else m)
    return grid


def _cli(runner, tracer, *args):
    span = tracer.open("cli." + args[0]) if tracer else None
    try:
        return runner.invoke(cli.main, [str(a) for a in args])
    finally:
        if tracer:
            tracer.close(span)


def _plan_once(spec, tmp, runner, tracer, gate):
    """One build-graph, estimate-q, optimize, sweep pipeline.

    Returns (wall seconds, feasible share of the E values `optimize`
    searched), or None when a command failed.
    """
    corpus, graph = tmp / "calib.jsonl", tmp / "graph.spgr"
    config, csv_path = tmp / "link.yaml", tmp / "sweep.csv"
    grid = ",".join(str(m) for m in sweep_grid(spec.plan_m, spec.sweep_points))
    stdout = {}
    root = tracer.open("bench.plan") if tracer else None
    t0 = perf_counter()
    try:
        for step in PLAN_STEPS:
            if step == "build-graph":
                args = ("--corpus", corpus, "--out", graph)
            elif step == "estimate-q":
                args = ("--graph", graph, "--corpus", corpus,
                        "--max-round", 1)
            elif step == "optimize":
                q = json.loads(stdout["estimate-q"])["q"]
                config.write_text(yaml.safe_dump(dict(
                    PLANNER_CONFIG, m_total=spec.plan_m, q=q)),
                    encoding="utf-8")
                args = ("--config", config, "--trace")
            else:
                args = ("--config", config, "--var", "m_total",
                        "--grid", grid, "--csv", csv_path)
            result = _cli(runner, tracer, step, *args)
            if not gate.check(result.exit_code == 0, "%s exited %d: %s" % (
                    step, result.exit_code, result.output[-500:])):
                return None
            stdout[step] = result.stdout
        wall = perf_counter() - t0
    finally:
        if tracer:
            tracer.close(root)
    return wall, _check_plan(spec, config, stdout, csv_path, gate)


def _check_plan(spec, config, stdout, csv_path, gate):
    """Re-price every feasible result and check jccpg <= simplified.

    Returns the share of the E values `optimize` searched that were feasible.
    """
    cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
    link = resource.LinkModel.from_config(cfg)
    q = [float(v) for v in cfg["q"]]
    gate.check(bool(q) and all(0 < v <= 1 for v in q),
               "estimate-q: ratios %r outside (0, 1]" % q)

    def reprice(m, e_omit, p, e1, e2, what):
        want1, want2 = resource.energies(link, resource.OmissionProfile(m, q),
                                         m, e_omit, p)
        gate.check(math.isclose(want1, e1, rel_tol=REL_TOL)
                   and math.isclose(want2, e2, rel_tol=REL_TOL),
                   "%s: re-priced (%r, %r) != reported (%r, %r)"
                   % (what, want1, want2, e1, e2))

    opt = json.loads(stdout["optimize"])
    if gate.check(opt["feasible"],
                  "optimize: infeasible at M=%d" % spec.plan_m):
        reprice(spec.plan_m, opt["e_omit"], opt["p_w"], opt["e1_j"],
                opt["e2_j"], "optimize")

    totals = defaultdict(dict)
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    gate.check(len(rows) == 3 * spec.sweep_points,
               "sweep: %d rows for %d points" % (len(rows), spec.sweep_points))
    for row in rows:
        var, algo, e_total, e1, e2, p, e_omit, feasible = row.split(",")
        if feasible == "true":
            m = int(float(var))
            reprice(m, int(e_omit), float(p), float(e1), float(e2),
                    "sweep %s at M=%d" % (algo, m))
            totals[m][algo] = float(e_total)
    for m, by_algo in totals.items():
        if "jccpg" in by_algo and "simplified" in by_algo:
            gate.check(by_algo["jccpg"] <= by_algo["simplified"] * (1 + 1e-12),
                       "sweep at M=%d: jccpg %r > simplified %r"
                       % (m, by_algo["jccpg"], by_algo["simplified"]))

    profile = resource.OmissionProfile(spec.plan_m, q)
    searched = min(spec.plan_m, math.floor(profile.total_omissible)) + 1
    return len(opt.get("trace", ())) / searched


def _check_graph_file(path, lines, gate):
    """The CLI's graph file equals the in-process build of the same lines."""
    if not gate.check(path.exists(), "build-graph wrote no graph file"):
        return
    built = probgraph.build(kg.load_corpus_lines(lines))
    loaded = probgraph.ProbabilityGraph.load(path)
    gate.check(loaded.content_hash == built.content_hash,
               "build-graph: graph file differs from the in-process build")


# -- per-layer metrics from the spans ---------------------------------------

ROOTS = ("bench.setup", "bench.roundtrip", "bench.round1", "bench.plan")


def _spans_by_root(tracer):
    """Root name -> one dict per root span: span name -> summed duration,
    and "self:<layer>" -> summed self time of that layer's spans."""
    self_times = tracer.self_times()
    out = {}
    for root in ROOTS:
        out[root] = []
        for members in tracer.under(root):
            acc = defaultdict(float)
            for i in members:
                name, start, end, _, _ = tracer.spans[i]
                acc[name] += end - start
                acc["self:" + name.split(".")[0]] += self_times[i]
            out[root].append(acc)
    return out


def _stat(groups, name, reduce, scale=1.0):
    if not groups:
        return None
    return scale * reduce([g.get(name, 0.0) for g in groups])


def _layer_metrics(by_root, run, counts, calibration):
    setup, rts = by_root["bench.setup"], by_root["bench.roundtrip"]
    r1, plan = by_root["bench.round1"], by_root["bench.plan"]
    med, mean = statistics.median, statistics.mean
    plans = run.plans
    compress_ms = _stat(rts, "compressor.compress", mean, 1e3)
    round1_ms = _stat(r1, "compressor.compress", mean, 1e3)
    untraced_plan = _median(plans["untraced"])
    traced_plan = _median(plans["traced"])
    return {
        "kg.load_s": _stat(setup, "kg.load_corpus_lines", med),
        "probgraph.build_s": _stat(setup, "probgraph.build", med),
        "probgraph.content_hash_s": _stat(setup, "probgraph.content_hash", med),
        "probgraph.to_bytes_s": _stat(setup, "probgraph.to_bytes", med),
        "probgraph.from_bytes_s": _stat(setup, "probgraph.from_bytes", med),
        "probgraph.spgr_bytes": len(run.blob),
        "compressor.compress_ms": compress_ms,
        "compressor.round1_ms": round1_ms,
        "compressor.later_rounds_ms": compress_ms - round1_ms,
        "compressor.comparisons_per_msg": counts.get("comparisons_per_msg"),
        "compressor.omitted_per_msg": counts.get("omitted_per_msg"),
        "compressor.omit_yield": counts.get("omit_yield"),
        "compressor.comparisons_per_omission":
            counts.get("comparisons_per_omission"),
        "compressor.encode_us": _stat(rts, "compressor.encode_message", mean,
                                      1e6),
        "compressor.decode_us": _stat(rts, "compressor.decode_message", mean,
                                      1e6),
        "compressor.decompress_ms": _stat(rts, "compressor.decompress", mean,
                                          1e3),
        "compressor.wire_bytes_per_msg": counts.get("wire_bytes_per_msg"),
        "resource.model_bytes_per_msg": counts.get("model_bytes_per_msg"),
        "resource.wire_model_ratio": counts.get("wire_model_ratio"),
        "resource.comparison_calibration": calibration,
        "resource.estimate_q_s": _stat(plan, "resource.estimate_q", med),
        "optimizer.solve_s": _stat(plan, "optimizer.solve", med),
        "optimizer.solve_simplified_s":
            _stat(plan, "optimizer.solve_simplified", med),
        "optimizer.solve_traditional_s":
            _stat(plan, "optimizer.solve_traditional", med),
        "optimizer.feasible_share": plans["feasible_share"],
        "experiments.run_sweep_s": _stat(plan, "experiments.run_sweep", med),
        "experiments.emit_csv_s": _stat(plan, "experiments.emit_csv", med),
        "cli.self_s": _stat(plan, "self:cli", med),
        "trace.overhead_roundtrip_ms":
            1e3 * (mean(run.traced) - mean(run.latencies)),
        "trace.overhead_plan_s": traced_plan - untraced_plan
        if traced_plan is not None and untraced_plan is not None else None,
    }


def _accounting(by_root, run):
    """Mean self time per layer under each root, beside the untraced time.

    The layers' self times sum to the traced root's time; the traced minus
    the untraced time is the tracing overhead.
    """
    def layers(groups, scale):
        names = sorted({k for g in groups for k in g if k.startswith("self:")})
        return {k[5:]: scale * statistics.mean(g.get(k, 0.0) for g in groups)
                for k in names}

    rts, plan = by_root["bench.roundtrip"], by_root["bench.plan"]
    return {
        "roundtrip_ms": {
            "untraced": 1e3 * statistics.mean(run.latencies),
            "traced": 1e3 * statistics.mean(run.traced),
            "self": layers(rts, 1e3),
        },
        "plan_s": {
            "untraced": statistics.mean(run.plans["untraced"])
            if run.plans["untraced"] else None,
            "traced": _stat(plan, "bench.plan", statistics.mean),
            "self": layers(plan, 1.0) if plan else {},
        },
        "setup_s": {"traced": _stat(by_root["bench.setup"], "bench.setup",
                                    statistics.mean),
                    "self": layers(by_root["bench.setup"], 1.0)},
    }
