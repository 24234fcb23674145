"""Command-line interface.

Exit codes: 0 success, 2 validation/config error, 3 infeasible optimization,
4 I/O error.
"""

import dataclasses
import json
import sys

import click

from . import (compressor, experiments, kg, optimizer, probgraph, resource,
               wire)
from .errors import ParseError, SemcompError, ValidationError

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _echo(message, stream="stdout"):
    """click.echo to the current standard stream, named explicitly.

    Without `file=`, click caches a text wrapper per `sys.stdout` object in a
    WeakKeyDictionary whose value refers back to its key, so every stream it
    ever wrote to stays alive: each in-process (CliRunner) invocation's
    captured output would live as long as the process.  `errors=None` picks
    the stream that default would pick.
    """
    click.echo(message, file=click.get_text_stream(stream, errors=None))


def _guard(fn):
    """Report a library or I/O error as `error: ...` and its exit code."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SemcompError, OSError) as exc:
            _echo("error: %s" % exc, "stderr")
            sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
def main():
    """Probability-graph semantic compression and resource allocation."""


@main.command("build-graph")
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_guard
def build_graph(corpus_path, out_path):
    """Merge a corpus file into a shared probability graph."""
    corpus = kg.load_corpus(corpus_path)
    graph = probgraph.build(corpus)
    graph.save(out_path)
    _echo("graph: %d pairs, %d samples, hash %s"
          % (graph.n_pairs, graph.n_samples, graph.content_hash.hex()[:16]))


@main.command("compress")
@click.option("--graph", "graph_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--max-round", default=compressor.DEFAULT_MAX_ROUND,
              show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--report", "report_path", default=None,
              type=click.Path(dir_okay=False),
              help="Write the compression report, with the message's wire "
                   "bytes, as JSON.")
@_guard
def compress_cmd(graph_path, input_path, max_round, out_path, report_path):
    """Compress one knowledge-graph file against a shared graph."""
    graph = probgraph.ProbabilityGraph.load(graph_path)
    corpus = kg.load_corpus(input_path, graph)
    if corpus.n_samples != 1:
        raise ValidationError("input must contain exactly one sample, found %d"
                              % corpus.n_samples)
    message_kg = corpus.samples[0]
    for h, r, t in message_kg.triples:
        if max(h, t) >= len(graph.entities) or r >= len(graph.relations):
            raise ValidationError(
                "input uses labels absent from the shared graph (%s, %s, %s)"
                % (corpus.entities.label(h), corpus.relations.label(r),
                   corpus.entities.label(t)))
    msg, report = compressor.compress(graph, message_kg, max_round=max_round)
    with open(out_path, "wb") as fh:
        fh.write(wire.encode_message(msg))
    _echo("compressed %d triples: %d omitted, %d comparisons"
          % (msg.total_triples, len(msg.omissions), report.comparison_count))
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({
                "stages": [dataclasses.asdict(s) for s in report.stages],
                "comparison_count": report.comparison_count,
                "combinations_evaluated": report.combinations_evaluated,
                "observed_ratios": report.observed_ratios(),
                "wire": _wire_block(graph, msg),
            }, fh, indent=2)
            fh.write("\n")


def _wire_block(graph, msg):
    """The encoded message's bytes by part, beside the energy model's
    `payload_bits / 8` at the default bits per field and the bytes of the
    same triples sent with no omission.  Parts that are not whole bytes are
    fractions; they sum to `total`, the file's size."""
    size = wire.message_size(msg)
    model = resource.payload_bits(resource.LinkModel(), msg.total_triples,
                                  len(msg.omissions))
    return {
        "header": size.header,
        "known": size.known / 8,
        "escaped": size.escaped / 8,
        "records": {str(r): bits / 8 for r, bits in size.records.items()},
        "conditions": size.conditions / 8,
        "padding": size.padding / 8,
        "total": size.total,
        "without_omission": wire.message_size(
            _without_omission(graph, msg)).total,
        "model": model / 8,
    }


def _without_omission(graph, msg):
    """`msg` with each omission record sent as the known triple it stands
    for: the relation the receiver replays, at its rank on the pair."""
    restored = compressor.decompress(graph, msg).triples
    known = list(msg.known)
    for rec, triple in zip(msg.omissions,
                           restored[len(known) + len(msg.escaped):]):
        known.append((rec.pair,
                      graph.pair_table[rec.pair].triples.index(triple)))
    return wire.CompressedMessage(msg.graph_hash, known, msg.escaped, [])


@main.command("decompress")
@click.option("--graph", "graph_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_guard
def decompress_cmd(graph_path, input_path, out_path):
    """Reconstruct a compressed message back into a knowledge-graph file."""
    graph = probgraph.ProbabilityGraph.load(graph_path)
    with open(input_path, "rb") as fh:
        msg = wire.decode_message(fh.read())
    result = compressor.decompress(graph, msg)
    corpus = kg.Corpus(samples=[kg.KnowledgeGraph(result.triples, sample_id=1)],
                       entities=graph.entities, relations=graph.relations)
    kg.dump_corpus(corpus, out_path)
    _echo("reconstructed %d triples" % len(result))


@main.command("estimate-q")
@click.option("--graph", "graph_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--max-round", default=compressor.DEFAULT_MAX_ROUND,
              show_default=True, type=click.IntRange(min=1))
@_guard
def estimate_q_cmd(graph_path, corpus_path, max_round):
    """Measure per-stage omission ratios over a corpus."""
    graph = probgraph.ProbabilityGraph.load(graph_path)
    profile = resource.estimate_q(graph, kg.load_corpus(corpus_path, graph),
                                  max_round=max_round)
    _echo(json.dumps({
        "m_total": profile.m_total,
        "q": profile.q,
        "e_caps": profile.e_caps,
        "total_omissible": profile.total_omissible,
    }, indent=2))


@main.command("optimize")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", is_flag=True, help="Include the per-E search trace.")
@_guard
def optimize_cmd(config_path, trace):
    """Solve the joint power/omission energy minimization."""
    cfg = experiments.read_config(config_path)
    m = cfg["m_total"]
    profile = resource.OmissionProfile(m, cfg["q"])
    result = optimizer.solve(cfg["link"], profile, m, keep_trace=trace)
    numbers = {
        "p_w": result.p_opt,
        "e_omit": result.e_opt,
        "t1_s": result.t1,
        "t2_s": result.t2,
        "e1_j": result.e1,
        "e2_j": result.e2,
        "e_total_j": result.e_total,
    }
    if not result.feasible:  # NaN is not JSON: an infeasible solve has none
        numbers = dict.fromkeys(numbers)
    out = {"feasible": result.feasible, **numbers}
    if trace and result.trace is not None:
        out["trace"] = [{"e": e, "p_w": p, "e_total_j": total}
                        for e, p, total in result.trace]
    _echo(json.dumps(out, indent=2))
    if not result.feasible:
        sys.exit(EXIT_INFEASIBLE)


@main.command("sweep")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--var", "variable", default="m_total", show_default=True,
              type=click.Choice(experiments.SWEEP_VARIABLES),
              help="Swept quantity; its --grid values are a count for "
                   "m_total, Hz for bandwidth and seconds for "
                   "latency_budget.")
@click.option("--grid", required=True,
              help="Comma-separated, strictly increasing grid values.")
@click.option("--csv", "csv_path", required=True,
              type=click.Path(dir_okay=False))
@_guard
def sweep_cmd(config_path, variable, grid, csv_path):
    """Sweep one parameter across all algorithms and emit CSV."""
    fields = experiments.read_config(config_path)
    try:
        values = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError("grid must be comma-separated numbers") from exc
    spec = experiments.SweepSpec(variable, values, **fields)
    rows = experiments.run_sweep(spec)
    experiments.emit_csv(rows, csv_path)
    _echo("wrote %d rows to %s"
          % (sum(len(r.results) for r in rows), csv_path))


if __name__ == "__main__":
    main()
