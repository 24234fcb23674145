"""Command-line interface.

Exit codes: 0 success, 2 validation/config error, 3 infeasible optimization,
4 I/O error.
"""

import dataclasses
import json
import sys

import click

from . import compressor, experiments, kg, optimizer, probgraph, resource
from .errors import ParseError, SemcompError, ValidationError

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _guard(fn):
    """Report a library or I/O error as `error: ...` and its exit code."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SemcompError, OSError) as exc:
            click.echo("error: %s" % exc, err=True)
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
    click.echo("graph: %d pairs, %d samples, hash %s"
               % (graph.n_pairs, graph.n_samples, graph.content_hash.hex()[:16]))


def _load_single_sample(path):
    corpus = kg.load_corpus(path)
    if corpus.n_samples != 1:
        raise ValidationError("input must contain exactly one sample, found %d"
                              % corpus.n_samples)
    return corpus


def _remap_kg(graph, corpus):
    """Re-express a standalone input file's triples in the graph's id space."""
    triples = []
    for t in corpus.sample(1).triples:
        h = graph.entities.id_of(corpus.entities.label(t.head))
        r = graph.relations.id_of(corpus.relations.label(t.relation))
        tl = graph.entities.id_of(corpus.entities.label(t.tail))
        if h is None or r is None or tl is None:
            raise ValidationError(
                "input uses labels absent from the shared graph (%s, %s, %s)"
                % (corpus.entities.label(t.head),
                   corpus.relations.label(t.relation),
                   corpus.entities.label(t.tail)))
        triples.append(kg.Triple(h, r, tl))
    return kg.KnowledgeGraph(triples, sample_id=1)


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
              help="Write the compression report as JSON.")
@_guard
def compress_cmd(graph_path, input_path, max_round, out_path, report_path):
    """Compress one knowledge-graph file against a shared graph."""
    graph = probgraph.ProbabilityGraph.load(graph_path)
    message_kg = _remap_kg(graph, _load_single_sample(input_path))
    msg, report = compressor.compress(graph, message_kg, max_round=max_round)
    with open(out_path, "wb") as fh:
        fh.write(compressor.encode_message(msg))
    click.echo("compressed %d triples: %d omitted, %d comparisons"
               % (msg.total_triples, len(msg.omissions),
                  report.comparison_count))
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({
                "stages": [dataclasses.asdict(s) for s in report.stages],
                "comparison_count": report.comparison_count,
                "combinations_evaluated": report.combinations_evaluated,
                "observed_ratios": report.observed_ratios(),
            }, fh, indent=2)
            fh.write("\n")


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
        msg = compressor.decode_message(fh.read())
    result = compressor.decompress(graph, msg)
    corpus = kg.Corpus(samples=[kg.KnowledgeGraph(result.triples, sample_id=1)],
                       entities=kg.Interner(graph.entities.labels()),
                       relations=kg.Interner(graph.relations.labels()))
    kg.dump_corpus(corpus, out_path)
    click.echo("reconstructed %d triples" % len(result))


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
    corpus = kg.load_corpus(corpus_path)
    profile = resource.estimate_q(graph, corpus, max_round=max_round)
    click.echo(json.dumps({
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
    click.echo(json.dumps(out, indent=2))
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
    click.echo("wrote %d rows to %s"
               % (len(rows) * len(experiments.ALGORITHMS), csv_path))


if __name__ == "__main__":
    main()
