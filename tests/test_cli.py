import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import semcomp
from semcomp import kg
from semcomp.cli import main
from semcomp.compressor import (CompressedMessage, OmissionRecord,
                                decode_message, encode_message)
from semcomp.errors import (GraphDecodeError, MessageDecodeError,
                             ParseError)
from semcomp.experiments import CONFIG_KEYS, SWEEP_VARIABLES
from semcomp.kg import Triple, load_corpus
from semcomp.probgraph import ProbabilityGraph, Quadruple, build

import legacy_wire
import legacy_wire_v2
from conftest import v2_content, wide_pairs_corpus
from test_wire import _widened

CORPUS_LINES = [
    {"sample": 1, "triples": [["a", "r1", "b"], ["c", "s", "d"]]},
    {"sample": 2, "triples": [["a", "r2", "b"], ["x", "u", "y"]]},
    {"sample": 3, "triples": [["a", "r1", "b"], ["c", "s", "d"]]},
]

CONFIG = """\
bandwidth_mhz: 10
p_max_dbm: 30
latency_budget_ms: 1
noise_w: 1.0e-10
path_gain: 1.0e-6
bits_per_field: 24
f_hz: 1.0e9
tau1: 1.0e3
tau2: 1.0e-28
m_total: 100
q: [0.3, 0.2, 0.1]
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(json.dumps(o) for o in CORPUS_LINES) + "\n")
    sample = tmp_path / "message.jsonl"
    sample.write_text(json.dumps(
        {"sample": 1, "triples": [["a", "r2", "b"], ["x", "u", "y"]]}) + "\n")
    config = tmp_path / "link.yaml"
    config.write_text(CONFIG)
    return tmp_path


def _write_wide_pairs(path, k):
    """`wide_pairs_corpus(k)` as corpus.jsonl and message.jsonl in `path`."""
    corpus, message = wide_pairs_corpus(k)
    kg.dump_corpus(corpus, path / "corpus.jsonl")
    kg.dump_corpus(kg.Corpus([kg.KnowledgeGraph(message.triples,
                                                sample_id=1)],
                             corpus.entities, corpus.relations),
                   path / "message.jsonl")
    return corpus, message


@pytest.fixture
def wide_workspace(tmp_path):
    """A message whose round-2 records pay: see `wide_pairs_corpus`."""
    _write_wide_pairs(tmp_path, 15)
    return tmp_path


def test_full_pipeline(runner, workspace):
    graph = workspace / "graph.spgr"
    out = runner.invoke(main, ["build-graph", "--corpus",
                               str(workspace / "corpus.jsonl"),
                               "--out", str(graph)])
    assert out.exit_code == 0, out.output
    assert graph.exists()

    compressed = workspace / "msg.scmp"
    report = workspace / "report.json"
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(workspace / "message.jsonl"),
                               "--max-round", "2",
                               "--out", str(compressed),
                               "--report", str(report)])
    assert out.exit_code == 0, out.output
    doc = json.loads(report.read_text())
    assert doc["comparison_count"] > 0
    assert 0 <= doc["combinations_evaluated"] <= doc["comparison_count"]
    assert doc["stages"][0]["round"] == 1

    restored = workspace / "restored.jsonl"
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(compressed),
                               "--out", str(restored)])
    assert out.exit_code == 0, out.output
    result = load_corpus(restored)
    labels = {(result.entities.label(t.head), result.relations.label(t.relation),
               result.entities.label(t.tail))
              for t in result.sample(1).triples}
    assert labels == {("a", "r2", "b"), ("x", "u", "y")}


def _compress_report(runner, workspace, *options):
    """Build the workspace graph, compress its message with `options`, and
    return the report JSON and the message file."""
    graph, compressed = workspace / "graph.spgr", workspace / "msg.scmp"
    report = workspace / "report.json"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(workspace / "message.jsonl"),
                               *options, "--out", str(compressed),
                               "--report", str(report)])
    assert out.exit_code == 0, out.output
    doc = json.loads(report.read_text())
    block = doc["wire"]
    assert block["total"] == compressed.stat().st_size
    assert (block["header"] + block["known"] + block["escaped"]
            + sum(block["records"].values()) + block["conditions"]
            + block["padding"]) == block["total"]
    return doc, compressed


def test_report_wire_block_is_the_file(runner, wide_workspace):
    doc, compressed = _compress_report(runner, wide_workspace,
                                       "--max-round", "2")
    block = doc["wire"]
    g = ProbabilityGraph.load(wide_workspace / "graph.spgr")
    assert doc["stopped"] is None
    # x u y is omitted in round 1 and each a_i r63 b_i, given it, in round
    # 2.  Sent with no omission they are known triples: x u y at rank 0 of
    # pair (x, y), a_i r63 b_i at rank 63 of pair (a_i, b_i).
    ent = g.entities.id_of
    assert [rec.round for rec in decode_message(compressed.read_bytes())
            .omissions] == [1] + [2] * 15
    plain = CompressedMessage(g.content_hash, [
        (g.pair_index[ent("x"), ent("y")], 0)] + [
        (g.pair_index[ent("a%d" % i), ent("b%d" % i)], 63)
        for i in range(15)], [], [])
    assert block["without_omission"] == len(encode_message(plain))
    # 15 records of 4 + 4 bits save 30 bits against known triples of 4 + 6,
    # and the runs' header bytes spend them again.
    assert block["without_omission"] == block["total"] == 79
    assert block["records"] == {"1": 4 / 8, "2": 15 * 4 / 8}
    assert block["conditions"] == 15 * 4 / 8
    # the model's payload_bits: 3 * M - E fields of 24 bits, M = 16
    omitted = sum(stage["omitted"] for stage in doc["stages"])
    assert omitted == 16
    assert block["model"] == 24 * (3 * 16 - omitted) / 8


def test_report_names_the_round_the_wire_skipped(runner, workspace):
    # Round 2 is not run: a round-2 record's one condition index (w_c = 1
    # bit, 2 triples) saves nothing against a r2 b's 1-bit rank.  x u y is
    # the one round-1 record, its pair index 2 of 2 bits.
    doc, compressed = _compress_report(runner, workspace, "--max-round", "2")
    assert doc["stopped"] == {"round": 2, "reason": "wire", "candidates": 1,
                              "condition_bits": 1, "rank_bits": 1}
    assert [(s["round"], s["omitted"]) for s in doc["stages"]] == [(1, 1)]
    block = doc["wire"]
    assert block["records"] == {"1": 2 / 8}
    assert block["conditions"] == 0
    # Even round 1's record costs a byte: its run's header outweighs the
    # rank it saves.
    assert block["without_omission"] < block["total"]
    assert [rec.round for rec in decode_message(compressed.read_bytes())
            .omissions] == [1]


@pytest.mark.parametrize("fixture, stages, stop", [
    ("workspace", 1, {"round": 2, "reason": "wire", "candidates": 1,
                      "condition_bits": 1, "rank_bits": 1}),
    ("wide_workspace", 3, {"round": 3, "reason": "wire", "candidates": 0,
                           "condition_bits": 8, "rank_bits": 6}),
])
def test_compress_huge_max_round_is_bounded(runner, request, fixture, stages,
                                            stop):
    # Every round from the first whose records cannot pay is skipped
    # unsearched, so the requested depth costs nothing.
    doc, _ = _compress_report(runner, request.getfixturevalue(fixture),
                              "--max-round", "1000000000")
    assert len(doc["stages"]) == stages
    assert doc["stopped"] == stop


def test_decompress_rejects_v1_message(runner, workspace):
    graph, old = workspace / "graph.spgr", workspace / "old.scmp"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    runner.invoke(main, ["compress", "--graph", str(graph),
                         "--input", str(workspace / "message.jsonl"),
                         "--out", str(workspace / "msg.scmp")])
    msg = decode_message((workspace / "msg.scmp").read_bytes())
    content = v2_content(ProbabilityGraph.load(graph), msg)
    for codec in (legacy_wire, legacy_wire_v2):
        old.write_bytes(codec.encode_message(content))
        out = runner.invoke(main, ["decompress", "--graph", str(graph),
                                   "--input", str(old),
                                   "--out", str(workspace / "out.jsonl")])
        assert out.exit_code == 2
        assert ("unsupported wire version %d" % codec.WIRE_VERSION
                in out.output)


def test_decompress_rejects_non_minimal_widths(runner, workspace,
                                               monkeypatch):
    graph, wide = workspace / "graph.spgr", workspace / "wide.scmp"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    runner.invoke(main, ["compress", "--graph", str(graph),
                         "--input", str(workspace / "message.jsonl"),
                         "--out", str(workspace / "msg.scmp")])
    msg = decode_message((workspace / "msg.scmp").read_bytes())
    wide.write_bytes(_widened(msg, monkeypatch, d_p=1))
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(wide),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert "pair and rank widths are not the smallest that fit" in out.output


@pytest.mark.parametrize("records", [
    [("a", "y", ())],                    # no such pair
    [("c", "d", ()), ("c", "d", ())],    # c s d twice: a duplicate triple
    [("c", "d", ()), ("x", "y", (0,))],  # x u y given c s d: empty event
])
def test_decompress_corrupt_records_exit_2(runner, workspace, records):
    graph, bad = workspace / "graph.spgr", workspace / "bad.scmp"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    g = ProbabilityGraph.load(graph)
    ent = g.entities.id_of
    # a pair the graph lacks gets the index one past its table
    bad.write_bytes(encode_message(CompressedMessage(g.content_hash, [], [], [
        OmissionRecord(g.pair_index.get((ent(h), ent(t)), g.n_pairs), conds)
        for h, t, conds in records])))
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(bad),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert out.output.startswith("error:")


@pytest.mark.parametrize("known, why", [
    ([(3, 0)], "pair index 3 beyond the graph's 3 pairs"),
    ([(0, 0), (200, 1)], "pair index 200 beyond"),
    ([(0, 2)], "rank 2 beyond the 2 relations of pair"),
    ([(1, 1)], "rank 1 beyond the 1 relations of pair"),
])
def test_decompress_known_triple_beyond_the_graph_exit_2(runner, workspace,
                                                          known, why):
    # Pairs (a, b), (c, d), (x, y), in that order; (a, b) carries r1 and r2.
    graph, bad = workspace / "graph.spgr", workspace / "bad.scmp"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    g = ProbabilityGraph.load(graph)
    assert [len(q.relations) for q in g.pair_table] == [2, 1, 1]
    bad.write_bytes(encode_message(CompressedMessage(g.content_hash, known,
                                                     [], [])))
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(bad),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert out.output.startswith("error:") and why in out.output


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_decompress_unknown_label_writes_nothing(runner, workspace,
                                                 existing):
    # An escaped triple whose head is past the graph's entity table fails
    # only when its label is looked up: after decoding, before writing.
    graph, bad = workspace / "graph.spgr", workspace / "bad.scmp"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    g = ProbabilityGraph.load(graph)
    bad.write_bytes(encode_message(CompressedMessage(
        g.content_hash, [(0, 0)], [Triple(999, 0, 1)], [])))
    restored = workspace / "out.jsonl"
    if existing is not None:
        restored.write_text(existing)
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(bad), "--out", str(restored)])
    assert out.exit_code == 2
    assert out.output == "error: unknown intern id 999\n"
    if existing is None:
        assert not restored.exists()
    else:
        assert restored.read_text() == existing


# A `.spgr` file's first entity label starts after the 46-byte header, the
# entity count and the label's length.
FIRST_LABEL = 54


@pytest.mark.parametrize("damage, why", [
    (lambda data: data + b"\x00", "trailing bytes after graph body"),
    (lambda data: data[:FIRST_LABEL] + b"\xff" + data[FIRST_LABEL + 1:],
     "invalid label encoding"),
], ids=["trailing-bytes", "non-utf8-label"])
def test_decompress_redigested_graph_exit_2(runner, workspace, damage, why):
    graph = workspace / "graph.spgr"
    _compress_report(runner, workspace)
    data = graph.read_bytes()
    assert data[FIRST_LABEL:FIRST_LABEL + 1] == b"a"
    graph.write_bytes(_rehash("graph.spgr", damage(data)))
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(workspace / "msg.scmp"),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert out.output == "error: %s\n" % why
    assert not (workspace / "out.jsonl").exists()


def test_graph_with_bad_magic_exit_2(runner, workspace):
    # The magic lies outside the file digest, so no rehash is needed.
    graph = workspace / "graph.spgr"
    _compress_report(runner, workspace)
    data = graph.read_bytes()
    assert data[:4] == b"SPGR"
    graph.write_bytes(b"SPGX" + data[4:])
    with pytest.raises(GraphDecodeError, match="^bad magic bytes$"):
        ProbabilityGraph.from_bytes(graph.read_bytes())
    for command, source in (("compress", "message.jsonl"),
                            ("decompress", "msg.scmp")):
        out = runner.invoke(main, [command, "--graph", str(graph),
                                   "--input", str(workspace / source),
                                   "--out", str(workspace / "out")])
        assert out.exit_code == 2
        assert out.output == "error: bad magic bytes\n"
        assert not (workspace / "out").exists()


def test_decompress_against_another_graph_exit_2(runner, workspace):
    _compress_report(runner, workspace)
    other_corpus, other = workspace / "other.jsonl", workspace / "other.spgr"
    other_corpus.write_text(json.dumps(CORPUS_LINES[0]) + "\n")
    out = runner.invoke(main, ["build-graph", "--corpus", str(other_corpus),
                               "--out", str(other)])
    assert out.exit_code == 0, out.output
    out = runner.invoke(main, ["decompress", "--graph", str(other),
                               "--input", str(workspace / "msg.scmp"),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert out.output == ("error: message was compressed against different "
                          "background knowledge\n")
    assert not (workspace / "out.jsonl").exists()


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_build_graph_reads_past_a_byte_order_mark(runner, tmp_path, fmt):
    if fmt == "jsonl":
        text = "".join(json.dumps(o) + "\n" for o in CORPUS_LINES)
    else:
        text = "".join("%d\t%s\t%s\t%s\n" % (o["sample"], *t)
                       for o in CORPUS_LINES for t in o["triples"])
    outputs = []
    for name, data in (("plain", text.encode()),
                       ("marked", b"\xef\xbb\xbf" + text.encode())):
        corpus = tmp_path / (name + "." + fmt)
        corpus.write_bytes(data)
        out = runner.invoke(main, ["build-graph", "--corpus", str(corpus),
                                   "--out", str(tmp_path / (name + ".spgr"))])
        assert out.exit_code == 0, out.output
        outputs.append(out.output)
    assert outputs[0] == outputs[1] and "hash " in outputs[0]
    assert ((tmp_path / "plain.spgr").read_bytes()
            == (tmp_path / "marked.spgr").read_bytes())


# The workspace message encodes as one known triple (a r2 b), no escaped
# one and one run: a round-1 record of x u y.  After the 54-byte fixed
# header come the counts 1, 0, 1 and the run (round 1, count 1).
RUN_TABLE = 57


@pytest.mark.parametrize("damage", [
    lambda data: data[:RUN_TABLE] + b"\x00\x01" + data[RUN_TABLE + 2:],
    lambda data: data[:RUN_TABLE] + b"\x01\x00" + data[RUN_TABLE + 2:],
    # two runs: a second (round 1, count 1) before the first
    lambda data: data[:RUN_TABLE - 1] + b"\x02\x01\x01" + data[RUN_TABLE:],
], ids=["zero-round", "zero-count", "two-runs-of-one-round"])
def test_decompress_bad_run_table_exit_2(runner, workspace, damage):
    graph, bad = workspace / "graph.spgr", workspace / "bad.scmp"
    _compress_report(runner, workspace)
    data = (workspace / "msg.scmp").read_bytes()
    assert data[RUN_TABLE - 3:RUN_TABLE + 2] == bytes([1, 0, 1, 1, 1])
    bad.write_bytes(_rehash("msg.scmp", damage(data)))
    why = "runs must be non-empty and maximal, with rounds from 1"
    with pytest.raises(MessageDecodeError, match="^%s$" % why):
        decode_message(bad.read_bytes())
    out = runner.invoke(main, ["decompress", "--graph", str(graph),
                               "--input", str(bad),
                               "--out", str(workspace / "out.jsonl")])
    assert out.exit_code == 2
    assert out.output == "error: %s\n" % why
    assert not (workspace / "out.jsonl").exists()


def test_compress_two_samples_exit_2(runner, workspace):
    graph, two = workspace / "graph.spgr", workspace / "two.jsonl"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    two.write_text("".join(json.dumps(o) + "\n" for o in CORPUS_LINES[:2]))
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(two),
                               "--out", str(workspace / "msg.scmp")])
    assert out.exit_code == 2
    assert "input must contain exactly one sample, found 2" in out.output
    assert not (workspace / "msg.scmp").exists()


def test_optimize_empty_config_takes_the_defaults(runner, tmp_path):
    empty, spelled = tmp_path / "empty.yaml", tmp_path / "defaults.yaml"
    empty.write_text("")
    spelled.write_text("m_total: 100\nq: [0.3, 0.2, 0.1]\n")
    outs = [runner.invoke(main, ["optimize", "--config", str(path)])
            for path in (empty, spelled)]
    assert [out.exit_code for out in outs] == [0, 0]
    assert outs[0].output == outs[1].output
    assert json.loads(outs[0].output)["feasible"]


def test_optimize_list_config_exit_2(runner, tmp_path):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- m_total: 100\n- q: [0.3]\n")
    out = runner.invoke(main, ["optimize", "--config", str(cfg)])
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "must be a flat key-value document" in out.output


def test_estimate_q(runner, workspace):
    graph = workspace / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    out = runner.invoke(main, ["estimate-q", "--graph", str(graph),
                               "--corpus", str(workspace / "corpus.jsonl"),
                               "--max-round", "2"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.output)
    assert doc["q"]
    assert all(0 < v <= 1 for v in doc["q"])


def _estimate_q(runner, graph, corpus, max_round):
    out = runner.invoke(main, ["estimate-q", "--graph", str(graph),
                               "--corpus", str(corpus),
                               "--max-round", str(max_round)])
    assert out.exit_code == 0, out.output
    return json.loads(out.output)["q"]


def _write_corpus(path, samples):
    path.write_text("".join(json.dumps({"sample": i, "triples": triples})
                            + "\n" for i, triples in enumerate(samples, 1)))
    return path


def test_estimate_q_reads_labels_not_ids(runner, tmp_path):
    """`estimate-q` maps the corpus through the graph's label tables, as
    `compress` does: first-seen ids of another file mean nothing."""
    graph = tmp_path / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(_write_corpus(tmp_path / "corpus.jsonl", [
                             [["a", "r", "b"]],
                             [["a", "r", "b"], ["c", "s", "d"]]])),
                         "--out", str(graph)])
    # (x y z) has the ids (0, 0, 1) of the graph's (a r b), but none of its
    # labels is in the graph: it is counted in M and kept in full.
    stranger = _write_corpus(tmp_path / "stranger.jsonl", [[["x", "y", "z"]]])
    for max_round in (1, 2):
        assert _estimate_q(runner, graph, stranger, max_round) == []
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(stranger),
                               "--out", str(tmp_path / "msg.scmp")])
    assert out.exit_code == 2
    assert "labels absent from the shared graph (x, y, z)" in out.output


def test_compress_names_a_new_relation(runner, workspace):
    """A message whose entities are the graph's but whose relation is not
    exits 2 naming the triple by its labels."""
    graph = workspace / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    message = _write_corpus(workspace / "new-relation.jsonl",
                            [[["c", "s", "d"], ["a", "unheard", "b"]]])
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(message),
                               "--out", str(workspace / "msg.scmp")])
    assert out.exit_code == 2
    assert "labels absent from the shared graph (a, unheard, b)" in out.output


def test_estimate_q_ignores_first_seen_order(runner, workspace):
    corpus = workspace / "corpus.jsonl"
    graph = workspace / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus", str(corpus),
                         "--out", str(graph)])
    # Each sample's triples reversed: c, d, a, b, ... get other ids.
    shuffled = _write_corpus(workspace / "shuffled.jsonl",
                             [o["triples"][::-1] for o in CORPUS_LINES])
    for max_round in (1, 2):
        want = _estimate_q(runner, graph, corpus, max_round)
        assert want and _estimate_q(runner, graph, shuffled, max_round) == want


def test_optimize(runner, workspace):
    out = runner.invoke(main, ["optimize", "--config",
                               str(workspace / "link.yaml"), "--trace"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.output)
    assert doc["feasible"]
    assert doc["e_total_j"] > 0
    assert doc["trace"]


def test_invocations_leave_no_captured_stream_alive(runner, workspace):
    """Each in-process invocation's captured stdout and stderr can be freed
    once it returns: none is kept alive by a stream cache."""
    def captured():
        return [o for o in gc.get_objects() if isinstance(o, io.IOBase)
                and type(o).__module__ == "click.testing"]

    bad = workspace / "bad.yaml"
    bad.write_text("m_total: many\n")
    gc.collect()
    before = {id(o) for o in captured()}
    for i in range(10):
        config = bad if i % 5 == 4 else workspace / "link.yaml"
        out = runner.invoke(main, ["optimize", "--config", str(config),
                                   "--trace"])
        assert out.exit_code == (2 if config == bad else 0), out.output
    del out
    gc.collect()
    assert [o for o in captured() if id(o) not in before] == []


def test_optimize_infeasible_exit_code(runner, tmp_path):
    def reject(token):
        raise ValueError("non-JSON number %s" % token)

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(CONFIG.replace("latency_budget_ms: 1",
                                  "latency_budget_ms: 1.0e-6")
                   .replace("p_max_dbm: 30", "p_max_dbm: -30"))
    out = runner.invoke(main, ["optimize", "--config", str(cfg), "--trace"])
    assert out.exit_code == 3
    # Strict JSON: an infeasible solve has no numbers, and NaN is not JSON.
    doc = json.loads(out.stdout, parse_constant=reject)
    assert doc.pop("feasible") is False
    assert doc.pop("trace") == []
    assert set(doc.values()) == {None}


def test_sweep(runner, workspace, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    out = runner.invoke(main, ["sweep", "--config",
                               str(workspace / "link.yaml"),
                               "--var", "m_total",
                               "--grid", "50,100,150,200",
                               "--csv", str(csv_path)])
    assert out.exit_code == 0, out.output
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 13
    assert lines[0].startswith("var,algo,")


def test_sweep_simplified_stays_within_the_exact_first_cap(runner, tmp_path):
    # E_1 = 8835 * 0.3651386530843237 is 3225.99999999999989, whose float
    # is 3226.0: E = 3226 is a second-stage omission, which jccpg takes.
    config = tmp_path / "link.yaml"
    config.write_text("path_gain: 1.0e-8\ntau1: 100\ntau2: 1.0e-30\n"
                      "latency_budget_ms: 1000\nm_total: 8835\n"
                      "q: [0.3651386530843237, 0.5]\n")
    csv_path = tmp_path / "sweep.csv"
    out = runner.invoke(main, ["sweep", "--config", str(config),
                               "--var", "m_total", "--grid", "8835",
                               "--csv", str(csv_path)])
    assert out.exit_code == 0, out.output
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = {row["algo"]: row for row in csv.DictReader(fh)}
    assert int(rows["jccpg"]["e_omit"]) == 3226
    assert int(rows["simplified"]["e_omit"]) == 3225
    assert (float(rows["jccpg"]["e_total_j"])
            < float(rows["simplified"]["e_total_j"]))


def test_validation_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(tmp_path / "g.spgr")])
    assert out.exit_code == 2


def test_label_utf8_cannot_encode_exit_2(runner, workspace):
    """A lone surrogate ("\\ud800" in JSON) is no UTF-8 text, so no graph
    file can store it: every command that reads it exits 2, naming it."""
    bad = workspace / "bad.jsonl"
    bad.write_text('{"sample": 1, "triples": [["a\\ud800", "r1", "b"]]}\n')
    out_path = workspace / "bad.spgr"
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(out_path)])
    assert out.exit_code == 2
    assert out.output.splitlines() == [
        "error: label 'a\\ud800' is not encodable as UTF-8"]
    assert not out_path.exists()
    graph = workspace / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    for args in (["compress", "--input", str(bad),
                  "--out", str(workspace / "msg.scmp")],
                 ["estimate-q", "--corpus", str(bad)]):
        out = runner.invoke(main, args + ["--graph", str(graph)])
        assert out.exit_code == 2
        assert "'a\\ud800' is not encodable as UTF-8" in out.output
    assert not (workspace / "msg.scmp").exists()


def test_io_error_exit_code(runner, workspace, tmp_path):
    graph = workspace / "graph.spgr"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(workspace / "message.jsonl"),
                               "--out", str(tmp_path / "no" / "dir" / "x.scmp")])
    assert out.exit_code == 4


@pytest.mark.parametrize("command,replace", [
    ("optimize", ("bandwidth_mhz: 10", "bandwidth_mhz: abc")),
    ("optimize", ("q: [0.3, 0.2, 0.1]", "q: 0.3")),
    ("sweep", ("q: [0.3, 0.2, 0.1]", "q: 0.3")),
    ("optimize", ("bandwidth_mhz: 10", "bandwith_mhz: 1")),
    ("optimize", ("m_total: 100", "m_total: 1.5")),
    ("optimize", ("m_total: 100", "m_total: true")),
    ("optimize", ("bits_per_field: 24", "bits_per_field: 24.9")),
    ("optimize", ("q: [0.3, 0.2, 0.1]", 'q: "1"')),
    ("optimize", ("q: [0.3, 0.2, 0.1]", "q: [true]")),
    ("sweep", ("p_max_dbm: 30", "p_max_dbm: false")),
])
def test_bad_config_value_exit_code(runner, tmp_path, command, replace):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(CONFIG.replace(*replace))
    args = [command, "--config", str(cfg)]
    if command == "sweep":
        args += ["--grid", "50,100", "--csv", str(tmp_path / "s.csv")]
    out = runner.invoke(main, args)
    assert out.exit_code == 2
    assert "Traceback" not in out.output
    assert replace[1].split(":")[0] in out.output


@pytest.mark.parametrize("value", ["5", "jccpg", "[jccpg]"])
def test_scalar_algorithms_exit_code(runner, tmp_path, value):
    # `algorithms` is not a config key: every sweep prices all three.
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(CONFIG + "algorithms: %s\n" % value)
    csv = str(tmp_path / "s.csv")
    for args in (["optimize"], ["sweep", "--grid", "50,100", "--csv", csv]):
        out = runner.invoke(main, args + ["--config", str(cfg)])
        assert out.exit_code == 2
        assert "Traceback" not in out.output
        assert "algorithms" in out.output


@pytest.mark.parametrize("config", [
    b"m_total: 10\n\xff\n",  # not UTF-8
    b"m_total: 2020-13-45\n",  # a date PyYAML cannot build
    b"m_total: !!timestamp 1\n",  # AttributeError inside PyYAML
    b"m_total: !!timestamp 2020-01-01x\n",
    b"m_total: !!bool maybe\n",  # KeyError inside PyYAML
    b"m_total: !!int ''\n",  # IndexError inside PyYAML
    pytest.param(b"m_total: " + b"[" * 5000 + b"]" * 5000 + b"\n",
                 id="5000 nested lists"),  # RecursionError
])
def test_unreadable_config_exit_code(runner, tmp_path, config):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(config)
    out = runner.invoke(main, ["optimize", "--config", str(cfg)])
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "config parse error" in out.output


@pytest.mark.parametrize("extra,grid", [
    ("", "nan,1"),
    ("", "inf"),
    ("", "1e400"),
    ("algorithms: [jccpg, jccpg]\n", "50,100"),
    ("", "1.5,2.7"),  # M is a count: once solved as 1 and 2
])
def test_bad_sweep_exit_code(runner, tmp_path, extra, grid):
    cfg = tmp_path / "link.yaml"
    cfg.write_text(CONFIG + extra)
    out = runner.invoke(main, ["sweep", "--config", str(cfg), "--grid", grid,
                               "--csv", str(tmp_path / "s.csv")])
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "wrote" not in out.output


@pytest.mark.parametrize("missing", ["sample", "triples"])
def test_corpus_object_missing_a_key_exit_2(runner, tmp_path, missing):
    bad = tmp_path / "bad.jsonl"
    lines = [dict(CORPUS_LINES[0]), dict(CORPUS_LINES[1])]
    del lines[1][missing]
    bad.write_text("".join(json.dumps(o) + "\n" for o in lines))
    why = "expected object with 'sample' and 'triples'"
    with pytest.raises(ParseError, match="line 2") as info:
        load_corpus(bad)
    assert why in str(info.value)
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(tmp_path / "g.spgr")])
    assert out.exit_code == 2
    assert len(out.output.splitlines()) == 1
    assert out.output.startswith("error: ") and why in out.output
    assert not (tmp_path / "g.spgr").exists()


def test_deeply_nested_corpus_exit_code(runner, tmp_path):
    bad = tmp_path / "nested.jsonl"
    bad.write_text('{"sample": 1, "triples": %s%s}\n'
                   % ("[" * 100000, "]" * 100000))
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(tmp_path / "g.spgr")])
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "Traceback" not in out.output


def test_non_utf8_corpus_exit_code(runner, tmp_path):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(json.dumps(CORPUS_LINES[0]).encode() + b"\n\xff\xfe\n")
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(tmp_path / "g.spgr")])
    assert out.exit_code == 2
    assert "Traceback" not in out.output


@pytest.mark.parametrize("key,value", [
    ("bandwidth_mhz", ".nan"),
    ("latency_budget_ms", ".inf"),
    ("f_hz", "1.0e+200"),  # tau1 * tau2 * f**2 overflows
])
def test_non_finite_link_value_exit_code(runner, tmp_path, key, value):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("\n".join(
        "%s: %s" % (key, value) if line.startswith(key + ":") else line
        for line in CONFIG.splitlines()) + "\n")
    out = runner.invoke(main, ["optimize", "--config", str(cfg)])
    assert out.exit_code == 2
    for word in ("Traceback", "NaN", "Infinity"):
        assert word not in out.output


def test_repeated_sample_id_graph_exit_code(runner, workspace):
    corpus = load_corpus(workspace / "corpus.jsonl")
    g = build(corpus)
    (head, tail), quad = sorted(g.quadruples.items())[0]
    (rid, _), *rest = quad.relations
    quadruples = dict(g.quadruples)
    quadruples[head, tail] = Quadruple(head, tail, ((rid, (1, 1, 1)), *rest))
    crafted = ProbabilityGraph(quadruples, g.n_samples, g.entities,
                               g.relations)
    graph = workspace / "crafted.spgr"
    crafted.save(graph)
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(workspace / "message.jsonl"),
                               "--out", str(workspace / "msg.scmp")])
    assert out.exit_code == 2
    assert "Traceback" not in out.output


# Contract: whatever flat YAML document `optimize` and `sweep` read, and
# whatever `--grid` string `sweep` gets, they exit 0, 2 or 3 and raise nothing
# but SystemExit.  A document draws well-typed values for some keys, so that
# solves run, then values of any kind for up to two keys, known or not.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=8))
VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=4), inner,
                                              max_size=2)),
    max_leaves=6)
WELL_TYPED = dict(
    {key: st.floats(1e-12, 1e12) for key in CONFIG_KEYS},
    p_max_dbm=st.floats(-30, 60),
    bits_per_field=st.integers(1, 64),
    m_total=st.integers(1, 10 ** 4),
    q=st.lists(st.floats(0, 1, exclude_min=True), max_size=4))
# Solve cost grows linearly with M and has no bound, so M stays <= 10^4.
ANY_M_TOTAL = st.one_of(
    st.integers(max_value=10 ** 4), st.floats(max_value=10 ** 4),
    st.sampled_from([math.nan, math.inf]), st.none(), st.booleans(),
    st.text(max_size=8), st.lists(VALUES, max_size=3))
UNKNOWN_KEYS = (st.text(max_size=12) | SCALARS).filter(
    lambda key: key not in CONFIG_KEYS)


@st.composite
def config_docs(draw):
    doc = draw(st.fixed_dictionaries({}, optional=WELL_TYPED))
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS) | UNKNOWN_KEYS,
                             max_size=2)):
        doc[key] = draw(ANY_M_TOTAL if key == "m_total" else VALUES)
    return doc


# Grid numbers stay small for the same reason as M; text draws no digits.
GRID_TOKENS = st.one_of(
    st.integers(-10, 10 ** 4).map(str),
    st.floats(-10 ** 4, 10 ** 4).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", " ", "x"]))
GRIDS = st.one_of(
    st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=4,
             unique=True).map(lambda ms: ",".join(map(str, sorted(ms)))),
    st.lists(GRID_TOKENS, max_size=4).map(",".join),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=8))


@settings(max_examples=150, deadline=None)
@given(doc=config_docs(), variable=st.sampled_from(SWEEP_VARIABLES),
       grid=GRIDS)
def test_config_contract(doc, variable, grid):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("link.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, allow_unicode=True, sort_keys=False)
        for args in (["optimize", "--config", "link.yaml"],
                     ["sweep", "--config", "link.yaml", "--var", variable,
                      "--grid", grid, "--csv", "sweep.csv"]):
            out = runner.invoke(main, args)
            assert out.exit_code in (0, 2, 3), (args, out.output,
                                                out.exception)
            assert "Traceback" not in out.output
            assert out.exception is None or isinstance(out.exception,
                                                       SystemExit)


# Contract, file half: whatever a damaged corpus, `.spgr` or `.scmp` file
# holds, `build-graph`, `estimate-q`, `compress` and `decompress` exit 0, 2, 3
# or 4 and raise nothing but SystemExit.  The files come from a corpus whose
# message keeps a full triple (g, t, h ties g, w, h in every event) beside a
# round-1 and a round-2 omission, so every section of both formats is there
# to damage.  Flipping a byte and then recomputing the file's SHA-256 gets the
# damage past the digest check into the body parsers.
FILE_CORPUS = [
    {"sample": 1, "triples": [["a", "r1", "b"], ["c", "s", "d"],
                              ["g", "t", "h"], ["g", "w", "h"]]},
    {"sample": 2, "triples": [["a", "r2", "b"], ["x", "u", "y"],
                              ["g", "t", "h"], ["g", "w", "h"]]},
    {"sample": 3, "triples": [["a", "r1", "b"], ["c", "s", "d"]]},
]
FILE_MESSAGE = {"sample": 1, "triples": [["a", "r2", "b"], ["x", "u", "y"],
                                         ["g", "t", "h"]]}
DAMAGED_FILES = ("corpus.jsonl", "message.jsonl", "graph.spgr", "msg.scmp")


def _rehash(name, data):
    """`data` with its digest recomputed, as a writer of that format would."""
    if name == "graph.spgr":  # magic, version/counts, sha256(counts + body)
        return (data[:14] + hashlib.sha256(data[4:14] + data[46:]).digest()
                + data[46:])
    if name == "msg.scmp":  # blake2b-128 of all bytes but its own 38..53
        digest = hashlib.blake2b(data[:38] + data[54:], digest_size=16)
        return data[:38] + digest.digest() + data[54:]
    return data


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(DAMAGED_FILES),
       damage=st.sampled_from(("truncate", "flip", "flip and rehash")),
       data=st.data())
def test_file_contract(name, damage, data):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("corpus.jsonl", "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(o) + "\n" for o in FILE_CORPUS))
        with open("message.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(FILE_MESSAGE) + "\n")
        for args in (["build-graph", "--corpus", "corpus.jsonl",
                      "--out", "graph.spgr"],
                     ["compress", "--graph", "graph.spgr", "--input",
                      "message.jsonl", "--max-round", "2",
                      "--out", "msg.scmp"]):
            assert runner.invoke(main, args).exit_code == 0

        with open(name, "rb") as fh:
            blob = bytearray(fh.read())
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if damage == "truncate":
            del blob[at:]
        else:
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
            if damage == "flip and rehash":
                blob = _rehash(name, bytes(blob))
        with open(name, "wb") as fh:
            fh.write(blob)
        if name == "graph.spgr":  # an accepted file is one to_bytes writes
            try:
                graph = ProbabilityGraph.from_bytes(bytes(blob))
            except GraphDecodeError:
                pass
            else:  # written anew: a loaded graph's to_bytes echoes its input
                assert ProbabilityGraph(
                    graph.quadruples, graph.n_samples, graph.entities,
                    graph.relations).to_bytes() == blob

        for args in (["build-graph", "--corpus", "corpus.jsonl",
                      "--out", "out.spgr"],
                     ["estimate-q", "--graph", "graph.spgr",
                      "--corpus", "corpus.jsonl", "--max-round", "3"],
                     ["compress", "--graph", "graph.spgr", "--input",
                      "message.jsonl", "--max-round", "3",
                      "--out", "out.scmp"],
                     ["decompress", "--graph", "graph.spgr",
                      "--input", "msg.scmp", "--out", "out.jsonl"]):
            out = runner.invoke(main, args)
            assert out.exit_code in (0, 2, 3, 4), (args, out.output,
                                                   out.exception)
            assert "Traceback" not in out.output
            assert out.exception is None or isinstance(out.exception,
                                                       SystemExit)


def test_message_crosses_processes(tmp_path):
    """The BS and the user are separate processes with their own string-hash
    seeds: the graph, the message, its report and the omission profile they
    write must not depend on it."""
    corpus, message = _write_wide_pairs(tmp_path, 15)
    src = os.path.dirname(os.path.dirname(semcomp.__file__))

    def run(seed, *args):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "semcomp.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for seed, out in ((1, "a.spgr"), (2, "b.spgr")):
        run(seed, "build-graph", "--corpus", "corpus.jsonl", "--out", out)
    assert ((tmp_path / "a.spgr").read_bytes()
            == (tmp_path / "b.spgr").read_bytes())
    for seed, out in ((3, "a"), (4, "b")):
        run(seed, "compress", "--graph", "a.spgr", "--input", "message.jsonl",
            "--max-round", "3", "--out", out + ".scmp",
            "--report", out + ".json")
    sent = (tmp_path / "a.scmp").read_bytes()
    assert sent == (tmp_path / "b.scmp").read_bytes()
    assert ((tmp_path / "a.json").read_text()
            == (tmp_path / "b.json").read_text())
    assert any(rec.round > 1 for rec in decode_message(sent).omissions)
    run(5, "decompress", "--graph", "b.spgr", "--input", "a.scmp",
        "--out", "restored.jsonl")

    def labelled(c, sample):
        return {(c.entities.label(t.head), c.relations.label(t.relation),
                 c.entities.label(t.tail)) for t in sample.triples}
    restored = load_corpus(tmp_path / "restored.jsonl")
    assert (labelled(restored, restored.sample(1))
            == labelled(corpus, message))
    for max_round in ("1", "2"):
        profiles = [run(seed, "estimate-q", "--graph", "a.spgr", "--corpus",
                        "corpus.jsonl", "--max-round", max_round)
                    for seed in (1, 5)]
        assert profiles[0] == profiles[1]
        assert json.loads(profiles[0])["q"]
