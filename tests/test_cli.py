import gc
import hashlib
import io
import json
import math
import os
import random
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
from semcomp.errors import GraphDecodeError
from semcomp.experiments import CONFIG_KEYS, SWEEP_VARIABLES
from semcomp.kg import load_corpus
from semcomp.probgraph import ProbabilityGraph, Quadruple, build

import legacy_wire
import legacy_wire_v2
from conftest import random_corpus, v2_content
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


def test_report_wire_block_is_the_file(runner, workspace):
    graph, compressed = workspace / "graph.spgr", workspace / "msg.scmp"
    report = workspace / "report.json"
    runner.invoke(main, ["build-graph", "--corpus",
                         str(workspace / "corpus.jsonl"), "--out", str(graph)])
    out = runner.invoke(main, ["compress", "--graph", str(graph),
                               "--input", str(workspace / "message.jsonl"),
                               "--max-round", "2", "--out", str(compressed),
                               "--report", str(report)])
    assert out.exit_code == 0, out.output
    doc = json.loads(report.read_text())
    block = doc["wire"]
    assert block["total"] == compressed.stat().st_size
    assert (block["header"] + block["known"] + block["escaped"]
            + sum(block["records"].values()) + block["conditions"]
            + block["padding"]) == block["total"]
    # x u y is omitted in round 1 and a r2 b, given it, in round 2.  Sent
    # with no omission they are known triples: x u y at rank 0 of pair
    # (x, y), a r2 b at rank 1 of pair (a, b).
    g = ProbabilityGraph.load(graph)
    ent = g.entities.id_of
    assert [rec.round for rec in decode_message(compressed.read_bytes())
            .omissions] == [1, 2]
    plain = CompressedMessage(g.content_hash,
                              [(g.pair_index[ent("x"), ent("y")], 0),
                               (g.pair_index[ent("a"), ent("b")], 1)], [], [])
    assert block["without_omission"] == len(encode_message(plain))
    assert block["without_omission"] < block["total"]
    # the model's payload_bits: 3 * M - E fields of 24 bits, M = 2
    omitted = sum(stage["omitted"] for stage in doc["stages"])
    assert block["model"] == 24 * (3 * 2 - omitted) / 8


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


def test_validation_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    out = runner.invoke(main, ["build-graph", "--corpus", str(bad),
                               "--out", str(tmp_path / "g.spgr")])
    assert out.exit_code == 2


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
            else:
                assert graph.to_bytes() == blob

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
    corpus = random_corpus(random.Random(23), n_samples=15, n_entities=8)
    largest = max(corpus.samples, key=len)
    message = kg.Corpus([kg.KnowledgeGraph(largest.triples, sample_id=1)],
                        corpus.entities, corpus.relations)
    kg.dump_corpus(corpus, tmp_path / "corpus.jsonl")
    kg.dump_corpus(message, tmp_path / "message.jsonl")
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

    def labelled(c):
        return {(c.entities.label(t.head), c.relations.label(t.relation),
                 c.entities.label(t.tail)) for t in c.sample(1).triples}
    assert labelled(load_corpus(tmp_path / "restored.jsonl")) == labelled(
        message)
    for max_round in ("1", "2"):
        profiles = [run(seed, "estimate-q", "--graph", "a.spgr", "--corpus",
                        "corpus.jsonl", "--max-round", max_round)
                    for seed in (1, 5)]
        assert profiles[0] == profiles[1]
        assert json.loads(profiles[0])["q"]
