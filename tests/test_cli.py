import json
import math

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomp.cli import main
from semcomp.experiments import ALGORITHMS, CONFIG_KEYS, SWEEP_VARIABLES
from semcomp.kg import load_corpus
from semcomp.probgraph import ProbabilityGraph, Quadruple, build

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


def test_optimize(runner, workspace):
    out = runner.invoke(main, ["optimize", "--config",
                               str(workspace / "link.yaml"), "--trace"])
    assert out.exit_code == 0, out.output
    doc = json.loads(out.output)
    assert doc["feasible"]
    assert doc["e_total_j"] > 0
    assert doc["trace"]


def test_optimize_infeasible_exit_code(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(CONFIG.replace("latency_budget_ms: 1",
                                  "latency_budget_ms: 1.0e-6")
                   .replace("p_max_dbm: 30", "p_max_dbm: -30"))
    out = runner.invoke(main, ["optimize", "--config", str(cfg)])
    assert out.exit_code == 3


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


@pytest.mark.parametrize("value", ["5", "jccpg"])
def test_scalar_algorithms_exit_code(runner, tmp_path, value):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(CONFIG + "algorithms: %s\n" % value)
    out = runner.invoke(main, ["sweep", "--config", str(cfg),
                               "--grid", "50,100",
                               "--csv", str(tmp_path / "s.csv")])
    assert out.exit_code == 2
    assert "Traceback" not in out.output
    assert "algorithms" in out.output


@pytest.mark.parametrize("config", [
    b"m_total: 10\n\xff\n",  # not UTF-8
    b"m_total: 2020-13-45\n",  # a date PyYAML cannot build
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
])
def test_bad_sweep_exit_code(runner, tmp_path, extra, grid):
    cfg = tmp_path / "link.yaml"
    cfg.write_text(CONFIG + extra)
    out = runner.invoke(main, ["sweep", "--config", str(cfg), "--grid", grid,
                               "--csv", str(tmp_path / "s.csv")])
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "wrote" not in out.output


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
    q=st.lists(st.floats(0, 1, exclude_min=True), max_size=4),
    algorithms=st.lists(st.sampled_from(ALGORITHMS), max_size=3, unique=True))
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
