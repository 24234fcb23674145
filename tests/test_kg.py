import json
import random
import re
import time

import pytest

import legacy_loader
from semcomp.errors import ParseError, SemcompError, ValidationError
from semcomp.kg import (Interner, KnowledgeGraph, Triple, dump_corpus_lines,
                        load_corpus_lines)
from semcomp.probgraph import ProbabilityGraph, build


def jsonl(*objs):
    return [json.dumps(o) for o in objs]


class TestInterner:
    def test_idempotent(self):
        table = Interner()
        assert table.intern("banana") == table.intern("banana")

    def test_injective(self):
        table = Interner()
        assert table.intern("banana") != table.intern("fruit")

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            Interner().intern("")
        with pytest.raises(ValidationError):
            Interner().intern("   ")

    def test_whitespace_trimmed_case_sensitive(self):
        table = Interner()
        assert table.intern(" banana ") == table.intern("banana")
        assert table.intern("Banana") != table.intern("banana")

    def test_label_roundtrip(self):
        table = Interner()
        i = table.intern("banana")
        assert table.label(i) == "banana"
        assert table.id_of("banana") == i
        assert table.id_of("nope") is None


class TestLoadCorpus:
    def test_counts(self):
        corpus = load_corpus_lines(jsonl(
            {"sample": 1, "triples": [["a", "r", "b"], ["c", "r", "d"]]},
            {"sample": 2, "triples": [["a", "r", "b"], ["a", "s", "b"]]},
            {"sample": 3, "triples": [["c", "r", "d"], ["d", "r", "c"]]},
        ))
        assert corpus.n_samples == 3
        assert corpus.n_triples() == 6

    def test_empty_corpus(self):
        with pytest.raises(ValidationError, match="empty corpus"):
            load_corpus_lines([])
        with pytest.raises(ValidationError, match="empty corpus"):
            load_corpus_lines(["", "   "])

    def test_sample_gap(self):
        with pytest.raises(ValidationError, match="gap"):
            load_corpus_lines(jsonl(
                {"sample": 1, "triples": [["a", "r", "b"]]},
                {"sample": 3, "triples": [["a", "r", "b"]]},
            ))

    def test_huge_sample_id_gap_is_cheap(self):
        # The check must not build the range of ids up to the largest one.
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="gap") as info:
            load_corpus_lines(jsonl(
                {"sample": 10 ** 12, "triples": [["a", "r", "b"]]}))
        assert time.perf_counter() - start < 1.0
        assert len(str(info.value)) < 100

    def test_boolean_sample_id_rejected(self):
        with pytest.raises(ParseError, match="positive integer"):
            load_corpus_lines(jsonl({"sample": True,
                                     "triples": [["a", "r", "b"]]}))

    def test_duplicate_sample_id(self):
        with pytest.raises(ValidationError, match="duplicate sample"):
            load_corpus_lines(jsonl(
                {"sample": 1, "triples": [["a", "r", "b"]]},
                {"sample": 1, "triples": [["a", "s", "b"]]},
            ))

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_corpus_lines([
                json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}),
                "{not json",
            ])

    def test_duplicate_triple_rejected(self):
        with pytest.raises(ValidationError, match="duplicate triple"):
            load_corpus_lines(jsonl(
                {"sample": 1, "triples": [["a", "r", "b"], ["a", "r", "b"]]},
            ))

    @pytest.mark.parametrize("sample_id", ["1_0", "+2", "\u0661", " 3", "04"])
    def test_tsv_sample_id_in_plain_decimal(self, sample_id):
        with pytest.raises(ParseError, match="positive integer"):
            load_corpus_lines(["%s\ta\tr\tb" % sample_id])

    def test_tsv_format(self):
        corpus = load_corpus_lines([
            "1\ta\tr\tb",
            "1\tc\tr\td",
            "2\ta\ts\tb",
        ])
        assert corpus.n_samples == 2
        assert corpus.n_triples() == 3
        t = corpus.sample(2).triples[0]
        assert corpus.relations.label(t.relation) == "s"

    def test_mixed_formats_rejected(self):
        with pytest.raises(ParseError, match="mixed"):
            load_corpus_lines([
                json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}),
                "2\ta\tr\tb",
            ])

    def test_self_loops_permitted(self):
        corpus = load_corpus_lines(jsonl(
            {"sample": 1, "triples": [["a", "r", "a"]]}))
        t = corpus.sample(1).triples[0]
        assert t.head == t.tail

    def test_labels_resolve_to_source_strings(self):
        corpus = load_corpus_lines(jsonl(
            {"sample": 1, "triples": [["banana", "a kind of", "fruit"]]}))
        t = corpus.sample(1).triples[0]
        assert corpus.entities.label(t.head) == "banana"
        assert corpus.relations.label(t.relation) == "a kind of"
        assert corpus.entities.label(t.tail) == "fruit"

    def test_serialization_roundtrip_identical(self):
        corpus = load_corpus_lines(jsonl(
            {"sample": 1, "triples": [["b", "r", "a"], ["a", "s", "b"]]},
            {"sample": 2, "triples": [["c", "r", "a"]]},
        ))
        reloaded = load_corpus_lines(list(dump_corpus_lines(corpus)))
        assert reloaded.entities == corpus.entities
        assert reloaded.relations == corpus.relations
        assert [kg.triples for kg in reloaded.samples] == \
            [kg.triples for kg in corpus.samples]


def test_knowledge_graph_rejects_duplicates():
    with pytest.raises(ValidationError):
        KnowledgeGraph([Triple(0, 0, 1), Triple(0, 0, 1)])


# -- the label-sharing loader against the reference loader -------------------

def _outcome(load, lines):
    """Intern tables and per-sample triples, or the error's class and text.

    The reference's gap message lists every missing id; the loader's names
    the first, so a gap compares by that id.
    """
    try:
        corpus = load(lines)
    except SemcompError as exc:
        gap = re.match(r"gap in sample ids: \D*(\d+)", str(exc))
        return type(exc), ("gap", int(gap[1])) if gap else str(exc)
    return (corpus.entities.labels(), corpus.relations.labels(),
            [(kg.sample_id, kg.triples) for kg in corpus.samples])


def _random_samples(rng):
    """Label triples with padded, repeated and role-sharing labels."""
    names = ["a", "b", "é", "x y", "r", "s"]

    def label():
        name = rng.choice(names)
        return rng.choice(["", " ", "  "]) + name + rng.choice(["", " ", "\t"])

    samples = []
    for _ in range(rng.randint(1, 12)):
        triples = {}
        for _ in range(rng.randint(1, 8)):
            triple = (label(), label(), label())
            # one triple per stripped form: the loader rejects duplicates
            triples.setdefault(tuple(x.strip() for x in triple), triple)
        samples.append(list(triples.values()))
    return samples


def _jsonl_lines(rng, samples):
    lines = [json.dumps({"sample": i, "triples": [list(t) for t in ts]})
             for i, ts in enumerate(samples, start=1)]
    rng.shuffle(lines)
    return lines


def _tsv_lines(rng, samples):
    lines = ["%d\t%s\t%s\t%s" % ((i,) + t)
             for i, ts in enumerate(samples, start=1) for t in ts
             if "\t" not in "".join(t)]
    rng.shuffle(lines)
    return lines


def test_loader_matches_reference_on_valid_corpora():
    rng = random.Random(11)
    loaded = 0
    for _ in range(60):
        samples = _random_samples(rng)
        for lines in (_jsonl_lines(rng, samples), _tsv_lines(rng, samples)):
            expected = _outcome(legacy_loader.load_corpus_lines, lines)
            assert _outcome(load_corpus_lines, lines) == expected
            loaded += not isinstance(expected[0], type)
    assert loaded > 60


_MALFORMED = [
    # empty label, in either format and either role
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}),
     json.dumps({"sample": 2, "triples": [["a", " ", "b"]]})],
    ["1\ta\tr\tb", "2\t\tr\tb"],
    # gap, duplicate id, empty corpus
    [json.dumps({"sample": 3, "triples": [["a", "r", "b"]]}),
     json.dumps({"sample": 1, "triples": [["a", "r", "b"]]})],
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}),
     json.dumps({"sample": 1, "triples": [["a", "s", "b"]]})],
    ["", "  "],
    # bad lines
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}), "{not json"],
    [json.dumps({"sample": 1, "triples": [["a", "r", 5]]})],
    [json.dumps({"sample": 1, "triples": [["a", "r"]]})],
    [json.dumps({"sample": 0, "triples": []})],
    ["1\ta\tr"],
    ["x\ta\tr\tb"],
    # mixed formats
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}), "2\ta\tr\tb"],
    # entries a loader keyed by the label tuple could take for a seen triple:
    # a 3-character string, an unhashable label, a number or boolean label
    [json.dumps({"sample": 1, "triples": [["a", "b", "c"]]}),
     json.dumps({"sample": 2, "triples": ["abc"]})],
    [json.dumps({"sample": 1, "triples": [["a", ["r"], "b"]]})],
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"], ["a", "r", {}]]})],
    [json.dumps({"sample": 1, "triples": [["1", "r", "b"]]}),
     json.dumps({"sample": 2, "triples": [[1, "r", "b"]]})],
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"], ["a", "r", True]]})],
    # precedence: a parse error beats a duplicate id, a gap beats an empty
    # label, and sample 1's duplicate triple beats sample 2's empty label
    [json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}),
     json.dumps({"sample": 1, "triples": [["a", "r", "b"]]}), "{bad"],
    [json.dumps({"sample": 1, "triples": [["", "r", "b"]]}),
     json.dumps({"sample": 3, "triples": [["a", "r", "b"]]})],
    [json.dumps({"sample": 2, "triples": [["", "r", "b"]]}),
     json.dumps({"sample": 1,
                 "triples": [["a", "r", "b"], ["a ", "r", "b"]]})],
]


@pytest.mark.parametrize("lines", _MALFORMED)
def test_loader_malformed_matches_reference(lines):
    expected = _outcome(legacy_loader.load_corpus_lines, lines)
    assert isinstance(expected[0], type)  # the case really is malformed
    assert _outcome(load_corpus_lines, lines) == expected


def test_loader_mutated_corpora_match_reference():
    """Random damage to valid files: same tables, or the same error first."""
    rng = random.Random(5)
    damages = [
        lambda ls: ls + [rng.choice(ls)],                # repeat a line
        lambda ls: ls[:rng.randrange(len(ls))],          # drop the tail
        lambda ls: ls + ["{broken"],
        lambda ls: ls + ["7\ta\tr\tb"],
        lambda ls: [l.replace('"a"', '" "', 1) for l in ls],
        lambda ls: [l.replace("\ta\t", "\t\t", 1) for l in ls],
    ]
    for _ in range(150):
        samples = _random_samples(rng)
        to_lines = rng.choice([_jsonl_lines, _tsv_lines])
        lines = to_lines(rng, samples) or ["1\ta\tr\tb"]
        for _ in range(rng.randint(1, 2)):
            lines = rng.choice(damages)(lines) or lines
        rng.shuffle(lines)
        assert (_outcome(load_corpus_lines, lines)
                == _outcome(legacy_loader.load_corpus_lines, lines))


# -- loading into a graph's ids ----------------------------------------------

def _id_map(table, graph_table):
    """Corpus id -> graph id; the labels `graph_table` lacks are numbered on
    past its end, in first-seen order.  The renumbering rule a corpus loaded
    with its own tables needed to reach the graph's ids."""
    joint = Interner(graph_table.labels() + table.labels())
    return [joint.id_of(label) for label in table.labels()]


_INTO_GRAPH = [  # the graph's labels in another first-seen order, and new ones
    [("d", "t", "a"), ("new1", "s", "c"), (" b ", "r", "a")],
    [("c", "q", "new2"), ("new1", "r", "d"), ("a", "p", "b")],
    [("new2", "t", "new1")],
]


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_loading_into_a_graphs_tables(fmt):
    graph = build(load_corpus_lines(jsonl(
        {"sample": 1, "triples": [["a", "r", "b"], ["c", "s", "d"]]},
        {"sample": 2, "triples": [["b", "s", "c"], ["a", "t", "d"]]})))
    entities, relations = graph.entities.labels(), graph.relations.labels()
    blob, digest = graph.to_bytes(), graph.content_hash
    # The last sample's lines come first: ids follow sample order.
    lines = []
    for i, ts in reversed(list(enumerate(_INTO_GRAPH, start=1))):
        if fmt == "jsonl":
            lines.append(json.dumps({"sample": i,
                                     "triples": [list(t) for t in ts]}))
        else:
            lines += ["%d\t%s\t%s\t%s" % ((i,) + t) for t in ts]

    own = load_corpus_lines(lines)
    ent = _id_map(own.entities, graph.entities)
    rel = _id_map(own.relations, graph.relations)
    assert ent != list(range(len(ent))) and rel != list(range(len(rel)))
    want = [[Triple(ent[h], rel[r], ent[t]) for h, r, t in kg.triples]
            for kg in own.samples]

    corpus = load_corpus_lines(lines, graph)
    assert [kg.triples for kg in corpus.samples] == want
    assert corpus.entities.labels() == entities + ["new1", "new2"]
    assert corpus.relations.labels() == relations + ["q", "p"]
    # The graph's own tables are copied, not grown.
    assert graph.entities.labels() == entities
    assert graph.relations.labels() == relations
    assert graph.to_bytes() == blob
    assert ProbabilityGraph.from_bytes(blob).content_hash == digest
