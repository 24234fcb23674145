import hashlib
import itertools
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest

from semcomp import probgraph
from semcomp.errors import (GraphDecodeError, PairNotFoundError,
                            RelationNotFoundError, UndefinedProbabilityError,
                            ValidationError)
from semcomp.kg import Corpus, Triple
from semcomp.probgraph import ProbabilityGraph, Quadruple, build

from conftest import (_pair_relations, _samples_with, corpus_from_samples,
                      oracle_cond_prob, oracle_prob, random_corpus)


def ids(corpus, h, r, t):
    return Triple(corpus.entities.id_of(h), corpus.relations.id_of(r),
                  corpus.entities.id_of(t))


@pytest.fixture
def banana_corpus():
    # (banana, a kind of, fruit) holds in samples 1, 4, 7; filler elsewhere.
    samples = []
    for i in range(1, 8):
        triples = [("sky", "is", "blue")]
        if i in (1, 4, 7):
            triples.append(("banana", "a kind of", "fruit"))
        if i == 2:
            triples.append(("banana", "tastes like", "fruit"))
        samples.append(triples)
    return corpus_from_samples(samples)


class TestBuild:
    def test_banana_support(self, banana_corpus):
        g = build(banana_corpus)
        t = ids(banana_corpus, "banana", "a kind of", "fruit")
        assert g.pair(t.head, t.tail).support(t.relation) == (1, 4, 7)

    def test_singleton(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        assert g.n_pairs == 1
        (quad,) = g.quadruples.values()
        assert quad.relations == ((0, (1,)),)

    def test_disagreeing_samples(self):
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "s", "b")]])
        g = build(corpus)
        assert g.n_pairs == 1
        (quad,) = g.quadruples.values()
        assert [s for _, s in quad.relations] == [(1,), (2,)]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build(Corpus())

    def test_membership_matches_brute_force(self, rng):
        for _ in range(20):
            corpus = random_corpus(rng, n_samples=rng.randint(1, 10))
            g = build(corpus)
            # every (triple, sample) membership agrees with a direct scan
            for kg in corpus.samples:
                for t in kg.triples:
                    assert kg.sample_id in g.pair(t.head, t.tail).support(t.relation)
            for quad in g.quadruples.values():
                for rid, support in quad.relations:
                    expected = {kg.sample_id for kg in corpus.samples
                                if Triple(quad.head, rid, quad.tail) in kg.triples}
                    assert set(support) == expected


class TestProb:
    def test_three_quarters(self, banana_corpus):
        g = build(banana_corpus)
        t = ids(banana_corpus, "banana", "a kind of", "fruit")
        assert g.prob(*t) == Fraction(3, 4)

    def test_single_relation_is_one(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        assert g.prob(0, 0, 1) == 1

    def test_symmetric_half(self):
        corpus = corpus_from_samples(
            [[("a", "r", "b")], [("a", "r", "b")],
             [("a", "s", "b")], [("a", "s", "b")]])
        g = build(corpus)
        assert g.prob(0, 0, 1) == Fraction(1, 2)
        assert g.prob(0, 1, 1) == Fraction(1, 2)

    def test_not_found_errors_are_distinct(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        with pytest.raises(PairNotFoundError):
            g.prob(1, 0, 0)
        with pytest.raises(RelationNotFoundError):
            g.prob(0, 99, 1)


class TestCondProb:
    def test_worked_example(self):
        # given-support {1,4,7}, target-relation support {4,7},
        # pair-union support {1,2,4,7} -> 2/3
        samples = []
        for i in range(1, 8):
            triples = [("pad", "p", "pad2")]
            if i in (1, 4, 7):
                triples.append(("x", "u", "y"))
            if i in (4, 7):
                triples.append(("a", "r1", "b"))
            if i in (1, 2):
                triples.append(("a", "r2", "b"))
            samples.append(triples)
        corpus = corpus_from_samples(samples)
        g = build(corpus)
        target = ids(corpus, "a", "r1", "b")
        given = ids(corpus, "x", "u", "y")
        assert g.cond_prob(target, [given]) == Fraction(2, 3)

    def test_empty_given_degenerates(self, banana_corpus):
        g = build(banana_corpus)
        t = ids(banana_corpus, "banana", "a kind of", "fruit")
        assert g.cond_prob(t, []) == g.prob(*t)

    def test_disjoint_condition_undefined(self):
        corpus = corpus_from_samples(
            [[("a", "r", "b")], [("x", "u", "y")]])
        g = build(corpus)
        target = ids(corpus, "a", "r", "b")
        given = ids(corpus, "x", "u", "y")
        with pytest.raises(UndefinedProbabilityError):
            g.cond_prob(target, [given])

    def test_oracle_equivalence(self, rng):
        for _ in range(15):
            corpus = random_corpus(rng, n_samples=rng.randint(2, 10))
            g = build(corpus)
            all_triples = sorted(set(corpus.iter_triples()))
            for target in all_triples:
                assert g.prob(*target) == oracle_prob(corpus, target)
                for given in itertools.islice(
                        itertools.combinations(all_triples, 1), 10):
                    if target in given:
                        continue
                    expected = oracle_cond_prob(corpus, target, list(given))
                    if expected is None:
                        with pytest.raises(UndefinedProbabilityError):
                            g.cond_prob(target, list(given))
                    else:
                        assert g.cond_prob(target, list(given)) == expected

    def test_monotone_conditioning_numerator(self, rng):
        # adding a condition never enlarges the numerator event
        corpus = random_corpus(rng, n_samples=10, max_triples=8)
        g = build(corpus)
        triples = sorted(set(corpus.iter_triples()))
        for target in triples[:10]:
            t_support = set(g.pair(target.head, target.tail)
                            .support(target.relation))
            for c1, c2 in itertools.islice(
                    itertools.combinations(triples, 2), 30):
                s1 = set(g.pair(c1.head, c1.tail).support(c1.relation))
                s2 = set(g.pair(c2.head, c2.tail).support(c2.relation))
                assert len(t_support & (s1 & s2)) <= len(t_support & s1)


class TestDistribution:
    def test_values(self, banana_corpus):
        g = build(banana_corpus)
        t = ids(banana_corpus, "banana", "a kind of", "fruit")
        dist = g.relation_distribution(t.head, t.tail)
        assert dist == sorted(dist)
        assert [float(p) for _, p in dist] == pytest.approx([0.75, 0.25])

    def test_sums_to_one(self, rng):
        corpus = random_corpus(rng, n_samples=10)
        g = build(corpus)
        for (h, t) in g.quadruples:
            dist = g.relation_distribution(h, t)
            assert sum(p for _, p in dist) == 1
            assert abs(sum(float(p) for _, p in dist) - 1.0) <= 1e-12

    def test_unknown_pair(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        with pytest.raises(PairNotFoundError):
            g.relation_distribution(5, 6)


def _verdicts(g):
    """The pairs whose quadruple holds its verdict, and the verdict."""
    return {pair: q.__dict__["verdict"] for pair, q in g.quadruples.items()
            if "verdict" in q.__dict__}


class TestRound1Verdict:
    def test_not_filled_by_build_or_from_bytes(self, rng):
        g = build(random_corpus(rng, n_samples=6))
        blob = g.to_bytes()
        assert _verdicts(g) == {}
        assert _verdicts(ProbabilityGraph.from_bytes(blob)) == {}

    def test_matches_counting_oracle(self, rng):
        for _ in range(15):
            corpus = random_corpus(rng, n_samples=rng.randint(1, 12))
            g = build(corpus)
            for (h, t) in sorted(g.quadruples):
                rels = _pair_relations(corpus, h, t)
                counts = [len(_samples_with(corpus, Triple(h, r, t)))
                          for r in rels]
                top = max(counts)
                expected = (rels[counts.index(top)]
                            if counts.count(top) == 1 else None)
                assert g.pair(h, t).verdict == expected
                assert _verdicts(g)[(h, t)] == expected
            assert len(_verdicts(g)) == g.n_pairs

    def test_tie_is_none(self):
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "s", "b")]])
        g = build(corpus)
        head, tail = corpus.entities.id_of("a"), corpus.entities.id_of("b")
        assert g.pair(head, tail).verdict is None
        assert _verdicts(g) == {(head, tail): None}

    def test_unknown_pair(self):
        g = build(corpus_from_samples([[("a", "r", "b")]]))
        with pytest.raises(PairNotFoundError):
            g.pair(1, 0).verdict
        assert _verdicts(g) == {}


def _spgr(entities, relations, pairs, n_samples=2, trailing=b""):
    """A `.spgr` file holding the tables and (head, tail, [(relation,
    samples), ...]) pairs exactly as given, in order, then `trailing`, with
    a valid digest.  A label given as bytes is written as is."""
    body = bytearray()
    for table in (entities, relations):
        body += struct.pack("<I", len(table))
        for label in table:
            raw = label if isinstance(label, bytes) else label.encode("utf-8")
            body += struct.pack("<I", len(raw)) + raw
    for head, tail, rels in pairs:
        body += struct.pack("<III", head, tail, len(rels))
        for rid, samples in rels:
            deltas = [b - a for a, b in zip((0,) + samples, samples)]
            body += struct.pack("<II%dI" % len(samples), rid, len(samples),
                                *deltas)
    body += trailing
    counts = struct.pack("<HII", probgraph.FORMAT_VERSION, n_samples,
                         len(pairs))
    return (probgraph.FORMAT_MAGIC + counts
            + hashlib.sha256(counts + bytes(body)).digest() + bytes(body))


class TestSerialization:
    def test_roundtrip(self, rng):
        corpus = random_corpus(rng, n_samples=8)
        g = build(corpus)
        g2 = ProbabilityGraph.from_bytes(g.to_bytes())
        assert g2.content_hash == g.content_hash
        assert g2.n_samples == g.n_samples
        assert g2.quadruples == g.quadruples
        assert g2.entities == g.entities
        assert g2.relations == g.relations

    def test_corruption_detected(self, rng):
        corpus = random_corpus(rng, n_samples=5)
        data = bytearray(build(corpus).to_bytes())
        local = random.Random(7)
        for _ in range(40):
            pos = local.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[pos] ^= 0xFF
            with pytest.raises(GraphDecodeError):
                ProbabilityGraph.from_bytes(bytes(corrupted))

    def test_sample_id_beyond_count_rejected(self):
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "r", "b")]])
        data = bytearray(build(corpus).to_bytes())
        data[6:10] = struct.pack("<I", 1)  # N, then a digest that covers it
        data[14:46] = hashlib.sha256(data[4:14] + data[46:]).digest()
        with pytest.raises(GraphDecodeError):
            ProbabilityGraph.from_bytes(bytes(data))

    def test_version_1_file_rejected(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        data = bytearray(build(corpus).to_bytes())
        data[4:6] = struct.pack("<H", 1)
        data[14:46] = hashlib.sha256(data[4:14] + data[46:]).digest()
        with pytest.raises(GraphDecodeError, match="format version 1"):
            ProbabilityGraph.from_bytes(bytes(data))

    def test_to_bytes_hashes_once_and_seeds_hash(self, rng, monkeypatch):
        corpus = random_corpus(rng, n_samples=6)
        expected = build(corpus).to_bytes()
        bodies, digests = [], []
        body_bytes = ProbabilityGraph._body_bytes
        sha256 = probgraph.hashlib.sha256

        def counting_body(graph):
            bodies.append(graph)
            return body_bytes(graph)

        def counting(data=b""):
            digests.append(len(data))
            return sha256(data)

        monkeypatch.setattr(ProbabilityGraph, "_body_bytes", counting_body)
        monkeypatch.setattr(probgraph.hashlib, "sha256", counting)
        # The benchmark's set-up asks for the hash first, then the file.
        for hash_first in (True, False):
            bodies.clear()
            digests.clear()
            g = build(corpus)
            if hash_first:
                assert g.content_hash == expected[14:46]
            assert g.to_bytes() == expected
            assert g.to_bytes() is g.to_bytes()
            assert g.content_hash == expected[14:46]
            assert (len(bodies), len(digests)) == (1, 1)

        # A read graph keeps the bytes it checked: one digest, no writing.
        digests.clear()
        loaded = ProbabilityGraph.from_bytes(expected)
        assert loaded.to_bytes() is expected
        assert loaded.content_hash == expected[14:46]
        copied = ProbabilityGraph.from_bytes(bytearray(expected))
        assert type(copied.to_bytes()) is bytes
        assert copied.to_bytes() == expected
        assert (len(bodies), len(digests)) == (1, 2)

    def test_relation_without_sample_rejected(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        quad = Quadruple(0, 1, ((0, (1,)), (1, ())))
        crafted = ProbabilityGraph({(0, 1): quad}, 1, g.entities, g.relations)
        with pytest.raises(GraphDecodeError, match="without a sample"):
            ProbabilityGraph.from_bytes(crafted.to_bytes())

    @pytest.mark.parametrize("support", [(1, 1, 1), (0, 1)])
    def test_sample_ids_not_increasing_from_one_rejected(self, support):
        # (1, 1, 1) repeats an id: its count would read 3 against a bitset
        # of one sample.  (0, 1) starts at 0, below the first sample id.
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "s", "b")]])
        g = build(corpus)
        quad = Quadruple(0, 1, ((0, support), (1, (1, 2))))
        crafted = ProbabilityGraph({(0, 1): quad}, 2, g.entities, g.relations)
        with pytest.raises(GraphDecodeError, match="strictly increase"):
            ProbabilityGraph.from_bytes(crafted.to_bytes())

    def test_spgr_writer_matches_to_bytes(self):
        corpus = corpus_from_samples([[("a", "r", "b"), ("b", "s", "a")],
                                      [("a", "s", "b")]])
        assert build(corpus).to_bytes() == _spgr(
            ["a", "b"], ["r", "s"],
            [(0, 1, [(0, (1,)), (1, (2,))]), (1, 0, [(1, (1,))])])

    def test_trailing_bytes_rejected(self):
        data = _spgr(["a", "b"], ["r"], [(0, 1, [(0, (1,))])],
                     trailing=b"\x00")
        with pytest.raises(GraphDecodeError, match="trailing bytes"):
            ProbabilityGraph.from_bytes(data)

    @pytest.mark.parametrize("entities, relations, pairs, message", [
        (["a", "b"], ["r"], [(1, 0, [(0, (1,))]), (0, 1, [(0, (2,))])],
         "pairs must strictly increase"),
        (["a", "b"], ["r"], [(0, 1, [(0, (1,))]), (0, 1, [(0, (2,))])],
         "pairs must strictly increase"),
        (["a", "b"], ["r", "s"], [(0, 1, [(1, (1,)), (0, (2,))])],
         "relation ids must strictly increase"),
        (["a", "b"], ["r"], [(0, 1, [(0, (1,)), (0, (2,))])],
         "relation ids must strictly increase"),
        (["a", "b"], ["r"], [(0, 2, [(0, (1,))])], "entity id beyond"),
        (["a", "b"], ["r"], [(2, 0, [(0, (1,))])], "entity id beyond"),
        (["a", "b"], ["r"], [(0, 1, [(1, (1,))])], "relation id beyond"),
        (["a", "b"], ["r"], [(0, 1, [])], "pair without a relation"),
        (["a", ""], ["r"], [(0, 1, [(0, (1,))])], "labels must be"),
        (["a", "b"], [" r"], [(0, 1, [(0, (1,))])], "labels must be"),
        (["a", "b", "a"], ["r"], [(0, 1, [(0, (1,))])], "labels must be"),
        (["a", b"\xff"], ["r"], [(0, 1, [(0, (1,))])],
         "invalid label encoding"),
    ], ids=["pairs-unordered", "pair-repeated", "relations-unordered",
            "relation-repeated", "tail-beyond-table", "head-beyond-table",
            "relation-beyond-table", "pair-empty", "label-empty",
            "label-padded", "label-repeated", "label-not-utf8"])
    def test_non_canonical_rejected(self, entities, relations, pairs,
                                    message):
        with pytest.raises(GraphDecodeError, match=message):
            ProbabilityGraph.from_bytes(_spgr(entities, relations, pairs))

    def test_loaded_sample_ids_share_one_int_each(self):
        # Ids past 256 are not CPython's cached small ints, so sharing comes
        # from the loader: one int object per distinct sample id, as in a
        # built graph.
        rng = random.Random(11)
        corpus = corpus_from_samples([
            sorted({("e%d" % rng.randrange(6), "r%d" % rng.randrange(3),
                     "e%d" % rng.randrange(6)) for _ in range(4)})
            for _ in range(600)])
        loaded = ProbabilityGraph.from_bytes(build(corpus).to_bytes())
        ids = [sid for quad in loaded.quadruples.values()
               for _, samples in quad.relations for sid in samples]
        assert max(ids) > 256 and len(ids) > len(set(ids))
        assert len({id(sid) for sid in ids}) == len(set(ids))

    def test_sample_ids_past_the_shared_table_load_as_read(self):
        # N far above the ids the file can hold: the shared-id table is cut
        # at the file's size, and an id past it still loads and re-saves.
        n = 2**32 - 1
        data = _spgr(["a", "b"], ["r"], [(0, 1, [(0, (3, 10**6, n))])],
                     n_samples=n)
        tracemalloc.start()
        try:
            g = ProbabilityGraph.from_bytes(data)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert g.pair(0, 1).support(0) == (3, 10**6, n)
        # Written anew from the parsed structures: a loaded graph keeps the
        # bytes it read, so its own `to_bytes` would only echo them.
        assert ProbabilityGraph(g.quadruples, g.n_samples, g.entities,
                                g.relations).to_bytes() == data

    def test_file_roundtrip(self, tmp_path, rng):
        corpus = random_corpus(rng, n_samples=4)
        g = build(corpus)
        path = tmp_path / "graph.spgr"
        g.save(path)
        assert ProbabilityGraph.load(path).content_hash == g.content_hash

    def test_save_writes_no_file_when_the_bytes_fail(self, tmp_path, rng,
                                                     monkeypatch):
        def failing_body(graph):
            raise RuntimeError("body failed")

        g = build(random_corpus(rng, n_samples=4))
        monkeypatch.setattr(ProbabilityGraph, "_body_bytes", failing_body)
        path = tmp_path / "graph.spgr"
        with pytest.raises(RuntimeError, match="body failed"):
            g.save(path)
        assert not path.exists()


class TestPairTable:
    def test_pairs_in_file_order_on_both_ends(self, rng):
        corpus = random_corpus(rng, n_samples=10)
        g = build(corpus)
        loaded = ProbabilityGraph.from_bytes(g.to_bytes())
        for graph in (g, loaded):
            assert ([(q.head, q.tail) for q in graph.pair_table]
                    == sorted(graph.quadruples))
            assert all(graph.pair_table[i] is graph.quadruples[pair]
                       for pair, i in graph.pair_index.items())
            assert sorted(graph.pair_index.values()) == list(
                range(graph.n_pairs))

    def test_triples_are_in_rank_order(self):
        corpus = corpus_from_samples([[("a", "s", "b")], [("a", "r", "b")]])
        quad = build(corpus).pair(0, 1)
        assert [t.relation for t in quad.triples] == [
            rid for rid, _ in quad.relations] == [0, 1]
        assert all((t.head, t.tail) == (0, 1) for t in quad.triples)
