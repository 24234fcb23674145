"""Golden equivalence: `relation_counts`-based compress/decompress against the
set-based implementation it replaced (legacy_compressor.py)."""

import random

import pytest

import legacy_compressor as legacy
from semcomp.compressor import (CompressedMessage, OmissionRecord, compress,
                                decompress, encode_message)
from semcomp.errors import SemcompError
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import build

from conftest import (_pair_relations, _samples_with, corpus_from_samples,
                      random_corpus)


def tie_heavy_corpus(rng, k=6, n_samples=30):
    """k pairs with a unique mode, k pairs whose two relations always co-occur.

    The co-occurring pairs tie under every condition, so they are never
    omitted and each cycle searches every condition combination.
    """
    samples = []
    for _ in range(n_samples):
        triples = []
        for i in range(k):
            if rng.random() < 0.6:
                rel = "mode" if rng.random() < 0.75 else "minor"
                triples.append(("u%d" % i, rel, "v%d" % i))
            if rng.random() < 0.6:
                triples.append(("t%d" % i, "left", "w%d" % i))
                triples.append(("t%d" % i, "right", "w%d" % i))
        samples.append(triples or [("pad", "p", "pad")])
    return corpus_from_samples(samples)


def random_message(rng, corpus, max_triples=20):
    """Triples over the corpus vocabulary; some are absent from the graph."""
    triples = {Triple(rng.randrange(len(corpus.entities)),
                      rng.randrange(len(corpus.relations)),
                      rng.randrange(len(corpus.entities)))
               for _ in range(rng.randint(1, max_triples))}
    return KnowledgeGraph(sorted(triples))


def cases():
    rng = random.Random(20240905)
    for _ in range(25):
        corpus = random_corpus(rng)
        yield corpus, list(corpus.samples) + [random_message(rng, corpus)]
    for _ in range(3):
        corpus = tie_heavy_corpus(rng)
        messages = list(corpus.samples[:8])
        messages.append(KnowledgeGraph(sorted(set(corpus.iter_triples()))))
        yield corpus, messages


@pytest.mark.parametrize("max_round", [1, 2, 3])
def test_compress_decompress_match_reference(max_round):
    for corpus, messages in cases():
        g = build(corpus)
        for message in messages:
            msg, report = compress(g, message, max_round=max_round)
            ref_msg, ref_report = legacy.compress(g, message,
                                                  max_round=max_round)
            assert encode_message(msg) == encode_message(ref_msg)
            assert report.stages == ref_report.stages
            assert report.comparison_count == ref_report.comparison_count
            assert (decompress(g, msg).triples
                    == legacy.decompress(g, ref_msg).triples)


def _error_class(fn, *args):
    try:
        fn(*args)
    except SemcompError as exc:
        return type(exc)
    return None


def test_corrupt_records_raise_like_reference():
    corpus = corpus_from_samples([
        [("a", "r", "b"), ("x", "u", "y")],
        [("a", "r", "b"), ("c", "s", "d")],
        [("a", "q", "b"), ("x", "u", "y")],
        [("c", "s", "d"), ("e", "t", "f")],
        [("e", "t2", "f")],
    ])
    g = build(corpus)
    ent, rel = corpus.entities.id_of, corpus.relations.id_of
    a, b, c, d, e, f = (ent(n) for n in "abcdef")
    xuy = Triple(ent("x"), rel("u"), ent("y"))
    ety = Triple(e, rel("t"), f)
    no_pair = Triple(a, rel("u"), f)
    no_relation = Triple(a, rel("u"), b)
    full = [xuy, ety, no_pair, no_relation]
    records = [
        OmissionRecord(a, b, 2, conditions=(7,)),  # beyond the prefix
        OmissionRecord(a, f, 1),                   # unknown pair
        OmissionRecord(a, b, 2, conditions=(1,)),  # event misses the pair
        OmissionRecord(e, f, 1),                   # tied argmax
        OmissionRecord(a, b, 2, conditions=(2,)),  # condition pair absent
        OmissionRecord(a, b, 2, conditions=(3,)),  # condition relation absent
        OmissionRecord(c, d, 2, conditions=(1,)),  # valid
        OmissionRecord(a, b, 1),                   # valid
    ]
    for record in records:
        msg = CompressedMessage(g.content_hash, full, [record])
        got = _error_class(decompress, g, msg)
        assert got is _error_class(legacy.decompress, g, msg), record


def test_relation_counts_match_counting_oracle(rng):
    for _ in range(15):
        corpus = random_corpus(rng, n_samples=rng.randint(2, 12))
        g = build(corpus)
        triples = sorted(set(corpus.iter_triples()))
        for (h, t) in sorted(g.quadruples):
            rels = _pair_relations(corpus, h, t)
            supports = [_samples_with(corpus, Triple(h, r, t)) for r in rels]
            counts, denom = g.relation_counts(h, t)
            assert counts == [(r, len(s)) for r, s in zip(rels, supports)]
            assert denom == sum(len(s) for s in supports)
            union = set().union(*supports)
            for width in (1, 2, 3):
                given = rng.sample(triples, min(width, len(triples)))
                event = set.intersection(
                    *(_samples_with(corpus, x) for x in given))
                counts, denom = g.relation_counts(h, t, given)
                assert counts == [(r, len(s & event))
                                  for r, s in zip(rels, supports)]
                assert denom == len(event & union)
