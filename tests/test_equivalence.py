"""Golden equivalence: the bitset compress (pruned round-r walk) and the
`relation_counts`-based decompress against the set-based implementation with
a plain combinations scan (legacy_compressor.py)."""

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


def nested_corpus(rng, k=5, n_samples=30):
    """Every pair carries exactly two relations.

    k pairs with a unique mode, k pairs whose two relations always co-occur
    (equal supports), and k pairs where "sub" only ever appears beside "sup"
    (a strict subset), so the walk prunes both at the root and inside the
    tree.
    """
    samples = []
    for _ in range(n_samples):
        triples = [("u0", "mode" if rng.random() < 0.75 else "minor", "v0")]
        for i in range(1, k):
            if rng.random() < 0.6:
                rel = "mode" if rng.random() < 0.75 else "minor"
                triples.append(("u%d" % i, rel, "v%d" % i))
        for i in range(k):
            if rng.random() < 0.5:
                triples.append(("t%d" % i, "left", "w%d" % i))
                triples.append(("t%d" % i, "right", "w%d" % i))
            if rng.random() < 0.6:
                triples.append(("s%d" % i, "sup", "x%d" % i))
                if rng.random() < 0.5:
                    triples.append(("s%d" % i, "sub", "x%d" % i))
        samples.append(triples)
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
    for make in [tie_heavy_corpus] * 3 + [nested_corpus] * 3:
        corpus = make(rng)
        messages = list(corpus.samples[:8])
        messages.append(KnowledgeGraph(sorted(set(corpus.iter_triples()))))
        yield corpus, messages


def assert_matches_reference(g, message, max_round):
    msg, report = compress(g, message, max_round=max_round)
    ref_msg, ref_report = legacy.compress(g, message, max_round=max_round)
    assert encode_message(msg) == encode_message(ref_msg)
    assert report.stages == ref_report.stages
    assert report.comparison_count == ref_report.comparison_count
    assert (decompress(g, msg).triples
            == legacy.decompress(g, ref_msg).triples)
    return msg, report


@pytest.mark.parametrize("max_round", [1, 2, 3, 4])
def test_compress_decompress_match_reference(max_round):
    for corpus, messages in cases():
        g = build(corpus)
        for message in messages:
            assert_matches_reference(g, message, max_round)


def _labelled(corpus, *label_triples):
    ent, rel = corpus.entities.id_of, corpus.relations.id_of
    return KnowledgeGraph([Triple(ent(h), rel(r), ent(t))
                           for h, r, t in label_triples])


def test_pruned_subtree_before_first_hit():
    # Target (a, R, b): N_R = {1, 2}, N_S = {3, 4, 5}.  Conditions omitted in
    # round 1: C0 = {3, 4, 5, 6}, C1 = {1, 2, 3, 4}, C2 = {1, 2, 4, 5}.  No
    # single condition makes R the unique argmax; at width 2 the prefix C0
    # holds no R sample, so (0, 1) and (0, 2) are skipped unevaluated, and
    # (1, 2) with event {1, 2, 4} is the first hit.
    corpus = corpus_from_samples([
        [("a", "R", "b"), ("c1", "k1", "d1"), ("c2", "k2", "d2")],
        [("a", "R", "b"), ("c1", "k1", "d1"), ("c2", "k2", "d2")],
        [("a", "S", "b"), ("c0", "k0", "d0"), ("c1", "k1", "d1")],
        [("a", "S", "b"), ("c0", "k0", "d0"), ("c1", "k1", "d1"),
         ("c2", "k2", "d2")],
        [("a", "S", "b"), ("c0", "k0", "d0"), ("c2", "k2", "d2")],
        [("c0", "k0", "d0")],
    ])
    g = build(corpus)
    message = _labelled(corpus, ("a", "R", "b"), ("c0", "k0", "d0"),
                        ("c1", "k1", "d1"), ("c2", "k2", "d2"))
    msg, report = assert_matches_reference(g, message, max_round=3)
    assert msg.omissions[-1].round == 3
    assert msg.omissions[-1].conditions == (1, 2)  # C1 and C2
    # round 2 evaluates all 3 single conditions, round 3 only (1, 2)
    assert report.combinations_evaluated == 4
    # round 1: 2 + 1 + 1 + 1; round 2: 3 tuples x 2; round 3: 3 tuples x 2
    assert report.comparison_count == 17


def test_dominated_target_evaluates_nothing():
    # "sub" only ever appears beside "sup": the target is dominated at the
    # root, so no condition tuple is evaluated though the model charges all.
    corpus = corpus_from_samples([
        [("s", "sup", "x"), ("s", "sub", "x"), ("c0", "k", "d0")],
        [("s", "sup", "x"), ("c0", "k", "d0"), ("c1", "k", "d1")],
        [("s", "sup", "x"), ("s", "sub", "x"), ("c1", "k", "d1")],
        [("c2", "k", "d2")],
    ])
    g = build(corpus)
    message = _labelled(corpus, ("s", "sub", "x"), ("c0", "k", "d0"),
                        ("c1", "k", "d1"), ("c2", "k", "d2"))
    for max_round in (2, 3, 4):
        msg, report = assert_matches_reference(g, message, max_round)
        assert len(msg.full_triples) == 1
        assert report.combinations_evaluated == 0
        round1 = compress(g, message, max_round=1)[1].comparison_count
        # 3 omitted conditions: C(3, 1) + C(3, 2) + C(3, 3) tuples, 2 each
        assert (report.comparison_count - round1
                == 2 * sum((3, 3, 1)[:max_round - 1]))


def test_evaluated_combinations_bounded_by_model_count():
    # Every pair of nested_corpus carries two relations, so the tuples the
    # model charges for are the round >= 2 comparisons divided by 2.
    rng = random.Random(7)
    pruned = False
    for _ in range(3):
        corpus = nested_corpus(rng)
        g = build(corpus)
        for message in list(corpus.samples[:8]) + [
                KnowledgeGraph(sorted(set(corpus.iter_triples())))]:
            round1 = compress(g, message, max_round=1)[1].comparison_count
            for max_round in (2, 3, 4):
                report = compress(g, message, max_round=max_round)[1]
                later = report.comparison_count - round1
                assert later % 2 == 0
                assert report.combinations_evaluated <= later // 2
                pruned |= report.combinations_evaluated < later // 2
    assert pruned


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
        OmissionRecord(a, b, conditions=(7,)),  # beyond the prefix
        OmissionRecord(a, f),                   # unknown pair
        OmissionRecord(a, b, conditions=(1,)),  # event misses the pair
        OmissionRecord(e, f),                   # tied argmax
        OmissionRecord(a, b, conditions=(2,)),  # condition pair absent
        OmissionRecord(a, b, conditions=(3,)),  # condition relation absent
        OmissionRecord(c, d, conditions=(1,)),  # valid
        OmissionRecord(a, b),                   # valid
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
