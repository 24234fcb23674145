"""Golden equivalence: `estimate_q` (at round 1, the multiplicity of the
distinct triples whose relation is their pair's verdict) and `build` (sample
ids gathered per distinct triple) against the per-sample compressions and
per-occurrence grouping they replaced (legacy_planner.py).

The reference `estimate_q` divides a later cycle by the candidates its
samples reported, a rule `estimate_q` no longer follows.  What the reference
still defines is held equal: M, and the triples each (round, cycle) omits
under its `compress`.  The expected q is derived from those counts by the
one rule, each stage's omissions over the triples the earlier stages left.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import legacy_planner as legacy
from semcomp.compressor import compress
from semcomp.kg import Corpus, KnowledgeGraph, Triple
from semcomp.probgraph import build
from semcomp.resource import estimate_q

from conftest import corpus_from_samples, random_corpus
from test_equivalence import nested_corpus


def _corpora():
    rng = random.Random(31)
    out = [random_corpus(rng) for _ in range(20)]
    out += [random_corpus(rng, n_samples=40, n_entities=4, n_relations=3,
                          max_triples=10) for _ in range(3)]
    out += [nested_corpus(rng) for _ in range(3)]
    return out


CORPORA = _corpora()


def _calibration_messages(rng, corpus):
    """Samples without ids, as the benchmark's calibration passes them:
    triples of the graph mixed with pairs and relations absent from it."""
    n_ent, n_rel = len(corpus.entities), len(corpus.relations)
    known = list(corpus.iter_triples())
    messages = []
    for _ in range(rng.randint(1, 12)):
        triples = set(rng.sample(known, min(len(known), rng.randint(0, 15))))
        for _ in range(rng.randint(0, 4)):
            triples.add(Triple(rng.randrange(n_ent + 2),
                               rng.randrange(n_rel + 1),
                               rng.randrange(n_ent + 2)))
        messages.append(KnowledgeGraph(sorted(triples)))
    if not any(messages):
        messages.append(KnowledgeGraph(known[:1]))
    return Corpus(samples=messages)


def _profile(estimate, g, corpus, max_round):
    profile = estimate(g, corpus, max_round=max_round)
    return profile._q, profile._m


def pooled_omissions(reports):
    """The triples each (round, cycle) omits, summed over the reports, in
    stage order; stages that omit nothing are left out."""
    pooled = Counter()
    for report in reports:
        for stage in report.stages:
            pooled[stage.round, stage.cycle] += stage.omitted
    return [omitted for _, omitted in sorted(pooled.items()) if omitted]


def _assert_matches_reference(g, corpus, max_round):
    profile = estimate_q(g, corpus, max_round=max_round)
    assert profile._m == legacy.estimate_q(g, corpus, max_round=max_round)._m
    omissions = pooled_omissions(legacy.compress(g, kg, max_round=max_round)[1]
                                 for kg in corpus.samples)
    n = corpus.n_samples
    assert [cap * n for cap in profile._caps] == omissions
    expected, left = [], corpus.n_triples()
    for omitted in omissions:
        expected.append(Fraction(omitted, left))
        left -= omitted
    assert profile._q == expected


@pytest.mark.parametrize("max_round", [1, 2, 3])
def test_estimate_q_matches_reference(max_round):
    for corpus in CORPORA:
        _assert_matches_reference(build(corpus), corpus, max_round)


def test_round1_q_is_what_compress_omits():
    # The oracle compresses with the replaced compressor; this holds round 1
    # to the shipping one.
    for corpus in CORPORA:
        g = build(corpus)
        stages = [compress(g, kg, max_round=1)[1].stages[0]
                  for kg in corpus.samples]
        omitted = sum(s.omitted for s in stages)
        expected = ([Fraction(omitted, sum(s.candidates for s in stages))]
                    if omitted else [])
        assert estimate_q(g, corpus, max_round=1)._q == expected


@pytest.mark.parametrize("max_round", [1, 2, 3])
def test_estimate_q_on_calibration_shape_matches_reference(max_round):
    rng = random.Random(43 + max_round)
    for corpus in CORPORA:
        g = build(corpus)
        _assert_matches_reference(g, _calibration_messages(rng, corpus),
                                  max_round)


def test_estimate_q_repeats_counted_with_multiplicity():
    # Ten copies of one sample weigh its verdict hits ten times over.
    samples = [[("a", "r", "b"), ("c", "r", "d")]] * 10
    samples += [[("a", "s", "b"), ("c", "s", "d"), ("c", "r", "d")]]
    corpus = corpus_from_samples(samples)
    g = build(corpus)
    assert (_profile(estimate_q, g, corpus, 1)
            == _profile(legacy.estimate_q, g, corpus, 1))
    assert estimate_q(g, corpus, max_round=1).q == [21 / 23]


def _built(make, corpus):
    """The graph's pairs in dict order, and its `.spgr` bytes."""
    g = make(corpus)
    return list(g.quadruples.items()), g.to_bytes()


def test_build_matches_reference():
    for corpus in CORPORA:
        assert _built(build, corpus) == _built(legacy.build, corpus)


def test_build_samples_out_of_id_order_match_reference():
    rng = random.Random(17)
    for corpus in CORPORA:
        samples = list(corpus.samples)
        rng.shuffle(samples)
        # a copy of a sample under its id: each support still holds it once
        samples.append(KnowledgeGraph(list(samples[0].triples),
                                      sample_id=samples[0].sample_id))
        shuffled = Corpus(samples, corpus.entities, corpus.relations)
        assert _built(build, shuffled) == _built(legacy.build, shuffled)


def test_build_without_sample_ids_matches_reference():
    rng = random.Random(29)
    for corpus in CORPORA[:8]:
        messages = _calibration_messages(rng, corpus)
        messages.entities, messages.relations = (corpus.entities,
                                                 corpus.relations)
        g, ref = build(messages), legacy.build(messages)
        assert list(g.quadruples.items()) == list(ref.quadruples.items())
