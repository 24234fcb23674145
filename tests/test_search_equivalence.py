"""Golden equivalence: the semi-naive round-r search against the cycle loop
it replaced (legacy_search.py), which re-walked every condition tuple on
every cycle.  Messages, stages and the priced `comparison_count` must be
equal; only `combinations_evaluated` may fall."""

import math
import random

import pytest

import legacy_search
from semcomp.compressor import compress, encode_message
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import build

from conftest import corpus_from_samples
from test_equivalence import cases


def zipf_corpus(rng, n_pairs=150, n_entities=60, n_relations=8,
                n_samples=120, size=15, n_messages=30):
    """Samples and messages drawn from Zipf-popular pairs (weight 1/rank),
    each pair carrying 1-4 relations of weight e^-i: hot pairs recur across
    samples with a clear mode and minority relations, so later rounds omit
    over several cycles.  The messages are fresh draws."""
    pool = []
    while len(pool) < n_pairs:
        h, t = rng.randrange(n_entities), rng.randrange(n_entities)
        if h != t and (h, t) not in [p[:2] for p in pool]:
            rels = rng.sample(range(n_relations), rng.randint(1, 4))
            pool.append((h, t, rels))
    popularity = [1 / (i + 1) for i in range(n_pairs)]

    def draw():
        chosen = set()
        while len(chosen) < size:
            chosen.update(rng.choices(range(n_pairs), popularity,
                                      k=size - len(chosen)))
        return [("e%d" % h, "r%d" % rng.choices(
                    rels, [math.exp(-i) for i in range(len(rels))])[0],
                 "e%d" % t)
                for h, t, rels in (pool[i] for i in sorted(chosen))]

    corpus = corpus_from_samples([draw() for _ in range(n_samples)])
    messages = []
    for triples in (draw() for _ in range(n_messages)):
        ids = [(corpus.entities.id_of(h), corpus.relations.id_of(r),
                corpus.entities.id_of(t)) for h, r, t in triples]
        messages.append(KnowledgeGraph([Triple(*x) for x in ids
                                        if None not in x]))
    return corpus, messages


def corpora():
    """test_equivalence's random, tie-heavy and nested cases, then two seeded
    Zipf-popular corpora with their messages."""
    yield from cases()
    rng = random.Random(20261019)
    for _ in range(2):
        yield zipf_corpus(rng)


def _repeats(report):
    """Whether a later round ran a cycle >= 2 on some candidate: a cycle
    follows only one that omitted, so the semi-naive bound was in force."""
    return any(s.round > 1 and s.cycle > 1 and s.candidates
               for s in report.stages)


@pytest.mark.parametrize("max_round", [1, 2, 3, 4])
def test_semi_naive_search_matches_reference(max_round):
    fewer = repeated = 0
    for corpus, messages in corpora():
        g = build(corpus)
        for message in messages:
            msg, report = compress(g, message, max_round)
            ref_msg, ref = legacy_search.compress(g, message, max_round)
            assert encode_message(msg) == encode_message(ref_msg)
            assert report.stages == ref.stages
            assert report.comparison_count == ref.comparison_count
            assert report.combinations_evaluated <= ref.combinations_evaluated
            fewer += (report.combinations_evaluated
                      < ref.combinations_evaluated)
            repeated += _repeats(report)
    if max_round > 1:  # round 1 searches no condition tuple
        assert fewer and repeated
