"""Golden equivalence: the semi-naive round-r search against the cycle loop
it replaced (legacy_search.py), which re-walked every condition tuple on
every cycle and searched every candidate, root-dominated ones included.
Under the paper's rule (`omit="all"`), messages (the oracle's, a wire
version 2 message, converted by `conftest.v3_message`), stages and the
priced `comparison_count` must be equal, less the oracle's trailing stages
of rounds with no condition tuple; only `combinations_evaluated` may
fall."""

import math
import random

import pytest

import legacy_search
from semcomp import compressor
from semcomp.compressor import compress, encode_message
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import build

from conftest import (_pair_relations, _samples_with, assert_stages_match,
                      corpus_from_samples, v3_message)
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


def mixed_corpus(rng, k=4, n_samples=40):
    """Three kinds of round-1 leftover on every one of k pair groups.

    Live: "minor" beside a "mode" it never co-occurs with, where the
    single-relation marker triples on (m, n) are likelier beside "minor", so
    markers omitted in round 1 condition it into omission at rounds 2-4.
    Co-occurring ties: "left" and "right" with equal supports.  Strict
    subsets: "sub" only ever beside "sup".  The ties and "sub" are dominated
    at the root.
    """
    def draw():
        triples = []
        for i in range(k):
            minor = rng.random() < 0.3
            triples.append(("u%d" % i, "minor" if minor else "mode",
                            "v%d" % i))
            for j in range(2):
                if rng.random() < (0.7 if minor else 0.3):
                    triples.append(("m%d" % i, "is%d" % j, "n%d" % i))
            if rng.random() < 0.5:
                triples.append(("t%d" % i, "left", "w%d" % i))
                triples.append(("t%d" % i, "right", "w%d" % i))
            if rng.random() < 0.6:
                triples.append(("s%d" % i, "sup", "x%d" % i))
                if rng.random() < 0.5:
                    triples.append(("s%d" % i, "sub", "x%d" % i))
        return triples

    corpus = corpus_from_samples([draw() for _ in range(n_samples)])
    return corpus, list(corpus.samples[:8]) + [
        KnowledgeGraph(sorted(set(corpus.iter_triples())))]


def _dominated_at_root(corpus, t):
    """Set-counting oracle: t's samples are none, or a subset of another
    relation's samples on t's pair."""
    mine = _samples_with(corpus, t)
    return not mine or any(
        mine <= _samples_with(corpus, Triple(t.head, r, t.tail))
        for r in _pair_relations(corpus, t.head, t.tail) if r != t.relation)


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
    fewer = repeated = deep = 0
    for corpus, messages in corpora():
        g = build(corpus)
        for message in messages:
            msg, report = compress(g, message, max_round, omit="all")
            ref_msg, ref = legacy_search.compress(g, message, max_round)
            assert msg == v3_message(g, ref_msg)
            assert encode_message(msg) == encode_message(
                v3_message(g, ref_msg))
            assert_stages_match(report, ref.stages)
            assert report.comparison_count == ref.comparison_count
            assert report.combinations_evaluated <= ref.combinations_evaluated
            fewer += (report.combinations_evaluated
                      < ref.combinations_evaluated)
            repeated += _repeats(report)
            deep += any(len(rec.conditions) == 2 for rec in msg.omissions)
    if max_round > 1:  # round 1 searches no condition tuple
        assert fewer and repeated
    if max_round > 2:  # some round-3 search walks condition pairs to a hit
        assert deep


@pytest.mark.parametrize("max_round", [2, 3, 4])
def test_root_dominated_candidates_are_never_searched(max_round,
                                                      monkeypatch):
    # searches of live and of root-dominated candidates, here and in the oracle
    calls = {"live": 0, "dominated": 0, "oracle dominated": 0}
    search, legacy = compressor._first_condition, legacy_search._first_condition

    def counted(state, *args):
        pair, rank = state[0]  # the candidate's code
        t = g.pair_table[pair].triples[rank]
        calls["dominated" if _dominated_at_root(corpus, t) else "live"] += 1
        return search(state, *args)

    def legacy_counted(g, t, *args):
        calls["oracle dominated"] += _dominated_at_root(corpus, t)
        return legacy(g, t, *args)

    monkeypatch.setattr(compressor, "_first_condition", counted)
    monkeypatch.setattr(legacy_search, "_first_condition", legacy_counted)
    rng = random.Random(5)
    omitted_late = 0
    for _ in range(3):
        corpus, messages = mixed_corpus(rng)
        g = build(corpus)
        for message in messages:
            msg, report = compress(g, message, max_round, omit="all")
            ref_msg, ref = legacy_search.compress(g, message, max_round)
            assert msg == v3_message(g, ref_msg)
            assert_stages_match(report, ref.stages)
            assert report.comparison_count == ref.comparison_count
            assert report.combinations_evaluated <= ref.combinations_evaluated
            omitted_late += sum(1 for rec in msg.omissions if rec.conditions)
    assert calls["dominated"] == 0
    # the corpus holds all three kinds: searched live candidates that omit
    # at later rounds, and dominated ones the oracle searched
    assert calls["live"] and omitted_late and calls["oracle dominated"]
