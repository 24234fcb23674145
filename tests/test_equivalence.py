"""Golden equivalence: the bitset compress (pruned round-r walk) and the
`relation_counts`-based decompress against the set-based implementation with
a plain combinations scan (legacy_compressor.py).  The oracle's messages are
wire version 2's, which name triples by their ids; `conftest.v3_message`
and `conftest.v2_content` convert between them and `compress`'s."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_compressor as legacy
from legacy_wire_v2 import CompressedMessage, OmissionRecord
from semcomp import compressor
from semcomp.compressor import compress, decompress, encode_message
from semcomp.errors import CorruptMessageError, SemcompError
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import build

from conftest import (_pair_relations, _samples_with, assert_stages_match,
                      corpus_from_samples, random_corpus, v2_content,
                      v3_message)


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
    """compress's message under the paper's rule carries the reference's
    content against `g`, with its full triples ordered known-first, and both
    decompress to the same triples in the same order."""
    msg, report = compress(g, message, max_round=max_round, omit="all")
    ref_msg, ref_report = legacy.compress(g, message, max_round=max_round)
    assert msg == v3_message(g, ref_msg)
    assert encode_message(msg) == encode_message(v3_message(g, ref_msg))
    assert_stages_match(report, ref_report.stages)
    assert report.comparison_count == ref_report.comparison_count
    assert (decompress(g, msg).triples
            == legacy.decompress(g, v2_content(g, msg)).triples)
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


def test_round_1_outcomes_interleaved_match_reference():
    # Round 1's four outcomes, in shuffled orders: a verdict hit (c s d,
    # x u y, a r1 b), a candidate on a tied pair (t left w, t right w), an
    # unknown pair (b r1 a) and a known pair with an unknown relation
    # (c u d).  a r2 b is a candidate too, which round 2 omits given x u y.
    corpus = corpus_from_samples([
        [("a", "r1", "b"), ("t", "left", "w"), ("t", "right", "w"),
         ("c", "s", "d")],
        [("a", "r2", "b"), ("x", "u", "y"), ("t", "left", "w"),
         ("t", "right", "w")],
        [("a", "r1", "b"), ("c", "s", "d")],
    ])
    g = build(corpus)
    outcomes = {
        ("c", "s", "d"): "hit", ("x", "u", "y"): "hit",
        ("a", "r1", "b"): "hit", ("t", "left", "w"): "tied",
        ("t", "right", "w"): "tied", ("a", "r2", "b"): "candidate",
        ("b", "r1", "a"): "unknown pair", ("c", "u", "d"): "unknown relation",
    }
    r2b = _labelled(corpus, ("a", "r2", "b")).triples[0]
    rng = random.Random(16)
    order = list(outcomes)
    for _ in range(6):
        rng.shuffle(order)
        message = _labelled(corpus, *order)
        kept = [t for t, label in zip(message.triples, order)
                if outcomes[label] != "hit"]
        escaped = [t for t, label in zip(message.triples, order)
                   if outcomes[label].startswith("unknown")]
        for max_round in (1, 2, 3, 4):
            msg, report = assert_matches_reference(g, message, max_round)
            assert report.stages[0].omitted == 3
            # known triples first, then the escaped ones, each in input order
            assert v2_content(g, msg).full_triples == [
                t for t in kept if t not in escaped
                and (max_round == 1 or t != r2b)] + escaped
            assert msg.escaped == escaped


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


def test_second_cycle_walks_only_new_conditions():
    # Round 1 omits C = (x, k, y) and D = (p, m, q), the only relations on
    # their pairs.  Supports: N_S = {1, 2} and N_T = {3, 4, 5} on (c, d);
    # N_R = {1} and N_Q = {6, 7, 8} on (a, b); C = {1, 2, 6}, D = {3, 7}.
    # Round 2, cycle 1 has conditions [C, D]: A = (a, R, b) ties 1-1 under C
    # and has no R sample under D, so it misses both; B = (c, S, d) wins 2-0
    # under C.  Cycle 2 has [C, D, B], and A already missed C and D, so only
    # (2,) is evaluated: under B = {1, 2}, R wins 1-0.
    corpus = corpus_from_samples([
        [("x", "k", "y"), ("c", "S", "d"), ("a", "R", "b")],
        [("x", "k", "y"), ("c", "S", "d")],
        [("c", "T", "d"), ("p", "m", "q")],
        [("c", "T", "d")],
        [("c", "T", "d")],
        [("x", "k", "y"), ("a", "Q", "b")],
        [("a", "Q", "b"), ("p", "m", "q")],
        [("a", "Q", "b")],
    ])
    g = build(corpus)
    message = _labelled(corpus, ("a", "R", "b"), ("c", "S", "d"),
                        ("x", "k", "y"), ("p", "m", "q"))
    msg, report = assert_matches_reference(g, message, max_round=2)
    # reconstruction order C, D, B, A: no full triple is left
    assert msg.known == msg.escaped == []
    assert [rec.conditions for rec in msg.omissions] == [(), (), (0,), (2,)]
    assert [(s.cycle, s.candidates, s.omitted) for s in report.stages] == [
        (0, 4, 2), (1, 2, 1), (2, 1, 1), (3, 0, 0)]
    # cycle 1: A evaluates (0,) and (1,), B (0,); cycle 2: A only (2,)
    assert report.combinations_evaluated == 4
    # round 1: 2 + 2 + 1 + 1; cycle 1: (2 + 1) tuples x 2; cycle 2: A's
    # plain scan still reads (0,), (1,) and (2,), 3 tuples x 2
    assert report.comparison_count == 18


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
        assert len(msg.known) == 1 and not msg.escaped
        assert report.combinations_evaluated == 0
        round1 = compress(g, message, max_round=1)[1].comparison_count
        # 3 omitted conditions: C(3, 1) + C(3, 2) + C(3, 3) tuples, 2 each
        assert (report.comparison_count - round1
                == 2 * sum((3, 3, 1)[:max_round - 1]))


def test_all_dominated_leftovers_are_charged_unsearched(monkeypatch):
    # A tie_heavy-style message: (t, w) carries "left" and "right" with equal
    # supports {1, 2}, a round-1 tie, and (s, x) carries "sub" = {1, 3} inside
    # "sup" = {1, 2, 3}.  Round 1 omits sup, c0, c1 and c2 and leaves left,
    # right and sub, all three dominated at the root, with 2 relations each.
    corpus = corpus_from_samples([
        [("t", "left", "w"), ("t", "right", "w"), ("s", "sup", "x"),
         ("s", "sub", "x"), ("c0", "k", "d0")],
        [("t", "left", "w"), ("t", "right", "w"), ("s", "sup", "x"),
         ("c0", "k", "d0"), ("c1", "k", "d1")],
        [("s", "sup", "x"), ("s", "sub", "x"), ("c1", "k", "d1")],
        [("c2", "k", "d2")],
    ])
    g = build(corpus)
    message = _labelled(corpus, ("t", "left", "w"), ("t", "right", "w"),
                        ("s", "sup", "x"), ("s", "sub", "x"),
                        ("c0", "k", "d0"), ("c1", "k", "d1"),
                        ("c2", "k", "d2"))

    def never(*args):
        raise AssertionError("searched a root-dominated candidate")

    monkeypatch.setattr(compressor, "_first_condition", never)
    for max_round in (1, 2, 3, 4):
        msg, report = assert_matches_reference(g, message, max_round)
        assert len(msg.known) == 3 and not msg.escaped
        # one zero-omission stage per later round
        assert [(s.round, s.cycle, s.candidates, s.omitted)
                for s in report.stages] == [(1, 0, 7, 4)] + [
                    (r, 1, 3, 0) for r in range(2, max_round + 1)]
        assert report.combinations_evaluated == 0
        # round 1: 2 + 2 + 2 + 2 + 1 + 1 + 1; round r: 6 dead relations
        # times comb(4, r - 1) tuples over the 4 omitted conditions
        assert report.comparison_count == 11 + sum(
            (6 * 4, 6 * 6, 6 * 4)[:max_round - 1])


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
                report = compress(g, message, max_round=max_round,
                                  omit="all")[1]
                later = report.comparison_count - round1
                assert later % 2 == 0
                assert report.combinations_evaluated <= later // 2
                pruned |= report.combinations_evaluated < later // 2
    assert pruned


def _outcome(fn, g, msg):
    """The reconstructed triples, sorted, or the class of the error raised.

    A version-3 message sends known triples ahead of escaped ones, so its
    replay may order the full triples differently from the reference's.
    """
    try:
        return sorted(fn(g, msg).triples)
    except SemcompError as exc:
        return type(exc)


def _outcomes(g, old_msg):
    """decompress's outcome on the version-3 form of a version-2 message,
    and the reference's on the message itself."""
    return (_outcome(decompress, g, v3_message(g, old_msg)),
            _outcome(legacy.decompress, g, old_msg))


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
    a, b, c, d, e, f, x, y = (ent(n) for n in "abcdefxy")
    xuy = Triple(x, rel("u"), y)
    ety = Triple(e, rel("t"), f)
    no_pair = Triple(a, rel("u"), f)
    no_relation = Triple(a, rel("u"), b)
    full = [xuy, ety, no_pair, no_relation]
    corrupt = CorruptMessageError
    records = [
        (OmissionRecord(a, b, conditions=(7,)), corrupt),   # beyond prefix
        # recon[-3] would be e t f, under which c s d is a valid replay
        (OmissionRecord(c, d, conditions=(-3,)), corrupt),  # negative
        (OmissionRecord(a, b, conditions=(0, 7)), corrupt),  # second only
        (OmissionRecord(a, f), corrupt),                    # unknown pair
        (OmissionRecord(a, b, conditions=(1,)), corrupt),   # event misses
        (OmissionRecord(e, f), corrupt),                    # tied argmax
        # under x u y = {1, 3}, r = {1, 2} and q = {3} count 1 each
        (OmissionRecord(a, b, conditions=(0,)), corrupt),   # tied event
        (OmissionRecord(a, b, conditions=(2,)), corrupt),   # pair absent
        (OmissionRecord(a, b, conditions=(3,)), corrupt),   # relation absent
        (OmissionRecord(x, y), corrupt),                    # rebuilds xuy
        (OmissionRecord(c, d, conditions=(1,)), None),      # valid
        (OmissionRecord(a, b), None),                       # valid
    ]
    for record, expected in records:
        got, want = _outcomes(g, CompressedMessage(g.content_hash, full,
                                                   [record]))
        assert got == want, record
        assert (got is corrupt) == (expected is corrupt), record


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_replay_matches_reference_on_hand_built_records(seed, data):
    """Valid or corrupt, a record list decompresses to the same triples as
    the reference, or fails with the same error class."""
    corpus = random_corpus(random.Random(seed),
                           n_samples=data.draw(st.integers(1, 8)))
    g = build(corpus)
    n_ent, n_rel = len(corpus.entities), len(corpus.relations)
    # Ids one past each table reach pairs and relations the graph lacks.
    triple = st.one_of(
        st.sampled_from(sorted(set(corpus.iter_triples()))),
        st.builds(Triple, st.integers(0, n_ent), st.integers(0, n_rel),
                  st.integers(0, n_ent)))
    pair = st.one_of(st.sampled_from(sorted(g.quadruples)),
                     st.tuples(st.integers(0, n_ent), st.integers(0, n_ent)))
    record = st.builds(lambda p, conds: OmissionRecord(*p, tuple(conds)),
                       pair, st.lists(st.integers(-1, 8), max_size=2))
    if data.draw(st.booleans(), label="from compress"):
        sample = data.draw(st.sampled_from(corpus.samples))
        sent, _ = compress(g, sample, max_round=data.draw(st.integers(1, 3)))
        sent = v2_content(g, sent)
        full, records = sent.full_triples, sent.omissions
    else:
        full, records = [], []
    full = full + data.draw(st.lists(triple, max_size=3))
    records = records + data.draw(st.lists(record, max_size=4))
    got, want = _outcomes(g, CompressedMessage(g.content_hash, full, records))
    assert got == want


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
