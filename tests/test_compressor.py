import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomp import kg as kg_module
from semcomp.compressor import (CompressedMessage, OmissionRecord, RoundStop,
                                _plain_scan_length, compress, decode_message,
                                decompress, encode_message)
from semcomp.errors import (CorruptMessageError, IncompatibleKnowledgeError,
                            ValidationError)
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import ProbabilityGraph, build
from semcomp.resource import estimate_q
from semcomp.wire import message_size

from conftest import (corpus_from_samples, random_corpus, v2_content,
                      wide_pairs_corpus)
from test_wire import _workloads


def ids(corpus, h, r, t):
    return Triple(corpus.entities.id_of(h), corpus.relations.id_of(r),
                  corpus.entities.id_of(t))


@pytest.fixture
def toy():
    """3-sample corpus where (a, r2, b) is omissible only conditionally.

    Pair (a, b): r1 holds in {1, 3}, r2 in {2} -> r2 is not the unconditional
    mode.  (x, u, y) holds only in sample 2, so conditioning on it makes r2
    the unique argmax for pair (a, b).
    """
    corpus = corpus_from_samples([
        [("a", "r1", "b")],
        [("a", "r2", "b"), ("x", "u", "y")],
        [("a", "r1", "b")],
    ])
    return corpus, build(corpus)


def test_plain_scan_length_is_the_rank():
    """The charge for a later-round search: the 1-based position of the hit
    in the plain lexicographic scan, or every tuple on a miss."""
    for n in range(10):
        for width in range(1, 5):
            for position, found in enumerate(combinations(range(n), width),
                                             start=1):
                assert _plain_scan_length(n, width, found) == position
            assert _plain_scan_length(n, width, None) == comb(n, width)


class TestCompress:
    def test_all_unique_modes_omitted_in_round_1(self):
        corpus = corpus_from_samples([[("a", "r", "b"), ("c", "s", "d")]])
        g = build(corpus)
        msg, report = compress(g, corpus.sample(1), max_round=1)
        assert msg.known == msg.escaped == []
        assert len(msg.omissions) == 2
        assert all(r.round == 1 and r.conditions == () for r in msg.omissions)
        assert report.stages[0].omitted == 2

    def test_unknown_pair_passes_through(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        stranger = KnowledgeGraph([Triple(1, 0, 0)])  # pair (b, a) not in g
        for max_round in (1, 2, 3):
            msg, _ = compress(g, stranger, max_round=max_round)
            assert msg.escaped == [Triple(1, 0, 0)]
            assert msg.known == msg.omissions == []

    def test_conditional_omission(self, toy):
        corpus, g = toy
        msg, _ = compress(g, corpus.sample(2), max_round=2, omit="all")
        assert msg.known == msg.escaped == []
        by_pair = {r.pair: r for r in msg.omissions}
        t_ab = ids(corpus, "a", "r2", "b")
        cond_rec = by_pair[g.pair_index[t_ab.head, t_ab.tail]]
        assert cond_rec.round == 2
        assert len(cond_rec.conditions) == 1
        # the single condition references the round-1 omission of (x, u, y)
        assert cond_rec.conditions[0] == 0

    def test_round_1_builds_no_bitset(self, rng):
        # Round 1 reads verdicts only, and a later round reads bitsets only
        # when round 1 left a candidate.
        corpus = random_corpus(rng, n_samples=12)
        g = build(corpus)
        for message in corpus.samples:
            compress(g, message, max_round=1)
        estimate_q(g, corpus, max_round=1)
        assert not [q for q in g.quadruples.values() if "bits" in vars(q)]
        # Each pair carries one relation, so round 1 omits every triple but
        # the stranger (b, r, a), whose pair is unknown.
        lone = corpus_from_samples([[("a", "r", "b"), ("c", "s", "d")],
                                    [("a", "r", "b")]])
        g = build(lone)
        stranger = Triple(*reversed(ids(lone, "a", "r", "b")))
        msg, _ = compress(g, KnowledgeGraph(lone.sample(1).triples
                                            + [stranger]), max_round=3)
        assert msg.escaped == [stranger] and len(msg.omissions) == 2
        assert msg.known == []
        assert not [q for q in g.quadruples.values() if "bits" in vars(q)]

    def test_receiver_builds_no_bitset_on_round_1(self, rng):
        # A round-1 record is replayed from the receiver's verdicts alone.
        corpus = random_corpus(rng, n_samples=12)
        g = build(corpus)
        receiver = ProbabilityGraph.from_bytes(g.to_bytes())
        for message in corpus.samples:
            msg, _ = compress(g, message, max_round=1)
            restored = decompress(receiver,
                                  decode_message(encode_message(msg)))
            assert restored.triple_set() == message.triple_set()
        assert any("verdict" in vars(q) for q in receiver.quadruples.values())
        assert not [q for q in receiver.quadruples.values()
                    if "bits" in vars(q)]

    def test_round_1_only_misses_conditional(self, toy):
        corpus, g = toy
        msg, _ = compress(g, corpus.sample(2), max_round=1)
        t_ab = ids(corpus, "a", "r2", "b")
        # r2 is the second relation on (a, b)
        assert msg.known == [(g.pair_index[t_ab.head, t_ab.tail], 1)]
        assert v2_content(g, msg).full_triples == [t_ab]
        assert len(msg.omissions) == 1
        # A rank is the triple's index in its pair's relation order.  Here
        # a verdict, a rank-2 triple, a relation its pair lacks and a pair
        # the graph lacks are interleaved.
        corpus = corpus_from_samples([
            [("a", "r1", "b"), ("c", "s", "d")], [("a", "r1", "b")],
            [("a", "r2", "b")], [("a", "r3", "b")]])
        g = build(corpus)
        message = [ids(corpus, *t) for t in [
            ("c", "s", "d"), ("a", "r3", "b"), ("a", "s", "b"),
            ("d", "s", "c")]]
        msg, report = compress(g, KnowledgeGraph(message), max_round=1)
        assert msg.known == [(g.pair_index[message[1].head,
                                           message[1].tail], 2)]
        assert msg.escaped == message[2:]
        assert report.comparison_count == 1 + 3  # (c, d)'s and (a, b)'s
        assert decompress(g, msg).triple_set() == set(message)

    def test_monotone_in_max_round(self, rng):
        for _ in range(25):
            corpus = random_corpus(rng)
            g = build(corpus)
            for kg in corpus.samples:
                counts = [len(compress(g, kg, max_round=k)[0].omissions)
                          for k in (1, 2, 3)]
                assert counts == sorted(counts)

    def test_bad_max_round(self, toy):
        corpus, g = toy
        with pytest.raises(ValidationError):
            compress(g, corpus.sample(1), max_round=0)
        with pytest.raises(ValidationError):
            compress(g, corpus.sample(1), omit="none")

    def test_comparison_count_nondecreasing_stages(self, rng):
        corpus = random_corpus(rng, n_samples=6)
        g = build(corpus)
        for kg in corpus.samples:
            _, report = compress(g, kg, max_round=3)
            assert report.comparison_count >= 0
            assert sum(s.omitted for s in report.stages) == \
                len(compress(g, kg, max_round=3)[0].omissions)

    def test_determinism(self, rng):
        corpus = random_corpus(rng, n_samples=8)
        g = build(corpus)
        for kg in corpus.samples:
            a = encode_message(compress(g, kg, max_round=3)[0])
            b = encode_message(compress(g, kg, max_round=3)[0])
            assert a == b


@pytest.mark.parametrize("k, sizes", [(7, (70, 70)), (15, (81, 79))])
def test_later_round_sent_only_when_smaller(k, sizes):
    # k = 7: w_c = 3 < w_k = 6, so round 2 runs and omits all 7, but its
    # second run's 2 header bytes eat the 21 bits saved: a tie, and the
    # earlier message is sent.  k = 15: w_c = 4 saves 2 bits on each of 15
    # records, and round 2's message is 2 bytes smaller.  Round 3 would
    # spend 2 * w_c >= 6 bits on conditions, so the wire stops it.
    corpus, message = wide_pairs_corpus(k)
    g = build(corpus)
    round1 = compress(g, message, max_round=1)[0]
    paper = compress(g, message, max_round=2, omit="all")[0]
    assert [message_size(m).total for m in (round1, paper)] == list(sizes)
    for max_round in (2, 3, 4):
        msg, report = compress(g, message, max_round=max_round)
        assert msg == (paper if sizes[1] < sizes[0] else round1)
        assert [(s.round, s.cycle, s.omitted) for s in report.stages] == [
            (1, 0, 1), (2, 1, k), (2, 2, 0)]
        # Round 2 omits every triple; w_c is that of k + 1 triples.
        assert report.stopped == (None if max_round == 2 else RoundStop(
            3, "wire", 0, 2 * k.bit_length(), 6))
        assert decompress(g, msg).triple_set() == message.triple_set()


def test_paper_rule_at_huge_max_round_is_bounded():
    # Under the paper's rule rounds 2 and 3 run (x u y omitted in round 1,
    # a r2 b given it in round 2), and round 4 would need condition tuples
    # of 3 of the 2 omitted triples, so the rounds end there.
    corpus = corpus_from_samples([[("a", "r1", "b"), ("c", "s", "d")],
                                  [("a", "r2", "b"), ("x", "u", "y")],
                                  [("a", "r1", "b"), ("c", "s", "d")]])
    g = build(corpus)
    msg, report = compress(g, corpus.sample(2), max_round=10**9, omit="all")
    assert [(s.round, s.omitted) for s in report.stages] == [
        (1, 1), (2, 1), (2, 0), (3, 0)]
    assert report.stopped == RoundStop(4, "no condition tuple", 0)
    assert [rec.round for rec in msg.omissions] == [1, 2]


def _assert_send_rule(g, message):
    """By default, compress(g, message, R) sends the earliest smallest of
    the messages compress sends at max_round r <= R, for R = 1..4, so the
    encoded message never grows with R; each stays lossless."""
    sent = []  # (encoded size, message) per max_round so far
    for max_round in (1, 2, 3, 4):
        msg = compress(g, message, max_round)[0]
        data = encode_message(msg)
        sent.append((len(data), msg))
        assert msg == min(sent, key=lambda s: s[0])[1]
        restored = decompress(g, decode_message(data))
        assert restored.triple_set() == message.triple_set()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_raising_max_round_never_grows_the_message(seed):
    """The send rule on the samples and small draws of a random corpus's
    triples, where a later round can run (few triples, so narrow condition
    indices, beside ranks of up to 3 bits)."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_relations=rng.choice([4, 8]))
    g = build(corpus)
    triples = sorted(set(corpus.iter_triples()))
    messages = list(corpus.samples) + [
        KnowledgeGraph(rng.sample(triples, min(len(triples),
                                               rng.randint(1, 4))))
        for _ in range(5)]
    for message in messages:
        _assert_send_rule(g, message)


def _round_3_corpus():
    """Pairs (a, b) and (c, d) of 64 relations each, r0 their verdict;
    returns the corpus and its last sample, the message (x u y), (z v w),
    (a r63 b) and (c r63 d).  Given (x u y) alone, r63 ties r1 on each
    pair, and given (z v w) alone it ties r2; given both it is the argmax.
    So round 1 omits (x u y) and (z v w), round 2 nothing, and round 3
    both r63 triples, in records of w_p + 2 * w_c = w_p + 4 bits against
    a known triple's w_p + w_k = w_p + 6 bits."""
    pairs = [("a", "b"), ("c", "d")]
    samples = [[(h, "r0", t) for h, t in pairs]] * 2
    samples += [[(h, "r%d" % j, t) for h, t in pairs] for j in range(3, 63)]
    samples.append([(h, "r1", t) for h, t in pairs] + [("x", "u", "y")])
    samples.append([(h, "r2", t) for h, t in pairs] + [("z", "v", "w")])
    samples.append([("x", "u", "y"), ("z", "v", "w")]
                   + [(h, "r63", t) for h, t in pairs])
    corpus = corpus_from_samples(samples)
    return corpus, corpus.sample(len(samples))


@pytest.mark.parametrize("make", [lambda: wide_pairs_corpus(7),
                                  lambda: wide_pairs_corpus(15),
                                  _round_3_corpus],
                         ids=["wide_pairs_7", "wide_pairs_15", "round_3"])
def test_send_rule_where_a_later_round_omits(make):
    # Random corpora almost never send a later-round record; on these a
    # later round omits under the wire rule, and the rule picks between
    # its message and an earlier one.
    corpus, message = make()
    g = build(corpus)
    _, report = compress(g, message, max_round=4)
    assert any(s.round > 1 and s.omitted for s in report.stages)
    _assert_send_rule(g, message)


def test_round_3_message_is_not_sent_when_larger():
    # Round 3 runs under the wire rule, since 2 * w_c = 4 < w_k = 6, and
    # omits both r63 triples, but its records need a second run's header:
    # the 64-byte round-1 message is sent over the 66-byte round-3 one.
    corpus, message = _round_3_corpus()
    g = build(corpus)
    round1 = compress(g, message, max_round=1)[0]
    paper = compress(g, message, max_round=3, omit="all")[0]
    assert [rec.round for rec in paper.omissions] == [1, 1, 3, 3]
    assert [message_size(m).total for m in (round1, paper)] == [64, 66]
    msg, report = compress(g, message, max_round=3)
    assert msg == round1
    assert [(s.round, s.cycle, s.omitted) for s in report.stages] == [
        (1, 0, 2), (2, 1, 0), (3, 1, 2), (3, 2, 0)]
    assert decompress(g, paper).triple_set() == message.triple_set()


@pytest.mark.parametrize("name", ["skewed", "tie_heavy", "plan"])
def test_later_rounds_skipped_on_benchmark_workloads(name):
    # Seed 1 of each workload at full size, every message: no round-2
    # record can pay, so max_round 2 and 3 send the max_round=1 message,
    # and no search state is read (no pair builds its bitsets).
    workloads = _workloads()
    inputs = workloads.generate(workloads.SPECS[name], 1)
    g = build(kg_module.load_corpus_lines(inputs.corpus_lines))
    ent, rel = g.entities.id_of, g.relations.id_of
    for triples in inputs.messages:
        message = KnowledgeGraph([Triple(ent(h), rel(r), ent(t))
                                  for h, r, t in triples])
        round1, _ = compress(g, message, max_round=1)
        for max_round in (2, 3):
            msg, report = compress(g, message, max_round=max_round)
            assert msg == round1
            assert len(report.stages) == 1
            assert report.stopped.round == 2
            assert report.stopped.reason == "wire"
    assert not [q for q in g.pair_table if "bits" in vars(q)]


class TestDecompress:
    def test_roundtrip_random(self, rng):
        for _ in range(30):
            corpus = random_corpus(rng)
            g = build(corpus)
            for kg in corpus.samples:
                for max_round in (1, 2, 3):
                    msg, _ = compress(g, kg, max_round=max_round)
                    assert decompress(g, msg).triple_set() == kg.triple_set()

    def test_hash_mismatch(self, toy):
        corpus, g = toy
        msg, _ = compress(g, corpus.sample(1))
        other = build(corpus_from_samples([[("p", "q", "r")]]))
        with pytest.raises(IncompatibleKnowledgeError):
            decompress(other, msg)

    def test_hand_built_two_omission_message(self, toy):
        # (x, u, y) by unconditional argmax, then (a, r2, b) given it
        corpus, g = toy
        t_xy = ids(corpus, "x", "u", "y")
        t_ab = ids(corpus, "a", "r2", "b")
        msg = CompressedMessage(g.content_hash, [], [], [
            OmissionRecord(g.pair_index[t_xy.head, t_xy.tail]),
            OmissionRecord(g.pair_index[t_ab.head, t_ab.tail],
                           conditions=(0,)),
        ])
        assert decompress(g, msg).triple_set() == {t_xy, t_ab}

    def test_ambiguous_argmax_rejected(self):
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "s", "b")]])
        g = build(corpus)
        assert g.n_pairs == 1
        msg = CompressedMessage(g.content_hash, [], [], [OmissionRecord(0)])
        with pytest.raises(CorruptMessageError, match="ambiguous argmax"):
            decompress(g, msg)

    def test_round1_record_for_unknown_pair_rejected(self, toy):
        # A pair index at or past the table's end, or below 0, names no pair.
        corpus, g = toy
        assert g.n_pairs == 2
        for pair in (2, 3, 99, -1):
            msg = CompressedMessage(g.content_hash, [], [],
                                    [OmissionRecord(pair)])
            with pytest.raises(CorruptMessageError, match="pair index"):
                decompress(g, msg)

    @pytest.mark.parametrize("code, why", [
        ((2, 0), "pair index 2 beyond the graph's 2 pairs"),
        ((7, 0), "pair index 7 beyond"),
        ((-1, 0), "pair index -1 beyond"),
        ((0, 2), "rank 2 beyond the 2 relations of pair"),
        ((1, 1), "rank 1 beyond the 1 relations of pair"),
        ((0, -1), "rank -1 beyond"),
    ])
    def test_known_triple_beyond_the_graph_rejected(self, toy, code, why):
        # (a, b) carries r1 and r2, (x, y) only u.
        corpus, g = toy
        assert [len(q.relations) for q in g.pair_table] == [2, 1]
        msg = CompressedMessage(g.content_hash, [code], [], [])
        with pytest.raises(CorruptMessageError, match=why):
            decompress(g, msg)

    def test_known_triples_resolve_by_pair_and_rank(self, toy):
        corpus, g = toy
        msg = CompressedMessage(g.content_hash, [(0, 1), (1, 0), (0, 0)], [],
                                [])
        assert decompress(g, msg).triples == [
            ids(corpus, "a", "r2", "b"), ids(corpus, "x", "u", "y"),
            ids(corpus, "a", "r1", "b")]

    def test_forward_condition_rejected(self, toy):
        corpus, g = toy
        t_ab = ids(corpus, "a", "r2", "b")
        msg = CompressedMessage(g.content_hash, [], [], [
            OmissionRecord(g.pair_index[t_ab.head, t_ab.tail],
                           conditions=(0,)),
        ])
        with pytest.raises(CorruptMessageError):
            decompress(g, msg)

    def test_receiver_recheck_unique_argmax(self, rng):
        # every omission re-evaluates to a strict maximum at the receiver
        for _ in range(10):
            corpus = random_corpus(rng)
            g = build(corpus)
            for kg in corpus.samples:
                msg = v2_content(g, compress(g, kg, max_round=2)[0])
                recon = list(msg.full_triples)
                for rec in msg.omissions:
                    given = [recon[c] for c in rec.conditions]
                    dist = []
                    for rid, _ in g.pair(rec.head, rec.tail).relations:
                        try:
                            dist.append((rid, g.cond_prob(
                                Triple(rec.head, rid, rec.tail), given)))
                        except Exception:
                            pytest.fail("undefined distribution at receiver")
                    best = max(p for _, p in dist)
                    winners = [rid for rid, p in dist if p == best]
                    assert len(winners) == 1
                    recon.append(Triple(rec.head, winners[0], rec.tail))


def test_field_slot_accounting(rng):
    # encoded body carries 3(J-E) + 2E = 3J - E id slots plus round/condition
    # metadata; check the triple-count arithmetic structurally
    corpus = random_corpus(rng, n_samples=10)
    g = build(corpus)
    for kg in corpus.samples:
        msg = v2_content(g, compress(g, kg, max_round=2)[0])
        j = len(msg.full_triples) + len(msg.omissions)
        e = len(msg.omissions)
        id_slots = 3 * len(msg.full_triples) + 2 * len(msg.omissions)
        assert id_slots == 3 * j - e
