from itertools import combinations
from math import comb

import pytest

from semcomp.compressor import (CompressedMessage, OmissionRecord,
                                _plain_scan_length, compress, decode_message,
                                decompress, encode_message)
from semcomp.errors import (CorruptMessageError, IncompatibleKnowledgeError,
                            ValidationError)
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import ProbabilityGraph, build
from semcomp.resource import estimate_q

from conftest import corpus_from_samples, random_corpus, v2_content


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
        msg, _ = compress(g, corpus.sample(2), max_round=2)
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
