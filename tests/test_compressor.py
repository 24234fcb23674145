import pytest

from semcomp.compressor import (CompressedMessage, OmissionRecord, compress,
                                decompress, encode_message)
from semcomp.errors import (CorruptMessageError, IncompatibleKnowledgeError,
                            ValidationError)
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import build

from conftest import corpus_from_samples, random_corpus


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


class TestCompress:
    def test_all_unique_modes_omitted_in_round_1(self):
        corpus = corpus_from_samples([[("a", "r", "b"), ("c", "s", "d")]])
        g = build(corpus)
        msg, report = compress(g, corpus.sample(1), max_round=1)
        assert msg.full_triples == []
        assert len(msg.omissions) == 2
        assert all(r.round == 1 and r.conditions == () for r in msg.omissions)
        assert report.stages[0].omitted == 2

    def test_unknown_pair_passes_through(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        g = build(corpus)
        stranger = KnowledgeGraph([Triple(1, 0, 0)])  # pair (b, a) not in g
        for max_round in (1, 2, 3):
            msg, _ = compress(g, stranger, max_round=max_round)
            assert msg.full_triples == [Triple(1, 0, 0)]
            assert msg.omissions == []

    def test_conditional_omission(self, toy):
        corpus, g = toy
        msg, _ = compress(g, corpus.sample(2), max_round=2)
        assert msg.full_triples == []
        by_pair = {(r.head, r.tail): r for r in msg.omissions}
        cond_rec = by_pair[(ids(corpus, "a", "r2", "b").head,
                            ids(corpus, "a", "r2", "b").tail)]
        assert cond_rec.round == 2
        assert len(cond_rec.conditions) == 1
        # the single condition references the round-1 omission of (x, u, y)
        assert cond_rec.conditions[0] == len(msg.full_triples)

    def test_round_1_only_misses_conditional(self, toy):
        corpus, g = toy
        msg, _ = compress(g, corpus.sample(2), max_round=1)
        assert ids(corpus, "a", "r2", "b") in msg.full_triples
        assert len(msg.omissions) == 1

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
        msg = CompressedMessage(g.content_hash, [], [
            OmissionRecord(t_xy.head, t_xy.tail),
            OmissionRecord(t_ab.head, t_ab.tail, conditions=(0,)),
        ])
        assert decompress(g, msg).triple_set() == {t_xy, t_ab}

    def test_ambiguous_argmax_rejected(self):
        corpus = corpus_from_samples([[("a", "r", "b")], [("a", "s", "b")]])
        g = build(corpus)
        msg = CompressedMessage(g.content_hash, [],
                                [OmissionRecord(0, 1)])
        with pytest.raises(CorruptMessageError):
            decompress(g, msg)

    def test_round1_record_for_unknown_pair_rejected(self, toy):
        corpus, g = toy
        a, y = corpus.entities.id_of("a"), corpus.entities.id_of("y")
        for head, tail in ((a, y), (99, 100)):
            msg = CompressedMessage(g.content_hash, [],
                                    [OmissionRecord(head, tail)])
            with pytest.raises(CorruptMessageError):
                decompress(g, msg)

    def test_forward_condition_rejected(self, toy):
        corpus, g = toy
        t_ab = ids(corpus, "a", "r2", "b")
        msg = CompressedMessage(g.content_hash, [], [
            OmissionRecord(t_ab.head, t_ab.tail, conditions=(0,)),
        ])
        with pytest.raises(CorruptMessageError):
            decompress(g, msg)

    def test_receiver_recheck_unique_argmax(self, rng):
        # every omission re-evaluates to a strict maximum at the receiver
        for _ in range(10):
            corpus = random_corpus(rng)
            g = build(corpus)
            for kg in corpus.samples:
                msg, _ = compress(g, kg, max_round=2)
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
        msg, _ = compress(g, kg, max_round=2)
        j = msg.total_triples
        e = len(msg.omissions)
        id_slots = 3 * len(msg.full_triples) + 2 * len(msg.omissions)
        assert id_slots == 3 * j - e
