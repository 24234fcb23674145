"""Shared builders, independent counting oracles, and conversions between
wire version 2 and version 3 messages."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import settings

import legacy_wire_v2
from semcomp import wire
from semcomp.kg import Triple, load_corpus_lines

# `pytest --hypothesis-profile=ci` prints, for a failing example, a blob that
# replays it with @reproduce_failure.
settings.register_profile("ci", print_blob=True)


def corpus_from_samples(samples, tables=None):
    """samples: list of lists of (head, relation, tail) label triples,
    interned into the tables of `tables` (a graph, say) when it is given."""
    lines = []
    for i, triples in enumerate(samples, start=1):
        lines.append(json.dumps(
            {"sample": i, "triples": [list(t) for t in triples]}))
    return load_corpus_lines(lines, tables)


def random_corpus(rng: random.Random, n_samples=None, n_entities=6,
                  n_relations=4, max_triples=12):
    """Small dense corpus; low vocab so pairs recur across samples."""
    if n_samples is None:
        n_samples = rng.randint(1, 20)
    entities = ["e%d" % i for i in range(n_entities)]
    relations = ["r%d" % i for i in range(n_relations)]
    samples = []
    for _ in range(n_samples):
        n = rng.randint(1, max_triples)
        triples = set()
        for _ in range(n):
            h = rng.choice(entities)
            t = rng.choice(entities)
            r = rng.choice(relations)
            triples.add((h, r, t))
        samples.append(sorted(triples))
    return corpus_from_samples(samples)


def wide_pairs_corpus(k):
    """k pairs (a_i, b_i) of 64 relations each, r0 their verdict and r63
    their last rank, seen only beside (x, u, y); returns the corpus and
    its last sample, the message (x, u, y) and every (a_i, r63, b_i).  It
    omits (x, u, y) in round 1, and in round 2 each (a_i, r63, b_i) given
    it: a record of w_p + w_c bits, where the known triple takes w_p + 6.
    From k = 15 on, round 2's message is the smaller."""
    pairs = [("a%d" % i, "b%d" % i) for i in range(k)]
    samples = [[(a, "r0", b) for a, b in pairs]] * 2
    samples += [[(a, "r%d" % j, b) for a, b in pairs] for j in range(1, 63)]
    samples.append([(a, "r63", b) for a, b in pairs] + [("x", "u", "y")])
    corpus = corpus_from_samples(samples)
    return corpus, corpus.sample(len(samples))


# -- brute-force per-sample counting oracle ---------------------------------

def _samples_with(corpus, triple):
    return {kg.sample_id for kg in corpus.samples if triple in kg.triples}


def _pair_relations(corpus, head, tail):
    rels = set()
    for kg in corpus.samples:
        for t in kg.triples:
            if t.head == head and t.tail == tail:
                rels.add(t.relation)
    return sorted(rels)


def oracle_prob(corpus, triple):
    num = len(_samples_with(corpus, triple))
    denom = sum(
        len(_samples_with(corpus, Triple(triple.head, r, triple.tail)))
        for r in _pair_relations(corpus, triple.head, triple.tail))
    return Fraction(num, denom)


def oracle_cond_prob(corpus, target, given):
    """Set counting straight from the per-sample membership definition.

    Returns None when the denominator is empty (undefined probability).
    """
    if not given:
        return oracle_prob(corpus, target)
    cond = None
    for g in given:
        s = _samples_with(corpus, g)
        cond = s if cond is None else cond & s
    union = set()
    for r in _pair_relations(corpus, target.head, target.tail):
        union |= _samples_with(corpus, Triple(target.head, r, target.tail))
    denom = len(cond & union)
    if denom == 0:
        return None
    return Fraction(len(_samples_with(corpus, target) & cond), denom)


@pytest.fixture
def rng():
    return random.Random(20240817)


def assert_stages_match(report, ref_stages):
    """`report.stages` are an oracle's stages less its trailing ones, which
    `compress` does not run: from `report.stopped.round` on fewer triples
    are omitted than a round's width, so no condition tuple exists and each
    of those stages began with `report.stopped.candidates` and omitted
    nothing."""
    n = len(report.stages)
    assert report.stages == ref_stages[:n]
    dropped = ref_stages[n:]
    if dropped:
        assert report.stopped.reason == "no condition tuple"
        assert dropped[0].round == report.stopped.round
        assert {(s.candidates, s.omitted) for s in dropped} == {
            (report.stopped.candidates, 0)}


# -- version 2 content <-> version 3 messages --------------------------------
#
# Pair indices count in ascending (head, tail) order, the `.spgr` body's
# order; these helpers sort the graph's pairs themselves rather than read
# `ProbabilityGraph.pair_table`.

def v3_message(g, msg):
    """The version-3 message that carries a version-2 message's content
    against `g`.

    A full triple whose pair and relation `g` holds becomes its (pair index,
    rank) code, and the others stay escaped, each in its order.  A record's
    pair becomes its index, or the index one past the table when `g` lacks
    the pair.  A condition that names a full triple follows it to its new
    place; every other condition index is kept.
    """
    pairs = sorted(g.quadruples)
    index = {pair: i for i, pair in enumerate(pairs)}
    known, escaped, known_at, escaped_at = [], [], [], []
    for at, t in enumerate(msg.full_triples):
        quad = g.quadruples.get((t.head, t.tail))
        relations = [rid for rid, _ in quad.relations] if quad else []
        if t.relation in relations:
            known.append((index[t.head, t.tail],
                          relations.index(t.relation)))
            known_at.append(at)
        else:
            escaped.append(t)
            escaped_at.append(at)
    moved = {old: new for new, old in enumerate(known_at + escaped_at)}
    records = [wire.OmissionRecord(index.get((r.head, r.tail), len(pairs)),
                                   tuple(moved.get(c, c)
                                         for c in r.conditions))
               for r in msg.omissions]
    return wire.CompressedMessage(msg.graph_hash, known, escaped, records)


def v2_content(g, msg):
    """The version-2 message a version-3 message carries against `g`: its
    known triples resolved, then its escaped ones, then its records with
    their pairs' heads and tails."""
    pairs = sorted(g.quadruples)
    full = []
    for p, k in msg.known:
        head, tail = pairs[p]
        relation = g.quadruples[head, tail].relations[k][0]
        full.append(Triple(head, relation, tail))
    return legacy_wire_v2.CompressedMessage(
        msg.graph_hash, full + list(msg.escaped),
        [legacy_wire_v2.OmissionRecord(*pairs[r.pair], r.conditions)
         for r in msg.omissions])
