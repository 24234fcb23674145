import functools
import hashlib
import importlib.util
import random
import tracemalloc
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_wire
import legacy_wire_v2
import legacy_wire_v3
from semcomp import kg
from semcomp.compressor import compress, decompress
from semcomp.errors import MessageDecodeError, ValidationError
from semcomp.kg import Triple
from semcomp.probgraph import ProbabilityGraph, build
from semcomp import wire
from semcomp.wire import (CompressedMessage, OmissionRecord, decode_message,
                          encode_message, message_size)

from conftest import random_corpus, v2_content, v3_message
from test_equivalence import cases


def random_message(rng: random.Random, j=None, e=None):
    """j triples, e of them omitted; the full ones are known or escaped."""
    if j is None:
        j = rng.randint(0, 60)
    if e is None:
        e = rng.randint(0, j)
    n_escaped = rng.randint(0, j - e)
    known = [(rng.randrange(1000), rng.randrange(4))
             for _ in range(j - e - n_escaped)]
    escaped = [Triple(rng.randrange(1000), rng.randrange(1000),
                      rng.randrange(1000)) for _ in range(n_escaped)]
    omissions = []
    for i in range(e):
        prefix = (j - e) + i
        max_round = 1 if prefix == 0 else rng.randint(1, min(3, prefix + 1))
        conds = tuple(sorted(rng.sample(range(prefix), max_round - 1)))
        omissions.append(OmissionRecord(rng.randrange(1000),
                                        conditions=conds))
    return CompressedMessage(bytes(rng.randrange(256) for _ in range(32)),
                             known, escaped, omissions)


# Held equal to tests/legacy_wire_v3.py, the codec before the section list.

def _as_v3_oracle(msg):
    """`msg` in legacy_wire_v3's own message types."""
    return legacy_wire_v3.CompressedMessage(
        msg.graph_hash, msg.known, msg.escaped,
        [legacy_wire_v3.OmissionRecord(*rec) for rec in msg.omissions])


def _fields(msg):
    return (msg.graph_hash, msg.known, msg.escaped,
            [tuple(rec) for rec in msg.omissions])


def assert_encodes_as_oracle(msg):
    """Equal bytes, equal `message_size` fields and equal decoded fields."""
    data = encode_message(msg)
    old = _as_v3_oracle(msg)
    assert data == legacy_wire_v3.encode_message(old)
    assert tuple(message_size(msg)) == tuple(legacy_wire_v3.message_size(old))
    assert (_fields(decode_message(data))
            == _fields(legacy_wire_v3.decode_message(data)) == _fields(msg))


def assert_decodes_as_oracle(data):
    """Both codecs reject `data` with the same error text, or both decode it
    to the same fields."""
    try:
        new = _fields(decode_message(data))
    except MessageDecodeError as error:
        new = error
    try:
        old = _fields(legacy_wire_v3.decode_message(data))
    except MessageDecodeError as error:
        old = error
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
    else:
        assert new == old


def test_empty_omission_roundtrip():
    msg = CompressedMessage(b"\x00" * 32, [(1, 2)], [Triple(1, 2, 3)], [])
    assert decode_message(encode_message(msg)) == msg


def test_hundred_triples_forty_omissions_roundtrip():
    rng = random.Random(42)
    msg = random_message(rng, j=100, e=40)
    data = encode_message(msg)
    assert decode_message(data) == msg
    assert encode_message(decode_message(data)) == data


def test_random_messages_roundtrip(rng):
    for _ in range(200):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


@st.composite
def messages(draw):
    """Any message the encoder takes: fields up to 32 bits, rounds in any
    order, and conditions that name earlier triples."""
    field = st.one_of(st.integers(0, 9), st.integers(0, 2**32 - 1))
    known = draw(st.lists(st.tuples(field, field), max_size=12))
    escaped = draw(st.lists(st.builds(Triple, field, field, field),
                            max_size=6))
    omissions = []
    for start in range(len(known) + len(escaped),
                       len(known) + len(escaped) + draw(st.integers(0, 12))):
        conditions = draw(st.lists(st.integers(0, start - 1), max_size=3)
                          if start else st.just([]))
        omissions.append(OmissionRecord(draw(field), tuple(conditions)))
    return CompressedMessage(draw(st.binary(min_size=32, max_size=32)),
                             known, escaped, omissions)


@settings(max_examples=100, deadline=None)
@given(msg=messages())
def test_codec_round_trips(msg):
    data = encode_message(msg)
    assert decode_message(data) == msg
    assert encode_message(decode_message(data)) == data
    size = message_size(msg)
    assert size.total == len(data)
    assert (8 * size.header + size.known + size.escaped
            + sum(size.records.values()) + size.conditions + size.padding
            ) == 8 * size.total
    # Rounds may repeat in any order: records[r] sums every round-r run.
    w_p = data[size.header - (4 if msg.escaped else 2)]
    assert size.records == {
        r: n * w_p for r, n in Counter(rec.round for rec in msg.omissions
                                       ).items()}
    assert_encodes_as_oracle(msg)


@settings(max_examples=100)
@given(st.binary(max_size=300))
def test_arbitrary_bytes_never_crash(data):
    # junk must raise the decode error, not arbitrary exceptions
    assert_decodes_as_oracle(data)
    assert_decodes_as_oracle(b"SCMP\x03\x00" + data)


@settings(max_examples=60)
@given(st.data())
def test_truncation_detected(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    msg = random_message(rng, j=10, e=4)
    encoded = encode_message(msg)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(MessageDecodeError):
        decode_message(encoded[:cut])


def test_version_mismatch():
    msg = CompressedMessage(b"\x00" * 32, [(1, 2)], [], [])
    data = bytearray(encode_message(msg))
    data[4] = 0xEE
    with pytest.raises(MessageDecodeError):
        decode_message(bytes(data))


def test_single_byte_flips_detected():
    # full sweep lives in the acceptance suite; spot-check here
    rng = random.Random(7)
    msg = random_message(rng, j=20, e=8)
    encoded = encode_message(msg)
    for pos in range(len(encoded)):
        corrupted = bytearray(encoded)
        corrupted[pos] ^= 0x5A
        try:
            decoded = decode_message(bytes(corrupted))
        except MessageDecodeError:
            continue
        assert decoded.graph_hash != msg.graph_hash


@pytest.mark.parametrize("graph_hash", [b"", b"ab", bytes(31), bytes(33)])
def test_graph_hash_of_wrong_length_rejected(graph_hash):
    # v1 zero-padded a 2-byte hash to 32 bytes and sent it.
    with pytest.raises(ValidationError):
        encode_message(CompressedMessage(graph_hash, [(1, 2)], [], []))


@pytest.mark.parametrize("msg", [
    CompressedMessage(bytes(32), [(-1, 0)], [], []),
    CompressedMessage(bytes(32), [(0, -1)], [], []),
    CompressedMessage(bytes(32), [], [Triple(0, -1, 0)], []),
    CompressedMessage(bytes(32), [], [], [OmissionRecord(-1)]),
    CompressedMessage(bytes(32), [(2**32, 0)], [], []),
    CompressedMessage(bytes(32), [(0, 2**32)], [], []),
    CompressedMessage(bytes(32), [], [Triple(2**32, 0, 0)], []),
    CompressedMessage(bytes(32), [(0, 0)], [], [OmissionRecord(0, (1,))]),
])
def test_encoder_refuses_fields_it_cannot_write(msg):
    # negative or wider than 32 bits, or a condition on a later triple
    with pytest.raises(ValidationError) as refused:
        encode_message(msg)
    with pytest.raises(ValidationError) as oracle:
        legacy_wire_v3.encode_message(_as_v3_oracle(msg))
    assert str(refused.value) == str(oracle.value)


# -- codec v3 against the v1 and v2 oracles ----------------------------------

def assert_agrees_with_v1(g, old_msg):
    """v3 carries the content of `old_msg`, a v2 message whose records sit on
    pairs of `g`, as v1 and v2 do, in fewer bytes than v1, and its size is
    the total `message_size` gives.  Returns (v3, v2) byte counts."""
    v1, v2 = (legacy_wire.encode_message(old_msg),
              legacy_wire_v2.encode_message(old_msg))
    assert (legacy_wire.decode_message(v1)
            == legacy_wire_v2.decode_message(v2) == old_msg)
    msg = v3_message(g, old_msg)
    data = encode_message(msg)
    assert decode_message(data) == msg
    # The same triples, known ones ahead of the escaped ones, and records
    # whose conditions follow the triples they name.
    content = v2_content(g, msg)
    assert sorted(content.full_triples) == sorted(old_msg.full_triples)
    assert v3_message(g, content) == msg
    assert [r[:2] for r in content.omissions] == [
        r[:2] for r in old_msg.omissions]
    assert len(data) < len(v1)
    size = message_size(msg)
    assert len(data) == size.total
    assert (8 * size.header + size.known + size.escaped
            + sum(size.records.values()) + size.conditions + size.padding
            ) == 8 * size.total
    return len(data), len(v2)


def random_v2_message(rng, g, corpus):
    """Triples over the corpus vocabulary and one past it, some of which
    `g` lacks, then records on pairs of `g` with earlier conditions."""
    n_ent, n_rel = len(corpus.entities), len(corpus.relations)
    full = list({Triple(rng.randrange(n_ent + 1), rng.randrange(n_rel + 1),
                        rng.randrange(n_ent + 1))
                 for _ in range(rng.randint(0, 12))})
    pairs = sorted(g.quadruples)
    records = []
    for start in range(len(full), len(full) + rng.randint(0, 8)):
        conds = tuple(sorted(rng.sample(range(start),
                                        min(start, rng.randint(0, 2)))))
        records.append(legacy_wire_v2.OmissionRecord(*rng.choice(pairs),
                                                     conds))
    return legacy_wire_v2.CompressedMessage(
        bytes(rng.randrange(256) for _ in range(32)), full, records)


def test_random_messages_agree_with_v1(rng):
    for _ in range(60):
        corpus = random_corpus(rng)
        g = build(corpus)
        for _ in range(5):
            assert_agrees_with_v1(g, random_v2_message(rng, g, corpus))


@pytest.mark.parametrize("max_round", [1, 2, 3])
def test_compressed_messages_agree_with_v1(max_round):
    # random, tie-heavy and nested corpora, their samples and a stranger
    v3 = v2 = 0
    for corpus, messages in cases():
        g = build(corpus)
        for message in messages:
            msg = compress(g, message, max_round)[0]
            assert v3_message(g, v2_content(g, msg)) == msg
            sizes = assert_agrees_with_v1(g, v2_content(g, msg))
            v3 += sizes[0]
            v2 += sizes[1]
    assert v3 < v2


def test_v1_message_rejected():
    msg = legacy_wire_v2.CompressedMessage(b"\x00" * 32, [Triple(1, 2, 3)],
                                           [])
    with pytest.raises(MessageDecodeError, match="unsupported wire version 1"):
        decode_message(legacy_wire.encode_message(msg))


def test_v2_message_rejected():
    msg = legacy_wire_v2.CompressedMessage(
        b"\x00" * 32, [Triple(1, 2, 3)], [legacy_wire_v2.OmissionRecord(4, 5)])
    with pytest.raises(MessageDecodeError, match="unsupported wire version 2"):
        decode_message(legacy_wire_v2.encode_message(msg))


# Three messages pinned byte for byte: fields, widths, runs, padding, digest.
# The first is, after the digest: counts 02 01 01, the run (1, 1), widths
# w_p=3 w_k=1 w_e=2 w_r=2, then the known section 0d (5 | 1 << 3, then 0),
# the escaped section 39 (1 | 2 << 2 | 3 << 4) and the record 06.
PINNED = [
    (CompressedMessage(bytes(range(32)), [(5, 1), (0, 0)], [Triple(1, 2, 3)],
                       [OmissionRecord(6)]),
     "53434d50030000010203040506070809" "0a0b0c0d0e0f10111213141516171819"
     "1a1b1c1d1e1f03e42e318e18b8a5dfde" "96edb79b94490201010101030102020d"
     "3906"),
    (CompressedMessage(b"\xab" * 32, [(3, 2), (9, 0)],
                       [Triple(0, 1, 2), Triple(7, 0, 4)],
                       [OmissionRecord(2), OmissionRecord(4, (0,)),
                        OmissionRecord(1, (1, 5)), OmissionRecord(0, (0, 4))]),
     "53434d500300abababababababababab" "abababababababababababababababab"
     "abababababab71c6e58e39d1fd328349" "a9dee415c67f02020301010201030204"
     "0203016302a8230204910208"),
    (CompressedMessage(bytes(32), [(2, 0), (1, 0)], [],
                       [OmissionRecord(3), OmissionRecord(0, (1,))]),
     "53434d50030000000000000000000000" "00000000000000000000000000000000"
     "000000000000ed178f8126dbfbc2f5b3" "e3981a16502702000201010201020006"
     "0304"),
]
PINNED_IDS = ["escapes-round-1", "escapes-rounds-1-2-3", "ranks-all-zero"]
ESCAPING = [pin[0] for pin in PINNED if pin[0].escaped]


@pytest.mark.parametrize("msg, hexed", PINNED, ids=PINNED_IDS)
def test_pinned_bytes(msg, hexed):
    assert encode_message(msg).hex() == hexed
    assert decode_message(bytes.fromhex(hexed)) == msg


# -- forged headers ------------------------------------------------------------

def _leb128(n):
    out = bytearray()
    while True:
        out.append(n & 0x7F | (0x80 if n > 0x7F else 0))
        n >>= 7
        if not n:
            return bytes(out)


def _signed(rest, version=3):
    """A message whose header counts, widths and body are the bytes `rest`,
    under a digest that matches, as a writer of the format would produce
    it."""
    head = b"SCMP" + version.to_bytes(2, "little") + b"\xab" * 32
    return head + hashlib.blake2b(head + rest, digest_size=16).digest() + rest


def _forge(counts, widths, body, version=3):
    """A message with these header counts and widths and this body."""
    return _signed(b"".join(map(_leb128, counts)) + bytes(widths) + body,
                   version)


def _parts(msg):
    """(header counts, widths, body) of the message's encoding."""
    data = encode_message(msg)
    n_widths = 4 if msg.escaped else 2
    runs = [(r, len(list(g))) for r, g in groupby(
        rec.round for rec in msg.omissions)]
    counts = [len(msg.known), len(msg.escaped), len(runs)]
    counts += [x for run in runs for x in run]
    at = message_size(msg).header
    assert data[at - n_widths - len(counts):at - n_widths] == bytes(counts)
    return counts, list(data[at - n_widths:at]), data[at:]


@pytest.mark.parametrize("msg", [pin[0] for pin in PINNED], ids=PINNED_IDS)
def test_forge_rebuilds_the_encoding(msg):
    counts, widths, body = _parts(msg)
    forged = _forge(counts, widths, body)
    assert forged[54:] == encode_message(msg)[54:]
    assert decode_message(forged).known == msg.known


@settings(max_examples=150, deadline=None)
@given(n_known=st.integers(0, 2**63), n_escaped=st.integers(0, 2**63),
       runs=st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**63)),
                     max_size=3),
       widths=st.lists(st.integers(0, 34) | st.integers(0, 255), min_size=2,
                       max_size=4),
       pin=st.sampled_from(PINNED))
def test_forged_counts_and_widths(n_known, n_escaped, runs, widths, pin):
    msg = pin[0]
    body = _parts(msg)[2]
    forged = _forge([n_known, n_escaped, len(runs)]
                    + [x for run in runs for x in run], widths, body)
    tracemalloc.start()
    try:
        decoded = decode_message(forged)
    except MessageDecodeError:
        decoded = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # The declared size is checked against the body before any record is
    # built, so no count makes the decoder allocate beyond the message.
    assert peak < 64 * 1024
    assert_decodes_as_oracle(forged)
    if decoded is not None:
        assert 1 <= widths[0] <= 32 and widths[1] <= 32
        assert len(widths) == (4 if n_escaped else 2)
        assert all(1 <= w <= 32 for w in widths[2:])
        assert encode_message(decoded) == forged


@settings(max_examples=150, deadline=None)
@given(pin=st.sampled_from(PINNED), data=st.data())
def test_redigested_mutations_decode_canonically(pin, data):
    """A changed, cut or extended header or body under a matching digest
    is rejected, or decodes to a message that encodes back to exactly those
    bytes."""
    counts, widths, body = _parts(pin[0])
    rest = bytearray(b"".join(map(_leb128, counts)) + bytes(widths) + body)
    at = data.draw(st.integers(0, len(rest) - 1))
    rest[at] = data.draw(st.integers(0, 255))
    rest = rest[:data.draw(st.integers(0, len(rest)))]
    rest += data.draw(st.binary(max_size=4))
    forged = _signed(bytes(rest))
    assert_decodes_as_oracle(forged)
    try:
        decoded = decode_message(forged)
    except MessageDecodeError:
        return
    assert encode_message(decoded) == forged


def test_widths_beyond_32_bits_rejected():
    counts, widths, body = _parts(PINNED[0][0])
    assert widths == [3, 1, 2, 2]
    for bad in ([33, 1, 2, 2], [0, 1, 2, 2], [3, 33, 2, 2], [3, 1, 33, 2],
                [3, 1, 2, 33], [3, 1, 0, 2], [3, 1, 2, 0], [255] * 4):
        with pytest.raises(MessageDecodeError, match="width"):
            decode_message(_forge(counts, bad, body))


def test_count_with_a_redundant_last_byte_rejected():
    # Each count of 1 after the first in turn, written 81 00 in place of 01.
    counts, widths, body = _parts(PINNED[0][0])
    assert counts == [2, 1, 1, 1, 1]
    for at in range(1, len(counts)):
        coded = [_leb128(n) for n in counts]
        coded[at] = b"\x81\x00"
        forged = _signed(b"".join(coded) + bytes(widths) + body)
        with pytest.raises(MessageDecodeError,
                           match="count not minimally encoded"):
            decode_message(forged)
        assert_decodes_as_oracle(forged)


def test_escape_widths_without_escapes_rejected():
    counts, widths, body = _parts(PINNED[2][0])
    assert counts[1] == 0 and len(widths) == 2
    decode_message(_forge(counts, widths, body))
    for extra in ([1, 1], [2, 3]):
        with pytest.raises(MessageDecodeError, match="body is"):
            decode_message(_forge(counts, widths + extra, body))


def test_nonzero_padding_rejected():
    # The escaped section is one 6-bit record in a byte: 2 padding bits.
    counts, widths, body = _parts(PINNED[0][0])
    assert body[1] == 0x39
    for bit in (0x40, 0x80):
        forged = bytearray(body)
        forged[1] |= bit
        with pytest.raises(MessageDecodeError, match="nonzero padding"):
            decode_message(_forge(counts, widths, bytes(forged)))


@pytest.mark.parametrize("tail", [b"\x00", b"\x00\x00", b"\xff"])
def test_trailing_bytes_rejected(tail):
    for msg, _ in PINNED:
        counts, widths, body = _parts(msg)
        with pytest.raises(MessageDecodeError, match="body is"):
            decode_message(_forge(counts, widths, body + tail))


def _widened(msg, monkeypatch, d_p=0, d_k=0, d_e=0, d_r=0):
    """`msg` as the encoder writes it with its widths widened by these
    bits: every field fits, and the digest matches."""
    plan = wire._plan

    def wide(m):
        header, (w_p, w_k, w_e, w_r), runs, _ = plan(m)
        w = (w_p + d_p, w_k + d_k, w_e + d_e, w_r + d_r)
        n = 4 if m.escaped else 2
        return (header[:-n] + bytes(w[:n]), w, runs,
                wire._sections(len(m.known), len(m.escaped), runs,
                               m.total_triples, *w))

    with monkeypatch.context() as patch:
        patch.setattr(wire, "_plan", wide)
        return encode_message(msg)


@pytest.mark.parametrize("d_e, d_r", [(1, 0), (0, 1), (1, 1), (2, 0)])
@pytest.mark.parametrize("msg", ESCAPING)
def test_non_minimal_widths_rejected(msg, monkeypatch, d_e, d_r):
    # A forged copy of a message that declares wider ids than it needs would
    # decode to the same message, which re-encodes to other bytes.
    data = encode_message(msg)
    assert _widened(msg, monkeypatch) == data
    forged = _widened(msg, monkeypatch, d_e=d_e, d_r=d_r)
    assert forged != data
    with pytest.raises(MessageDecodeError, match="smallest that fit"):
        decode_message(forged)


@pytest.mark.parametrize("d_p, d_k", [(1, 0), (0, 1), (1, 1), (2, 0)])
@pytest.mark.parametrize("msg", [pin[0] for pin in PINNED], ids=PINNED_IDS)
def test_non_minimal_pair_and_rank_widths_rejected(msg, monkeypatch, d_p,
                                                   d_k):
    forged = _widened(msg, monkeypatch, d_p=d_p, d_k=d_k)
    assert forged != encode_message(msg)
    with pytest.raises(MessageDecodeError, match="smallest that fit"):
        decode_message(forged)


def test_widths_follow_the_largest_id_of_any_section():
    # The largest pair index sits in a known triple or a record, the largest
    # rank in any known triple, the largest entity id in an escaped head or
    # tail; ids of 0 and 1 take one bit, and ranks of 0 take none.
    h = b"\x00" * 32
    for msg in [
        CompressedMessage(h, [(0, 0)], [], []),
        CompressedMessage(h, [], [], [OmissionRecord(1)]),
        CompressedMessage(h, [], [], []),
        CompressedMessage(h, [], [Triple(0, 0, 0)], []),
        CompressedMessage(h, [(1, 0), (0, 3)], [Triple(0, 9, 3)],
                          [OmissionRecord(2), OmissionRecord(300, (0,))]),
        CompressedMessage(h, [(0, 1)], [Triple(5, 0, 0)],
                          [OmissionRecord(5), OmissionRecord(2, (0,))]),
        CompressedMessage(h, [(70, 0), (6, 2)],
                          [Triple(3, 1, 70), Triple(6, 2, 0)],
                          [OmissionRecord(5)]),
    ]:
        data = encode_message(msg)
        assert decode_message(data) == msg
        assert encode_message(decode_message(data)) == data


# -- counts of 128 and more: two LEB128 bytes ---------------------------------

_H = bytes(range(32))
MULTI_BYTE = [
    CompressedMessage(_H, [(i, i % 3) for i in range(130)], [], []),
    CompressedMessage(_H, [], [Triple(i, i % 5, 200 - i)
                               for i in range(130)], []),
    CompressedMessage(_H, [(0, 0)], [], [OmissionRecord(i, (0,))
                                         for i in range(130)]),
    CompressedMessage(_H, [(0, 0)], [], [OmissionRecord(i, (0,) * (i & 1))
                                         for i in range(130)]),
    CompressedMessage(_H, [(i, 0) for i in range(129)], [],
                      [OmissionRecord(7, tuple(range(129)))]),
]
MULTI_BYTE_IDS = ["130-known", "130-escaped", "run-of-130", "130-runs",
                  "round-130"]


@pytest.mark.parametrize("msg", MULTI_BYTE, ids=MULTI_BYTE_IDS)
def test_multi_byte_counts_match_v3_oracle(msg):
    n_runs = len(list(groupby(rec.round for rec in msg.omissions)))
    one_byte_header = (wire.FIXED_HEADER + 3 + 2 * n_runs
                       + (4 if msg.escaped else 2))
    assert message_size(msg).header > one_byte_header
    assert_encodes_as_oracle(msg)


# -- guards no encoder output reaches ------------------------------------------

def test_later_first_run_without_a_full_triple_rejected_at_once(monkeypatch):
    # One record of round 2**40 and no full triple: w_c is 0, so the body
    # is one byte however many conditions the round claims.  It is refused
    # before any section, let alone a condition column, is built.
    forged = _forge([0, 0, 1, 2**40, 1], [1, 0], b"\x00")

    def untouched(*args):
        raise AssertionError("the decoder reached the body")

    with monkeypatch.context() as patch:
        patch.setattr(wire, "_sections", untouched)
        patch.setattr(wire, "_unpack", untouched)
        with pytest.raises(MessageDecodeError,
                           match="^forward condition reference$"):
            decode_message(forged)
    assert_decodes_as_oracle(forged)


def test_condition_naming_its_own_record_rejected():
    # A known triple, then a round-2 record at reconstruction index 1:
    # w_c is 1 bit, and the record is its pair index 0 | condition << 1.
    fine = _forge([1, 0, 1, 2, 1], [1, 0], b"\x00\x00")
    assert decode_message(fine).omissions == [OmissionRecord(0, (0,))]
    forged = _forge([1, 0, 1, 2, 1], [1, 0], b"\x00\x02")
    with pytest.raises(MessageDecodeError,
                       match="^forward condition reference$"):
        decode_message(forged)
    assert_decodes_as_oracle(forged)


# -- the benchmark's workloads ---------------------------------------------------

def _workloads():
    path = Path(__file__).resolve().parent.parent / "benchmarks/workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _seed_1(name):
    """Seed 1 of a workload at full size: its spec, graph and messages."""
    workloads = _workloads()
    spec = workloads.SPECS[name]
    inputs = workloads.generate(spec, 1)
    g = build(kg.load_corpus_lines(inputs.corpus_lines))
    ent, rel = g.entities.id_of, g.relations.id_of
    messages = [kg.KnowledgeGraph([Triple(ent(h), rel(r), ent(t))
                                   for h, r, t in triples])
                for triples in inputs.messages]
    return spec, g, messages


@pytest.mark.parametrize("name", ["skewed", "tie_heavy", "plan"])
def test_benchmark_messages_match_v3_oracle(name):
    _, g, messages = _seed_1(name)
    for max_round in (1, 2, 3):
        for omit in ("wire", "all"):
            for message in messages:
                assert_encodes_as_oracle(
                    compress(g, message, max_round, omit)[0])


@pytest.mark.parametrize("name", ["skewed", "tie_heavy", "plan"])
def test_message_size_is_the_length_on_benchmark_workloads(name):
    # Seed 1 of each workload at full size, every message, at its max_round.
    spec, g, messages = _seed_1(name)
    receiver = ProbabilityGraph.from_bytes(g.to_bytes())
    for message in messages:
        msg = compress(g, message, spec.max_round)[0]
        data = encode_message(msg)
        assert message_size(msg).total == len(data)
        restored = decompress(receiver, decode_message(data))
        assert restored.triple_set() == message.triple_set()
