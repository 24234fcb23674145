import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_wire
from semcomp.compressor import compress
from semcomp.errors import MessageDecodeError, ValidationError
from semcomp.kg import Triple
from semcomp.probgraph import build
from semcomp import wire
from semcomp.wire import (CompressedMessage, OmissionRecord, decode_message,
                          encode_message, message_size)

from test_equivalence import cases


def random_message(rng: random.Random, j=None, e=None):
    if j is None:
        j = rng.randint(0, 60)
    if e is None:
        e = rng.randint(0, j)
    full = [Triple(rng.randrange(1000), rng.randrange(1000),
                   rng.randrange(1000)) for _ in range(j - e)]
    omissions = []
    for i in range(e):
        prefix = (j - e) + i
        max_round = 1 if prefix == 0 else rng.randint(1, min(3, prefix + 1))
        conds = tuple(sorted(rng.sample(range(prefix), max_round - 1)))
        omissions.append(OmissionRecord(rng.randrange(1000),
                                        rng.randrange(1000),
                                        conditions=conds))
    return CompressedMessage(bytes(rng.randrange(256) for _ in range(32)),
                             full, omissions)


def test_empty_omission_roundtrip():
    msg = CompressedMessage(b"\x00" * 32, [Triple(1, 2, 3)], [])
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


@settings(max_examples=100)
@given(st.binary(max_size=300))
def test_arbitrary_bytes_never_crash(data):
    # junk must raise the decode error, not arbitrary exceptions
    try:
        decode_message(data)
    except MessageDecodeError:
        pass


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
    msg = CompressedMessage(b"\x00" * 32, [Triple(1, 2, 3)], [])
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
        encode_message(CompressedMessage(graph_hash, [Triple(1, 2, 3)], []))


# -- codec v2 against the v1 oracle ------------------------------------------

def assert_agrees_with_v1(msg):
    """v2 round-trips `msg` as v1 does, in fewer bytes, and its size is the
    total `message_size` gives."""
    data = encode_message(msg)
    old = legacy_wire.encode_message(msg)
    assert decode_message(data) == legacy_wire.decode_message(old) == msg
    assert len(data) < len(old)
    size = message_size(msg)
    assert len(data) == size.total
    assert (8 * size.header + size.full_triples + sum(size.records.values())
            + size.conditions + size.padding) == 8 * size.total


def test_random_messages_agree_with_v1(rng):
    for _ in range(300):
        assert_agrees_with_v1(random_message(rng))


@pytest.mark.parametrize("max_round", [1, 2, 3])
def test_compressed_messages_agree_with_v1(max_round):
    # random, tie-heavy and nested corpora, their samples and a stranger
    for corpus, messages in cases():
        g = build(corpus)
        for message in messages:
            assert_agrees_with_v1(compress(g, message, max_round)[0])


def test_v1_message_rejected():
    msg = CompressedMessage(b"\x00" * 32, [Triple(1, 2, 3)], [])
    with pytest.raises(MessageDecodeError, match="unsupported wire version 1"):
        decode_message(legacy_wire.encode_message(msg))


# Two messages pinned byte for byte: fields, widths, runs, padding, digest.
PINNED = [
    (CompressedMessage(bytes(range(32)), [Triple(1, 2, 3), Triple(4, 0, 5)],
                       [OmissionRecord(6, 7)]),
     "53434d50020000010203040506070809" "0a0b0c0d0e0f10111213141516171819"
     "1a1b1c1d1e1f44baca3bff5f1191ec1d" "42bf9985efe002010101030271a43e"),
    (CompressedMessage(b"\xab" * 32, [Triple(0, 1, 2), Triple(3, 4, 5)],
                       [OmissionRecord(2, 3), OmissionRecord(4, 5, (0,)),
                        OmissionRecord(1, 5, (1, 3)),
                        OmissionRecord(0, 2, (0, 4))]),
     "53434d500200abababababababababab" "abababababababababababababababab"
     "abababababab5bd396fa6fe7dd120f1d" "1e8df0a6b8de02030101020103020303"
     "88c6021a2c00690681"),
]


@pytest.mark.parametrize("msg, hexed", PINNED)
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


def _forge(counts, widths, body):
    """A message with these header counts and widths, this body, and a
    digest that matches, as a writer of the format would produce it."""
    rest = b"".join(map(_leb128, counts)) + bytes(widths) + body
    head = b"SCMP" + (2).to_bytes(2, "little") + b"\xab" * 32
    digest = hashlib.blake2b(head + rest, digest_size=16).digest()
    return head + digest + rest


@settings(max_examples=150, deadline=None)
@given(n_full=st.integers(0, 2**63),
       runs=st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**63)),
                     max_size=3),
       widths=st.tuples(st.integers(0, 255), st.integers(0, 255)),
       pin=st.sampled_from(PINNED))
def test_forged_counts_and_widths(n_full, runs, widths, pin):
    msg = pin[0]
    data = encode_message(msg)
    body = data[message_size(msg).header:]
    forged = _forge([n_full, len(runs)] + [x for run in runs for x in run],
                    widths, body)
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
    if decoded is not None:
        assert 1 <= min(widths) and max(widths) <= 32
        assert encode_message(decoded) == forged


def test_widths_beyond_32_bits_rejected():
    body = encode_message(PINNED[0][0])[60:]
    for widths in ((33, 3), (3, 33), (0, 3), (255, 255)):
        with pytest.raises(MessageDecodeError, match="width"):
            decode_message(_forge([2, 1, 1, 1], widths, body))


def _widened(msg, monkeypatch, d_e, d_r):
    """`msg` as the encoder writes it with w_e and w_r widened by d_e and d_r
    bits: every field fits, and the digest matches."""
    plan = wire._plan

    def wide(m):
        header, w_e, w_r, w_c, runs = plan(m)
        w_e, w_r = w_e + d_e, w_r + d_r
        return header[:-2] + bytes((w_e, w_r)), w_e, w_r, w_c, runs

    with monkeypatch.context() as patch:
        patch.setattr(wire, "_plan", wide)
        return encode_message(msg)


@pytest.mark.parametrize("d_e, d_r", [(1, 0), (0, 1), (1, 1), (2, 0)])
@pytest.mark.parametrize("msg", [pin[0] for pin in PINNED])
def test_non_minimal_widths_rejected(msg, monkeypatch, d_e, d_r):
    # A forged copy of a message that declares wider ids than it needs would
    # decode to the same message, which re-encodes to other bytes.
    data = encode_message(msg)
    assert _widened(msg, monkeypatch, 0, 0) == data
    forged = _widened(msg, monkeypatch, d_e, d_r)
    assert forged != data
    with pytest.raises(MessageDecodeError, match="smallest that fit"):
        decode_message(forged)


def test_widths_follow_the_largest_id_of_any_section():
    # The largest entity id sits in a record's head or tail, or in a full
    # triple's tail; the largest relation id in the last full triple; ids of
    # 0 and 1 take one bit.
    for msg in [
        CompressedMessage(b"\x00" * 32, [Triple(0, 0, 0)], []),
        CompressedMessage(b"\x00" * 32, [], [OmissionRecord(1, 0)]),
        CompressedMessage(b"\x00" * 32, [], []),
        CompressedMessage(b"\x00" * 32, [Triple(1, 0, 2), Triple(0, 9, 3)],
                          [OmissionRecord(2, 3),
                           OmissionRecord(300, 1, (0,))]),
        CompressedMessage(b"\x00" * 32, [Triple(0, 1, 0)],
                          [OmissionRecord(5, 0), OmissionRecord(2, 40, (0,))]),
        CompressedMessage(b"\x00" * 32, [Triple(3, 1, 70), Triple(6, 2, 0)],
                          [OmissionRecord(5, 9)]),
    ]:
        data = encode_message(msg)
        assert decode_message(data) == msg
        assert encode_message(decode_message(data)) == data
