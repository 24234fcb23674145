import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomp.compressor import (CompressedMessage, OmissionRecord,
                                decode_message, encode_message)
from semcomp.errors import MessageDecodeError
from semcomp.kg import Triple


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
