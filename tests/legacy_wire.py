"""Reference wire codec: `SCMP` version 1, which codec v2 replaced, kept as
the oracle for test_wire.py.

The code is the replaced codec unchanged.  Only the message types are shared
with version 2 (legacy_wire_v2.py), so both codecs read and write the same
messages.
"""

import hashlib
import struct

from legacy_wire_v2 import CompressedMessage, OmissionRecord
from semcomp.errors import MessageDecodeError
from semcomp.kg import Triple

WIRE_MAGIC = b"SCMP"
WIRE_VERSION = 1

# -- wire format ------------------------------------------------------------
#
# header: magic 'SCMP', version u16, graph_hash 32B, J u32, E u32,
#         digest 32B = sha256 over everything else (header fields + body),
#         so any single corrupted byte is detected
# body:   (J - E) full triples as three u32 ids, then E omission records as
#         head u32, tail u32, round u8, (round - 1) u32 condition indices.
# All integers little-endian.

_PREFIX = struct.Struct("<4sH32sII")  # the header up to its digest
_HEADER = struct.Struct(_PREFIX.format + "32s")


def encode_message(msg: CompressedMessage) -> bytes:
    body = bytearray()
    for t in msg.full_triples:
        body.extend(struct.pack("<III", t.head, t.relation, t.tail))
    for rec in msg.omissions:
        body.extend(struct.pack("<IIB", rec.head, rec.tail, rec.round))
        for c in rec.conditions:
            body.extend(struct.pack("<I", c))
    prefix = _PREFIX.pack(WIRE_MAGIC, WIRE_VERSION, msg.graph_hash,
                          msg.total_triples, len(msg.omissions))
    return prefix + hashlib.sha256(prefix + body).digest() + body


def decode_message(data: bytes) -> CompressedMessage:
    if len(data) < _HEADER.size:
        raise MessageDecodeError("buffer shorter than header")
    magic, version, graph_hash, j, e, digest = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise MessageDecodeError("bad magic bytes")
    if version != WIRE_VERSION:
        raise MessageDecodeError("unsupported wire version %d" % version)
    if e > j:
        raise MessageDecodeError("omission count exceeds triple count")
    body = data[_HEADER.size:]
    if hashlib.sha256(data[:_PREFIX.size] + body).digest() != digest:
        raise MessageDecodeError("message digest mismatch")

    n_full = j - e
    pos = 12 * n_full
    if pos > len(body):
        raise MessageDecodeError("truncated full-triple section")
    full = list(map(Triple._make, struct.iter_unpack("<III", body[:pos])))
    omissions = []
    for i in range(e):
        if pos + 9 > len(body):
            raise MessageDecodeError("truncated omission record")
        # The round byte only says how many condition indices follow.
        h, t, round_no = struct.unpack_from("<IIB", body, pos)
        pos += 9
        if round_no < 1:
            raise MessageDecodeError("invalid round 0")
        n_cond = round_no - 1
        if pos + 4 * n_cond > len(body):
            raise MessageDecodeError("truncated condition list")
        conds = struct.unpack_from("<%dI" % n_cond, body, pos) if n_cond else ()
        pos += 4 * n_cond
        if any(c >= n_full + i for c in conds):
            raise MessageDecodeError("forward condition reference")
        omissions.append(OmissionRecord(h, t, conds))
    if pos != len(body):
        raise MessageDecodeError("trailing bytes after message body")
    return CompressedMessage(graph_hash, full, omissions)
