"""Reference wire codec: `SCMP` version 2, which codec v3 replaced, kept as
the oracle for test_wire.py, with its message types.

The code is the replaced codec unchanged, with the package's relative
imports made absolute.  Version 2 names every full triple by its global ids
and every omission record by its head and tail, so its messages need no
graph to resolve; `conftest.v3_message` and `conftest.v2_content` convert
between them and version 3 messages against a graph.  tests/legacy_wire.py
(version 1) and the reference compressors read and write these types.
"""

import hashlib
from dataclasses import dataclass
from itertools import count, groupby, repeat
from operator import and_, lshift, lt, or_, rshift
from typing import Dict, List, NamedTuple, Tuple

from semcomp.errors import MessageDecodeError, ValidationError
from semcomp.kg import Triple

WIRE_MAGIC = b"SCMP"
WIRE_VERSION = 2
HASH_SIZE = 32
DIGEST_OFFSET = 6 + HASH_SIZE
DIGEST_SIZE = 16
FIXED_HEADER = DIGEST_OFFSET + DIGEST_SIZE  # bytes before the varint counts
MAX_ID_BITS = 32
_PREFIX = WIRE_MAGIC + WIRE_VERSION.to_bytes(2, "little")


class OmissionRecord(NamedTuple):
    """One omitted relation: where it goes and which prior triples imply it.

    `conditions` are indices into the message's reconstruction order (full
    triples first, then omissions in list order); each referenced triple is
    reconstructable strictly before this record.  A round-r record conditions
    on r - 1 triples, so the round is derived, never stored.
    """
    head: int
    tail: int
    conditions: Tuple[int, ...] = ()

    @property
    def round(self) -> int:
        return len(self.conditions) + 1


@dataclass
class CompressedMessage:
    graph_hash: bytes
    full_triples: List[Triple]
    omissions: List[OmissionRecord]

    @property
    def total_triples(self) -> int:
        return len(self.full_triples) + len(self.omissions)


class WireSize(NamedTuple):
    """Where an encoded message's bytes go.

    `header` and `total` are bytes; the rest are bits.  `records` maps a
    round to the bits of its records' heads and tails, and `conditions` is
    the bits of every condition index, so header * 8 + full_triples +
    sum(records.values()) + conditions + padding == total * 8.
    """
    header: int
    full_triples: int
    records: Dict[int, int]
    conditions: int
    padding: int
    total: int


def _full_width(w_e: int, w_r: int) -> int:
    """Bits of a full triple: head, relation, tail."""
    return 2 * w_e + w_r


def _record_width(round_no: int, w_e: int, w_c: int) -> int:
    """Bits of a round-r omission record: head, tail, r - 1 conditions."""
    return 2 * w_e + (round_no - 1) * w_c


def _section_bytes(n: int, width: int) -> int:
    """Bytes of a section of n records of `width` bits each."""
    return (n * width + 7) >> 3


def _varint(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _plan(msg: CompressedMessage):
    """What the encoder writes for `msg` before any record: (the header after
    the digest, w_e, w_r, w_c, [(round, record count) per run])."""
    if len(msg.graph_hash) != HASH_SIZE:
        raise ValidationError("graph hash must be %d bytes, got %d"
                              % (HASH_SIZE, len(msg.graph_hash)))
    full, omissions = msg.full_triples, msg.omissions
    heads, relations, tails = zip(*full) if full else ((), (), ())
    rec_heads, rec_tails, conditions = (zip(*omissions) if omissions
                                        else ((), (), ()))
    # A negative id is caught when it is packed (see encode_message).
    w_e = max(heads + tails + rec_heads + rec_tails, default=0).bit_length()
    w_r = max(relations, default=0).bit_length()
    if w_e > MAX_ID_BITS or w_r > MAX_ID_BITS:
        raise ValidationError("ids must fit in %d bits" % MAX_ID_BITS)
    if any(conditions):
        runs = [(n + 1, len(list(group)))
                for n, group in groupby(map(len, conditions))]
    else:  # round 1 only: the common case, and groupby's costliest
        runs = [(1, len(omissions))] if omissions else []
    counts = [len(full), len(runs)]
    for run in runs:
        counts += run
    header = (bytes(counts) if max(counts) < 0x80  # one byte per count
              else b"".join(map(_varint, counts)))
    w_c = max(len(full) + len(omissions) - 1, 0).bit_length()
    w_e, w_r = w_e or 1, w_r or 1
    return header + bytes((w_e, w_r)), w_e, w_r, w_c, runs


def message_size(msg: CompressedMessage) -> WireSize:
    """The encoded size of `msg`, field by field (see WireSize)."""
    counts, w_e, w_r, w_c, runs = _plan(msg)
    n_full = len(msg.full_triples)
    width = _full_width(w_e, w_r)
    full_bits = n_full * width
    padding = 8 * _section_bytes(n_full, width) - full_bits
    records: Dict[int, int] = {}
    conditions = 0
    for round_no, n in runs:
        width = _record_width(round_no, w_e, w_c)
        records[round_no] = records.get(round_no, 0) + n * 2 * w_e
        conditions += n * (width - 2 * w_e)
        padding += 8 * _section_bytes(n, width) - n * width
    header = FIXED_HEADER + len(counts)
    bits = full_bits + sum(records.values()) + conditions + padding
    return WireSize(header, full_bits, records, conditions, padding,
                    header + bits // 8)


def _pack(values: List[int], width: int) -> bytes:
    """Records of `width` bits each (all below 2 ** width) as a section.

    Each group of 8 records is one integer of `width` bytes, so the work is
    linear in the number of records.  A last, partial group is padded with
    zero records and cut to the section's size.
    """
    n = len(values)
    if n & 7:
        values = values + [0] * (8 - (n & 7))
    _, _, w2, w3, w4, w5, w6, w7 = range(0, 8 * width, width)
    return b"".join([
        (a | b << width | c << w2 | d << w3 | e << w4 | f << w5 | g << w6
         | h << w7).to_bytes(width, "little")
        for a, b, c, d, e, f, g, h in zip(*[iter(values)] * 8)
    ])[:_section_bytes(n, width)]


def _unpack(data: bytes, pos: int, n: int, width: int):
    """The n records of `width` bits in the section at data[pos:], the
    bitwise OR of them all, and the position after the section.  The caller
    has checked that the section fits."""
    end = pos + _section_bytes(n, width)
    section = data[pos:end]
    mask = (1 << width) - 1
    _, _, w2, w3, w4, w5, w6, w7 = range(0, 8 * width, width)
    values: List[int] = []
    x = groups = 0
    for at in range(0, len(section), width):  # the last group may be short
        x = int.from_bytes(section[at:at + width], "little")
        groups |= x
        values += (x & mask, x >> width & mask, x >> w2 & mask,
                   x >> w3 & mask, x >> w4 & mask, x >> w5 & mask,
                   x >> w6 & mask, x >> w7)
    if n & 7:
        if x >> (n & 7) * width:
            raise MessageDecodeError("nonzero padding bits")
        del values[n:]
    seen = 0
    while groups:  # fold the 8 record slots of the groups' OR into one
        seen |= groups & mask
        groups >>= width
    return values, seen, end


def encode_message(msg: CompressedMessage) -> bytes:
    """The message's bytes; raises ValidationError for a graph hash that is
    not 32 bytes, a negative or wider-than-32-bit id, or a condition index
    that is not below its record's reconstruction index."""
    counts, w_e, w_r, w_c, runs = _plan(msg)
    full = msg.full_triples
    rel_at, tail_at = w_e, w_e + w_r
    # A negative field makes its record and its group negative (`|` keeps
    # the sign), which `to_bytes` refuses with OverflowError.
    try:
        sections = [counts, _pack([h | r << rel_at | t << tail_at
                                   for h, r, t in full],
                                  _full_width(w_e, w_r))]
        start = len(full)  # reconstruction index of the run's first record
        for round_no, n in runs:
            run = msg.omissions[start - len(full):start - len(full) + n]
            values = [h | t << w_e for h, t, _ in run]
            if round_no > 1:
                at = 2 * w_e
                for column in zip(*[rec[2] for rec in run]):
                    # A forward index would not fit its w_c bits.
                    if not all(map(lt, column, count(start))):
                        raise ValidationError(
                            "condition index beyond reconstructable prefix")
                    values = list(map(or_, values,
                                      map(lshift, column, repeat(at))))
                    at += w_c
            sections.append(_pack(values, _record_width(round_no, w_e, w_c)))
            start += n
    except OverflowError:
        raise ValidationError("ids and condition indices must be "
                              "non-negative") from None
    head = _PREFIX + msg.graph_hash
    rest = b"".join(sections)
    digest = hashlib.blake2b(head, digest_size=DIGEST_SIZE)
    digest.update(rest)
    return head + digest.digest() + rest


def _read_varints(data: bytes, pos: int, k: int) -> Tuple[List[int], int]:
    """k LEB128 counts from data[pos:], and the position after them."""
    values = []
    while len(values) < k:
        if pos >= len(data):
            raise MessageDecodeError("truncated header")
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            values.append(byte)
            continue
        value, shift = byte & 0x7F, 7
        while True:  # at most 10 bytes: enough for any count below 2**64
            if pos >= len(data) or shift > 63:
                raise MessageDecodeError("truncated or overlong count")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        if not byte:
            raise MessageDecodeError("count not minimally encoded")
        values.append(value)
    return values, pos


def decode_message(data: bytes) -> CompressedMessage:
    """The message `encode_message` wrote; raises MessageDecodeError for any
    other bytes, a version-1 message included."""
    if len(data) < FIXED_HEADER:
        raise MessageDecodeError("buffer shorter than header")
    if data[:4] != WIRE_MAGIC:
        raise MessageDecodeError("bad magic bytes")
    version = int.from_bytes(data[4:6], "little")
    if version != WIRE_VERSION:
        raise MessageDecodeError("unsupported wire version %d" % version)
    digest = hashlib.blake2b(data[:DIGEST_OFFSET], digest_size=DIGEST_SIZE)
    digest.update(memoryview(data)[FIXED_HEADER:])
    if digest.digest() != data[DIGEST_OFFSET:FIXED_HEADER]:
        raise MessageDecodeError("message digest mismatch")

    # Every count is checked against the bytes that follow before anything
    # is allocated for it.
    (n_full, n_runs), pos = _read_varints(data, FIXED_HEADER, 2)
    if 2 * n_runs + 2 > len(data) - pos:  # runs take two bytes, widths two
        raise MessageDecodeError("truncated header")
    table, pos = _read_varints(data, pos, 2 * n_runs)
    runs = list(zip(table[0::2], table[1::2]))  # (round, count) per run
    if pos + 2 > len(data):
        raise MessageDecodeError("truncated header")
    w_e, w_r = data[pos], data[pos + 1]
    pos += 2
    if not (1 <= w_e <= MAX_ID_BITS and 1 <= w_r <= MAX_ID_BITS):
        raise MessageDecodeError("id width outside 1..%d bits" % MAX_ID_BITS)
    w_c = max(n_full + sum(table[1::2]) - 1, 0).bit_length()
    size = _section_bytes(n_full, _full_width(w_e, w_r))
    previous = 0
    for round_no, n in runs:
        if not round_no or not n or round_no == previous:
            raise MessageDecodeError(
                "runs must be non-empty and maximal, with rounds from 1")
        size += _section_bytes(n, _record_width(round_no, w_e, w_c))
        previous = round_no
    # A record conditions only on triples before it, so a later-round first
    # run needs a full triple ahead of it.  This also stops a one-triple
    # message (w_c == 0: conditions of no bits) from claiming a huge round.
    if runs and runs[0][0] > 1 and not n_full:
        raise MessageDecodeError("forward condition reference")
    if size != len(data) - pos:
        raise MessageDecodeError("body is %d bytes, header declares %d"
                                 % (len(data) - pos, size))

    # Every record is at least 2 bits and every condition 1 bit, so what is
    # built below is bounded by the body's size.
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    values, seen, pos = _unpack(data, pos, n_full, _full_width(w_e, w_r))
    e_mask, r_mask = (1 << w_e) - 1, (1 << w_r) - 1
    rel_at, tail_at = w_e, w_e + w_r
    # The OR of a field over all records has the bit length of its largest
    # value, which fixes the width the encoder would have chosen.
    entities = seen & e_mask | seen >> tail_at
    relations = seen >> rel_at & r_mask
    full = [new(Triple, (v & e_mask, v >> rel_at & r_mask, v >> tail_at))
            for v in values]
    omissions: List[OmissionRecord] = []
    start = n_full
    c_mask = repeat((1 << w_c) - 1)
    for round_no, n in runs:
        width = _record_width(round_no, w_e, w_c)
        values, seen, pos = _unpack(data, pos, n, width)
        entities |= seen & e_mask | seen >> w_e & e_mask
        columns = [list(map(and_, map(rshift, values,
                                      repeat(2 * w_e + k * w_c)), c_mask))
                   for k in range(round_no - 1)]
        for column in columns:
            if not all(map(lt, column, count(start))):
                raise MessageDecodeError("forward condition reference")
        omissions += [new(OmissionRecord, (v & e_mask, v >> w_e & e_mask, c))
                      for v, c in zip(values, zip(*columns) if columns
                                      else repeat(()))]
        start += n
    if ((entities.bit_length() or 1) != w_e
            or (relations.bit_length() or 1) != w_r):
        raise MessageDecodeError("id widths are not the smallest that fit")
    return CompressedMessage(bytes(data[6:DIGEST_OFFSET]), full, omissions)
