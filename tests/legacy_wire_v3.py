"""Reference wire codec: `SCMP` version 3 as it was before its body layout
was written as one section list, kept as the oracle for test_wire.py, with
its message types.

The code is the replaced codec unchanged, with the package's relative
imports made absolute.  Its messages are version 3 messages: the same
fields as `semcomp.wire`'s types, so a test compares them field by field.
"""

import hashlib
from dataclasses import dataclass
from itertools import count, groupby, repeat
from operator import and_, lshift, lt, or_, rshift
from typing import Dict, Iterable, List, NamedTuple, Tuple

from semcomp.errors import MessageDecodeError, ValidationError
from semcomp.kg import Triple

WIRE_MAGIC = b"SCMP"
WIRE_VERSION = 3
HASH_SIZE = 32
DIGEST_OFFSET = 6 + HASH_SIZE
DIGEST_SIZE = 16
FIXED_HEADER = DIGEST_OFFSET + DIGEST_SIZE  # bytes before the varint counts
MAX_ID_BITS = 32
_PREFIX = WIRE_MAGIC + WIRE_VERSION.to_bytes(2, "little")


class OmissionRecord(NamedTuple):
    """One omitted relation: its pair and which prior triples imply it.

    `pair` is the pair's index in the graph's `pair_table`.  `conditions`
    are indices into the message's reconstruction order (known triples,
    then escaped triples, then omissions in list order); each referenced
    triple is reconstructable strictly before this record.  A round-r
    record conditions on r - 1 triples, so the round is derived, never
    stored.
    """
    pair: int
    conditions: Tuple[int, ...] = ()

    @property
    def round(self) -> int:
        return len(self.conditions) + 1


@dataclass
class CompressedMessage:
    """A message in reconstruction order: `known` holds a (pair index, rank)
    tuple per full triple the graph holds, `escaped` the full triples it
    does not, and `omissions` the records the receiver re-derives."""
    graph_hash: bytes
    known: List[Tuple[int, int]]
    escaped: List[Triple]
    omissions: List[OmissionRecord]

    @property
    def total_triples(self) -> int:
        return len(self.known) + len(self.escaped) + len(self.omissions)


class WireSize(NamedTuple):
    """Where an encoded message's bytes go.

    `header` and `total` are bytes; the rest are bits.  `records` maps a
    round to the bits of its records' pair indices, and `conditions` is the
    bits of every condition index, so header * 8 + known + escaped +
    sum(records.values()) + conditions + padding == total * 8.
    """
    header: int
    known: int
    escaped: int
    records: Dict[int, int]
    conditions: int
    padding: int
    total: int


def condition_width(total_triples: int) -> int:
    """w_c: the bits of a condition index in a message of J =
    `total_triples` triples.  A condition names a triple reconstructed
    before its record, so it is below J - 1."""
    return max(total_triples - 1, 0).bit_length()


def record_width(round_no: int, total_triples: int, w_p: int) -> int:
    """Bits of a round-r omission record in a message of J = `total_triples`
    triples: its pair index of `w_p` bits, then r - 1 condition indices of
    `condition_width(J)` bits each."""
    return w_p + (round_no - 1) * condition_width(total_triples)


def rank_width(ranks: Iterable[int]) -> int:
    """w_k: the bit length of the largest of the known triples' ranks."""
    return max(ranks, default=0).bit_length()


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


class _Plan(NamedTuple):
    """What the encoder writes for a message before any record."""
    header: bytes  # the header after the digest
    w_p: int
    w_k: int
    w_e: int  # 0 when there is no escaped triple, as w_r
    w_r: int
    w_c: int
    runs: List[Tuple[int, int]]  # (round, record count) per run

    @property
    def known_width(self) -> int:
        return self.w_p + self.w_k

    @property
    def escaped_width(self) -> int:
        return 2 * self.w_e + self.w_r


def _plan(msg: CompressedMessage) -> _Plan:
    if len(msg.graph_hash) != HASH_SIZE:
        raise ValidationError("graph hash must be %d bytes, got %d"
                              % (HASH_SIZE, len(msg.graph_hash)))
    known, escaped, omissions = msg.known, msg.escaped, msg.omissions
    pairs, ranks = zip(*known) if known else ((), ())
    rec_pairs, conditions = zip(*omissions) if omissions else ((), ())
    # A negative field is caught when it is packed (see encode_message).
    w_p = max(pairs + rec_pairs, default=0).bit_length() or 1
    w_k = rank_width(ranks)
    w_e = w_r = 0
    if escaped:
        heads, relations, tails = zip(*escaped)
        w_e = max(heads + tails).bit_length() or 1
        w_r = max(relations).bit_length() or 1
    if max(w_p, w_k, w_e, w_r) > MAX_ID_BITS:
        raise ValidationError("pair indices, ranks and ids must fit in %d "
                              "bits" % MAX_ID_BITS)
    if any(conditions):
        runs = [(n + 1, len(list(group)))
                for n, group in groupby(map(len, conditions))]
    else:  # round 1 only: the common case, and groupby's costliest
        runs = [(1, len(omissions))] if omissions else []
    counts = [len(known), len(escaped), len(runs)]
    for run in runs:
        counts += run
    header = (bytes(counts) if max(counts) < 0x80  # one byte per count
              else b"".join(map(_varint, counts)))
    widths = (w_p, w_k, w_e, w_r) if escaped else (w_p, w_k)
    w_c = condition_width(msg.total_triples)
    return _Plan(header + bytes(widths), w_p, w_k, w_e, w_r, w_c, runs)


def message_size(msg: CompressedMessage) -> WireSize:
    """The encoded size of `msg`, field by field (see WireSize)."""
    plan = _plan(msg)
    known = len(msg.known) * plan.known_width
    escaped = len(msg.escaped) * plan.escaped_width
    padding = (8 * _section_bytes(len(msg.known), plan.known_width) - known
               + 8 * _section_bytes(len(msg.escaped), plan.escaped_width)
               - escaped)
    records: Dict[int, int] = {}
    conditions = 0
    for round_no, n in plan.runs:
        width = record_width(round_no, msg.total_triples, plan.w_p)
        records[round_no] = records.get(round_no, 0) + n * plan.w_p
        conditions += n * (width - plan.w_p)
        padding += 8 * _section_bytes(n, width) - n * width
    header = FIXED_HEADER + len(plan.header)
    bits = known + escaped + sum(records.values()) + conditions + padding
    return WireSize(header, known, escaped, records, conditions, padding,
                    header + bits // 8)


def _pack(values: List[int], width: int) -> bytes:
    """Records of `width` bits each (all below 2 ** width) as a section.

    Each group of 8 records is one integer of `width` bytes, so the work is
    linear in the number of records.  A last, partial group is padded with
    zero records and cut to the section's size.
    """
    n = len(values)
    if not n:  # also the escaped section's width 0 when it is empty
        return b""
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
    not 32 bytes, a negative or wider-than-32-bit pair index, rank or id, or
    a condition index that is not below its record's reconstruction index."""
    plan = _plan(msg)
    w_p, w_e, w_r = plan.w_p, plan.w_e, plan.w_r
    rel_at, tail_at = w_e, w_e + w_r
    # A negative field makes its record and its group negative (`|` keeps
    # the sign), which `to_bytes` refuses with OverflowError.
    try:
        sections = [plan.header,
                    _pack([p | k << w_p for p, k in msg.known],
                          plan.known_width),
                    _pack([h | r << rel_at | t << tail_at
                           for h, r, t in msg.escaped],
                          plan.escaped_width)]
        n_full = start = len(msg.known) + len(msg.escaped)
        for round_no, n in plan.runs:
            # `start` is the reconstruction index of the run's first record
            run = msg.omissions[start - n_full:start - n_full + n]
            values = [rec[0] for rec in run]
            if round_no > 1:
                at = w_p
                for column in zip(*[rec[1] for rec in run]):
                    # A forward index would not fit its w_c bits.
                    if not all(map(lt, column, count(start))):
                        raise ValidationError(
                            "condition index beyond reconstructable prefix")
                    values = list(map(or_, values,
                                      map(lshift, column, repeat(at))))
                    at += plan.w_c
            sections.append(_pack(values, record_width(
                round_no, msg.total_triples, w_p)))
            start += n
    except OverflowError:
        raise ValidationError("pair indices, ranks, ids and condition "
                              "indices must be non-negative") from None
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
    other bytes, a message of version 1 or 2 included."""
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
    (n_known, n_escaped, n_runs), pos = _read_varints(data, FIXED_HEADER, 3)
    if 2 * n_runs + 2 > len(data) - pos:  # runs take two bytes, widths two
        raise MessageDecodeError("truncated header")
    table, pos = _read_varints(data, pos, 2 * n_runs)
    runs = list(zip(table[0::2], table[1::2]))  # (round, count) per run
    n_widths = 4 if n_escaped else 2
    if pos + n_widths > len(data):
        raise MessageDecodeError("truncated header")
    w_p, w_k = data[pos], data[pos + 1]
    w_e, w_r = (data[pos + 2], data[pos + 3]) if n_escaped else (0, 0)
    pos += n_widths
    if not (1 <= w_p <= MAX_ID_BITS and w_k <= MAX_ID_BITS):
        raise MessageDecodeError("pair or rank width outside its range")
    if n_escaped and not (1 <= w_e <= MAX_ID_BITS
                          and 1 <= w_r <= MAX_ID_BITS):
        raise MessageDecodeError("id width outside 1..%d bits" % MAX_ID_BITS)
    n_full = n_known + n_escaped
    n_total = n_full + sum(table[1::2])
    w_c = condition_width(n_total)
    known_width, escaped_width = w_p + w_k, 2 * w_e + w_r
    size = (_section_bytes(n_known, known_width)
            + _section_bytes(n_escaped, escaped_width))
    previous = 0
    for round_no, n in runs:
        if not round_no or not n or round_no == previous:
            raise MessageDecodeError(
                "runs must be non-empty and maximal, with rounds from 1")
        size += _section_bytes(n, record_width(round_no, n_total, w_p))
        previous = round_no
    # A record conditions only on triples before it, so a later-round first
    # run needs a full triple ahead of it.  This also stops a one-triple
    # message (w_c == 0: conditions of no bits) from claiming a huge round.
    if runs and runs[0][0] > 1 and not n_full:
        raise MessageDecodeError("forward condition reference")
    if size != len(data) - pos:
        raise MessageDecodeError("body is %d bytes, header declares %d"
                                 % (len(data) - pos, size))

    # Every record is at least 1 bit and every condition 1 bit, so what is
    # built below is bounded by the body's size.  The OR of a field over
    # all records has the bit length of its largest value, which fixes the
    # width the encoder would have chosen.
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    values, seen, pos = _unpack(data, pos, n_known, known_width)
    p_mask = (1 << w_p) - 1
    pairs, ranks = seen & p_mask, seen >> w_p
    known = [(v & p_mask, v >> w_p) for v in values]
    escaped: List[Triple] = []
    if n_escaped:
        values, seen, pos = _unpack(data, pos, n_escaped, escaped_width)
        e_mask, r_mask = (1 << w_e) - 1, (1 << w_r) - 1
        rel_at, tail_at = w_e, w_e + w_r
        if ((seen & e_mask | seen >> tail_at).bit_length() or 1) != w_e \
                or ((seen >> rel_at & r_mask).bit_length() or 1) != w_r:
            raise MessageDecodeError(
                "id widths are not the smallest that fit")
        escaped = [new(Triple, (v & e_mask, v >> rel_at & r_mask,
                                v >> tail_at)) for v in values]
    omissions: List[OmissionRecord] = []
    start = n_full
    c_mask = repeat((1 << w_c) - 1)
    for round_no, n in runs:
        values, seen, pos = _unpack(data, pos, n,
                                    record_width(round_no, n_total, w_p))
        pairs |= seen & p_mask
        columns = [list(map(and_, map(rshift, values,
                                      repeat(w_p + k * w_c)), c_mask))
                   for k in range(round_no - 1)]
        for column in columns:
            if not all(map(lt, column, count(start))):
                raise MessageDecodeError("forward condition reference")
        omissions += [new(OmissionRecord, (v & p_mask, c))
                      for v, c in zip(values, zip(*columns) if columns
                                      else repeat(()))]
        start += n
    if (pairs.bit_length() or 1) != w_p or ranks.bit_length() != w_k:
        raise MessageDecodeError(
            "pair and rank widths are not the smallest that fit")
    return CompressedMessage(bytes(data[6:DIGEST_OFFSET]), known, escaped,
                             omissions)
