"""Wire codec for compressed messages: the `SCMP` format, version 3.

Sender and receiver hold the same probability graph, so a message names a
triple by its place in that graph: the index of its (head, tail) pair in
`ProbabilityGraph.pair_table` and the rank of its relation among the pair's
`Quadruple.relations`.  Only a triple whose pair or relation the graph lacks
is sent with its ids.  A message is a header and a body of bit-packed
records:

    offset  size  field
    0       4     magic b"SCMP"
    4       2     version, u16 little-endian (3)
    6       32    graph hash
    38      16    digest: blake2b-128 over every other byte of the message
    54      var   counts of known and of escaped triples (unsigned LEB128)
            var   count of runs (LEB128): maximal blocks of consecutive
                  omission records of one round
            var   per run, its round and its record count (LEB128 each)
            1     w_p, the pair index width in bits (1..32)
            1     w_k, the rank width in bits (0..32)
            1     w_e, the entity id width in bits (1..32)    } only with
            1     w_r, the relation id width in bits (1..32)  } escapes

The body is the known section, the escaped section, then one section per
run, in order.  A section holds fixed-width records packed 8 at a time: 8
records of w bits fill exactly w bytes, read as one little-endian integer
whose lowest bits hold the first record.  A last group of k < 8 records
takes ceil(k * w / 8) bytes, its unused high bits zero.  Within a record the
fields run from the lowest bits up:

    known triple      pair index, rank                w_p + w_k bits
    escaped triple    head, relation, tail            2*w_e + w_r bits
    round-r record    pair index, r - 1 condition     w_p + (r-1)*w_c bits
                      indices of w_c bits each

Each width is the bit length of the largest value of its field in the
message; w_p, w_e and w_r are at least 1, so every record takes a bit.
w_c = (J - 1).bit_length() for a message of J triples: a condition indexes
a triple reconstructed earlier, so it is below J - 1.  `condition_width`
and `rank_width` are the one statement of w_c and of w_k;
`compressor.compress` reads them too, to skip a later round whose records
could not be smaller than the known triples they replace.  `_sections` is
the one statement of the body: its sections in order, each as a record
count and a record width.  `message_size` sums over that list,
`encode_message` packs along it and `decode_message` checks the declared
body size against it and unpacks along it, so the encoder's output is
always `message_size`'s total.  The decoder rejects any other width, and
escape widths in a message with no escaped triple, so a message has one
encoding.  Decoding needs no graph: pair indices and ranks are resolved by
`compressor.decompress`.
Any other version, versions 1 and 2 included, is rejected.
"""

import hashlib
from dataclasses import dataclass
from itertools import count, groupby, repeat
from operator import and_, lshift, lt, or_, rshift
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .errors import MessageDecodeError, ValidationError
from .kg import Triple

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


def rank_width(ranks: Iterable[int]) -> int:
    """w_k: the bit length of the largest of the known triples' ranks."""
    return max(ranks, default=0).bit_length()


def _section_bytes(n: int, width: int) -> int:
    """Bytes of a section of n records of `width` bits each."""
    return (n * width + 7) >> 3


def _sections(n_known: int, n_escaped: int, runs: List[Tuple[int, int]],
              n_total: int, w_p: int, w_k: int, w_e: int, w_r: int
              ) -> List[Tuple[int, int]]:
    """The body of a message of `n_total` triples with these counts, runs
    ((round, record count) each) and widths: (record count, record width)
    per section, in body order.  A known triple is w_p + w_k bits, an
    escaped one 2 * w_e + w_r, and a round-r record w_p + (r - 1) * w_c."""
    w_c = condition_width(n_total)
    return [(n_known, w_p + w_k), (n_escaped, 2 * w_e + w_r),
            *[(n, w_p + (round_no - 1) * w_c) for round_no, n in runs]]


def _plan(msg: CompressedMessage):
    """What the encoder writes for `msg` before any record: the header
    after the digest, the widths (w_p, w_k, w_e, w_r), w_e and w_r 0 when
    there is no escaped triple, the runs ((round, record count) each) and
    the body's `_sections`."""
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
    header = bytearray()
    for n in counts:  # unsigned LEB128: 7 bits a byte, lowest first
        while n > 0x7F:
            header.append(n & 0x7F | 0x80)
            n >>= 7
        header.append(n)
    widths = (w_p, w_k, w_e, w_r)
    header.extend(widths if escaped else widths[:2])
    sections = _sections(len(known), len(escaped), runs, msg.total_triples,
                         *widths)
    return header, widths, runs, sections


def message_size(msg: CompressedMessage) -> WireSize:
    """The encoded size of `msg`, field by field (see WireSize)."""
    counts_and_widths, (w_p, _, _, _), runs, sections = _plan(msg)
    bits = [n * width for n, width in sections]
    records: Dict[int, int] = {}
    for round_no, n in runs:
        records[round_no] = records.get(round_no, 0) + n * w_p
    body = sum(_section_bytes(n, width) for n, width in sections)
    header = FIXED_HEADER + len(counts_and_widths)
    return WireSize(header, bits[0], bits[1], records,
                    sum(bits[2:]) - sum(records.values()),
                    8 * body - sum(bits), header + body)


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
    header, (w_p, _, w_e, w_r), runs, sections = _plan(msg)
    (_, known_width), (_, escaped_width), *run_sections = sections
    rel_at, tail_at = w_e, w_e + w_r
    w_c = condition_width(msg.total_triples)
    # A negative field makes its record and its group negative (`|` keeps
    # the sign), which `to_bytes` refuses with OverflowError.
    try:
        body = [header,
                _pack([p | k << w_p for p, k in msg.known], known_width),
                _pack([h | r << rel_at | t << tail_at
                       for h, r, t in msg.escaped], escaped_width)]
        n_full = start = len(msg.known) + len(msg.escaped)
        for (round_no, n), (_, width) in zip(runs, run_sections):
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
                    at += w_c
            body.append(_pack(values, width))
            start += n
    except OverflowError:
        raise ValidationError("pair indices, ranks, ids and condition "
                              "indices must be non-negative") from None
    rest = b"".join(body)
    head = _PREFIX + msg.graph_hash
    digest = hashlib.blake2b(head, digest_size=DIGEST_SIZE)
    digest.update(rest)
    return head + digest.digest() + rest


def _read_varints(data: bytes, pos: int, k: int) -> Tuple[List[int], int]:
    """k LEB128 counts from data[pos:], and the position after them."""
    values = []
    for _ in range(k):
        value = shift = 0
        while True:  # at most 10 bytes: enough for any count below 2**64
            if pos >= len(data) or shift > 63:
                raise MessageDecodeError("truncated or overlong count"
                                         if shift else "truncated header")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        if not byte and shift:  # a last byte of 0 adds nothing
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
    previous = 0
    for round_no, n in runs:
        if not round_no or not n or round_no == previous:
            raise MessageDecodeError(
                "runs must be non-empty and maximal, with rounds from 1")
        previous = round_no
    # A record conditions only on triples before it, so a later-round first
    # run needs a full triple ahead of it.  This also stops a one-triple
    # message (w_c == 0: conditions of no bits) from claiming a huge round.
    if runs and runs[0][0] > 1 and not n_full:
        raise MessageDecodeError("forward condition reference")
    sections = _sections(n_known, n_escaped, runs, n_total, w_p, w_k, w_e,
                         w_r)
    size = 0
    for n, width in sections:
        size += _section_bytes(n, width)
    if size != len(data) - pos:
        raise MessageDecodeError("body is %d bytes, header declares %d"
                                 % (len(data) - pos, size))

    # Every record is at least 1 bit and every condition 1 bit, so what is
    # built below is bounded by the body's size.  The OR of a field over
    # all records has the bit length of its largest value, which fixes the
    # width the encoder would have chosen.
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    (_, known_width), (_, escaped_width), *run_sections = sections
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
    w_c = condition_width(n_total)
    c_mask = repeat((1 << w_c) - 1)
    for (round_no, n), (_, width) in zip(runs, run_sections):
        values, seen, pos = _unpack(data, pos, n, width)
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
