"""Relation-omission compression against a shared probability graph.

The sender omits a triple's relation when the receiver can re-derive it as
the unique argmax of the (conditional) relation distribution for the triple's
(head, tail) pair.  Round 1 uses unconditional probabilities; round r >= 2
conditions on (r-1)-tuples of previously omitted triples and repeats in
cycles until a cycle omits nothing.  Decompression replays the argmax in
message order, so the scheme is lossless by construction.
"""

import hashlib
import struct
from dataclasses import dataclass, field
from math import comb
from typing import List, NamedTuple, Optional, Tuple

from .errors import (CorruptMessageError, IncompatibleKnowledgeError,
                     MessageDecodeError, SemcompError, ValidationError)
from .kg import KnowledgeGraph, Triple
from .probgraph import ProbabilityGraph, unique_max_relation

WIRE_MAGIC = b"SCMP"
WIRE_VERSION = 1
DEFAULT_MAX_ROUND = 2


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


@dataclass
class StageStats:
    """One compression stage: round 1, or one cycle of a later round."""
    round: int
    cycle: int  # 0 for round 1, else 1-based cycle number
    candidates: int  # triples still unomitted when the stage began
    omitted: int


@dataclass
class CompressionReport:
    """Per-stage outcomes and two work counters.

    `comparison_count` is the count the energy model prices: one comparison
    per relation on the pair for every candidate in round 1, and for every
    condition tuple the plain lexicographic scan of a later round would
    examine, up to and including the first hit, undefined tuples included.
    `combinations_evaluated` is the number of condition tuples whose counts
    the pruned search actually computed; it never exceeds the tuples that
    `comparison_count` charges for.
    """
    stages: List[StageStats] = field(default_factory=list)
    comparison_count: int = 0
    combinations_evaluated: int = 0

    def observed_ratios(self) -> List[float]:
        """Per-stage omitted/candidates ratios (zero-candidate stages skipped)."""
        return [s.omitted / s.candidates for s in self.stages if s.candidates]


def _first_condition(g: ProbabilityGraph, t: Triple, cond: List[int],
                     width: int, report: CompressionReport
                     ) -> Optional[Tuple[int, ...]]:
    """First `width`-tuple of indices into `cond`, in ascending lexicographic
    order, whose event makes `t.relation` the unique argmax on t's pair.

    A depth-first walk over combinations(range(len(cond)), width) that
    carries the intersection of the pair's union with the chosen condition
    bitsets.  A subtree is skipped when, inside that prefix P, the target's
    support is empty or a subset of another relation's support: every event
    E within P then gives the target a count no larger than that relation's,
    so no tuple below it is a hit.  Skipped tuples are still charged to
    `report.comparison_count` (see CompressionReport).
    """
    n = len(cond)
    if n < width:
        return None
    rel_bits, union = g.pair_bits(t.head, t.tail)
    mine = rel_bits[t.relation]
    others = [b for rid, b in rel_bits.items() if rid != t.relation]
    skipped = evaluated = 0

    def dominated(prefix):
        hits = mine & prefix
        return not hits or any(hits & b == hits for b in others)

    def walk(start, depth, prefix):
        nonlocal skipped, evaluated
        rest = width - depth - 1  # indices still to choose after this one
        if rest == 0:
            for i in range(start, n):
                event = prefix & cond[i]
                evaluated += 1
                # unique_max_relation(counts) == t.relation, without building
                # the counts: about half the search time on skewed messages.
                count = (mine & event).bit_count()
                if not count:
                    continue
                for b in others:
                    if (b & event).bit_count() >= count:
                        break
                else:
                    return (i,)
            return None
        for i in range(start, n - rest):
            event = prefix & cond[i]
            if dominated(event):
                skipped += comb(n - 1 - i, rest)
                continue
            found = walk(i + 1, depth + 1, event)
            if found is not None:
                return (i,) + found
        return None

    if dominated(union):
        found, skipped = None, comb(n, width)
    else:
        found = walk(0, 0, union)
    report.comparison_count += (skipped + evaluated) * len(rel_bits)
    report.combinations_evaluated += evaluated
    return found


def compress(g: ProbabilityGraph, kg: KnowledgeGraph,
             max_round: int = DEFAULT_MAX_ROUND):
    """Compress one knowledge graph; returns (CompressedMessage, CompressionReport).

    Deterministic: candidates are scanned in input order and condition tuples
    in ascending lexicographic index order, with the first qualifying tuple
    recorded.
    """
    if max_round < 1:
        raise ValidationError("max_round must be >= 1")

    triples = list(kg.triples)
    report = CompressionReport()
    remaining_total = len(triples)

    # (triple, conditions as positions in this list), omission order
    omitted: List[Tuple[Triple, Tuple[int, ...]]] = []

    # Round 1: unconditional unique-mode relations.
    round1_omitted = 0
    still: List[Triple] = []
    for t in triples:
        quad = g.quadruples.get((t.head, t.tail))
        # A triple whose pair (or relation) is absent from the graph can never
        # be reconstructed, so it is a permanent pass-through full triple.
        if quad is None or all(rid != t.relation for rid, _ in quad.relations):
            continue
        report.comparison_count += len(quad.relations)
        if g.round1_verdict(t.head, t.tail) == t.relation:
            omitted.append((t, ()))
            round1_omitted += 1
        else:
            still.append(t)
    report.stages.append(StageStats(1, 0, remaining_total, round1_omitted))
    remaining_total -= round1_omitted
    candidates = still

    for round_no in range(2, max_round + 1):
        width = round_no - 1
        cycle = 0
        while True:
            cycle += 1
            # The O-set is frozen for this cycle: one bitset per omitted triple.
            cond = ([g.pair_bits(o.head, o.tail)[0][o.relation]
                     for o, _ in omitted] if candidates else [])
            cycle_omitted = 0
            still = []
            for t in candidates:
                chosen = _first_condition(g, t, cond, width, report)
                if chosen is not None:
                    omitted.append((t, chosen))
                    cycle_omitted += 1
                else:
                    still.append(t)
            report.stages.append(
                StageStats(round_no, cycle, remaining_total, cycle_omitted))
            remaining_total -= cycle_omitted
            candidates = still
            if cycle_omitted == 0:
                break

    omitted_set = {t for t, _ in omitted}
    full = [t for t in triples if t not in omitted_set]
    offset = len(full)
    # Round-1 records skip the generator: on round-1-only messages it cost
    # about half as much again as building the records.
    records = [
        OmissionRecord(t.head, t.tail,
                       tuple(offset + i for i in chosen) if chosen else ())
        for t, chosen in omitted]
    msg = CompressedMessage(g.content_hash, full, records)
    return msg, report


def decompress(g: ProbabilityGraph, msg: CompressedMessage) -> KnowledgeGraph:
    """Reconstruct the original knowledge graph (as a triple set)."""
    if msg.graph_hash != g.content_hash:
        raise IncompatibleKnowledgeError(
            "message was compressed against different background knowledge")

    recon: List[Triple] = list(msg.full_triples)
    for i, rec in enumerate(msg.omissions):
        limit = len(msg.full_triples) + i
        if any(not 0 <= c < limit for c in rec.conditions):
            raise CorruptMessageError(
                "condition index beyond reconstructable prefix")
        try:
            if rec.conditions:
                counts, denom = g.relation_counts(
                    rec.head, rec.tail, [recon[c] for c in rec.conditions])
                rid = unique_max_relation(counts)
            else:  # every relation on a pair has a sample: denom >= 1
                rid, denom = g.round1_verdict(rec.head, rec.tail), 1
        except SemcompError as exc:
            raise CorruptMessageError(str(exc)) from exc
        if denom == 0:
            raise CorruptMessageError("empty conditioning event")
        if rid is None:
            raise CorruptMessageError(
                "ambiguous argmax while reconstructing (%d, %d)"
                % (rec.head, rec.tail))
        recon.append(Triple(rec.head, rid, rec.tail))

    try:
        return KnowledgeGraph(recon)
    except ValidationError as exc:
        raise CorruptMessageError(str(exc)) from exc


# -- wire format ------------------------------------------------------------
#
# header: magic 'SCMP', version u16, graph_hash 32B, J u32, E u32,
#         digest 32B = sha256 over everything else (header fields + body),
#         so any single corrupted byte is detected
# body:   (J - E) full triples as three u32 ids, then E omission records as
#         head u32, tail u32, round u8, (round - 1) u32 condition indices.
# All integers little-endian.

_HEADER = struct.Struct("<4sH32sII32s")


def _message_digest(magic, version, graph_hash, j, e, body):
    prefix = struct.pack("<4sH32sII", magic, version, graph_hash, j, e)
    return hashlib.sha256(prefix + body).digest()


def encode_message(msg: CompressedMessage) -> bytes:
    body = bytearray()
    for t in msg.full_triples:
        body.extend(struct.pack("<III", t.head, t.relation, t.tail))
    for rec in msg.omissions:
        body.extend(struct.pack("<IIB", rec.head, rec.tail, rec.round))
        for c in rec.conditions:
            body.extend(struct.pack("<I", c))
    body = bytes(body)
    digest = _message_digest(WIRE_MAGIC, WIRE_VERSION, msg.graph_hash,
                             msg.total_triples, len(msg.omissions), body)
    header = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, msg.graph_hash,
                          msg.total_triples, len(msg.omissions), digest)
    return header + body


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
    if _message_digest(magic, version, graph_hash, j, e, body) != digest:
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
