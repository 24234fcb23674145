"""Shared probability graph: merged quadruple store and probability queries.

Each (head, tail) pair maps to one quadruple holding the candidate relations
with the sample sets that support them.  Probabilities are exact integer-count
ratios (fractions.Fraction) so argmax comparisons are tie-exact.

A `.spgr` file is magic b"SPGR", the u16 version (2), u32 N and u32 pair
count, a sha256 digest, and the body.  The digest covers the version, N, the
pair count and the body, and it is the graph's `content_hash`.  The body
lists the quadruples in `ProbabilityGraph.pair_table` order, which is also
the order in which a message names a pair by its index.

A graph keeps its `.spgr` bytes once they are written or read: `to_bytes`
returns them and `content_hash` is their digest, so the file is written at
most once, and `from_bytes` keeps the bytes it checked.  The memory cost is
one file size.
"""

import hashlib
import struct
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import Dict, List, Optional, Tuple

from .errors import (GraphDecodeError, PairNotFoundError, RelationNotFoundError,
                     UndefinedProbabilityError, ValidationError)
from .kg import Corpus, Interner, Triple

FORMAT_MAGIC = b"SPGR"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class Quadruple:
    """One (head, tail) pair's state: its relations and what they imply.

    `bits`, `triples` and `verdict` are derived from `relations` on first
    use and kept on the quadruple, so a pair no query touches holds none.
    """
    head: int
    tail: int
    # (relation id, sorted tuple of supporting sample ids), sorted by relation
    relations: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def support(self, relation: int) -> Tuple[int, ...]:
        for rid, samples in self.relations:
            if rid == relation:
                return samples
        raise _missing_relation(self.head, relation, self.tail)

    @cached_property
    def bits(self) -> Tuple[Dict[int, int], int]:
        """({relation: support bitset}, union bitset); bit i is set when
        sample i supports the relation."""
        bitsets = {rid: sum(1 << sid for sid in samples)
                   for rid, samples in self.relations}
        union = 0
        for b in bitsets.values():
            union |= b
        return bitsets, union

    @cached_property
    def triples(self) -> Tuple[Triple, ...]:
        """The pair's triples in relation order: a relation's rank on the
        pair is its triple's index here."""
        return tuple(Triple(self.head, rid, self.tail)
                     for rid, _ in self.relations)

    @cached_property
    def verdict(self) -> Optional[int]:
        """The relation a round-1 omission on the pair stands for: the one
        with the strictly largest unconditional count, or None on a tie."""
        return unique_max_relation(
            (rid, len(samples)) for rid, samples in self.relations)


def unique_max_relation(counts) -> Optional[int]:
    """Relation id with the strictly largest count, or None on a tie."""
    best_rid, best, tie = None, -1, False
    for rid, count in counts:
        if count > best:
            best_rid, best, tie = rid, count, False
        elif count == best:
            tie = True
    return None if tie else best_rid


def _digest(counts: bytes, body) -> bytes:
    """The file digest and content hash: sha256 over the header's version, N
    and pair count, then the body, so no header field escapes it."""
    digest = hashlib.sha256(counts)
    digest.update(body)
    return digest.digest()


def _missing_relation(head, relation, tail) -> RelationNotFoundError:
    return RelationNotFoundError(
        "relation %d not present on pair (%d, %d)" % (relation, head, tail))


class ProbabilityGraph:
    """Immutable after build; every query is read-only."""

    def __init__(self, quadruples: Dict[Tuple[int, int], Quadruple],
                 n_samples: int, entities: Interner, relations: Interner):
        self.quadruples = quadruples
        self.n_samples = n_samples
        self.entities = entities
        self.relations = relations

    @property
    def n_pairs(self) -> int:
        return len(self.quadruples)

    @cached_property
    def pair_table(self) -> List[Quadruple]:
        """The quadruples in ascending (head, tail) order: the `.spgr` body's
        order, and the order in which a message's pair index counts."""
        quadruples = self.quadruples
        return [quadruples[pair] for pair in sorted(quadruples)]

    @cached_property
    def pair_index(self) -> Dict[Tuple[int, int], int]:
        """(head, tail) -> the pair's position in `pair_table`."""
        return {(quad.head, quad.tail): i
                for i, quad in enumerate(self.pair_table)}

    def pair(self, head: int, tail: int) -> Quadruple:
        quad = self.quadruples.get((head, tail))
        if quad is None:
            raise PairNotFoundError("no quadruple for pair (%d, %d)" % (head, tail))
        return quad

    @property
    def content_hash(self) -> bytes:
        return self._file[1]

    # -- probability queries ------------------------------------------------

    def relation_counts(self, head: int, tail: int, given=()
                        ) -> Tuple[List[Tuple[int, int]], int]:
        """Integer count per relation on the pair, and the denominator.

        This is the conditioning rule: the receiver's replay of a
        conditioned record and the probability queries read it, and the
        sender's search in `compressor` tests it inline on the same bitsets.
        A round-1 record is replayed from `Quadruple.verdict`, the unique
        argmax of the unconditional counts.
        Returns ([(relation id, count), ...] in relation order, denominator).
        With empty `given` each count is |N_r| and the denominator is their
        sum.  Otherwise the conditioning event is the intersection of the
        supports of the `given` triples, each count is |N_r & event| and the
        denominator is |event & union of the pair's supports|; 0 means the
        condition is unusable.  Raises PairNotFoundError or
        RelationNotFoundError for a pair or triple absent from the graph.
        """
        if not given:
            counts, total = [], 0
            for rid, samples in self.pair(head, tail).relations:
                counts.append((rid, len(samples)))
                total += len(samples)
            return counts, total
        bitsets, event = self.pair(head, tail).bits
        for g_triple in given:
            g_set = self.pair(g_triple.head, g_triple.tail).bits[0].get(
                g_triple.relation)
            if g_set is None:
                raise _missing_relation(*g_triple)
            event &= g_set
        return ([(rid, (event & b).bit_count()) for rid, b in bitsets.items()],
                event.bit_count())

    def prob(self, head: int, relation: int, tail: int) -> Fraction:
        """Unconditional relation probability |N_r| / sum over the pair."""
        return self.cond_prob(Triple(head, relation, tail), ())

    def cond_prob(self, target: Triple, given) -> Fraction:
        """Probability of the target relation given a set of known triples.

        The conditioning event is the intersection of the supports of all
        `given` triples; empty `given` degenerates to the unconditional
        probability.  Raises UndefinedProbabilityError when no conditioning
        sample touches any relation on the target pair.
        """
        # The target triple is checked before any condition is read.
        self.pair(target.head, target.tail).support(target.relation)
        counts, denom = self.relation_counts(target.head, target.tail,
                                             list(given))
        if denom == 0:
            raise UndefinedProbabilityError(
                "no sample satisfies the conditions and the target pair")
        return Fraction(dict(counts)[target.relation], denom)

    def relation_distribution(self, head: int, tail: int) -> List[Tuple[int, Fraction]]:
        counts, total = self.relation_counts(head, tail)
        return [(rid, Fraction(c, total)) for rid, c in counts]

    # -- serialization ------------------------------------------------------

    def _body_bytes(self) -> bytes:
        out = bytearray()

        def put_table(interner):
            labels = interner.labels()
            out.extend(struct.pack("<I", len(labels)))
            for label in labels:
                raw = label.encode("utf-8")
                out.extend(struct.pack("<I", len(raw)))
                out.extend(raw)

        put_table(self.entities)
        put_table(self.relations)
        for quad in self.pair_table:
            out.extend(struct.pack("<III", quad.head, quad.tail,
                                   len(quad.relations)))
            for rid, samples in quad.relations:  # sorted ids as deltas
                out.extend(struct.pack("<II%dI" % len(samples), rid,
                                       len(samples),
                                       *map(sub, samples, (0,) + samples)))
        return bytes(out)

    @cached_property
    def _file(self) -> Tuple[bytes, bytes]:
        """The `.spgr` file and its digest, written once per graph."""
        counts = struct.pack("<HII", FORMAT_VERSION, self.n_samples,
                             len(self.quadruples))
        body = self._body_bytes()
        digest = _digest(counts, body)
        return FORMAT_MAGIC + counts + digest + body, digest

    def to_bytes(self) -> bytes:
        return self._file[0]

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProbabilityGraph":
        view = memoryview(data)
        pos = 0

        def take(n):
            nonlocal pos
            if pos + n > len(view):
                raise GraphDecodeError("truncated graph file")
            chunk = view[pos:pos + n]
            pos += n
            return chunk

        if bytes(take(4)) != FORMAT_MAGIC:
            raise GraphDecodeError("bad magic bytes")
        counts = bytes(take(10))
        version, n_samples, n_pairs = struct.unpack("<HII", counts)
        if version != FORMAT_VERSION:
            raise GraphDecodeError("unsupported format version %d" % version)
        digest = bytes(take(32))
        if _digest(counts, view[pos:]) != digest:
            raise GraphDecodeError("content hash mismatch")

        # Only the bytes `to_bytes` writes for a built graph are accepted, so
        # a loaded graph re-saves to the same bytes and content hash.
        def take_table():
            (count,) = struct.unpack("<I", take(4))
            labels = []
            for _ in range(count):
                (ln,) = struct.unpack("<I", take(4))
                try:
                    labels.append(bytes(take(ln)).decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise GraphDecodeError("invalid label encoding") from exc
            # Interning would drop a repeat and strip padding, moving ids.
            if (len(set(labels)) != len(labels)
                    or any(not lb or lb != lb.strip() for lb in labels)):
                raise GraphDecodeError(
                    "labels must be distinct, non-empty and unpadded")
            return Interner(labels)

        entities = take_table()
        relations = take_table()
        n_entities, n_relations = len(entities), len(relations)
        # Equal sample ids share one int object, as in a built graph.  The
        # body holds at most one id per 4 bytes, so a table of the ids up to
        # N, cut at that count, is bounded by the file, not by N; an id past
        # the table (in a file of fewer ids than N) is kept as read.
        shared = list(range(min(n_samples, (len(view) - pos) // 4) + 1))
        quadruples = {}
        prev_pair = (-1, -1)
        for _ in range(n_pairs):
            head, tail, n_rel = struct.unpack("<III", take(12))
            pair = (head, tail)
            if pair <= prev_pair:
                raise GraphDecodeError(
                    "pairs must strictly increase in (head, tail)")
            if head >= n_entities or tail >= n_entities:
                raise GraphDecodeError("entity id beyond the entity table")
            if not n_rel:
                raise GraphDecodeError("pair without a relation")
            prev_pair = pair
            rels = []
            for _ in range(n_rel):
                rid, n_sup = struct.unpack("<II", take(8))
                if not n_sup:  # round-1 verdicts assume a nonzero total
                    raise GraphDecodeError("relation without a sample")
                if rels and rid <= rels[-1][0]:
                    raise GraphDecodeError(
                        "relation ids must strictly increase within a pair")
                if rid >= n_relations:
                    raise GraphDecodeError(
                        "relation id beyond the relation table")
                deltas = struct.unpack("<%dI" % n_sup, take(4 * n_sup))
                # A zero delta would repeat an id (the counts would then
                # disagree with the bitsets) or, first, admit sample id 0.
                if 0 in deltas:
                    raise GraphDecodeError(
                        "sample ids must strictly increase from 1")
                try:
                    samples = tuple(map(shared.__getitem__,
                                        accumulate(deltas)))
                except IndexError:  # an id past the table, or past N
                    samples = tuple(accumulate(deltas))
                if samples[-1] > n_samples:  # also bounds its bitset's width
                    raise GraphDecodeError("sample id beyond the sample count")
                rels.append((rid, samples))
            quadruples[pair] = Quadruple(head, tail, tuple(rels))
        if pos != len(view):
            raise GraphDecodeError("trailing bytes after graph body")
        graph = cls(quadruples, n_samples, entities, relations)
        # Only the bytes `to_bytes` would write get here, so they are kept.
        graph._file = (data if isinstance(data, bytes) else bytes(data),
                       digest)
        return graph

    def save(self, path):
        """Write the `.spgr` file.  Its bytes are produced before `path` is
        opened, so an error while producing them leaves no file behind."""
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path) -> "ProbabilityGraph":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build(corpus: Corpus) -> ProbabilityGraph:
    """Merge a corpus into the shared probability graph."""
    if corpus.n_samples == 0 or corpus.n_triples() == 0:
        raise ValidationError("cannot build probability graph from empty corpus")
    # Sample ids per distinct triple, then the triples grouped by pair: the
    # per-occurrence work is one dict lookup and one append.
    supports: Dict[Triple, List[int]] = defaultdict(list)
    for kg in corpus.samples:
        sample_id = kg.sample_id
        for triple in kg.triples:
            supports[triple].append(sample_id)

    pairs: Dict[Tuple[int, int], list] = {}  # in first-occurrence order
    for (head, relation, tail), samples in supports.items():
        pairs.setdefault((head, tail), []).append(
            (relation, tuple(sorted(set(samples)))))
    quadruples = {pair: Quadruple(*pair, tuple(sorted(rels)))
                  for pair, rels in pairs.items()}
    return ProbabilityGraph(quadruples, corpus.n_samples,
                            Interner(corpus.entities.labels()),
                            Interner(corpus.relations.labels()))
