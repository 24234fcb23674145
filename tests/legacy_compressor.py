"""Reference compress/decompress: the set-based implementation that
`ProbabilityGraph.relation_counts` replaced, kept as the oracle for
test_equivalence.py.

The bodies are the replaced code unchanged, except that the deleted
`Quadruple.union_support()` and `ProbabilityGraph.has_triple()` are the
local `_union_support(quad)` and `_has_triple(g, triple)` below.
Only the report dataclasses are shared with semcomp.  The message and
record types are wire version 2's (legacy_wire_v2.py), which name triples by
their ids; `conftest.v3_message` and `conftest.v2_content` convert between
them and the messages `compress` and `decompress` take.
"""

import itertools
from typing import List, Optional

from legacy_wire_v2 import CompressedMessage, OmissionRecord
from semcomp.compressor import (DEFAULT_MAX_ROUND, CompressionReport,
                                StageStats)
from semcomp.errors import (CorruptMessageError, IncompatibleKnowledgeError,
                            SemcompError, UndefinedProbabilityError,
                            ValidationError)
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import ProbabilityGraph


def _union_support(quad):
    members = set()
    for _, samples in quad.relations:
        members.update(samples)
    return tuple(sorted(members))


def _has_triple(g, triple):
    quad = g.quadruples.get((triple.head, triple.tail))
    return quad is not None and any(
        rid == triple.relation for rid, _ in quad.relations)


def _unique_max_relation(counts) -> Optional[int]:
    """Relation id with the strictly largest count, or None on a tie."""
    best_rid, best, tie = None, -1, False
    for rid, count in counts:
        if count > best:
            best_rid, best, tie = rid, count, False
        elif count == best:
            tie = True
    return None if tie else best_rid


def compress(g: ProbabilityGraph, kg: KnowledgeGraph,
             max_round: int = DEFAULT_MAX_ROUND):
    """Compress one knowledge graph; returns (CompressedMessage, CompressionReport).

    Deterministic: candidates are scanned in input order and condition tuples
    in ascending index order, with the first qualifying tuple recorded.
    """
    if max_round < 1:
        raise ValidationError("max_round must be >= 1")

    triples = list(kg.triples)
    report = CompressionReport()

    # Triples whose pair (or relation) is absent from the graph can never be
    # reconstructed, so they are permanent pass-through full triples.
    candidates = [t for t in triples if _has_triple(g, t)]
    remaining_total = len(triples)

    omitted: List[Triple] = []          # omission order
    records: List[OmissionRecord] = []  # conditions as positions in `omitted`

    # Round 1: unconditional unique-mode relations.
    round1_omitted = 0
    still: List[Triple] = []
    for t in candidates:
        quad = g.pair(t.head, t.tail)
        counts = [(rid, len(s)) for rid, s in quad.relations]
        report.comparison_count += len(counts)
        if _unique_max_relation(counts) == t.relation:
            omitted.append(t)
            records.append(OmissionRecord(t.head, t.tail))
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
            snapshot_size = len(omitted)  # O-set frozen for this cycle
            cycle_omitted = 0
            still = []
            for t in candidates:
                quad = g.pair(t.head, t.tail)
                rel_supports = [(rid, set(s)) for rid, s in quad.relations]
                union = set(_union_support(quad))
                chosen = None
                for combo in itertools.combinations(range(snapshot_size), width):
                    cond = None
                    for idx in combo:
                        c_triple = omitted[idx]
                        c_support = set(g.pair(c_triple.head, c_triple.tail)
                                        .support(c_triple.relation))
                        cond = c_support if cond is None else cond & c_support
                    report.comparison_count += len(rel_supports)
                    if not cond & union:
                        continue  # undefined row: condition unusable
                    counts = [(rid, len(cond & s)) for rid, s in rel_supports]
                    if _unique_max_relation(counts) == t.relation:
                        chosen = combo
                        break
                if chosen is not None:
                    omitted.append(t)
                    records.append(OmissionRecord(t.head, t.tail,
                                                  conditions=chosen))
                    cycle_omitted += 1
                else:
                    still.append(t)
            report.stages.append(
                StageStats(round_no, cycle, remaining_total, cycle_omitted))
            remaining_total -= cycle_omitted
            candidates = still
            if cycle_omitted == 0:
                break

    omitted_set = set(omitted)
    full = [t for t in triples if t not in omitted_set]
    offset = len(full)
    final_records = [
        OmissionRecord(r.head, r.tail,
                       conditions=tuple(offset + i for i in r.conditions))
        for r in records
    ]
    msg = CompressedMessage(g.content_hash, full, final_records)
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
        given = [recon[c] for c in rec.conditions]
        try:
            quad = g.pair(rec.head, rec.tail)
            if given:
                cond = None
                for c_triple in given:
                    c_support = set(g.pair(c_triple.head, c_triple.tail)
                                    .support(c_triple.relation))
                    cond = c_support if cond is None else cond & c_support
                if not cond & set(_union_support(quad)):
                    raise UndefinedProbabilityError("empty conditioning event")
                counts = [(rid, len(cond & set(s))) for rid, s in quad.relations]
            else:
                counts = [(rid, len(s)) for rid, s in quad.relations]
        except SemcompError as exc:
            raise CorruptMessageError(str(exc)) from exc
        rid = _unique_max_relation(counts)
        if rid is None:
            raise CorruptMessageError(
                "ambiguous argmax while reconstructing (%d, %d)"
                % (rec.head, rec.tail))
        recon.append(Triple(rec.head, rid, rec.tail))

    try:
        return KnowledgeGraph(recon)
    except ValidationError as exc:
        raise CorruptMessageError(str(exc)) from exc

