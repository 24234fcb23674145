"""Reference search: the round-r cycle loop that re-walked every condition
tuple on every cycle, kept as the oracle for test_search_equivalence.py.

`_first_condition` and `compress` are the replaced code unchanged.  Each
cycle rebuilds the condition list from every omission, and each search
walks every tuple over it, so `combinations_evaluated` counts the tuples a
previous cycle already rejected.  The report types are semcomp's; the
message and record types are wire version 2's (legacy_wire_v2.py), which
name triples by their ids, and `conftest.v3_message` converts the oracle's
output to the message `compress` returns.
"""

from math import comb
from typing import List, Optional, Tuple

from legacy_wire_v2 import CompressedMessage, OmissionRecord
from semcomp.compressor import (DEFAULT_MAX_ROUND, CompressionReport,
                                StageStats)
from semcomp.errors import ValidationError
from semcomp.kg import KnowledgeGraph, Triple
from semcomp.probgraph import ProbabilityGraph


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
    bitsets, union = g.pair(t.head, t.tail).bits
    mine = bitsets[t.relation]
    others = [b for rid, b in bitsets.items() if rid != t.relation]
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
    report.comparison_count += (skipped + evaluated) * len(bitsets)
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
        if quad.verdict == t.relation:
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
            cond = ([g.pair(o.head, o.tail).bits[0][o.relation]
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
