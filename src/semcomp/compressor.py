"""Relation-omission compression against a shared probability graph.

The sender omits a triple's relation when the receiver can re-derive it as
the unique argmax of the (conditional) relation distribution for the triple's
(head, tail) pair.  Round 1 uses unconditional probabilities; round r >= 2
conditions on (r-1)-tuples of previously omitted triples and repeats in
cycles until a cycle omits nothing.  The condition bitsets are read once,
when round 2 starts, and extended after each cycle by what it omitted.  A
later cycle walks only the tuples that hold a condition the previous cycle
omitted: its candidates missed every other tuple then, and the graph does
not change.  Root domination is decided once per message, also when round 2
starts: a candidate whose support on its pair is empty or a subset of
another relation's can never be the argmax, so it leaves the search, and
each later cycle charges all such candidates together the plain scan's miss,
comb(n, width) tuples per relation on their pairs.
A message names each triple by its place in the shared graph: a full
triple the graph holds is its pair's index in `ProbabilityGraph.pair_table`
and its relation's rank on the pair, and an omission record is its pair's
index.  Decompression resolves those against the receiver's graph and
replays the argmax in message order, so the scheme is lossless by
construction.  A round-1 record reads its pair's `Quadruple.verdict`, as
round 1 of `compress` does, so neither end builds a bitset on round-1
traffic; a conditioned record reads `ProbabilityGraph.relation_counts`, where
the conditioning rule is written.  The messages and their byte format are
`semcomp.wire`'s.
"""

from dataclasses import dataclass, field
from math import comb
from typing import List, Optional, Tuple

from .errors import (CorruptMessageError, IncompatibleKnowledgeError,
                     SemcompError, ValidationError)
from .kg import KnowledgeGraph, Triple
from .probgraph import ProbabilityGraph, unique_max_relation
# The codec is `wire`'s, re-exported for callers that reach it through this
# module, benchmarks/harness.py among them.
from .wire import (CompressedMessage, OmissionRecord,  # noqa: F401
                   decode_message, encode_message)

DEFAULT_MAX_ROUND = 2


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


def _first_condition(search: tuple, cond: List[int], width: int, old: int,
                     report: CompressionReport) -> Optional[Tuple[int, ...]]:
    """First `width`-tuple of indices into `cond`, in ascending lexicographic
    order, whose event makes the target the unique argmax on its pair.

    `search` is a candidate's state, read once by `compress` when round 2
    starts: (the candidate's (pair index, rank) code, target bitset, the
    other relations' bitsets, the pair's union, the number of relations on
    the pair).  The target is not dominated at the root: `compress` keeps
    such candidates out of the search.

    A depth-first walk over combinations(range(len(cond)), width) that
    carries the intersection of the pair's union with the chosen condition
    bitsets.  A subtree is skipped when, inside that prefix P, the target's
    support is empty or a subset of another relation's support: every event
    E within P then gives the target a count no larger than that relation's,
    so no tuple below it is a hit.

    The caller knows that every tuple over cond[:old] misses: the candidate
    missed all of them in the previous cycle, and the graph does not change.
    So a leaf whose prefix holds only indices below `old` starts at `old`.
    The charge, `_plain_scan_length` of the hit per relation, ignores what
    the walk skips.
    """
    n = len(cond)
    if n < width:
        return None
    _, mine, others, union, relations = search
    evaluated = 0

    def walk(start, depth, prefix):
        nonlocal evaluated
        rest = width - depth - 1  # indices still to choose after this one
        if rest == 0:
            if start < old:  # the prefix holds only indices below `old`
                start = old
            hits = mine & prefix
            for i in range(start, n):
                # unique_max_relation(counts) is the target, without building
                # the counts: about half the search time on skewed messages.
                count = (hits & cond[i]).bit_count()
                if not count:
                    continue
                event = prefix & cond[i]
                for b in others:
                    if (b & event).bit_count() >= count:
                        break
                else:
                    evaluated += i + 1 - start
                    return (i,)
            evaluated += n - start
            return None
        for i in range(start, n - rest):
            event = prefix & cond[i]
            if _dominated(mine, others, event):
                continue
            found = walk(i + 1, depth + 1, event)
            if found is not None:
                return (i,) + found
        return None

    found = walk(0, 0, union)
    report.comparison_count += _plain_scan_length(n, width, found) * relations
    report.combinations_evaluated += evaluated
    return found


def _dominated(mine: int, others: List[int], event: int) -> bool:
    """Whether the target's support within `event` is empty or a subset of
    another relation's: then no event inside `event` makes the target the
    unique argmax on its pair."""
    hits = mine & event
    return not hits or any(hits & b == hits for b in others)


def _plain_scan_length(n, width, found):
    """Tuples the plain lexicographic scan over combinations(range(n), width)
    examines: all on a miss (`found` None), else the hit's rank + 1, that is
    comb(n, width) - sum_j comb(n - 1 - c_j, width - j) for (c_0 < c_1 ...)."""
    length = comb(n, width)
    for c in found or ():
        length -= comb(n - 1 - c, width)
        width -= 1
    return length


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
    table, index = g.pair_table, g.pair_index

    # Round 1: unconditional unique-mode relations.  It reads no bitset.
    # A triple whose pair (or relation) is absent from the graph can never
    # be reconstructed, so it is a permanent full triple, sent escaped.
    # Every other triple round 1 leaves is a candidate, kept as its (pair
    # index, rank) code in input order, the rank being its index in the
    # pair's `Quadruple.triples`; later rounds only take codes out.
    escaped: List[Triple] = []
    codes: List[Tuple[int, int]] = []
    round1_pairs: List[int] = []  # pair indices of the round-1 omissions
    comparisons = 0
    for t in triples:
        head, relation, tail = t
        i = index.get((head, tail))
        if i is None:
            escaped.append(t)
            continue
        quad = table[i]
        if quad.verdict == relation:
            round1_pairs.append(i)
        else:
            try:
                codes.append((i, quad.triples.index(t)))
            except ValueError:  # the pair lacks the relation
                escaped.append(t)
                continue
        comparisons += len(quad.relations)
    report.comparison_count = comparisons
    round1 = len(round1_pairs)
    report.stages.append(StageStats(1, 0, len(triples), round1))
    # A round-1 record has no conditions, so it does not depend on how many
    # full triples the later rounds leave.  tuple.__new__ skips the named
    # tuple's Python-level __new__.
    new = tuple.__new__
    records = [new(OmissionRecord, (i, ())) for i in round1_pairs]

    # Each leftover candidate's search state, read once: (its code, target
    # bitset, the other relations' bitsets, the pair's union, the number of
    # relations on the pair).  A target whose support is a subset of another
    # relation's support on its pair (every relation on a pair has a sample,
    # and a leftover's pair has two or more relations) is dominated at the
    # root: no condition tuple of any width makes it the argmax, so it leaves
    # the search here.
    live = []
    dead_relations = 0
    if max_round > 1:
        for code in codes:
            quad = table[code[0]]
            rid = quad.relations[code[1]][0]
            bitsets, union = quad.bits
            mine = bitsets[rid]
            others = [b for r, b in bitsets.items() if r != rid]
            if _dominated(mine, others, union):
                dead_relations += len(bitsets)
            else:
                live.append((code, mine, others, union, len(bitsets)))

    # One bitset per omitted triple, in omission order: a round-1 omission's
    # relation is its pair's verdict, and a later one's bitset is its search
    # state's target.  A cycle reads the list as it stood when the cycle
    # began; the list then grows by what the cycle omitted, and the last
    # cycle of a round omits nothing, so the next round starts from the same
    # list.
    cond = [table[i].bits[0][table[i].verdict]
            for i in round1_pairs] if live else []
    hits = []  # (search state, conditions) per later omission, in order
    n_omitted = round1
    for round_no in range(2, max_round + 1):
        width = round_no - 1
        cycle = old = 0
        while True:
            cycle += 1
            first = n_omitted  # len(cond), whenever `cond` is built
            report.comparison_count += dead_relations * _plain_scan_length(
                first, width, None)
            still = []
            for c in live:
                chosen = _first_condition(c, cond, width, old, report)
                if chosen is not None:
                    hits.append((c, chosen))
                else:
                    still.append(c)
            n_omitted += len(live) - len(still)
            report.stages.append(StageStats(
                round_no, cycle, len(triples) - first, n_omitted - first))
            live = still
            if n_omitted == first:
                break
            # The candidates left missed every tuple over `cond` as it
            # stands, so the next cycle searches only tuples that hold one of
            # the conditions appended here.
            old = first
            cond += [c[1] for c, _ in hits[first - n_omitted:]]

    if hits:
        later = {c[0] for c, _ in hits}
        known = [code for code in codes if code not in later]
    else:
        known = codes
    offset = len(known) + len(escaped)
    records += [new(OmissionRecord, (c[0][0],
                                     tuple([offset + i for i in chosen])))
                for c, chosen in hits]
    msg = CompressedMessage(g.content_hash, known, escaped, records)
    return msg, report


def _unresolved(table, pair: int, rank: int = 0) -> str:
    """Why the receiver's pair table has no triple at (pair, rank)."""
    if not 0 <= pair < len(table):
        return "pair index %d beyond the graph's %d pairs" % (pair,
                                                              len(table))
    quad = table[pair]
    return ("rank %d beyond the %d relations of pair (%d, %d)"
            % (rank, len(quad.relations), quad.head, quad.tail))


def decompress(g: ProbabilityGraph, msg: CompressedMessage) -> KnowledgeGraph:
    """Reconstruct the original knowledge graph (as a triple set)."""
    if msg.graph_hash != g.content_hash:
        raise IncompatibleKnowledgeError(
            "message was compressed against different background knowledge")

    table = g.pair_table
    recon: List[Triple] = []
    for pair, rank in msg.known:
        if pair < 0 or rank < 0:
            raise CorruptMessageError(_unresolved(table, pair, rank))
        try:
            recon.append(table[pair].triples[rank])
        except IndexError:
            raise CorruptMessageError(_unresolved(table, pair, rank)) from None
    recon += msg.escaped
    new = tuple.__new__
    for pair, conditions in msg.omissions:
        if not 0 <= pair < len(table):
            raise CorruptMessageError(_unresolved(table, pair))
        quad = table[pair]
        head, tail = quad.head, quad.tail
        if conditions:
            # Every condition must name a triple already reconstructed.
            if min(conditions) < 0 or max(conditions) >= len(recon):
                raise CorruptMessageError(
                    "condition index beyond reconstructable prefix")
            try:
                counts, denom = g.relation_counts(
                    head, tail, [recon[c] for c in conditions])
            except SemcompError as exc:
                raise CorruptMessageError(str(exc)) from exc
            if denom == 0:
                raise CorruptMessageError("empty conditioning event")
            rid = unique_max_relation(counts)
        else:  # every relation on a pair has a sample: the total is >= 1
            rid = quad.verdict
        if rid is None:
            raise CorruptMessageError(
                "ambiguous argmax while reconstructing (%d, %d)"
                % (head, tail))
        recon.append(new(Triple, (head, rid, tail)))

    try:
        return KnowledgeGraph(recon)
    except ValidationError as exc:
        raise CorruptMessageError(str(exc)) from exc
