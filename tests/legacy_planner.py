"""Reference planner ingest: `estimate_q`, which compressed every sample at
every round, and `build`, which grouped each triple occurrence by pair as it
went.  Kept as the oracle for test_planner_equivalence.py, which also holds
`estimate_q`'s round-1 count of verdict matches equal to what semcomp's
`compress` omits.

The bodies are the replaced code unchanged.  `compress` is legacy_search's,
so every round is counted against the replaced compressor: the paper's rule
at every round, with a stage for every round up to `max_round`, also those
with no condition tuple, which semcomp's `compress` does not run.
`OmissionProfile` and the data classes are shared with semcomp.
"""

from fractions import Fraction
from typing import Dict, Tuple

from legacy_search import compress
from semcomp.compressor import DEFAULT_MAX_ROUND
from semcomp.errors import ValidationError
from semcomp.kg import Corpus, Interner
from semcomp.probgraph import ProbabilityGraph, Quadruple
from semcomp.resource import OmissionProfile


def estimate_q(g: ProbabilityGraph, corpus: Corpus,
               max_round: int = DEFAULT_MAX_ROUND) -> OmissionProfile:
    """Measure per-stage omission ratios by compressing every corpus sample.

    Stages are aligned across samples by (round, cycle) position;
    ratios are pooled counts (total omitted / total candidates entering the
    stage).  Stages that omit nothing overall are dropped, so the profile
    only covers productive stages.  M is the mean triple count per sample.
    """
    if corpus.n_samples == 0 or corpus.n_triples() == 0:
        raise ValidationError("corpus yields no triples")

    pooled = {}  # (round, cycle) -> [candidates, omitted]
    for kg in corpus.samples:
        _, report = compress(g, kg, max_round=max_round)
        for stage in report.stages:
            acc = pooled.setdefault((stage.round, stage.cycle), [0, 0])
            acc[0] += stage.candidates
            acc[1] += stage.omitted

    q = []
    for key in sorted(pooled):
        candidates, omitted = pooled[key]
        if candidates == 0 or omitted == 0:
            continue
        q.append(Fraction(omitted, candidates))

    return OmissionProfile(Fraction(corpus.n_triples(), corpus.n_samples), q)


def build(corpus: Corpus) -> ProbabilityGraph:
    """Merge a corpus into the shared probability graph."""
    if corpus.n_samples == 0 or corpus.n_triples() == 0:
        raise ValidationError("cannot build probability graph from empty corpus")
    supports: Dict[Tuple[int, int], Dict[int, set]] = {}
    for kg in corpus.samples:
        for triple in kg.triples:
            pair = supports.setdefault((triple.head, triple.tail), {})
            pair.setdefault(triple.relation, set()).add(kg.sample_id)

    quadruples = {}
    for (head, tail), rels in supports.items():
        packed = tuple((rid, tuple(sorted(rels[rid]))) for rid in sorted(rels))
        quadruples[(head, tail)] = Quadruple(head, tail, packed)
    return ProbabilityGraph(quadruples, corpus.n_samples,
                            Interner(corpus.entities.labels()),
                            Interner(corpus.relations.labels()))
