"""Seeded synthetic inputs for the benchmark workloads.

Everything here is pure generation from a `random.Random(seed)`: the same
seed yields the same corpus lines and messages, byte for byte.  Nothing is
timed here, and nothing imports semcomp; the program under test only ever
sees the generated JSONL lines and label triples.
"""

import json
import math
import random
from dataclasses import dataclass, replace
from typing import List, Tuple

LabelTriple = Tuple[str, str, str]

# Fixed shape of the generated data; every workload uses the same values.
ZIPF_S = 1.0     # skewed: pair popularity ~ 1/rank, few hot pairs, long tail
REL_DECAY = 1.0  # skewed: relation i of a pair weighs e^(-i), a clear mode
P_INCLUDE = 0.6  # tie_heavy: chance a sample or message includes each pair


@dataclass(frozen=True)
class Spec:
    """One workload: its inputs, its round depth and its planner sizes."""

    name: str
    why: str                 # one line, copied into BENCHMARK.json
    kind: str                # "skewed" or "tie_heavy" generator
    n_samples: int           # corpus samples in the shared graph
    sample_size: int         # skewed: triples per sample
    size_spread: int         # skewed: message sizes are sample_size +- this
    n_messages: int          # distinct messages in the closed loop
    max_round: int
    calib_samples: int       # corpus samples written for `estimate-q`
    plan_m: int              # `optimize` M and the sweep's largest M
    sweep_points: int
    shares: Tuple[float, float, float]  # run-time shares: setup, loop, plan
    min_setups: int = 3
    min_plans: int = 3
    # skewed generator
    pool_pairs: int = 4200
    n_entities: int = 900
    n_relations: int = 16
    # tie_heavy generator
    k_pairs: int = 20


SPECS = {
    "skewed": Spec(
        "skewed",
        "large Zipf-popular graph at max_round=2: the only large set-up, and "
        "round-2 conditional omissions that expose the wire/model gap",
        "skewed", n_samples=2000, sample_size=60, size_spread=0,
        n_messages=120, max_round=2, calib_samples=200, plan_m=1000,
        sweep_points=20, shares=(0.1, 0.75, 0.15)),
    "tie_heavy": Spec(
        "tie_heavy",
        "tiny graph whose co-occurring pairs never omit, so round-3 search is "
        "almost the whole round trip and kg/probgraph/codec work is bypassed",
        "tie_heavy", n_samples=200, sample_size=0, size_spread=0,
        n_messages=150, max_round=3, calib_samples=200, plan_m=1000,
        sweep_points=20, shares=(0.1, 0.75, 0.15), min_setups=20),
    "plan": Spec(
        "plan",
        "planner flow through the CLI (build-graph, estimate-q at round 1, "
        "optimize at M=10^4, 20-point sweep): optimizer/experiments/cli time",
        "skewed", n_samples=2000, sample_size=60, size_spread=50,
        n_messages=150, max_round=1, calib_samples=2000, plan_m=10000,
        sweep_points=20, shares=(0.1, 0.25, 0.65)),
}


def tiny(spec: Spec) -> Spec:
    """The same workload shrunk to run in well under a second (smoke mode)."""
    return replace(spec, n_samples=40, sample_size=min(spec.sample_size, 12),
                   size_spread=min(spec.size_spread, 6), n_messages=12,
                   calib_samples=20, plan_m=min(spec.plan_m, 200),
                   sweep_points=4, min_setups=1, min_plans=1, pool_pairs=120,
                   n_entities=40, n_relations=6, k_pairs=5)


@dataclass
class Inputs:
    corpus_lines: List[str]
    messages: List[List[LabelTriple]]


def generate(spec: Spec, seed: int) -> Inputs:
    rng = random.Random("%s/%d" % (spec.name, seed))
    if spec.kind == "skewed":
        return _skewed(spec, rng)
    if spec.kind == "tie_heavy":
        return _tie_heavy(spec, rng)
    raise ValueError("unknown generator %r" % spec.kind)


def _jsonl(samples: List[List[LabelTriple]]) -> List[str]:
    return [json.dumps({"sample": i, "triples": [list(t) for t in triples]})
            for i, triples in enumerate(samples, start=1)]


def _cumulative(weights):
    acc, out = 0.0, []
    for w in weights:
        acc += w
        out.append(acc)
    return out


def _skewed(spec: Spec, rng: random.Random) -> Inputs:
    # Pair pool ranked by Zipf popularity; each pair carries 1-4 relations
    # whose weights decay exponentially, so most pairs have a clear mode
    # but minority relations still occur.
    pool = []
    seen = set()
    while len(pool) < spec.pool_pairs:
        h, t = rng.randrange(spec.n_entities), rng.randrange(spec.n_entities)
        if h == t or (h, t) in seen:
            continue
        seen.add((h, t))
        rels = rng.sample(range(spec.n_relations), rng.randint(1, 4))
        cum = _cumulative([math.exp(-REL_DECAY * i) for i in range(len(rels))])
        pool.append(("e%d" % h, "e%d" % t, ["r%d" % r for r in rels], cum))
    pair_cum = _cumulative([1.0 / (i + 1) ** ZIPF_S
                            for i in range(len(pool))])

    def draw(indices, cum, size):
        chosen = {}  # dict keeps draw order, so the output is seed-stable
        while len(chosen) < size:
            for i in rng.choices(indices, cum_weights=cum,
                                 k=size - len(chosen)):
                chosen.setdefault(i, None)
        triples = []
        for i in chosen:
            head, tail, rels, rel_cum = pool[i]
            triples.append((head, rng.choices(rels, cum_weights=rel_cum)[0],
                            tail))
        return triples

    everything = range(len(pool))
    samples = [draw(everything, pair_cum, spec.sample_size)
               for _ in range(spec.n_samples)]

    # Messages are fresh draws from the same popularity, restricted to pairs
    # whose labels the corpus interned (a message can only name known
    # labels); pairs or relations the corpus never saw pass through unomitted.
    entities = {x for triples in samples for h, _, t in triples for x in (h, t)}
    relations = {r for triples in samples for _, r, _ in triples}
    known = [i for i, (h, t, rels, _) in enumerate(pool)
             if h in entities and t in entities
             and all(r in relations for r in rels)]
    known_cum = _cumulative([1.0 / (i + 1) ** ZIPF_S for i in known])
    messages = [draw(known, known_cum,
                     spec.sample_size + rng.randint(-spec.size_spread,
                                                    spec.size_spread))
                for _ in range(spec.n_messages)]
    return Inputs(_jsonl(samples), messages)


def _tie_heavy(spec: Spec, rng: random.Random) -> Inputs:
    # K pairs with a single relation (a unique mode, omitted in round 1) and
    # K pairs whose two relations always appear together (a tie under every
    # condition, so they never omit and every search runs to the end).
    k = spec.k_pairs

    def draw():
        while True:
            triples = []
            for i in range(k):
                if rng.random() < P_INCLUDE:
                    triples.append(("u%d" % i, "is", "v%d" % i))
            for i in range(k):
                if rng.random() < P_INCLUDE:
                    triples.append(("c%d" % i, "left", "d%d" % i))
                    triples.append(("c%d" % i, "right", "d%d" % i))
            if triples:
                return triples

    samples = [draw() for _ in range(spec.n_samples)]
    messages = [draw() for _ in range(spec.n_messages)]
    return Inputs(_jsonl(samples), messages)
