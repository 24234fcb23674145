"""Analytic communication/computation cost model.

All internal units are SI: W, Hz, s, J, bits.  CLI-facing configs may carry
dBm / MHz / ms.  `experiments.read_config` reads the config file;
`LinkModel.from_config` is the one reader of its link keys and converts their
units once, at that boundary.
"""

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import List, Sequence, Tuple

from .compressor import DEFAULT_MAX_ROUND, compress
from .errors import ValidationError
from .kg import Corpus
from .probgraph import ProbabilityGraph


@dataclass(frozen=True)
class LinkModel:
    """Static channel and compute parameters for the BS-to-user link."""

    bandwidth_hz: float = 10e6
    path_gain: float = 1e-6
    noise_power_w: float = 1e-10
    bits_per_field: int = 24
    p_max_w: float = 1.0  # 30 dBm
    latency_budget_s: float = 1e-3
    compute_capacity: float = 1e9  # cycles/s
    tau1: float = 1e3  # cycles per comparison
    tau2: float = 1e-28  # effective-capacitance energy coefficient

    def __post_init__(self):
        for name in ("bandwidth_hz", "path_gain", "noise_power_w",
                     "bits_per_field", "p_max_w", "latency_budget_s",
                     "compute_capacity", "tau1", "tau2"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValidationError("%s must be finite and strictly positive"
                                      % name)
        # `energies` prices one comparison at tau1 * tau2 * f**2 joules.
        try:
            joules = self.tau1 * self.tau2 * self.compute_capacity ** 2
        except OverflowError:
            joules = math.inf
        if joules == math.inf:
            raise ValidationError("tau1 * tau2 * compute_capacity**2, the "
                                  "energy of one comparison, must be finite")

    @classmethod
    def from_config(cls, cfg: dict) -> "LinkModel":
        """Build from a flat config dict, converting MHz/dBm/ms to SI.

        Keys other than the link keys are ignored here;
        `experiments.read_config` rejects the ones it does not know.
        """
        return cls(**{attr: config_value(cfg, key, convert)
                      for key, (attr, convert) in _LINK_KEYS.items()
                      if key in cfg})


def as_float(value) -> float:
    """float(value), refusing booleans: YAML's `true` is not a number."""
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    return float(value)


def as_int(value) -> int:
    """An integral number as an int: 24 and 24.0, not 24.9 or `true`."""
    number = as_float(value)
    if not number.is_integer():
        raise ValueError("expected an integer")
    return value if isinstance(value, int) else int(number)


# config key -> (LinkModel field, conversion to SI)
_LINK_KEYS = {
    "bandwidth_mhz": ("bandwidth_hz", lambda v: as_float(v) * 1e6),
    "p_max_dbm": ("p_max_w", lambda v: dbm_to_watts(as_float(v))),
    "latency_budget_ms": ("latency_budget_s", lambda v: as_float(v) * 1e-3),
    "noise_w": ("noise_power_w", as_float),
    "path_gain": ("path_gain", as_float),
    "bits_per_field": ("bits_per_field", as_int),
    "f_hz": ("compute_capacity", as_float),
    "tau1": ("tau1", as_float),
    "tau2": ("tau2", as_float),
}


def config_value(cfg: dict, key: str, convert, default=None):
    """`convert(cfg[key])`, or `default` when the key is absent.

    A value `convert` rejects raises ValidationError naming the key.
    """
    if key not in cfg:
        return default
    try:
        return convert(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("config key %r: bad value %r (%s)"
                              % (key, cfg[key], exc)) from exc


def _to_fraction(value) -> Fraction:
    """Exact rational view; float literals are read at decimal face value."""
    if isinstance(value, float):
        return Fraction(Decimal(str(value)))
    return Fraction(value)


def dbm_to_watts(dbm: float) -> float:
    return 10 ** ((dbm - 30.0) / 10.0)


def capacity(link: LinkModel, p: float) -> float:
    """Shannon capacity in bits/s at transmit power p."""
    if p < 0:
        raise ValidationError("transmit power must be non-negative")
    snr = p * link.path_gain / link.noise_power_w
    return link.bandwidth_hz * math.log2(1.0 + snr)


def payload_bits(link: LinkModel, m: float, e: float) -> float:
    """Encoded message size: 3m field slots minus the e omitted relations."""
    if not 0 <= e <= m:
        raise ValidationError("omission count must satisfy 0 <= E <= M")
    return link.bits_per_field * (3 * m - e)


def comm_latency(link: LinkModel, m: float, e: float, p: float) -> float:
    """Transmission time; inf at p = 0 so callers can treat it as infeasible."""
    return _comm_seconds(link, payload_bits(link, m, e), p)


def _comm_seconds(link: LinkModel, bits: float, p: float) -> float:
    c = capacity(link, p)
    if c == 0.0:
        return math.inf
    return bits / c


class OmissionProfile:
    """Per-stage omission ratios and the piecewise-linear comparison load.

    Stage caps follow the recursion E_1 = M q_1, E_n = (M - sum E_k) q_n.
    The load is linear with slope 1/q_1 up to E_1, then slope E_{n-1}/q_n on
    each later stage interval; it is continuous and nondecreasing by
    construction.  Each stage is built in one walk over q, in exact rational
    arithmetic.  The load is inf beyond the last breakpoint, so
    `OmissionProfile(m, q[:1])` is the simplified baseline's domain.
    """

    def __init__(self, m_total: float, q: Sequence[float]):
        if m_total <= 0:
            raise ValidationError("m_total must be positive")
        for value in q:
            if not 0 < value <= 1:
                raise ValidationError("omission ratios must lie in (0, 1]")
        self._m = _to_fraction(m_total)
        self._q = [_to_fraction(v) for v in q]

        # Stage n: cap (M - previous break) q_n, and its segment as the
        # integer line load(e) = (num + e*step) / den, anchored on the load
        # value at the previous breakpoint.
        self._caps: List[Fraction] = []
        self._breaks: List[Fraction] = []
        self._lines: List[Tuple[int, int, int]] = []
        value = prev_break = Fraction(0)
        for qn in self._q:
            cap = (self._m - prev_break) * qn
            slope = (self._caps[-1] if self._caps else 1) / qn
            base = value - prev_break * slope
            den = math.lcm(base.denominator, slope.denominator)
            self._caps.append(cap)
            self._breaks.append(prev_break + cap)
            self._lines.append((base.numerator * (den // base.denominator),
                                slope.numerator * (den // slope.denominator),
                                den))
            value += cap * slope
            prev_break += cap
        # Breakpoints times the lcm of their denominators: integers, so an
        # integer e is placed by integer comparisons (Fraction ones doubled
        # the cost of a load).
        self._scale = math.lcm(*(b.denominator for b in self._breaks))
        self._scaled_breaks = [b.numerator * (self._scale // b.denominator)
                               for b in self._breaks]

    @property
    def m_total(self) -> float:
        return float(self._m)

    @property
    def q(self) -> List[float]:
        return [float(v) for v in self._q]

    @property
    def e_caps(self) -> List[float]:
        return [float(c) for c in self._caps]

    @property
    def total_omissible(self) -> float:
        return float(self._breaks[-1]) if self._breaks else 0.0

    def _line(self, e):
        """(e, line): e as an int or exact Fraction, and the integer line
        (num, step, den) of the first segment whose breakpoint is at or
        beyond it, or None beyond the reachable total.  One bisect."""
        if e < 0:
            raise ValidationError("omission count must be non-negative")
        if not isinstance(e, int):
            e = _to_fraction(e)
        if e == 0:
            return e, (0, 0, 1)
        scaled = e * self._scale
        if not self._breaks or scaled > self._scaled_breaks[-1]:
            return e, None
        return e, self._lines[bisect_left(self._scaled_breaks, scaled)]

    def load_exact(self, e) -> Fraction:
        """Comparison count for e omissions, as an exact rational: one
        Fraction."""
        e, line = self._line(e)
        if line is None:
            raise ValidationError("omission count beyond the reachable total")
        num, step, den = line
        return Fraction(num + e * step, den)

    def load(self, e: float) -> float:
        """load_exact(e) as a float; inf beyond the last breakpoint.

        For an integer e this is one int true division on the same line,
        which CPython rounds correctly, as it does `Fraction.__float__`: the
        same float, with no Fraction built.
        """
        e, line = self._line(e)
        if line is None:
            return math.inf
        num, step, den = line
        return float((num + e * step) / den)


def comp_latency(link: LinkModel, profile: OmissionProfile, e: float) -> float:
    return _comp_seconds(link, profile.load(e))


def _comp_seconds(link: LinkModel, load: float) -> float:
    return link.tau1 * load / link.compute_capacity


def energies(link: LinkModel, profile: OmissionProfile,
             m: float, e: float, p: float):
    """(communication energy, computation energy) in joules."""
    return _energies(link, payload_bits(link, m, e), profile.load(e), p)[1:]


def _energies(link: LinkModel, bits: float, load: float, p: float):
    """(transmission time, e1, e2) for a payload of `bits` and a comparison
    `load`, which the optimizer's scan has already read for its E."""
    t1 = _comm_seconds(link, bits, p)
    e1 = t1 * p if math.isfinite(t1) else math.inf
    e2 = link.tau1 * link.tau2 * load * link.compute_capacity ** 2
    return t1, e1, e2


def estimate_q(g: ProbabilityGraph, corpus: Corpus,
               max_round: int = DEFAULT_MAX_ROUND) -> OmissionProfile:
    """Measure per-stage omission ratios over the corpus.

    Stages are aligned across samples by (round, cycle) position, and the
    triples each omits are pooled.  Every stage n that omits something
    gets one rule, the paper's recursion: q_n = omitted_n over the triples
    the earlier stages left, n_triples - sum(omitted_k).  A sample that
    does not reach a stage omits none of the triples it has left, so
    `OmissionProfile`'s caps times the sample count are the pooled
    omissions.  Stages that omit nothing overall are dropped.  M is the
    mean triple count per sample.

    Round 1 is counted over distinct triples at every depth: a triple is
    omitted exactly when its pair is in the graph and its relation is the
    pair's `Quadruple.verdict`, as in `compress`, so each match counts with
    its multiplicity.  Later rounds condition on the rest of the sample, so
    their stages come from `compress` under the paper's rule, `omit="all"`.
    """
    n_triples = corpus.n_triples()
    if n_triples == 0:
        raise ValidationError("corpus yields no triples")
    if max_round < 1:
        raise ValidationError("max_round must be >= 1")

    counts = Counter(chain.from_iterable(kg.triples for kg in corpus.samples))
    pooled = Counter()  # (round, cycle) -> triples omitted there
    for t, count in counts.items():
        quad = g.quadruples.get((t.head, t.tail))
        if quad is not None and quad.verdict == t.relation:
            pooled[1, 0] += count
    for kg in corpus.samples if max_round > 1 else ():  # later rounds only
        _, report = compress(g, kg, max_round=max_round, omit="all")
        for stage in report.stages[1:]:
            pooled[stage.round, stage.cycle] += stage.omitted

    q = []
    left = n_triples
    for _, omitted in sorted(pooled.items()):
        if omitted:
            q.append(Fraction(omitted, left))
            left -= omitted

    return OmissionProfile(Fraction(n_triples, corpus.n_samples), q)
