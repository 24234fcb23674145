"""Joint transmit-power / omission-count energy minimization.

The discrete omission count E is searched exhaustively; for each E the best
transmit power follows from the structure of the problem: communication
energy t1 * p is strictly increasing in p, so the inner optimum sits exactly
on the latency boundary t1(p) = T - t2(E) (or is infeasible when even p_max
cannot meet it).  The boundary power has a closed form from the capacity
equation, which satisfies the inner-optimum contract exactly.

The `simplified` baseline is the same scan over the profile of the first
stage alone, whose load is inf beyond the exact first cap E_1.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ValidationError
from .resource import (LinkModel, OmissionProfile, _comp_seconds, _energies,
                       payload_bits)


@dataclass
class AllocationResult:
    p_opt: float
    e_opt: int
    t1: float
    t2: float
    e1: float
    e2: float
    feasible: bool
    trace: Optional[List[Tuple[int, float, float]]] = field(default=None)

    @property
    def e_total(self) -> float:
        return self.e1 + self.e2


def _infeasible(trace=None) -> AllocationResult:
    return AllocationResult(p_opt=math.nan, e_opt=0, t1=math.nan, t2=math.nan,
                            e1=math.nan, e2=math.nan, feasible=False,
                            trace=trace)


def power_for_latency(link: LinkModel, bits: float, t: float) -> float:
    """Transmit power at which `bits` take exactly `t` seconds."""
    if t <= 0:
        raise ValidationError("latency target must be positive")
    c_required = bits / t
    try:
        snr = 2.0 ** (c_required / link.bandwidth_hz) - 1.0
    except OverflowError:
        return math.inf
    return snr * link.noise_power_w / link.path_gain


def _solve_range(link: LinkModel, profile: OmissionProfile, m: int,
                 keep_trace: bool) -> AllocationResult:
    if m < 1:
        raise ValidationError("m must be >= 1")
    e_hi = min(m, math.floor(profile.total_omissible))

    best = None  # ((e_total, e, p), t1, t2, e1, e2) of the best E so far
    trace = [] if keep_trace else None
    for e in range(0, e_hi + 1):
        load = profile.load(e)  # read once per E, like the payload
        t2 = _comp_seconds(link, load)
        t_remaining = link.latency_budget_s - t2
        if not math.isfinite(t2) or t_remaining <= 0:
            continue
        bits = payload_bits(link, m, e)
        p = power_for_latency(link, bits, t_remaining)
        if p > link.p_max_w:
            continue
        t1, e1, e2 = _energies(link, bits, load, p)
        total = e1 + e2
        if keep_trace:
            trace.append((e, p, total))
        key = (total, e, p)
        if best is None or key < best[0]:
            best = (key, t1, t2, e1, e2)
    if best is None:
        return _infeasible(trace)
    (_, e, p), t1, t2, e1, e2 = best
    return AllocationResult(p_opt=p, e_opt=e, t1=t1, t2=t2, e1=e1, e2=e2,
                            feasible=True, trace=trace)


def solve(link: LinkModel, profile: OmissionProfile, m: int,
          keep_trace: bool = False) -> AllocationResult:
    """Minimize e1 + e2 over all reachable (p, E)."""
    return _solve_range(link, profile, m, keep_trace)


def solve_simplified(link: LinkModel, profile: OmissionProfile,
                     m: int) -> AllocationResult:
    """Same scan over the first stage's profile: E at most the exact E_1."""
    first = OmissionProfile(profile._m, profile._q[:1])
    return _solve_range(link, first, m, False)


def solve_traditional(link: LinkModel, m: int) -> AllocationResult:
    """Send everything (E = 0) in exactly the latency budget, power uncapped."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    p = power_for_latency(link, payload_bits(link, m, 0),
                          link.latency_budget_s)
    t1 = link.latency_budget_s
    return AllocationResult(p_opt=p, e_opt=0, t1=t1, t2=0.0,
                            e1=t1 * p, e2=0.0, feasible=True)
