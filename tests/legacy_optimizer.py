"""Reference optimizer: `_solve_range` as it read when it priced every
feasible E with its own `comm_latency` next to `energies`, over an
`OmissionProfile.load` memoized per E.  Kept as the oracle for
test_optimizer_equivalence.py.

The bodies are the replaced code unchanged, except that `load` takes the
profile as an argument and sets the profile's `_loads` memo on first use,
and `comp_latency`/`energies` read `load` from here.  The link model, the
profile's exact `load_exact` and the closed-form power are shared.
"""

import math

from semcomp.errors import ValidationError
from semcomp.optimizer import AllocationResult, _infeasible, power_for_latency
from semcomp.resource import comm_latency, payload_bits


def load(profile, e):
    """Float view of load_exact; inf beyond the last breakpoint.

    Memoized per `e` on the profile, which is immutable after __init__.
    """
    memo = profile.__dict__.setdefault("_loads", {})
    value = memo.get(e)
    if value is None:
        if e < 0:
            raise ValidationError("omission count must be non-negative")
        try:
            value = float(profile.load_exact(e))
        except ValidationError:  # e >= 0: beyond the reachable total
            value = math.inf
        memo[e] = value
    return value


def comp_latency(link, profile, e):
    return link.tau1 * load(profile, e) / link.compute_capacity


def energies(link, profile, m, e, p):
    """(communication energy, computation energy) in joules."""
    t1 = comm_latency(link, m, e, p)
    e1 = t1 * p if math.isfinite(t1) else math.inf
    e2 = link.tau1 * link.tau2 * load(profile, e) * link.compute_capacity ** 2
    return e1, e2


def solve_range(link, profile, m, e_hi, keep_trace):
    if m < 1:
        raise ValidationError("m must be >= 1")
    e_hi = min(e_hi, m, math.floor(profile.total_omissible))

    best = None  # (e_total, e, p, result fields)
    trace = [] if keep_trace else None
    for e in range(0, e_hi + 1):
        t2 = comp_latency(link, profile, e)
        t_remaining = link.latency_budget_s - t2
        if not math.isfinite(t2) or t_remaining <= 0:
            continue
        p = power_for_latency(link, payload_bits(link, m, e), t_remaining)
        if p > link.p_max_w:
            continue
        t1 = comm_latency(link, m, e, p)
        e1, e2 = energies(link, profile, m, e, p)
        total = e1 + e2
        if keep_trace:
            trace.append((e, p, total))
        key = (total, e, p)
        if best is None or key < best[0]:
            best = ((total, e, p),
                    AllocationResult(p_opt=p, e_opt=e, t1=t1, t2=t2,
                                     e1=e1, e2=e2, feasible=True))
    if best is None:
        return _infeasible(trace)
    result = best[1]
    result.trace = trace
    return result
