import math
import random

import pytest
from scipy.optimize import brentq

from semcomp.errors import ValidationError
from semcomp.optimizer import (power_for_latency, solve, solve_simplified,
                               solve_traditional)
from semcomp.resource import (LinkModel, OmissionProfile, comm_latency,
                              comp_latency, energies)


def oracle_best_power(link, m, e, t_budget, respect_cap=True):
    """Bisection on the latency equality, independent of the closed form.

    Returns the minimum-energy feasible power for one E, or None.
    """
    if t_budget <= 0:
        return None
    hi = link.p_max_w if respect_cap else 1e9

    def excess(p):
        return comm_latency(link, m, e, p) - t_budget

    if excess(hi) > 0:
        return None  # even full power misses the deadline
    lo = 1e-30
    if excess(lo) <= 0:
        return lo
    return brentq(excess, lo, hi, xtol=1e-30, rtol=1e-13, maxiter=500)


def oracle_solve(link, profile, m):
    """Exhaustive E loop with the bisection inner oracle."""
    e_hi = min(m, math.floor(profile.total_omissible))
    best = None
    for e in range(e_hi + 1):
        t2 = comp_latency(link, profile, e)
        p = oracle_best_power(link, m, e, link.latency_budget_s - t2)
        if p is None:
            continue
        e1, e2 = energies(link, profile, m, e, p)
        if best is None or e1 + e2 < best[0]:
            best = (e1 + e2, e, p)
    return best


def random_instance(rng: random.Random):
    link = LinkModel(
        bandwidth_hz=10 ** rng.uniform(6, 7.5),
        path_gain=10 ** rng.uniform(-8, -5),
        noise_power_w=10 ** rng.uniform(-11, -9),
        bits_per_field=rng.randint(8, 32),
        p_max_w=10 ** rng.uniform(-1, 0.5),
        latency_budget_s=10 ** rng.uniform(-4, -2),
        compute_capacity=10 ** rng.uniform(8, 9.5),
        tau1=10 ** rng.uniform(0, 3),
        tau2=10 ** rng.uniform(-30, -27),
    )
    m = rng.randint(1, 50)
    q = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 4))]
    return link, OmissionProfile(m, q), m


class TestSolve:
    def test_matches_oracle_on_random_instances(self, rng):
        feasible_seen = 0
        attempts = 0
        while feasible_seen < 100 and attempts < 400:
            attempts += 1
            link, profile, m = random_instance(rng)
            result = solve(link, profile, m)
            expected = oracle_solve(link, profile, m)
            if expected is None:
                assert not result.feasible
                continue
            feasible_seen += 1
            assert result.feasible
            assert result.e_total == pytest.approx(expected[0], rel=1e-6)
            assert result.e_opt == expected[1]
        assert feasible_seen >= 100

    def test_latency_saturation(self, rng):
        for _ in range(40):
            link, profile, m = random_instance(rng)
            result = solve(link, profile, m)
            if result.feasible and result.p_opt < link.p_max_w:
                assert abs(result.t1 + result.t2 - link.latency_budget_s) \
                    <= 1e-9 * link.latency_budget_s

    def test_constraints_certified(self, rng):
        for _ in range(60):
            link, profile, m = random_instance(rng)
            result = solve(link, profile, m)
            if not result.feasible:
                continue
            assert result.t1 + result.t2 <= link.latency_budget_s + 1e-12
            assert 0 <= result.p_opt <= link.p_max_w
            assert 0 <= result.e_opt <= m
            assert result.e_total == result.e1 + result.e2
            # direct re-evaluation of the model at the returned point
            assert result.t1 == pytest.approx(
                comm_latency(link, m, result.e_opt, result.p_opt))
            e1, e2 = energies(link, profile, m, result.e_opt, result.p_opt)
            assert (result.e1, result.e2) == pytest.approx((e1, e2))

    def test_huge_budget_drives_power_down(self):
        link = LinkModel(latency_budget_s=1e6)
        profile = OmissionProfile(100, [0.3, 0.2])
        result = solve(link, profile, 100)
        expected = oracle_solve(link, profile, 100)
        assert result.feasible
        assert result.p_opt < 1e-9
        assert result.e_total <= expected[0] * (1 + 1e-9)

    def test_infeasible_budget(self):
        link = LinkModel(latency_budget_s=1e-9)
        result = solve(link, OmissionProfile(100, [0.3]), 100)
        assert not result.feasible

    def test_trace(self):
        link = LinkModel()
        result = solve(link, OmissionProfile(100, [0.3]), 100, keep_trace=True)
        assert result.trace
        assert all(len(entry) == 3 for entry in result.trace)
        assert solve(link, OmissionProfile(100, [0.3]), 100).trace is None

    def test_zero_latency_target_rejected(self):
        with pytest.raises(ValidationError, match="latency target"):
            power_for_latency(LinkModel(), 100, 0)

    def test_invalid_m(self):
        with pytest.raises(ValidationError):
            solve(LinkModel(), OmissionProfile(10, [0.3]), 0)
        with pytest.raises(ValidationError):
            solve_traditional(LinkModel(), 0)


class TestSimplified:
    def test_single_stage_equals_full(self, rng):
        for _ in range(20):
            link, _, m = random_instance(rng)
            profile = OmissionProfile(m, [rng.uniform(0.1, 0.9)])
            full = solve(link, profile, m)
            restricted = solve_simplified(link, profile, m)
            assert full.feasible == restricted.feasible
            if full.feasible:
                assert full.e_total == restricted.e_total
                assert full.e_opt == restricted.e_opt

    def test_domain_restriction(self, rng):
        for _ in range(40):
            link, profile, m = random_instance(rng)
            restricted = solve_simplified(link, profile, m)
            if restricted.feasible:
                assert restricted.e_opt <= profile._caps[0]

    def test_first_cap_just_under_an_integer(self):
        # E_1 = 8835 * 0.3651386530843237 = 3225.99999999999989, whose float
        # is 3226.0; E = 3226 is a second-stage omission.
        link = LinkModel.from_config({"path_gain": 1.0e-8, "tau1": 100,
                                      "tau2": 1.0e-30,
                                      "latency_budget_ms": 1000})
        profile = OmissionProfile(8835, [0.3651386530843237, 0.5])
        assert profile._caps[0] < 3226 == profile.e_caps[0]
        full = solve(link, profile, 8835)
        restricted = solve_simplified(link, profile, 8835)
        assert full.e_opt == 3226
        assert restricted.feasible and restricted.e_opt == 3225
        assert restricted.e_total > full.e_total

    def test_dominance_ordering(self, rng):
        for _ in range(60):
            link, profile, m = random_instance(rng)
            full = solve(link, profile, m)
            restricted = solve_simplified(link, profile, m)
            traditional = solve_traditional(link, m)
            if full.feasible and restricted.feasible:
                assert full.e_total <= restricted.e_total + 1e-18
            if restricted.feasible:
                assert restricted.e_total <= traditional.e_total * (1 + 1e-12)


class TestTraditional:
    def test_matches_bisection_oracle(self, rng):
        for _ in range(30):
            link, _, m = random_instance(rng)
            result = solve_traditional(link, m)
            p = oracle_best_power(link, m, 0, link.latency_budget_s,
                                  respect_cap=False)
            assert result.p_opt == pytest.approx(p, rel=1e-9)
            assert result.e1 == pytest.approx(p * link.latency_budget_s,
                                              rel=1e-9)

    def test_monotone_in_m(self):
        link = LinkModel()
        energies_ = [solve_traditional(link, m).e_total
                     for m in (50, 100, 200, 400)]
        assert all(b > a for a, b in zip(energies_, energies_[1:]))

    def test_shape(self):
        result = solve_traditional(LinkModel(), 100)
        assert result.e_opt == 0
        assert result.t2 == 0.0
        assert result.e2 == 0.0
        assert result.t1 == LinkModel().latency_budget_s

    def test_power_cap_ignored(self):
        # budget so tight the required power exceeds the cap
        link = LinkModel(latency_budget_s=1e-6)
        result = solve_traditional(link, 100)
        assert result.feasible
        assert result.p_opt > link.p_max_w


def test_power_for_latency_inverts_capacity():
    link = LinkModel()
    p = power_for_latency(link, 7200.0, 1e-3)
    assert comm_latency(link, 100, 0, p) == pytest.approx(1e-3, rel=1e-12)


def test_solve_evaluates_each_load_once(monkeypatch):
    """solve prices every E by integer division: no exact load at all."""
    link = LinkModel(path_gain=1e-8, tau1=100.0, tau2=1e-30)
    profile = OmissionProfile(100, [0.4, 0.2])
    evaluated = []
    load_exact = OmissionProfile.load_exact

    def counting(self, e):
        evaluated.append(e)
        return load_exact(self, e)

    monkeypatch.setattr(OmissionProfile, "load_exact", counting)
    result = solve(link, profile, 100, keep_trace=True)
    assert result.feasible and result.e_opt > 0
    assert evaluated == []

    def exact_load(self, e):  # the float view as a Fraction evaluation
        try:
            return float(load_exact(self, e))
        except ValidationError:  # beyond the last breakpoint
            return math.inf

    monkeypatch.setattr(OmissionProfile, "load", exact_load)
    assert repr(solve(link, profile, 100, keep_trace=True)) == repr(result)


@pytest.mark.parametrize("solver", [solve, solve_simplified])
def test_scan_ends_at_the_first_e_over_budget(monkeypatch, solver):
    # t2(E) = 1e-6 * load(E) = 2e-6 * E s against a 49 us budget: E = 25 is
    # the first E with no transmission time left, and no later E can fit.
    link = LinkModel(latency_budget_s=4.9e-5)
    profile = OmissionProfile(100, [0.5])
    evaluated = []
    load = OmissionProfile.load

    def counting(self, e):
        evaluated.append(e)
        return load(self, e)

    monkeypatch.setattr(OmissionProfile, "load", counting)
    solver(link, profile, 100)
    assert evaluated == list(range(26))
