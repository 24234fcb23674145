import math
import random
from fractions import Fraction

import pytest

from semcomp.compressor import compress
from semcomp.errors import ValidationError
from semcomp.probgraph import build
from semcomp.resource import (LinkModel, OmissionProfile, capacity,
                              _to_fraction, comm_latency, comp_latency,
                              dbm_to_watts, energies, estimate_q,
                              payload_bits)

from conftest import corpus_from_samples, random_corpus
from test_planner_equivalence import (CORPORA, _calibration_messages,
                                      pooled_omissions)


def make_link(**kwargs):
    return LinkModel(**kwargs)


class TestCapacity:
    def test_unit_snr(self):
        link = make_link(bandwidth_hz=10e6, path_gain=1.0, noise_power_w=1.0)
        assert capacity(link, 1.0) == pytest.approx(10e6)

    def test_zero_power(self):
        assert capacity(make_link(), 0.0) == 0.0

    def test_snr_three(self):
        link = make_link(bandwidth_hz=1.0, path_gain=1.0, noise_power_w=1.0)
        assert capacity(link, 3.0) == pytest.approx(2.0)

    def test_negative_power(self):
        with pytest.raises(ValidationError):
            capacity(make_link(), -1.0)


class TestPayload:
    def test_no_omission(self):
        assert payload_bits(make_link(bits_per_field=24), 100, 0) == 7200

    def test_all_omitted(self):
        assert payload_bits(make_link(bits_per_field=24), 100, 100) == 4800

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            payload_bits(make_link(), 100, 101)
        with pytest.raises(ValidationError):
            payload_bits(make_link(), 100, -1)


class TestCommLatency:
    def test_one_second(self):
        link = make_link(bandwidth_hz=1e7, path_gain=1.0, noise_power_w=1.0,
                         bits_per_field=1)
        # payload 10^7 bits at c = 10^7 bit/s
        m = 10**7 // 3 + 1
        bits = payload_bits(link, m, 3 * m - 10**7)
        assert bits == 10**7
        assert comm_latency(link, m, 3 * m - 10**7, 1.0) == pytest.approx(1.0)

    def test_snr_doubling_halves_latency(self):
        link = make_link(path_gain=1.0, noise_power_w=1.0)
        assert comm_latency(link, 100, 0, 1.0) == \
            pytest.approx(2 * comm_latency(link, 100, 0, 3.0))

    def test_full_omission_is_two_thirds(self):
        link = make_link()
        assert comm_latency(link, 100, 100, 0.5) == \
            pytest.approx(comm_latency(link, 100, 0, 0.5) * 2 / 3)

    def test_zero_power_infinite(self):
        assert comm_latency(make_link(), 100, 0, 0.0) == math.inf


class TestOmissionProfile:
    def test_worked_values(self):
        prof = OmissionProfile(100, [0.3, 0.2])
        assert prof.e_caps == [30, 14]
        assert prof.load_exact(30) == 100
        assert prof.load_exact(44) == 2200
        assert prof.load(30) == 100.0
        assert prof.load(44) == 2200.0

    def test_zero(self):
        assert OmissionProfile(100, [0.3, 0.2]).load(0) == 0.0
        assert OmissionProfile(50, []).load(0) == 0.0

    def test_beyond_total_is_inf(self):
        prof = OmissionProfile(100, [0.3, 0.2])
        assert prof.load(44.0001) == math.inf
        assert OmissionProfile(50, []).load(1) == math.inf

    def test_invalid_ratios(self):
        with pytest.raises(ValidationError):
            OmissionProfile(100, [0.0])
        with pytest.raises(ValidationError):
            OmissionProfile(100, [1.5])
        with pytest.raises(ValidationError):
            OmissionProfile(0, [0.5])

    def test_continuity_and_monotonicity(self, rng):
        for _ in range(50):
            m = rng.randint(1, 500)
            q = [Fraction(rng.randint(1, 10), rng.randint(10, 20))
                 for _ in range(rng.randint(1, 6))]
            prof = OmissionProfile(m, q)
            breaks = prof._breaks
            prev = prev_break = Fraction(0)
            for n, b in enumerate(breaks):
                # exact agreement between segment-n value at b and the anchor
                # summed up from the documented slopes
                slope = (1 / prof._q[0] if n == 0
                         else prof._caps[n - 1] / prof._q[n])
                anchor = prev + (b - prev_break) * slope
                assert prof.load_exact(b) == anchor
                assert prof.load_exact(b) >= prev
                prev, prev_break = anchor, b
            # nondecreasing on a grid
            total = prof.total_omissible
            values = [prof.load(total * i / 20) for i in range(21)]
            assert values == sorted(values)

    def test_recursion_closure(self, rng):
        # sum E_n equals M * (1 - prod(1 - q_k))
        for _ in range(30):
            m = rng.randint(1, 300)
            q = [Fraction(rng.randint(1, 9), 10) for _ in range(rng.randint(1, 5))]
            prof = OmissionProfile(m, q)
            expected = m * (1 - math.prod(1 - float(v) for v in q))
            assert sum(prof.e_caps) == pytest.approx(expected)


def fraction_walk(m_total, q):
    """e -> the exact load by the stage-by-stage Fraction walk.

    A copy of `OmissionProfile.load_exact` as it read before integer lines,
    set-up included, kept as the oracle for them.
    """
    m = _to_fraction(m_total)
    q = [_to_fraction(v) for v in q]
    caps, remaining = [], m
    for qn in q:
        caps.append(remaining * qn)
        remaining -= caps[-1]
    breaks, acc = [], Fraction(0)
    for cap in caps:
        acc += cap
        breaks.append(acc)
    anchors, value, prev_break = [], Fraction(0), Fraction(0)
    for n, cap in enumerate(caps):
        slope = 1 / q[0] if n == 0 else caps[n - 1] / q[n]
        value += (breaks[n] - prev_break) * slope
        anchors.append(value)
        prev_break = breaks[n]

    def load_exact(e):
        e = _to_fraction(e)
        if e < 0:
            raise ValidationError("omission count must be non-negative")
        if e == 0:
            return Fraction(0)
        if not breaks or e > breaks[-1]:
            raise ValidationError("omission count beyond the reachable total")
        prev_break = Fraction(0)
        prev_value = Fraction(0)
        for n, brk in enumerate(breaks):
            if e <= brk:
                slope = 1 / q[0] if n == 0 else caps[n - 1] / q[n]
                return prev_value + (e - prev_break) * slope
            prev_break, prev_value = brk, anchors[n]
        raise AssertionError("unreachable")
    return load_exact


def test_integer_lines_match_fraction_walk():
    rng = random.Random(2024)
    for case in range(200):
        q = [max(round(rng.random(), rng.randint(1, 6)), 1e-6)
             for _ in range(rng.randint(1, 4))]
        # M log-uniform up to 10^4: an integer, a decimal, or a mean number
        # of triples per sample as estimate_q passes it.
        top_m = 10 ** 4 if case < 3 else 10 ** rng.uniform(0, 4)
        shape = case % 3
        if shape == 0:
            m = max(1, round(top_m))
        elif shape == 1:
            m = round(max(top_m, 0.5), 2)
        else:
            m = Fraction(max(1, round(top_m * 97)), 97)
        prof = OmissionProfile(m, q)
        walk = fraction_walk(m, q)
        top = math.floor(prof._breaks[-1])
        for e in range(top + 1):
            expected = walk(e)
            assert prof.load_exact(e) == expected, (m, q, e)
            assert prof.load(e) == float(expected)
        for brk in prof._breaks:
            assert prof.load_exact(brk) == walk(brk)
            assert prof.load(brk) == float(walk(brk))
            for e in (math.floor(brk), math.ceil(brk)):
                if e <= top:
                    assert prof.load_exact(e) == walk(e)
                    assert prof.load(e) == float(walk(e))
        for e in (top + 1, top + 2):
            with pytest.raises(ValidationError):
                walk(e)
            with pytest.raises(ValidationError):
                prof.load_exact(e)
            assert prof.load(e) == math.inf
        half = Fraction(2 * rng.randint(0, top) + 1, 2) if top else None
        if half is not None and half <= prof._breaks[-1]:
            assert prof.load_exact(half) == walk(half)
            assert prof.load(half) == float(walk(half))
        x = round(rng.uniform(0, float(prof._breaks[-1])), 3)
        if _to_fraction(x) <= prof._breaks[-1]:
            assert prof.load_exact(x) == walk(x)
            assert prof.load(x) == float(walk(x))
    with pytest.raises(ValidationError):
        OmissionProfile(100, [0.3]).load_exact(-1)
    assert OmissionProfile(100, [0.3]).load_exact(0) == 0


class TestComputeSide:
    def test_zero_omission(self):
        link = make_link()
        prof = OmissionProfile(100, [0.3])
        assert comp_latency(link, prof, 0) == 0.0
        assert energies(link, prof, 100, 0, 0.5)[1] == 0.0

    def test_f_scaling(self):
        prof = OmissionProfile(100, [0.3])
        a = make_link(compute_capacity=1e9)
        b = make_link(compute_capacity=2e9)
        assert comp_latency(a, prof, 10) == pytest.approx(
            2 * comp_latency(b, prof, 10))
        assert energies(b, prof, 100, 10, 0.5)[1] == pytest.approx(
            4 * energies(a, prof, 100, 10, 0.5)[1])

    def test_comm_energy(self):
        # snr 1 at p = 0.5 -> c = B = 3 bit/s; 3-bit payload -> t1 = 1 s
        link = make_link(bandwidth_hz=3.0, path_gain=2.0, noise_power_w=1.0,
                         bits_per_field=1)
        assert comm_latency(link, 1, 0, 0.5) == pytest.approx(1.0)
        e1, _ = energies(link, OmissionProfile(1, [1]), 1, 0, 0.5)
        assert e1 == pytest.approx(0.5)

    def test_e1_strictly_increasing_in_p(self):
        link = make_link()
        prof = OmissionProfile(100, [0.3])
        values = [energies(link, prof, 100, 10, p)[0]
                  for p in [10 ** (k / 4) for k in range(-24, 4)]]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEstimateQ:
    def test_all_unique_modes(self):
        corpus = corpus_from_samples([[("a", "r", "b"), ("c", "s", "d")]])
        g = build(corpus)
        prof = estimate_q(g, corpus, max_round=2)
        assert prof.q == [1.0]

    def test_no_pairs_in_graph(self):
        # graph's only pair is the (0, 0) self-loop; the message pair (0, 1)
        # can never match, so nothing is omissible
        g = build(corpus_from_samples([[("p", "q", "p")]]))
        corpus = corpus_from_samples([[("a", "r", "b")]])
        prof = estimate_q(g, corpus, max_round=2)
        assert prof.q == []
        assert prof.load(0) == 0.0
        assert prof.load(1) == math.inf

    def test_hand_counted_toy(self):
        corpus = corpus_from_samples([
            [("a", "r1", "b")],
            [("a", "r2", "b"), ("x", "u", "y")],
            [("a", "r1", "b")],
        ])
        g = build(corpus)
        prof = estimate_q(g, corpus, max_round=2)
        # round 1: samples omit 1+1+1 of 1+2+1 triples -> q1 = 3/4
        # round 2 cycle 1: sample 2's (a, r2, b) of 1 remaining -> q2 = 1
        assert prof.q == [0.75, 1.0]
        assert prof.m_total == pytest.approx(4 / 3)

        # A message that omits nothing in round 1 runs no round 2, yet its
        # triples still enter round 2's first cycle.
        messages = corpus_from_samples([
            [("a", "r2", "b"), ("x", "u", "y")],
            [("a", "r2", "b")],
        ], g)
        _, report = compress(g, messages.sample(2), max_round=2, omit="all")
        assert report.stopped.reason == "no condition tuple"
        # round 1: (x, u, y) of 3 triples -> q1 = 1/3
        # round 2 cycle 1: the first message's (a, r2, b), given (x, u, y),
        # of the 2 triples both messages have left, the second's included
        # though it runs no round 2 -> q2 = 1/2
        assert estimate_q(g, messages, max_round=2)._q == [Fraction(1, 3),
                                                           Fraction(1, 2)]

    def test_stage_takes_what_earlier_stages_left(self):
        corpus = corpus_from_samples([
            [("e0", "r1", "e0"), ("e1", "r0", "e1"), ("e1", "r1", "e0")],
            [("e0", "r0", "e0"), ("e1", "r0", "e1")],
            [("e1", "r0", "e0")],
        ])
        g = build(corpus)
        prof = estimate_q(g, corpus, max_round=2)
        # round 1: samples omit 1+1+0 of 6 triples -> q1 = 2/6
        # round 2 cycle 1: the first sample omits 1 of its 2 left, the
        # second 0 of 1, and the third, which runs no round 2, 0 of 1
        # -> q2 = 1/4
        # round 2 cycle 2: only the first sample runs it, omitting its last
        # triple; the others omit none of the 3 triples left -> q3 = 1/3
        assert prof._q == [Fraction(1, 3), Fraction(1, 4), Fraction(1, 3)]
        assert prof._breaks[-1] == Fraction(4, 3)  # 4 omissions, 3 samples

    @pytest.mark.parametrize("max_round", [1, 2, 3, 4])
    def test_caps_are_the_measured_omissions(self, max_round):
        rng = random.Random(53 + max_round)
        for corpus in CORPORA:
            g = build(corpus)
            for sample_set in (corpus, _calibration_messages(rng, corpus)):
                prof = estimate_q(g, sample_set, max_round=max_round)
                omissions = pooled_omissions(
                    compress(g, kg, max_round=max_round, omit="all")[1]
                    for kg in sample_set.samples)
                n = sample_set.n_samples
                assert prof._m == Fraction(sample_set.n_triples(), n)
                assert [cap * n for cap in prof._caps] == omissions
                assert (prof._breaks[-1] * n if prof._breaks else 0) == sum(
                    omissions)

    def test_max_round_below_one(self):
        corpus = corpus_from_samples([[("a", "r", "b")]])
        with pytest.raises(ValidationError, match="max_round"):
            estimate_q(build(corpus), corpus, max_round=0)

    def test_consistency_with_reports(self, rng):
        corpus = random_corpus(rng, n_samples=8)
        g = build(corpus)
        prof = estimate_q(g, corpus, max_round=2)
        for value in prof.q:
            assert 0 < value <= 1

    def test_empty_corpus(self):
        from semcomp.kg import Corpus
        g = build(corpus_from_samples([[("a", "r", "b")]]))
        with pytest.raises(ValidationError):
            estimate_q(g, Corpus(), max_round=2)


class TestConfig:
    def test_unit_conversions(self):
        link = LinkModel.from_config({
            "bandwidth_mhz": 10, "p_max_dbm": 30, "latency_budget_ms": 1,
            "noise_w": 1e-10, "path_gain": 1e-6, "bits_per_field": 24,
            "f_hz": 1e9, "tau1": 1e3, "tau2": 1e-28,
        })
        assert link.bandwidth_hz == 10e6
        assert link.p_max_w == pytest.approx(1.0)
        assert link.latency_budget_s == 1e-3
        assert dbm_to_watts(0) == pytest.approx(1e-3)

    def test_positivity_enforced(self):
        with pytest.raises(ValidationError):
            LinkModel(bandwidth_hz=0)
        with pytest.raises(ValidationError):
            LinkModel(tau2=-1)
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("bandwidth_hz", "latency_budget_s", "p_max_w",
                         "tau2"):
                with pytest.raises(ValidationError, match=name):
                    LinkModel(**{name: bad})
