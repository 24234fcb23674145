"""Acceptance suite: one test per criterion, one printed pass line each."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from semcomp.compressor import compress, decode_message, decompress, encode_message
from semcomp.errors import MessageDecodeError, UndefinedProbabilityError
from semcomp.experiments import SweepSpec, run_sweep
from semcomp.optimizer import solve
from semcomp.probgraph import build
from semcomp.resource import LinkModel, OmissionProfile

from conftest import oracle_cond_prob, oracle_prob, random_corpus
from test_optimizer import oracle_solve, random_instance
from test_wire import random_message


def report(criterion, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (criterion, detail))


def test_1_lossless_compression_property():
    """>= 1000 random (corpus, message) pairs round-trip losslessly, < 30 s."""
    rng = random.Random(1001)
    start = time.monotonic()
    pairs = 0
    while pairs < 1000:
        corpus = random_corpus(rng, n_samples=rng.randint(1, 20),
                               max_triples=10)
        assert corpus.n_triples() <= 200
        g = build(corpus)
        for kg in corpus.samples:
            max_round = 1 + pairs % 3
            msg, _ = compress(g, kg, max_round=max_round)
            assert decompress(g, msg).triple_set() == kg.triple_set()
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, "%d pairs lossless in %.1f s" % (pairs, elapsed))


def test_2_probability_oracle_equivalence():
    """Graph probabilities equal brute-force per-sample counting, exactly."""
    rng = random.Random(2002)
    checked = 0
    for _ in range(25):
        corpus = random_corpus(rng, n_samples=rng.randint(1, 10),
                               max_triples=8)
        g = build(corpus)
        triples = sorted(set(corpus.iter_triples()))
        for target in triples:
            assert g.prob(*target) == oracle_prob(corpus, target)
            checked += 1
        conels = [c for c in itertools.combinations(triples, 1)] + \
            [c for c in itertools.combinations(triples, 2)][:40]
        for target in triples[:6]:
            for given in conels[:40]:
                if target in given:
                    continue
                expected = oracle_cond_prob(corpus, target, list(given))
                if expected is None:
                    with pytest.raises(UndefinedProbabilityError):
                        g.cond_prob(target, list(given))
                else:
                    assert g.cond_prob(target, list(given)) == expected
                checked += 1
    report(2, "%d exact probability comparisons" % checked)


def test_3_piecewise_load_structure():
    """Continuity, monotonicity, l(0) = 0, and the worked segment values."""
    prof = OmissionProfile(100, [0.3, 0.2])
    assert prof.load_exact(30) == 100
    assert prof.load_exact(44) == 2200
    # first two segments match the closed branch forms exactly
    e1, q1, q2 = Fraction(30), Fraction(3, 10), Fraction(1, 5)
    for e in (Fraction(0), Fraction(7, 3), Fraction(30)):
        assert prof.load_exact(e) == e / q1
    for e in (Fraction(31), Fraction(75, 2), Fraction(44)):
        assert prof.load_exact(e) == e1 / q1 + (e - e1) * e1 / q2

    rng = random.Random(3003)
    for _ in range(100):
        m = rng.randint(1, 1000)
        q = [Fraction(rng.randint(1, 19), 20) for _ in range(rng.randint(1, 6))]
        p = OmissionProfile(m, q)
        assert p.load_exact(0) == 0
        eps = Fraction(1, 10**9)
        prev_value = Fraction(0)
        for n, b in enumerate(p._breaks):
            slope_left = (1 / p._q[0] if n == 0 else p._caps[n - 1] / p._q[n])
            left = p.load_exact(b) - p.load_exact(max(b - eps, Fraction(0)))
            # exact linearity up to the breakpoint from the left
            if b >= eps:
                assert left == slope_left * eps
            if n + 1 < len(p._breaks):
                slope_right = p._caps[n] / p._q[n + 1]
                right = p.load_exact(b + eps) - p.load_exact(b)
                # continuity: crossing the breakpoint changes only the slope
                assert right == slope_right * eps
            assert p.load_exact(b) >= prev_value
            prev_value = p.load_exact(b)
        # float view: one-sided evaluations agree to 1e-9 relative
        for n in range(len(p._breaks) - 1):
            prev_b = float(p._breaks[n - 1]) if n > 0 else 0.0
            prev_v = float(p.load_exact(p._breaks[n - 1])) if n > 0 else 0.0
            slope = float(1 / p._q[0] if n == 0 else p._caps[n - 1] / p._q[n])
            from_left = prev_v + (float(p._breaks[n]) - prev_b) * slope
            from_right = float(p.load_exact(p._breaks[n]))
            assert abs(from_left - from_right) <= 1e-9 * max(from_right, 1.0)
        grid = [p.load(p.total_omissible * i / 17) for i in range(18)]
        assert grid == sorted(grid)
    report(3, "100 random profiles continuous and nondecreasing; "
              "l(30)=100, l(44)=2200 exact")


def test_4_optimizer_against_grid_oracle():
    """solve matches the exhaustive-E + bisection oracle within 1e-6."""
    rng = random.Random(4004)
    feasible = 0
    attempts = 0
    saturated = 0
    while feasible < 100 and attempts < 500:
        attempts += 1
        link, profile, m = random_instance(rng)
        result = solve(link, profile, m)
        expected = oracle_solve(link, profile, m)
        if expected is None:
            assert not result.feasible
            continue
        feasible += 1
        assert result.feasible
        assert result.e_total == pytest.approx(expected[0], rel=1e-6)
        if result.p_opt < link.p_max_w:
            saturated += 1
            assert abs(result.t1 + result.t2 - link.latency_budget_s) \
                <= 1e-9 * link.latency_budget_s
    assert feasible >= 100
    report(4, "%d feasible instances within 1e-6 of oracle; "
              "%d latency-saturated" % (feasible, saturated))


def test_5_energy_trend_reproduction():
    """Defaults (B=10 MHz, T=1 ms, p_max=30 dBm): monotone energies,
    jccpg <= simplified <= traditional, and a nondecreasing gap in M."""
    link = LinkModel()  # defaults carry exactly those values
    assert link.bandwidth_hz == 10e6
    assert link.latency_budget_s == 1e-3
    assert link.p_max_w == pytest.approx(1.0)

    grid = [50, 100, 150, 200, 250, 300]
    rows = run_sweep(SweepSpec(variable="m_total", grid=grid, link=link))
    series = {algo: [] for algo in ("jccpg", "simplified", "traditional")}
    gaps = []
    for row in rows:
        for algo in series:
            result = row.results[algo]
            assert result.feasible
            series[algo].append(result.e_total)
        full = row.results["jccpg"].e_total
        simplified = row.results["simplified"].e_total
        traditional = row.results["traditional"].e_total
        assert full <= simplified * (1 + 1e-12)
        assert simplified <= traditional * (1 + 1e-12)
        gaps.append(traditional - full)
    for algo, values in series.items():
        assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:])), algo
    assert all(b >= a - 1e-18 for a, b in zip(gaps, gaps[1:]))
    report(5, "orderings and monotone trends hold on M grid %s" % grid)


def test_6_wire_format_robustness():
    """1000 random messages round-trip; every single-byte corruption of a
    100-triple message is detected."""
    rng = random.Random(6006)
    for _ in range(1000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg

    msg = random_message(rng, j=100, e=40)
    encoded = encode_message(msg)
    undetected = 0
    for pos in range(len(encoded)):
        original = encoded[pos]
        corrupted = bytearray(encoded)
        for value in range(256):
            if value == original:
                continue
            corrupted[pos] = value
            try:
                decoded = decode_message(bytes(corrupted))
            except MessageDecodeError:
                continue
            # the only silent decodes allowed are graph-hash corruptions,
            # which the receiver rejects as incompatible knowledge
            if decoded.graph_hash == msg.graph_hash:
                undetected += 1
        corrupted[pos] = original
    assert undetected == 0
    report(6, "1000 round-trips; all %d single-byte corruptions detected"
           % (255 * len(encoded)))
