"""Golden equivalence: `_solve_range`, which prices each feasible E once
through `energies` over an unmemoized `OmissionProfile.load`, against the
per-E `comm_latency` scan over the memoized load (legacy_optimizer.py).  The
simplified baseline, the scan over the first stage's profile, is held equal
to the reference scan over the full profile cut at the exact first cap."""

import math
import random
from fractions import Fraction

import pytest
import yaml
from click.testing import CliRunner

import legacy_optimizer as legacy
from semcomp import optimizer
from semcomp.cli import main
from semcomp.optimizer import _solve_range, solve, solve_simplified
from semcomp.resource import LinkModel, OmissionProfile

# The link of README's example config, and the regime where compression
# pays (channel 100x weaker, computation 100x cheaper).
README_CONFIG = {"bandwidth_mhz": 10, "p_max_dbm": 30, "latency_budget_ms": 1,
                 "noise_w": 1.0e-10, "path_gain": 1.0e-6, "bits_per_field": 24,
                 "f_hz": 1.0e9, "tau1": 1.0e3, "tau2": 1.0e-28,
                 "m_total": 100, "q": [0.3, 0.2, 0.1]}
README_PAYS = dict(README_CONFIG, path_gain=1.0e-8, tau1=100, tau2=1.0e-30)
# The benchmark's planner config at M = 10^4, with the round-1 ratio that
# `estimate-q` measures on its `plan` workload (seed 1).
PLANNER_CONFIG = {"path_gain": 1.0e-8, "tau1": 100, "tau2": 1.0e-30,
                  "latency_budget_ms": 100, "m_total": 10000,
                  "q": [0.7654583333333334]}


def simplified_cap(profile):
    """The largest E the simplified baseline may take: the exact first cap,
    floored."""
    caps = profile._caps
    return math.floor(caps[0]) if caps else 0


def random_instance(rng, case):
    """(link, profile, m): around the README links, M up to 10^4."""
    base = README_PAYS if case % 3 else README_CONFIG
    cfg = {key: value for key, value in base.items()
           if key not in ("m_total", "q")}
    for key in ("path_gain", "tau1", "tau2", "latency_budget_ms",
                "bandwidth_mhz"):
        cfg[key] = cfg[key] * 10 ** rng.uniform(-1.5, 1.5)
    cfg["p_max_dbm"] = rng.uniform(0, 40)
    link = LinkModel.from_config(cfg)
    q = [max(round(rng.random(), rng.randint(1, 6)), 1e-6)
         for _ in range(rng.randint(1, 4))]
    top = 10 ** 4 if case < 3 else 10 ** rng.uniform(0, 3.5)
    shape = case % 3
    if shape == 0:
        m_total = max(1, round(top))
    elif shape == 1:
        m_total = round(max(top, 0.5), 2)
    else:
        m_total = Fraction(max(1, round(top * 97)), 97)
    m = max(1, math.ceil(m_total * rng.uniform(0.5, 1.5)))
    return link, OmissionProfile(m_total, q), m


def legacy_scan(link, profile, m, keep_trace):
    """`legacy.solve_range` over every E the profile reaches, in the
    signature of `_solve_range`."""
    return legacy.solve_range(link, profile, m, m, keep_trace)


def assert_same_allocations(link, profile, m):
    assert (repr(solve(link, profile, m, keep_trace=True))
            == repr(legacy_scan(link, profile, m, True)))
    first = OmissionProfile(profile._m, profile._q[:1])
    reference = legacy.solve_range(link, profile, m, simplified_cap(profile),
                                   True)
    assert repr(_solve_range(link, first, m, True)) == repr(reference)
    reference.trace = None
    assert repr(solve_simplified(link, profile, m)) == repr(reference)


def test_random_instances_match_reference():
    rng = random.Random(606)
    feasible = omitting = 0
    for case in range(200):
        link, profile, m = random_instance(rng, case)
        assert_same_allocations(link, profile, m)
        result = solve(link, profile, m)
        feasible += result.feasible
        omitting += result.feasible and result.e_opt > 0
        top = math.floor(profile.total_omissible)
        mean_e = Fraction(rng.randint(0, 97 * top), 97)
        for e in list(range(top + 2)) + [mean_e, float(mean_e), 0.0]:
            assert profile.load(e) == legacy.load(profile, e), (case, e)
    # The draw must cover feasible and infeasible solves, and optima inside
    # the omission range, or the comparison shows little.
    assert 20 <= feasible <= 190 and omitting >= 20, (feasible, omitting)


# The CI cap link.  The exact last breakpoint of q = [0.3651386530843237] at
# M = 8835 is 3225.99999999999989, whose float is 3226.0.
CAP_LINK = LinkModel.from_config({"path_gain": 1.0e-8, "tau1": 100,
                                  "tau2": 1.0e-30, "latency_budget_ms": 1000})


def test_last_breakpoint_just_under_an_integer_matches_reference():
    profile = OmissionProfile(8835, [0.3651386530843237])
    assert profile._breaks[-1] < 3226 == profile.total_omissible
    assert_same_allocations(CAP_LINK, profile, 8835)
    result = solve(CAP_LINK, profile, 8835, keep_trace=True)
    assert result.e_opt == result.trace[-1][0] == 3225


def test_scan_reads_no_cap_but_the_load(monkeypatch):
    """Both scans are bounded by the budget test on the exact load alone:
    with `total_omissible` and `e_caps` unreadable they still agree with
    the reference."""
    rng = random.Random(607)
    cases = [random_instance(rng, case) for case in range(60)]
    cases.append((CAP_LINK, OmissionProfile(8835, [0.3651386530843237, 0.5]),
                  8835))
    expected = [(repr(legacy_scan(link, profile, m, True)),
                 repr(legacy.solve_range(link, profile, m,
                                         simplified_cap(profile), False)))
                for link, profile, m in cases]

    def unreadable(self):
        raise AssertionError("the scan read a float cap")

    monkeypatch.setattr(OmissionProfile, "total_omissible",
                        property(unreadable))
    monkeypatch.setattr(OmissionProfile, "e_caps", property(unreadable))
    got = [(repr(solve(link, profile, m, keep_trace=True)),
            repr(solve_simplified(link, profile, m)))
           for link, profile, m in cases]
    assert got == expected


def _cli_outputs(tmp_path, cfg, grid):
    """stdout of `optimize --trace` and the text of a `sweep` CSV."""
    runner = CliRunner()
    config = tmp_path / "link.yaml"
    config.write_text(yaml.safe_dump(cfg))
    csv_path = tmp_path / "sweep.csv"
    opt = runner.invoke(main, ["optimize", "--config", str(config),
                               "--trace"])
    sweep = runner.invoke(main, ["sweep", "--config", str(config),
                                 "--var", "m_total", "--grid", grid,
                                 "--csv", str(csv_path)])
    assert sweep.exit_code == 0, sweep.output
    return opt.exit_code, opt.output, csv_path.read_text()


def sweep_grid(m_max, points):
    """Log-spaced, strictly increasing integer M values ending at m_max."""
    grid = []
    for i in range(1, points + 1):
        m = round(m_max ** (i / points))
        grid.append(max(m, grid[-1] + 1) if grid else m)
    return ",".join(str(m) for m in grid)


@pytest.mark.parametrize("cfg,grid", [
    (README_CONFIG, "50,100,150,200"),
    (README_PAYS, "50,100,150,200"),
    (PLANNER_CONFIG, sweep_grid(10 ** 4, 20)),
])
def test_cli_outputs_match_reference(tmp_path, monkeypatch, cfg, grid):
    got = _cli_outputs(tmp_path, cfg, grid)
    monkeypatch.setattr(optimizer, "_solve_range", legacy_scan)
    assert got == _cli_outputs(tmp_path, cfg, grid)
    assert got[0] == 0 and '"trace"' in got[1]

