import json
import math
import re
from pathlib import Path

import pytest

from semcomp.errors import ValidationError
from semcomp.experiments import (CSV_HEADER, SweepSpec, emit_csv,
                                 emit_plotdata, read_config, run_sweep)
from semcomp.resource import LinkModel, OmissionProfile


@pytest.fixture
def default_spec():
    return SweepSpec(variable="m_total", grid=[50, 100, 150, 200])


class TestSweep:
    def test_row_count(self, default_spec):
        rows = run_sweep(default_spec)
        assert len(rows) == 4
        assert all(set(r.results) == {"jccpg", "simplified", "traditional"}
                   for r in rows)

    def test_single_point(self):
        rows = run_sweep(SweepSpec(variable="m_total", grid=[100]))
        assert len(rows) == 1

    def test_dominance_per_row(self, default_spec):
        for row in run_sweep(default_spec):
            full = row.results["jccpg"]
            simplified = row.results["simplified"]
            traditional = row.results["traditional"]
            if full.feasible and simplified.feasible:
                assert full.e_total <= simplified.e_total + 1e-18
            if simplified.feasible:
                assert simplified.e_total <= traditional.e_total * (1 + 1e-12)

    def test_traditional_strictly_increasing_in_m(self, default_spec):
        values = [r.results["traditional"].e_total
                  for r in run_sweep(default_spec)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bandwidth_and_latency_variables(self):
        rows = run_sweep(SweepSpec(variable="bandwidth", grid=[5e6, 10e6]))
        assert len(rows) == 2
        rows = run_sweep(SweepSpec(variable="latency_budget", grid=[1e-3, 2e-3]))
        assert rows[0].results["traditional"].t1 == 1e-3

    def test_infeasible_cells_flagged_not_dropped(self):
        link = LinkModel(p_max_w=1e-12, latency_budget_s=1e-5)
        rows = run_sweep(SweepSpec(variable="m_total", grid=[100, 200],
                                   link=link, algorithms=("jccpg",)))
        assert len(rows) == 2
        assert not any(r.results["jccpg"].feasible for r in rows)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepSpec(variable="nope", grid=[1])
        with pytest.raises(ValidationError):
            SweepSpec(variable="m_total", grid=[])
        with pytest.raises(ValidationError):
            SweepSpec(variable="m_total", grid=[2, 1])
        with pytest.raises(ValidationError):
            SweepSpec(variable="m_total", grid=[1], algorithms=("magic",))
        for grid in ([math.nan, 1], [math.inf], [1, -math.inf]):
            with pytest.raises(ValidationError, match="finite"):
                SweepSpec(variable="m_total", grid=grid)
        with pytest.raises(ValidationError, match="repeat"):
            SweepSpec(variable="m_total", grid=[1],
                      algorithms=("jccpg", "jccpg"))


class TestEmit:
    def test_csv_shape(self, tmp_path, default_spec):
        rows = run_sweep(default_spec)
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 4 * 3

    def test_csv_deterministic(self, tmp_path, default_spec):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(default_spec), a)
        emit_csv(run_sweep(default_spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_csv_row_is_empty(self, tmp_path):
        link = LinkModel(p_max_w=1e-12, latency_budget_s=1e-5)
        rows = run_sweep(SweepSpec(variable="m_total", grid=[100], link=link,
                                   algorithms=("jccpg",)))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        data_line = path.read_text().strip().split("\n")[1]
        assert data_line.endswith("false")
        assert ",,,," in data_line

    def test_plotdata(self, tmp_path, default_spec):
        path = tmp_path / "plot.json"
        emit_plotdata(run_sweep(default_spec), path)
        doc = json.loads(path.read_text())
        assert doc["x"] == [50.0, 100.0, 150.0, 200.0]
        assert set(doc["series"]) == {"jccpg", "simplified", "traditional"}
        assert all(len(v) == 4 for v in doc["series"].values())


def test_read_config_units(tmp_path):
    path = tmp_path / "link.yaml"
    path.write_text("bandwidth_mhz: 5\nlatency_budget_ms: 2\np_max_dbm: 20\n"
                    "q: [0.5]\nm_total: 42\n")
    spec = SweepSpec("m_total", [10, 20], **read_config(path))
    assert spec.link.bandwidth_hz == 5e6
    assert spec.link.latency_budget_s == 2e-3
    assert spec.link.p_max_w == pytest.approx(0.1)
    assert spec.q == [0.5]
    assert spec.m_total == 42


def test_readme_yaml_blocks_read(tmp_path):
    """Every ```yaml block of README.md is a config `read_config` accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for n, block in enumerate(blocks):
        path = tmp_path / ("block%d.yaml" % n)
        path.write_text(block, encoding="utf-8")
        read_config(path)


def _unmemoized_load(profile, e):
    """OmissionProfile.load as it was before the per-E memo."""
    if e < 0:
        raise ValidationError("omission count must be non-negative")
    if e == 0:
        return 0.0
    try:
        return float(profile.load_exact(e))
    except ValidationError:  # beyond the last breakpoint
        return math.inf


def test_memoized_load_keeps_sweep_output(tmp_path, monkeypatch):
    # A regime where compression pays, so every row has omissions to price.
    spec = SweepSpec(variable="m_total",
                     grid=[20 * (i + 1) for i in range(20)],
                     link=LinkModel(path_gain=1e-8, tau1=100.0, tau2=1e-30),
                     q=[0.4, 0.2])

    def run(name):
        rows = run_sweep(spec)
        emit_csv(rows, tmp_path / name)
        return rows, (tmp_path / name).read_text()

    rows, csv_text = run("memo.csv")
    monkeypatch.setattr(OmissionProfile, "load", _unmemoized_load)
    ref_rows, ref_csv_text = run("reference.csv")
    assert ([repr(r.results) for r in rows]
            == [repr(r.results) for r in ref_rows])
    assert csv_text == ref_csv_text
    assert all(r.results["jccpg"].e_opt > 0 for r in rows)
