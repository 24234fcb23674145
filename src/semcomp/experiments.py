"""Parameter sweeps over the allocation model, with CSV emission."""

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import yaml

from .errors import ParseError, ValidationError
from .optimizer import (AllocationResult, solve, solve_simplified,
                        solve_traditional)
from .resource import (_LINK_KEYS, LinkModel, OmissionProfile, as_float,
                       as_int, config_value)

ALGORITHMS = ("jccpg", "simplified", "traditional")
DEFAULT_Q = (0.3, 0.2, 0.1)
DEFAULT_M_TOTAL = 100
SWEEP_VARIABLES = ("m_total", "bandwidth", "latency_budget")
CSV_HEADER = ("var", "algo", "e_total_j", "e1_j", "e2_j", "p_w", "e_omit",
              "feasible")


@dataclass
class SweepSpec:
    variable: str
    grid: Sequence[float]
    link: LinkModel = field(default_factory=LinkModel)
    q: Sequence[float] = DEFAULT_Q
    m_total: int = DEFAULT_M_TOTAL

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValidationError("unknown sweep variable %r (expected one of %s)"
                                  % (self.variable, ", ".join(SWEEP_VARIABLES)))
        if not self.grid:
            raise ValidationError("sweep grid must be non-empty")
        if not all(math.isfinite(v) for v in self.grid):
            raise ValidationError("sweep grid values must be finite")
        if self.variable == "m_total":
            for v in self.grid:
                try:
                    as_int(v)
                except (TypeError, ValueError) as exc:
                    raise ValidationError("m_total grid value %r is not a "
                                          "whole count" % v) from exc
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ValidationError("sweep grid must be strictly increasing")


@dataclass
class SweepRow:
    value: float
    results: Dict[str, AllocationResult]


def _point(spec: SweepSpec, value) -> SweepRow:
    link = spec.link
    m = spec.m_total
    if spec.variable == "m_total":
        m = int(value)
    elif spec.variable == "bandwidth":
        link = dataclasses.replace(link, bandwidth_hz=float(value))
    else:
        link = dataclasses.replace(link, latency_budget_s=float(value))
    profile = OmissionProfile(m, spec.q)
    return SweepRow(value=value, results={
        "jccpg": solve(link, profile, m),
        "simplified": solve_simplified(link, profile, m),
        "traditional": solve_traditional(link, m)})


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate every algorithm at every grid point, in grid order."""
    return [_point(spec, value) for value in spec.grid]


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(rows: List[SweepRow], path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            for algo, result in row.results.items():
                if result.feasible:
                    writer.writerow([_fmt(row.value), algo,
                                     _fmt(result.e_total), _fmt(result.e1),
                                     _fmt(result.e2), _fmt(result.p_opt),
                                     result.e_opt, "true"])
                else:
                    writer.writerow([_fmt(row.value), algo,
                                     "", "", "", "", "", "false"])


def _ratios(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list of omission ratios")
    return [as_float(v) for v in value]


CONFIG_KEYS = (*_LINK_KEYS, "m_total", "q")


def read_config(path) -> dict:
    """The `SweepSpec` fields a flat YAML config sets: `link`, `m_total` and
    `q`, each at its default when its keys are absent.

    A file that is not UTF-8 YAML holding a flat mapping raises ParseError;
    an unknown key or a bad value raises ValidationError naming the key.
    """
    # Besides YAMLError, loading lets ValueError out, for a byte that is not
    # UTF-8 and for a malformed scalar such as `!!int x` or `2020-13-45`;
    # AttributeError, KeyError or IndexError for `!!timestamp 1`,
    # `!!bool maybe` or `!!int ''`; and RecursionError for deep nesting.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except (yaml.YAMLError, ValueError, AttributeError, LookupError,
            RecursionError) as exc:
        raise ParseError("config parse error in %s: %s" % (path, exc)) from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ParseError("config %s must be a flat key-value document" % path)
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ValidationError("unknown config key %r (expected one of %s)"
                                  % (key, ", ".join(CONFIG_KEYS)))
    return {"link": LinkModel.from_config(cfg),
            "m_total": config_value(cfg, "m_total", as_int, DEFAULT_M_TOTAL),
            "q": config_value(cfg, "q", _ratios, DEFAULT_Q)}
