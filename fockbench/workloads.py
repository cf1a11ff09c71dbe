"""Seeded request streams, request execution and the correctness gate.

A request is one probability-vs-gamma curve.  The benchmark draws every
request from the seed it is given; fockproj only sees the generated
scenario, grid size and parameters.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from fockproj import analysis, cli
from fockproj.models import ScenarioId
from fockproj.projectors import DetectorModel, ProjectorAngles

WORKLOADS = ("engine-dense", "angle-scan", "cli-cold")

# Requests per cycle: a run stops only at a cycle boundary, so every run
# holds each scenario equally often.
ENGINE_SCENARIOS = ("hom2", "hom4-coincidence", "hom4-bunching", "hofmann-cascade")
ANGLE_SCENARIOS = (
    "single-deliberate",
    "single-loss",
    "single-phase-noise",
    "two-photon-polarization",
    "classical-polarization",
)
ALL_SCENARIOS = tuple(s.value for s in ScenarioId)
CYCLE = {"engine-dense": len(ENGINE_SCENARIOS), "angle-scan": len(ANGLE_SCENARIOS), "cli-cold": len(ALL_SCENARIOS)}
STEPS = {"engine-dense": 1001, "angle-scan": 101, "cli-cold": analysis.DEFAULT_STEPS}

_PROJECTOR_SCENARIOS = ("single-deliberate", "single-loss", "single-phase-noise")

# The acceptance gate of the package: engine against closed form.
CLOSED_FORM_TOL = 1e-10
HOM4_MINIMUM = 5.0 / 24.0
HOM4_MINIMUM_TOL = 1e-8
# Verdicts from the scenario table of the README.
ENGINE_VERDICTS = {
    "hom2": "NonDecreasing",
    "hom4-coincidence": "NonMonotonic",
    "hom4-bunching": "NonIncreasing",
    "hofmann-cascade": "NonMonotonic",
}


@dataclass(frozen=True)
class Request:
    scenario: str
    steps: int
    params: dict = field(default_factory=dict)
    output_format: str = "csv"


def _params(rng: random.Random, scenario: str) -> dict:
    if scenario in _PROJECTOR_SCENARIOS:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return {"beta": rng.uniform(0.0, math.pi / 2), "theta": theta if theta < 2.0 * math.pi else 0.0}
    if scenario == "hofmann-cascade":
        return {"eta": rng.uniform(0.5, 1.0)}
    if scenario == "classical-polarization":
        return {
            "theta1": rng.uniform(0.0, math.pi),
            "theta2": rng.uniform(0.0, math.pi),
            "amplitude": rng.uniform(0.5, 3.0),
        }
    return {}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream; the same workload and seed give the same stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    steps = STEPS[workload]
    index = itertools.count()
    while True:
        if workload == "engine-dense":
            order = ENGINE_SCENARIOS
        elif workload == "angle-scan":
            order = ANGLE_SCENARIOS
        else:
            order = rng.sample(ALL_SCENARIOS, len(ALL_SCENARIOS))
        for scenario in order:
            fmt = ("csv", "json")[next(index) % 2] if workload == "cli-cold" else "csv"
            yield Request(scenario, steps, _params(rng, scenario), fmt)


def first(workload: str, seed: int, count: int) -> list[Request]:
    return list(itertools.islice(requests(workload, seed), count))


# -- execution ---------------------------------------------------------


def run_sweep(req: Request):
    """One in-process curve request: `analysis.sweep`, then `cli.render_csv`.

    Looks the layer functions up on their modules at call time, so a
    traced pass sees the wrapped versions.
    """
    p = req.params
    angles = ProjectorAngles(p["beta"], p["theta"]) if "beta" in p else None
    detectors = DetectorModel(p["eta"]) if "eta" in p else None
    extra = {k: p[k] for k in ("theta1", "theta2", "amplitude") if k in p}
    result = analysis.sweep(ScenarioId(req.scenario), req.steps, angles, detectors, **extra)
    return result, cli.render_csv(result)


def cli_argv(req: Request, output_path: str) -> list[str]:
    """`fockproj` arguments for a request; floats are passed as exact reprs."""
    argv = ["--scenario", req.scenario]
    if req.steps != analysis.DEFAULT_STEPS:
        argv += ["--steps", str(req.steps)]
    for name, value in req.params.items():
        argv += [f"--{name}", repr(value)]
    return argv + ["--format", req.output_format, "--output", output_path]


# -- correctness gate --------------------------------------------------


@dataclass
class Curve:
    """The fields of one curve that the gate inspects."""

    scenario: str
    steps: int
    probabilities: list
    closed_forms: list
    indistinguishability: Optional[list]
    verdict: str
    extrema: list  # (kind, gamma, value)
    deviation: float


def curve_from_result(result) -> Curve:
    return Curve(
        scenario=result.scenario.value,
        steps=len(result.gammas),
        probabilities=list(result.probabilities),
        closed_forms=list(result.closed_forms),
        indistinguishability=None if result.indistinguishability is None else list(result.indistinguishability),
        verdict=result.verdict.value,
        extrema=[(e.kind.value, e.gamma, e.value) for e in result.extrema],
        deviation=result.max_closed_form_deviation(),
    )


def parse_csv(text: str) -> Curve:
    """Parse a `fockproj` CSV table, footer included."""
    lines = text.splitlines()
    if not lines or lines[0] != "gamma,probability,closed_form,indistinguishability":
        raise ValueError("CSV header missing")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = dict(line[2:].split(",", 1) for line in lines[1:] if line.startswith("# "))
    extrema = []
    if footer["extrema"] != "none":
        for entry in footer["extrema"].split(";"):
            kind, gamma, value = entry.split(":")
            extrema.append((kind, float(gamma), float(value)))
    indist = [float(r[3]) for r in rows] if rows and rows[0][3] != "" else None
    return Curve(
        scenario=footer["scenario"],
        steps=int(footer["steps"]),
        probabilities=[float(r[1]) for r in rows],
        closed_forms=[float(r[2]) for r in rows],
        indistinguishability=indist,
        verdict=footer["verdict"],
        extrema=extrema,
        deviation=float(footer["max_closed_form_deviation"]),
    )


def parse_json(text: str) -> Curve:
    """Parse a `fockproj` JSON table."""
    data = json.loads(text)
    return Curve(
        scenario=data["scenario"],
        steps=int(data["steps"]),
        probabilities=[float(x) for x in data["probabilities"]],
        closed_forms=[float(x) for x in data["closed_forms"]],
        indistinguishability=data["indistinguishability"],
        verdict=data["verdict"],
        extrema=[(e["kind"], float(e["gamma"]), float(e["value"])) for e in data["extrema"]],
        deviation=float(data["max_closed_form_deviation"]),
    )


def problems(workload: str, req: Request, curve: Curve) -> list[str]:
    """Everything wrong with one curve; an empty list means it passes."""
    found = []
    if curve.scenario != req.scenario or curve.steps != req.steps or len(curve.probabilities) != req.steps:
        found.append(f"wrong table: {curve.scenario} with {len(curve.probabilities)} rows")
    numbers = curve.probabilities + curve.closed_forms + (curve.indistinguishability or [])
    numbers += [x for _, g, v in curve.extrema for x in (g, v)] + [curve.deviation]
    if not all(math.isfinite(x) for x in numbers):
        found.append("non-finite value")
    if not curve.deviation <= CLOSED_FORM_TOL:
        found.append(f"closed-form deviation {curve.deviation!r} above {CLOSED_FORM_TOL}")
    if len(curve.closed_forms) >= 3 and curve.verdict != analysis.classify_monotonicity(curve.closed_forms).value:
        found.append(f"verdict {curve.verdict} disagrees with the closed-form curve")
    if workload == "engine-dense":
        if curve.verdict != ENGINE_VERDICTS[req.scenario]:
            found.append(f"verdict {curve.verdict}, expected {ENGINE_VERDICTS[req.scenario]}")
        if req.scenario == "hom4-coincidence" and not any(
            kind == "Min" and abs(value - HOM4_MINIMUM) <= HOM4_MINIMUM_TOL for kind, _, value in curve.extrema
        ):
            found.append("hom4-coincidence minimum is not 5/24")
    return found


def check_sweep(workload: str, req: Request, output) -> list[str]:
    """Gate for an in-process request: the result and its rendered table."""
    result, text = output
    return problems(workload, req, curve_from_result(result)) + problems(workload, req, parse_csv(text))


def check_cli(req: Request, returncode: int, text: Optional[str]) -> list[str]:
    """Gate for a `fockproj` process: exit 0 and a table that parses and passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if text is None:
        return ["no output file"]
    parse = parse_csv if req.output_format == "csv" else parse_json
    try:
        curve = parse(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"output does not parse: {exc!r}"]
    return problems("cli-cold", req, curve)
