"""Distinguishability sweeps: engine curves next to their closed forms,
monotonicity verdicts, and the exact interior extrema.

Scenario parameters arrive as `angles`, `detectors` and the classical
keywords; those left None take the scenario's defaults, and one the
scenario does not use raises ValueError.
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import models, projectors
from .models import GAMMA_MAX, ScenarioId
from .projectors import DetectorModel, ProjectorAngles

DEFAULT_STEPS = 101
MAX_STEPS = 100_001  # grid cap: a larger sweep is refused before anything is built
MONOTONICITY_TOL = 1e-9


class Verdict(enum.Enum):
    NON_DECREASING = "NonDecreasing"
    NON_INCREASING = "NonIncreasing"
    CONSTANT = "Constant"
    NON_MONOTONIC = "NonMonotonic"


class ExtremumKind(enum.Enum):
    MIN = "Min"
    MAX = "Max"


@dataclass(frozen=True)
class Extremum:
    gamma: float
    value: float
    kind: ExtremumKind


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sampled probability curve with its verdict and exact extrema.

    Each column is a read-only float64 array of length `steps`, a view whose
    `writeable` flag cannot be set back: `probabilities` holds raw engine
    values (range-guarded upstream, not clamped), `closed_forms` the analytic
    reference curve; `indistinguishability` is None for classical
    light.  `params` records the scenario parameters, defaults filled in.
    Results compare by identity: arrays have no truth value under ==.
    """

    scenario: ScenarioId
    gammas: np.ndarray
    probabilities: np.ndarray
    closed_forms: np.ndarray
    indistinguishability: Optional[np.ndarray]
    verdict: Verdict
    extrema: tuple[Extremum, ...]
    params: dict

    def max_closed_form_deviation(self) -> float:
        """Largest |probability - closed form| over the rows, probabilities unclamped."""
        return float(np.abs(np.subtract(self.probabilities, self.closed_forms)).max())


def _params(scenario, angles, detectors, theta1, theta2, amplitude) -> dict:
    """The scenario's checked parameter dict; None stands for "not given"."""
    beta, theta = (None, None) if angles is None else (angles.beta, angles.theta)
    eta = None if detectors is None else detectors.eta
    given = dict(beta=beta, theta=theta, eta=eta, theta1=theta1, theta2=theta2, amplitude=amplitude)
    return models.checked_params(scenario, given)


def closed_form(
    scenario: ScenarioId,
    gamma: float,
    angles: Optional[ProjectorAngles] = None,
    detectors: Optional[DetectorModel] = None,
    *,
    theta1: Optional[float] = None,
    theta2: Optional[float] = None,
    amplitude: Optional[float] = None,
) -> float:
    """Analytic value of the measured curve, independent of the Fock engine."""
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    return float(models.SCENARIOS[scenario].closed_form(models.GAMMA.check(gamma), params))


def probability_function(
    scenario: ScenarioId,
    angles: Optional[ProjectorAngles] = None,
    detectors: Optional[DetectorModel] = None,
    *,
    theta1: Optional[float] = None,
    theta2: Optional[float] = None,
    amplitude: Optional[float] = None,
) -> Callable[[float], float]:
    """Engine-evaluated probability of a scenario as a function of gamma; each call evaluates
    the whole curve, its matrix A included, at one angle."""
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    return lambda gamma: float(
        projectors.scenario_curve(scenario, params, np.array([models.GAMMA.check(gamma)]))[0][0])


def _scan(values: np.ndarray) -> Verdict:
    """Verdict on sampled `values`: steps outside +-MONOTONICITY_TOL times the largest |sample|
    count, and a curve whose counted steps have both signs turns."""
    if values.size < 3:
        raise ValueError("need at least 3 samples to classify monotonicity")
    if not np.isfinite(values).all():
        raise ValueError("cannot classify a curve with a sample that is not finite")
    diffs = values[1:] - values[:-1]
    up = diffs[np.abs(diffs) > MONOTONICITY_TOL * np.abs(values).max()] > 0
    return (Verdict.CONSTANT if not up.size else Verdict.NON_MONOTONIC if up.any() != up.all()
            else Verdict.NON_DECREASING if up[0] else Verdict.NON_INCREASING)


def classify_monotonicity(values: Sequence[float]) -> Verdict:
    """Verdict on a sampled curve: steps within +-MONOTONICITY_TOL times the largest |sample|
    count as flat, so that the verdict does not depend on the curve's scale; a non-finite
    sample raises."""
    return _scan(np.fromiter(values, dtype=float))


_TIE = sys.float_info.epsilon  # stationary values closer than this share of the largest sample are equal


def _extrema(points, at, values: np.ndarray) -> tuple[Extremum, ...]:
    """The turns of the exact curve, by a walk from (0, values[0]) through the sorted stationary
    `points` strictly inside (0, pi/2), of values `at`, to (pi/2, values[-1]): the curve is
    monotone between them.  With tol and tie MONOTONICITY_TOL and _TIE times the largest |sample|,
    the first point more than tol from the start sets the direction and the candidate.  Rising, a
    point more than tie above the candidate replaces it (the lowest gamma wins a tie), and one more
    than tol below makes it a Max and is the candidate of the fall; falling mirrors this.  The last
    candidate is not reported: an end, or a point passed without turning, is never an extremum."""
    scale = float(np.abs(values).max())
    tol, tie = MONOTONICITY_TOL * scale, _TIE * scale
    start, sign, found = float(values[0]), 0.0, []
    walk = [(g, v) for g, v in zip(points, at) if 0.0 < g < GAMMA_MAX] + [(GAMMA_MAX, float(values[-1]))]
    for g, v in walk:
        if not sign:
            if abs(v - start) > tol:
                sign, best = (1.0 if v > start else -1.0), (g, v)
        elif sign * (v - best[1]) > tie:
            best = (g, v)
        elif sign * (best[1] - v) > tol:
            found.append(Extremum(*best, ExtremumKind.MAX if sign > 0 else ExtremumKind.MIN))
            sign, best = -sign, (g, v)
    return tuple(found)


def find_extrema(result: SweepResult) -> tuple[Extremum, ...]:
    """The interior extrema `sweep` found, `result.extrema`; nothing is evaluated.  It stays
    only as a layer that the benchmark's span table (fockbench/spans.py) wraps by name."""
    return result.extrema


def sweep(
    scenario: ScenarioId,
    steps: int = DEFAULT_STEPS,
    angles: Optional[ProjectorAngles] = None,
    detectors: Optional[DetectorModel] = None,
    *,
    theta1: Optional[float] = None,
    theta2: Optional[float] = None,
    amplitude: Optional[float] = None,
) -> SweepResult:
    """Evaluate a scenario on a uniform gamma grid over [0, pi/2]: the curve is evaluated in one
    call, on the grid followed by the scenario's stationary points, whose values the extrema
    take."""
    if not (isinstance(steps, numbers.Integral) and 3 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [3, {MAX_STEPS}], got {steps!r}")
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    spec = models.SCENARIOS[scenario]  # classical light: its curve is its closed form, no overlap
    points = sorted(spec.stationary(params))
    grid = np.arange(steps) * GAMMA_MAX / (steps - 1)
    grid[-1] = GAMMA_MAX  # the product can land one ulp off it
    values, overlap = projectors.scenario_curve(scenario, params, np.concatenate((grid, points)))
    closed = values[:steps] if overlap is None else spec.closed_form(grid, params)
    for column in (c for c in (grid, values, closed, overlap) if c is not None):
        column.flags.writeable = False  # and so every view of it, which cannot be made writeable again
    verdict = _scan(values[:steps])
    return SweepResult(
        scenario=scenario,
        gammas=grid[:],
        probabilities=values[:steps],
        closed_forms=closed[:],
        indistinguishability=None if overlap is None else overlap[:steps],
        verdict=verdict,
        extrema=_extrema(points, values[steps:].tolist(), values[:steps])
        if verdict is Verdict.NON_MONOTONIC else (),
        params=params,
    )
