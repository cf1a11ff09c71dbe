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
    return float(models.SCENARIOS[scenario].closed_form(models.check_gamma(gamma), params))


def probability_function(
    scenario: ScenarioId,
    angles: Optional[ProjectorAngles] = None,
    detectors: Optional[DetectorModel] = None,
    *,
    theta1: Optional[float] = None,
    theta2: Optional[float] = None,
    amplitude: Optional[float] = None,
) -> Callable[[float], float]:
    """Engine-evaluated probability of a scenario as a function of gamma."""
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    curve = projectors.scenario_curve(scenario, params)
    return lambda gamma: float(curve(np.array([models.check_gamma(gamma)]))[0][0])


def _scan(values: np.ndarray) -> tuple[Verdict, list]:
    """Verdict on sampled `values` and its turns (j, k, rising): steps j < k outside
    +-MONOTONICITY_TOL with opposite signs and only flat steps between, rising if step j is."""
    if values.size < 3:
        raise ValueError("need at least 3 samples to classify monotonicity")
    if not np.isfinite(values).all():
        raise ValueError("cannot classify a curve with a sample that is not finite")
    diffs = values[1:] - values[:-1]
    index = (np.abs(diffs) > MONOTONICITY_TOL).nonzero()[0]
    up = diffs[index] > 0
    at = (up[1:] != up[:-1]).nonzero()[0]
    turns = list(zip(index[at].tolist(), index[at + 1].tolist(), up[at].tolist()))
    return (Verdict.NON_MONOTONIC if turns else Verdict.CONSTANT if not index.size
            else Verdict.NON_DECREASING if up[0] else Verdict.NON_INCREASING), turns


def classify_monotonicity(values: Sequence[float]) -> Verdict:
    """Verdict on a sampled curve: steps within +-MONOTONICITY_TOL count as flat; a non-finite
    sample raises."""
    return _scan(np.fromiter(values, dtype=float))[0]


_TIE = sys.float_info.epsilon  # stationary values closer than this share of the largest sample are equal


def _extrema(curve, points, values: np.ndarray, gammas: np.ndarray, turns: list) -> tuple[Extremum, ...]:
    """Per turn (j, k, rising) of the samples `values`, the most extreme of the stationary
    `points` strictly inside [gammas[j], gammas[k + 1]], evaluated on `curve`; values within
    _TIE times the largest |sample| are equal, and the lowest gamma of them wins, so that two
    exact zeros are not told apart by rounding.  Endpoints are never reported."""
    if not (turns and points):
        return ()
    x = sorted(points)
    at = curve(np.array(x))[0].tolist()
    tie = _TIE * float(np.abs(values).max())
    found = []
    for j, k, rising in turns:
        lo, hi = gammas[j], gammas[k + 1]
        inside = [i for i, g in enumerate(x) if lo < g < hi]
        if inside:  # else the sampled turn is rounding: the curve has none there
            sign = 1.0 if rising else -1.0
            best = max(sign * at[i] for i in inside)
            i = next(i for i in inside if sign * at[i] >= best - tie)
            found.append(Extremum(x[i], at[i], ExtremumKind.MAX if rising else ExtremumKind.MIN))
    return tuple(found)


def find_extrema(result: SweepResult) -> tuple[Extremum, ...]:
    """The interior extrema `sweep` found, `result.extrema`; nothing is compiled.  It stays
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
    """Evaluate a scenario on a uniform gamma grid over [0, pi/2]: the curve is compiled once,
    called on the grid, and once more at the scenario's stationary points where it turns."""
    if not (isinstance(steps, numbers.Integral) and 3 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [3, {MAX_STEPS}], got {steps!r}")
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    grid = np.arange(steps) * GAMMA_MAX / (steps - 1)
    curve = projectors.scenario_curve(scenario, params)
    values, overlap = curve(grid)
    spec = models.SCENARIOS[scenario]  # classical light: its curve is its closed form, no overlap
    closed = values if overlap is None else spec.closed_form(grid, params)
    for column in (c for c in (grid, values, closed, overlap) if c is not None):
        column.flags.writeable = False  # and so every view of it, which cannot be made writeable again
    verdict, turns = _scan(values)
    return SweepResult(
        scenario=scenario,
        gammas=grid[:],
        probabilities=values[:],
        closed_forms=closed[:],
        indistinguishability=None if overlap is None else overlap[:],
        verdict=verdict,
        extrema=_extrema(curve, spec.stationary(params), values, grid, turns),
        params=params,
    )
