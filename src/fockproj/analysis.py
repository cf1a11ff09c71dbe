"""Distinguishability sweeps: engine curves next to their closed forms,
monotonicity verdicts, and refinement of interior extrema.

Scenario parameters arrive as `angles`, `detectors` and the classical
keywords; those left None take the scenario's defaults, and one the
scenario does not use raises ValueError.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import models, projectors
from .models import GAMMA_MAX, ScenarioId
from .projectors import DetectorModel, ProjectorAngles

DEFAULT_STEPS = 101
MAX_STEPS = 100_001  # grid cap: a larger sweep is refused before anything is built
MONOTONICITY_TOL = 1e-9
EXTREMUM_GAMMA_TOL = 1e-10


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


@dataclass(frozen=True)
class SweepResult:
    """Sampled probability curve with its verdict and refined extrema.

    `probabilities` holds raw engine values (range-guarded upstream, not
    clamped); `closed_forms` the analytic reference curve;
    `indistinguishability` is None for the classical scenario.  `params`
    records the scenario parameters needed to re-evaluate the curve.
    """

    scenario: ScenarioId
    gammas: tuple[float, ...]
    probabilities: tuple[float, ...]
    closed_forms: tuple[float, ...]
    indistinguishability: Optional[tuple[float, ...]]
    verdict: Verdict
    extrema: tuple[Extremum, ...]
    params: dict

    def max_closed_form_deviation(self) -> float:
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
    return lambda gamma: float(curve(np.array([models.check_gamma(gamma)]))[0])


def _steps(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign of every first difference of `values` outside +-tol (finite, >= 0)."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if values.size < 3:
        raise ValueError("need at least 3 samples to classify monotonicity")
    if not np.isfinite(values).all():
        raise ValueError("cannot classify a curve with a sample that is not finite")
    diffs = np.diff(values)
    index = np.flatnonzero(np.abs(diffs) > tol)
    return index, np.sign(diffs[index])


def _verdict(signs: np.ndarray) -> Verdict:
    kinds = set(signs.tolist())
    if not kinds:
        return Verdict.CONSTANT
    if kinds == {1.0}:
        return Verdict.NON_DECREASING
    if kinds == {-1.0}:
        return Verdict.NON_INCREASING
    return Verdict.NON_MONOTONIC


def classify_monotonicity(values: Sequence[float], tol: float = MONOTONICITY_TOL) -> Verdict:
    """Verdict on a sampled curve: steps within +-tol count as flat; a non-finite sample raises."""
    return _verdict(_steps(np.fromiter(values, dtype=float), tol)[1])


_SLOPE_STEP = 1e-5
_LEVELS = 5  # bisection steps per curve call


def _halve(edges: list) -> list:
    """`edges` with 0.5 * (a + b) inserted in every gap (a, b), as a bisection step forms it."""
    out = edges + edges[1:]
    out[::2] = edges
    out[1::2] = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    return out


def _stationary_points(curve, brackets: list, tol: float = EXTREMUM_GAMMA_TOL) -> list:
    """The extremum (x, f(x)) of `curve` in each bracket (lo, hi, rising), to `tol` in gamma.

    Bisects on the sign of rising * (f(x + h) - f(x - h)): comparing values can
    only narrow an extremum down to its flat top, ~sqrt(eps) wide, while the
    slope changes sign within ~eps / h + h^2 of it.  One call of the array
    curve serves the next `_LEVELS` steps of every open bracket.  It holds the
    slope pair at each midpoint those steps could visit, formed level by level
    as a one-step loop forms it, so every step is the same to the bit; and,
    once some gap is within `tol`, the value wherever the bisection could end.
    """
    found = [None] * len(brackets)
    todo = [(i, lo, hi) for i, (lo, hi, _) in enumerate(brackets)]
    while todo:
        grids, mids, ends = [], [], []
        for i, a, b in todo:
            edges = [a, b]
            for _ in range(_LEVELS):
                edges = _halve(edges)
            grids.append((i, edges, len(mids), len(ends)))
            mids += edges[1:-1]
            if min(q - p for p, q in zip(edges, edges[1:])) <= tol:
                ends += _halve(edges)[1:-1]  # [edges[j], edges[k]] would end at ends[j + k - 1]
        x, n = np.array(mids), len(mids)
        values = curve(np.concatenate(
            [np.minimum(x + _SLOPE_STEP, GAMMA_MAX), np.maximum(x - _SLOPE_STEP, 0.0), ends]
        )).tolist()
        above, below, at = values[:n], values[n:2 * n], values[2 * n:]
        todo = []
        for i, edges, k, e in grids:
            rising, lo, hi = brackets[i][2], 0, len(edges) - 1
            while edges[hi] - edges[lo] > tol and hi - lo > 1:
                m = (lo + hi) // 2  # edges[m] is the midpoint of [edges[lo], edges[hi]]
                if rising * (above[k + m - 1] - below[k + m - 1]) > 0.0:
                    lo = m
                else:
                    hi = m
            a, b = edges[lo], edges[hi]
            if b - a > tol:
                todo.append((i, a, b))
            else:
                found[i] = (0.5 * (a + b), at[e + lo + hi - 1])
    return found


def _extrema(curve, gammas, index: np.ndarray, signs: np.ndarray) -> tuple[Extremum, ...]:
    turns = np.flatnonzero(signs[1:] == -signs[:-1]).tolist()
    index, signs = index.tolist(), signs.tolist()
    brackets = [(gammas[index[t]], gammas[index[t + 1] + 1], signs[t]) for t in turns]
    return tuple(
        Extremum(x, value, ExtremumKind.MAX if rising > 0 else ExtremumKind.MIN)
        for (x, value), (_, _, rising) in zip(_stationary_points(curve, brackets), brackets)
    )


def find_extrema(result: SweepResult, tol: float = MONOTONICITY_TOL) -> tuple[Extremum, ...]:
    """Interior extrema of the sampled curve, refined on its compiled curve.

    Two consecutive steps outside +-tol with opposite signs, j < k, bracket
    an extremum on [gammas[j], gammas[k + 1]] (flatter steps are skipped
    over), which a bisection on the sign of the slope narrows.  Monotone and
    constant curves yield an empty tuple; endpoints are never reported.
    """
    index, signs = _steps(np.array(result.probabilities), tol)
    curve = projectors.scenario_curve(result.scenario, result.params)
    return _extrema(curve, result.gammas, index, signs)


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
    """Evaluate a scenario on a uniform gamma grid over [0, pi/2]: every column in
    one call on the grid, with the curve compiled once and its steps scanned once."""
    if not (isinstance(steps, numbers.Integral) and 3 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [3, {MAX_STEPS}], got {steps!r}")
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    grid = np.arange(steps) * GAMMA_MAX / (steps - 1)
    gammas = tuple(grid.tolist())
    curve = projectors.scenario_curve(scenario, params)
    probabilities = curve(grid)
    overlap = projectors.overlap_curve(scenario) if scenario in models.QUANTUM_SCENARIOS else None
    index, signs = _steps(probabilities, MONOTONICITY_TOL)
    return SweepResult(
        scenario=scenario,
        gammas=gammas,
        probabilities=tuple(probabilities.tolist()),
        closed_forms=tuple(models.SCENARIOS[scenario].closed_form(grid, params).tolist()),
        indistinguishability=None if overlap is None else tuple(overlap(grid).tolist()),
        verdict=_verdict(signs),
        extrema=_extrema(curve, gammas, index, signs),
        params=params,
    )
