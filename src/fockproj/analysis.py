"""Distinguishability sweeps: engine curves next to their closed forms,
monotonicity verdicts, and the exact interior extrema.

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
    """Sampled probability curve with its verdict and exact extrema.

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


_NODES = np.arange(16) * (math.pi / 8)  # one period, twice the rate a degree-4 curve needs
_TRIM = 1e-14  # a harmonic smaller than this share of the largest is rounding
_CIRCLE = 1e-3  # a root this close to |z| = 1 is a stationary point on the real line
_MERGE = 2e-5  # roots closer than this in angle are one multiple root split by rounding


def _stationary_points(curve) -> np.ndarray:
    """Ascending angles where the slope of `curve` vanishes, from its Fourier coefficients.

    Every curve is a real trigonometric polynomial p(g) = sum_{|k| <= n} c_k z^k,
    z = e^{ig}, n <= 4, so 16 samples give its c_k exactly and z^n p'(g) is a
    polynomial of degree 2n whose roots on the unit circle are the stationary
    points (J. P. Boyd, J. Eng. Math. 56:203-219, 2006).  The roots of a cluster
    are replaced by their centroid, every other one is polished by Newton steps.
    """
    samples = curve(_NODES)
    c = np.fft.rfft(samples / np.abs(samples).max())[1:5]  # 16 c_k, k = 1..4
    kept = np.flatnonzero(np.abs(c) > _TRIM * np.abs(c).max())
    n = kept[-1] + 1 if kept.size else 0
    c, k = c[:n], np.arange(1, n + 1)
    poly = np.zeros(2 * n + 1, dtype=complex)  # poly[j] multiplies z^(2n - j)
    poly[n - k] = 1j * k * c
    poly[n + k] = -1j * k * np.conj(c)
    z = np.roots(poly)
    angles = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) < _CIRCLE]))
    starts = np.flatnonzero(np.diff(angles, prepend=-math.inf) > _MERGE)
    sizes = np.diff(starts, append=angles.size)
    points = np.add.reduceat(angles, starts) / sizes
    single = sizes == 1
    for _ in range(2):  # Newton on p'(g) ~ sum k Im(c_k e^{ikg}), p''(g) ~ sum k^2 Re(c_k e^{ikg})
        terms = c * np.exp(1j * np.outer(points[single], k))
        points[single] -= (terms.imag * k).sum(axis=1) / (terms.real * k * k).sum(axis=1)
    return points


def _extrema(curve, gammas, index: np.ndarray, signs: np.ndarray) -> tuple[Extremum, ...]:
    turns = np.flatnonzero(signs[1:] == -signs[:-1])
    if not turns.size:
        return ()
    x = _stationary_points(curve)
    values = curve(x)
    found = []
    for t in turns.tolist():
        rising = signs[t]
        inside = np.flatnonzero((gammas[index[t]] < x) & (x < gammas[index[t + 1] + 1]))
        if inside.size:  # else the sampled turn is rounding: the curve has none there
            best = inside[np.argmax(rising * values[inside])]  # the first, lower gamma, on a tie
            kind = ExtremumKind.MAX if rising > 0 else ExtremumKind.MIN
            found.append(Extremum(float(x[best]), float(values[best]), kind))
    return tuple(found)


def find_extrema(result: SweepResult, tol: float = MONOTONICITY_TOL) -> tuple[Extremum, ...]:
    """Interior extrema of the sampled curve, located exactly on its compiled curve.

    Two consecutive steps outside +-tol with opposite signs, j < k, bracket
    an extremum on [gammas[j], gammas[k + 1]] (flatter steps are skipped
    over).  Of the stationary points strictly inside, the one with the most
    extreme value is reported.  Monotone and constant curves yield an empty
    tuple; endpoints are never reported.
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
