"""Distinguishability sweeps: engine curves next to their closed forms,
monotonicity verdicts, and the exact interior extrema.

Scenario parameters arrive as `angles`, `detectors` and the classical
keywords; those left None take the scenario's defaults, and one the
scenario does not use raises ValueError.
"""

from __future__ import annotations

import cmath
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
        return closed_form_deviation(*(np.fromiter(c, float, len(c))
                                       for c in (self.probabilities, self.closed_forms)))


def closed_form_deviation(probabilities: np.ndarray, closed_forms: np.ndarray) -> float:
    """Largest |probability - closed form| over a sweep's rows, probabilities unclamped."""
    return float(np.abs(probabilities - closed_forms).max())


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
    if not signs.size:
        return Verdict.CONSTANT
    if signs.min() != signs.max():
        return Verdict.NON_MONOTONIC
    return Verdict.NON_DECREASING if signs[0] > 0 else Verdict.NON_INCREASING


def classify_monotonicity(values: Sequence[float], tol: float = MONOTONICITY_TOL) -> Verdict:
    """Verdict on a sampled curve: steps within +-tol count as flat; a non-finite sample raises."""
    return _verdict(_steps(np.fromiter(values, dtype=float), tol)[1])


_NODES = np.arange(16) * (math.pi / 8)  # one period, twice the rate a degree-4 curve needs
_TRIM = 1e-14  # a harmonic smaller than this share of the largest is rounding
_CIRCLE = 1e-3  # a root this close to |z| = 1 is a stationary point on the real line
_MERGE = 2e-5  # roots closer than this in angle are one multiple root split by rounding


def _stationary_points(samples: np.ndarray) -> list[float]:
    """Ascending angles where the slope of a curve vanishes, from its `samples` at `_NODES`.

    Every curve is a real trigonometric polynomial p(g) = sum_{|k| <= n} c_k z^k,
    z = e^{ig}, n <= 4, so 16 samples give its c_k exactly and z^n p'(g) is a polynomial
    of degree 2n whose roots on the unit circle, eigenvalues of its companion matrix, are
    the stationary points (J. P. Boyd, J. Eng. Math. 56:203-219, 2006).  The roots of a
    cluster are replaced by their centroid, every other one is polished by Newton steps.
    """
    c = np.fft.rfft(samples / np.abs(samples).max())[1:5]  # 16 c_k, k = 1..4
    kept = np.flatnonzero(np.abs(c) > _TRIM * np.abs(c).max())
    n = kept[-1] + 1 if kept.size else 0
    if not n:
        return []
    c, k = c[:n], np.arange(1, n + 1)
    poly = np.zeros(2 * n + 1, dtype=complex)  # poly[j] multiplies z^(2n - j)
    poly[n - k] = 1j * k * c
    poly[n + k] = -1j * k * np.conj(c)
    companion = np.eye(2 * n, k=-1, dtype=complex)  # as np.roots builds it, without its checks
    companion[0] = -poly[1:] / poly[0]
    roots = np.linalg.eigvals(companion).tolist()
    angles = sorted(cmath.phase(z) for z in roots if abs(abs(z) - 1.0) < _CIRCLE)
    starts = [i for i, (a, b) in enumerate(zip([-math.inf] + angles, angles)) if b - a > _MERGE]
    points = []
    for cluster in (angles[i:j] for i, j in zip(starts, starts[1:] + [len(angles)])):
        g = sum(cluster) / len(cluster)
        for _ in range(2 if len(cluster) == 1 else 0):  # Newton on p'(g) ~ sum k Im(c_k e^{ikg})
            slope = curvature = 0.0
            for m, cm in enumerate(c.tolist(), 1):
                t = cm * cmath.exp(1j * (g * m))
                slope += t.imag * m
                curvature += t.real * m * m
            g -= slope / curvature
        points.append(g)
    return points


def _extrema(curve, nodes, gammas, index: np.ndarray, signs: np.ndarray) -> tuple[Extremum, ...]:
    turns = np.flatnonzero(signs[1:] == -signs[:-1])
    if not turns.size:
        return ()
    x = _stationary_points(nodes)
    values = curve(np.array(x))[0].tolist()
    found = []
    for t in turns.tolist():
        rising = float(signs[t])
        lo, hi = gammas[index[t]], gammas[index[t + 1] + 1]
        inside = [i for i, g in enumerate(x) if lo < g < hi]
        if inside:  # else the sampled turn is rounding: the curve has none there
            best = max(inside, key=lambda i: rising * values[i])  # the first, lower gamma, on a tie
            kind = ExtremumKind.MAX if rising > 0 else ExtremumKind.MIN
            found.append(Extremum(x[best], values[best], kind))
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
    return _extrema(curve, curve(_NODES)[0], result.gammas, index, signs)


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
    called on the grid and the Fourier nodes at once, and once more where it turns."""
    if not (isinstance(steps, numbers.Integral) and 3 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [3, {MAX_STEPS}], got {steps!r}")
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    grid = np.arange(steps) * GAMMA_MAX / (steps - 1)
    gammas = tuple(grid.tolist())
    curve = projectors.scenario_curve(scenario, params)
    values, overlap = curve(np.concatenate((grid, _NODES)))
    spec = models.SCENARIOS[scenario]  # classical light: its curve is its closed form, no overlap
    closed = values[:steps] if overlap is None else spec.closed_form(grid, params)
    index, signs = _steps(values[:steps], MONOTONICITY_TOL)
    return SweepResult(
        scenario=scenario,
        gammas=gammas,
        probabilities=tuple(values[:steps].tolist()),
        closed_forms=tuple(closed.tolist()),
        indistinguishability=None if overlap is None else tuple(overlap[:steps].tolist()),
        verdict=_verdict(signs),
        extrema=_extrema(curve, values[steps:], gammas, index, signs),
        params=params,
    )
