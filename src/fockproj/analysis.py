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
import operator
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


_NODES = np.arange(16) * (math.pi / 8)  # one period, twice the rate a degree-4 curve needs
_TRIM = 1e-14  # a harmonic whose amplitude is below this share of the largest sample is rounding
_MERGE = 2e-5  # slope roots closer than this in angle are one multiple root split by rounding
_EPS = sys.float_info.epsilon  # the relative rounding of a float: a step or a sum below it is noise


def _cos8(m: int) -> float:
    """cos(m pi/8), exactly 0 or +-1 at the multiples of pi/2."""
    return math.sin((4 - abs((m + 8) % 16 - 8)) * math.pi / 8)


# the folded real DFT: harmonic k of the node samples s_j is X_k = re_k - i im_k, with
# re_k = s_0 + (-1)^k s_8 + sum_{j=1..7} (s_j + s_{16-j}) cos(kj pi/8) and
# im_k = sum_{j=1..7} (s_j - s_{16-j}) sin(kj pi/8); these are the two tables for k = 1..4
_FOLD = [([_cos8(k * j) for j in range(1, 8)], [_cos8(k * j - 4) for j in range(1, 8)])
         for k in range(1, 5)]

# The roots are looked for on the window [pi/4 - _HALF, pi/4 + _HALF] = [-_MERGE, pi/2 + _MERGE],
# in the coordinate x in [0, 1] with tan((g - pi/4)/2) = _TAU (2x - 1).
_HALF = math.pi / 4 + _MERGE
_TAU = math.tan(_HALF / 2)


def _bernstein(n: int) -> list:
    """Row j, column k - 1: the j-th of the 2n + 1 Bernstein coefficients over x of
    e^{ikg} (1 + t^2)^n / (1 + _TAU^2)^n, t = tan((g - pi/4)/2).  With u = 1 - x, v = x and
    h = _HALF that function is e^{ik(pi/4 - h)} (u + e^{ih} v)^(n+k) (u + e^{-ih} v)^(n-k)."""
    return [[cmath.exp(1j * k * (math.pi / 4 - _HALF)) / math.comb(2 * n, j) * sum(
        math.comb(n + k, a) * math.comb(n - k, j - a) * cmath.exp(1j * _HALF * (2 * a - j))
        for a in range(max(0, j - n + k), min(j, n + k) + 1)) for k in range(1, n + 1)]
        for j in range(2 * n + 1)]


_BERNSTEIN = {n: _bernstein(n) for n in range(1, 5)}


def _angle(x: float) -> float:
    """The gamma at window coordinate x."""
    return math.pi / 4 + 2 * math.atan(_TAU * (2 * x - 1))


def _variations(b: list) -> int:
    """Sign changes along `b`, zeros skipped: at least the number of roots inside, and of
    the same parity."""
    signs = [v > 0 for v in b if v]
    return sum(map(operator.ne, signs, signs[1:]))


def _halves(b: list) -> tuple[list, list]:
    """De Casteljau at x = 1/2: the Bernstein coefficients of both halves."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(p + q) * 0.5 for p, q in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _terms(w: list, order: int) -> list:
    """Pairs (c_k, ik c_k), c_k = (ik)^order w_k: the order-th derivative of
    Re sum_k w_k e^{ikg}, and the slope of that derivative."""
    return [(c * (1j * k) ** order, c * (1j * k) ** (order + 1)) for k, c in enumerate(w, 1)]


def _value(terms: list, g: float) -> tuple[float, float]:
    """Re sum_k c_k e^{ikg} and its slope at g."""
    z = complex(math.cos(g), math.sin(g))
    zk, f, df = 1.0, 0j, 0j
    for c, d in terms:
        zk *= z
        f += c * zk
        df += d * zk
    return f.real, df.real


def _polish(terms: list, lo: float, hi: float, rising: bool, g: float) -> float:
    """The root in [lo, hi] of the function of `terms`, which rises through it if `rising`,
    from `g`: Newton steps inside the shrinking sign-change bracket, and a bisection where a
    step would leave it or not halve (rtsafe: W. H. Press et al., Numerical Recipes).  It
    stops once a step or the function is down to rounding."""
    last, rounding = hi - lo, _EPS * sum(abs(c) for c, _ in terms)
    while True:
        f, df = _value(terms, g)
        if (f > 0) == rising:
            hi = g
        else:
            lo = g
        step = f / df if df else last
        if abs(step) <= _EPS or abs(f) <= rounding:
            return g - step if lo <= g - step <= hi else g
        if lo < g - step < hi and 2 * abs(step) <= abs(last):
            g, last = g - step, step
        elif lo < (lo + hi) / 2 < hi:
            g, last = (lo + hi) / 2, (hi - lo) / 2
        else:  # no float is left between the ends
            return g


def _multiplicity(w: list, g: float) -> int:
    """How many roots p'(g) = Re sum_k w_k e^{ikg} has within _MERGE of g: the order of the
    largest term of its Taylor series about g on that disk, which is the count by Rouche's
    theorem whenever that term outweighs the rest."""
    z = complex(math.cos(g), math.sin(g))
    e = [c * z**k for k, c in enumerate(w, 1)]
    sizes = [abs(sum((c * (1j * k * _MERGE) ** j).real for k, c in enumerate(e, 1)))
             / math.factorial(j) for j in range(1, 2 * len(w) + 1)]
    return 1 + sizes.index(max(sizes))


def _stationary_points(samples: np.ndarray) -> list[float]:
    """Ascending angles in [0, pi/2] where the slope of a curve vanishes, from its `samples`
    at `_NODES`; no LAPACK and no FFT, only Python floats after one `tolist`.

    Every curve is a real trigonometric polynomial of degree n <= 4, so a folded real DFT
    of the 16 samples, divided by their largest magnitude, gives its harmonics X_k exactly
    (an even curve's are real).  Those above the last one whose amplitude |X_k| / 8 exceeds
    _TRIM are rounding.  The slope is p'(g) = Re sum_k w_k e^{ikg} / 8, w_k = ik X_k, and
    (1 + t^2)^n p'(g), t = tan((g - pi/4)/2), is a polynomial of degree 2n in t, taken in the
    Bernstein basis over the window [-_MERGE, pi/2 + _MERGE], so that roots at 0 and pi/2
    lie inside it.  Descartes' rule of signs on its coefficients, with de Casteljau halving,
    isolates the roots (G. E. Collins and A. G. Akritas, SYMSAC 1976): an interval with one
    sign change holds one root, which safeguarded Newton steps on p' polish; one narrower than
    _MERGE with more changes holds a cluster, taken at its middle.  Roots within _MERGE of the
    one before are one cluster.  A cluster, or a root whose p'' is too small for Rouche's
    theorem to show it alone within _MERGE, holds m roots by `_multiplicity`; m > 1 of them
    are one multiple root split by rounding, the simple root of the (m-1)-th derivative of p'
    (m is raised while that derivative keeps its sign across the cluster).  The sign changes
    cannot give m: a halving cut inside a rounding-split triple root leaves one.  A point
    outside [0, pi/2] is reported at the end it is within _MERGE of.
    """
    s = samples.tolist()
    top = max(map(abs, s)) or 1.0  # a zero curve stays zero
    s = [v / top for v in s]
    even = [p + q for p, q in zip(s[1:8], s[15:8:-1])]
    odd = [p - q for p, q in zip(s[1:8], s[15:8:-1])]
    w = []
    for k, (cos, sin) in enumerate(_FOLD, 1):
        re = s[0] + (-1) ** k * s[8] + sum(map(float.__mul__, even, cos))
        w.append(k * complex(sum(map(float.__mul__, odd, sin)), re))  # ik (re - i im)
    n = 4
    while n and abs(w[n - 1]) <= 8 * n * _TRIM:
        n -= 1
    if not n:
        return []
    w = w[:n]
    slope = _terms(w, 0)
    stack = [(0.0, 1.0, [sum(map(complex.__mul__, w, row)).real for row in _BERNSTEIN[n]])]
    roots = []
    while stack:
        lo, hi, b = stack.pop()
        count = _variations(b)
        if count == 1:
            rising = b[-1] > 0 if b[-1] else b[0] < 0
            i = next(i for i, q in enumerate(b[1:]) if (q > 0) == rising)
            d = b[i] - b[i + 1]  # Newton starts where the control polygon crosses 0
            x = lo + (hi - lo) * (i + (b[i] / d if d else 0.0)) / (len(b) - 1)
            roots.append(_polish(slope, _angle(lo), _angle(hi), rising, _angle(x)))
        elif count and _angle(hi) - _angle(lo) < _MERGE:
            roots.append(_angle((lo + hi) / 2))
        elif count:
            left, right = _halves(b)
            stack += [(lo, (lo + hi) / 2, left), ((lo + hi) / 2, hi, right)]
    clusters = []
    for g in sorted(roots):
        if clusters and g - clusters[-1][-1] < _MERGE:
            clusters[-1].append(g)
        else:
            clusters.append([g])
    tail = sum(abs(c) * (math.expm1(k * _MERGE) - k * _MERGE) for k, c in enumerate(w, 1))
    points = []
    for cluster in clusters:
        g = sum(cluster) / len(cluster)
        f, df = _value(slope, g)  # one root if |p''| _MERGE > |p'| + the Taylor tail beyond p''
        m = _multiplicity(w, g) if len(cluster) > 1 or abs(df) * _MERGE <= abs(f) + tail else 1
        while 1 < m <= 2 * n:
            terms = _terms(w, m - 1)
            lo, hi = g - _MERGE, g + _MERGE
            rising = _value(terms, hi)[0] > 0
            if (_value(terms, lo)[0] > 0) != rising:
                g = _polish(terms, lo, hi, rising, g)
                break
            m += 1  # that derivative keeps its sign: the cluster holds one root more
        if -_MERGE < g < GAMMA_MAX + _MERGE:
            points.append(min(max(g, 0.0), GAMMA_MAX))
    return points


def _extrema(curve, nodes, gammas, turns: list) -> tuple[Extremum, ...]:
    """Per turn (j, k, rising), the most extreme stationary point strictly inside
    [gammas[j], gammas[k + 1]], the lower gamma on a tie; endpoints are never reported."""
    if not turns:
        return ()
    x = _stationary_points(nodes)
    values = curve(np.array(x))[0].tolist()
    found = []
    for j, k, rising in turns:
        lo, hi = gammas[j], gammas[k + 1]
        inside = [i for i, g in enumerate(x) if lo < g < hi]
        if inside:  # else the sampled turn is rounding: the curve has none there
            best = max(inside, key=lambda i: values[i] if rising else -values[i])
            kind = ExtremumKind.MAX if rising else ExtremumKind.MIN
            found.append(Extremum(x[best], values[best], kind))
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
    called on the grid and the Fourier nodes at once, and once more where it turns."""
    if not (isinstance(steps, numbers.Integral) and 3 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [3, {MAX_STEPS}], got {steps!r}")
    params = _params(scenario, angles, detectors, theta1, theta2, amplitude)
    grid = np.arange(steps) * GAMMA_MAX / (steps - 1)
    curve = projectors.scenario_curve(scenario, params)
    values, overlap = curve(np.concatenate((grid, _NODES)))
    spec = models.SCENARIOS[scenario]  # classical light: its curve is its closed form, no overlap
    closed = values[:steps] if overlap is None else spec.closed_form(grid, params)
    for column in (c for c in (grid, values, closed, overlap) if c is not None):
        column.flags.writeable = False  # and so every view of it, which cannot be made writeable again
    verdict, turns = _scan(values[:steps])
    return SweepResult(
        scenario=scenario,
        gammas=grid[:],
        probabilities=values[:steps],
        closed_forms=closed[:],
        indistinguishability=None if overlap is None else overlap[:steps],
        verdict=verdict,
        extrema=_extrema(curve, values[steps:], grid, turns),
        params=params,
    )
