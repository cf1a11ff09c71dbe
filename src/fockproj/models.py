"""The scenario table: each scenario as a quadratic form over at most three kets.

Every scenario is driven by one angle gamma in [0, pi/2]: gamma = 0 is
the maximally interfering configuration, gamma = pi/2 is fully
distinguishable.  Physically gamma stands in for a temporal delay, a
polarization rotation, linear loss into an ancilla, or relative-phase
noise, depending on the scenario.

A quantum curve is p(g) = sum_w w sum_o |sum_k A[o, k] c_wk(g)|^2: mixture
members over a fixed basis b_k, a fixed transform U and outcome kets o,
with A[o, k] = <o|U b_k>.  `SCENARIOS` holds one `ScenarioSpec` each.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import transforms
from .fock import FockState, StateEnsemble, basis_ket, fidelity, tensor

GAMMA_MAX = math.pi / 2

_R2 = 1.0 / math.sqrt(2.0)
_SQRT2 = math.sqrt(2.0)


class UnsupportedScenarioError(ValueError):
    """Scenario has no quantum state (or the requested piece is undefined)."""


class ScenarioId(enum.Enum):
    """Closed catalogue of the supported measurement scenarios."""

    HOM2 = "hom2"
    HOM4_COINCIDENCE = "hom4-coincidence"
    HOM4_BUNCHING = "hom4-bunching"
    SINGLE_DELIBERATE = "single-deliberate"
    SINGLE_LOSS = "single-loss"
    SINGLE_PHASE_NOISE = "single-phase-noise"
    TWO_PHOTON_POLARIZATION = "two-photon-polarization"
    HOFMANN_CASCADE = "hofmann-cascade"
    CLASSICAL_POLARIZATION = "classical-polarization"


class Param(NamedTuple):
    """A scenario parameter: name (also its CLI flag), range [lo, hi] spelled as
    `bounds` for messages, `doc` for the flag's help, and default (None: required)."""

    name: str
    lo: float
    hi: float
    bounds: str
    doc: str
    default: Optional[float] = None

    def check(self, value: float) -> float:
        """`value` as a float; ValueError when it is not finite or out of range."""
        v = float(value)
        if not (math.isfinite(v) and self.lo <= v <= self.hi):
            raise ValueError(f"{self.name} must lie in {self.bounds}, got {v}")
        return v


BETA = Param("beta", 0.0, math.pi / 2, "[0, pi/2]", "projector angle in radians")
# hi is the largest float below 2*pi, which makes the range half-open
THETA = Param("theta", 0.0, math.nextafter(2.0 * math.pi, 0.0), "[0, 2*pi)",
              "projector phase in radians")
ETA = Param("eta", 0.0, 1.0, "[0, 1]", "detector efficiency", 1.0)
THETA1 = Param("theta1", -math.inf, math.inf, "(-inf, inf)", "first polarizer angle in radians",
               0.0)
THETA2 = Param("theta2", -math.inf, math.inf, "(-inf, inf)", "second polarizer angle in radians",
               math.pi / 4)
# over [0, pi/2] the peak of cos^2(g - t1) cos^2(g - t2) is at least 1/16 for every polarizer
# pair, and the bound is tight: (E0/2)^4 stays finite up to 2e77, and the lowest peak
# (E0/2)^4 / 16 stays a normal float from E0 = 2 (16 sys.float_info.min)^(1/4) = 4.885e-77
AMPLITUDE = Param("amplitude", 5e-77, 2e77, "[5e-77, 2e77]", "classical field amplitude E0", 2.0)
PARAMETERS = (BETA, THETA, ETA, THETA1, THETA2, AMPLITUDE)
# the distinguishability angle of every curve; no scenario parameter, so it has no CLI flag
GAMMA = Param("gamma", 0.0, GAMMA_MAX, "[0, pi/2]", "distinguishability angle in radians")


def single_photon_ket(beta: float, theta: float) -> FockState:
    """cos(beta)|1,0> + e^{-i theta} sin(beta)|0,1>."""
    phase = complex(math.cos(theta), -math.sin(theta))
    return FockState(2, {(1, 0): math.cos(beta), (0, 1): phase * math.sin(beta)})


def two_photon_xi() -> FockState:
    """The interfering but non-proper two-photon projector (sqrt(2)|2,0> + |1,1>)/sqrt(3)."""
    r = 1.0 / math.sqrt(3.0)
    return FockState(2, {(2, 0): math.sqrt(2.0) * r, (1, 1): r})


#: non-polarizing 50:50 split of (H, V) into modes (arm1-H, arm1-V, arm2-H, arm2-V)
CASCADE_SPLIT = transforms.beamsplitter_5050(0, 2, 4) @ transforms.beamsplitter_5050(1, 3, 4)
#: one diagonal photon in arm 1 and one horizontal photon in arm 2
CASCADE_COINCIDENCE = FockState(4, {(1, 0, 1, 0): _R2, (0, 1, 1, 0): _R2})
# <c|L(S)(psi x |0,0>)> = <L(S) c|psi x |0,0>> as the split is real and
# symmetric: pull the coincidence back and keep its arm-2-empty part
_CASCADE_OUTCOME = FockState(2, {
    o[:2]: a for o, a in transforms.lift(CASCADE_SPLIT, CASCADE_COINCIDENCE).items()
    if o[2:] == (0, 0)
})
# one balanced beam splitter acting alike on the early (0, 1) and late (2, 3) pairs
_DELAY = transforms.beamsplitter_5050(0, 1, 4) @ transforms.beamsplitter_5050(2, 3, 4)


# kets that no parameter sets, built once: the two states the unobserved ancilla of a
# one-photon loss state can hold (0 or 1 photons), and the two-photon projector xi
_ANCILLA = (basis_ket((0,)), basis_ket((1,)))
_XI = two_photon_xi()


def _loss_outcomes(p: dict) -> list[FockState]:
    xi = single_photon_ket(p["beta"], p["theta"])
    return [tensor(xi, ancilla) for ancilla in _ANCILLA]


def _pair_coincidence_closed(g, p):
    c, s = np.cos(g), np.sin(g)
    return c**4 / 4.0 + c * c * s * s / 4.0 + 3.0 * s**4 / 8.0


def _pair_bunching_closed(g, p):
    c, s = np.cos(g), np.sin(g)
    return 3.0 * c * c / 8.0 + s**4 / 16.0


def _deliberate_closed(g, p):
    c, s = np.cos(g), np.sin(g)
    return (
        math.cos(p["beta"]) ** 2 * (1.0 - s) / 2.0
        + math.cos(p["theta"]) * math.sin(2.0 * p["beta"]) * c / 2.0
        + math.sin(p["beta"]) ** 2 * (1.0 + s) / 2.0
    )


def _loss_closed(g, p):
    c = np.cos(g)
    return (
        c * c * math.cos(p["beta"]) ** 2
        + math.cos(p["theta"]) * math.sin(2.0 * p["beta"]) * c
        + math.sin(p["beta"]) ** 2
    ) / 2.0


def _deliberate_turns(p):
    # p' = -(cos 2beta cos g + cos theta sin 2beta sin g) / 2 vanishes where tan g is their ratio
    g = math.atan2(-math.cos(2.0 * p["beta"]), math.cos(p["theta"]) * math.sin(2.0 * p["beta"]))
    return (g, g + math.pi)


def _loss_turns(p):
    # p is quadratic in cos g, with its vertex at cos g = -cos theta tan beta
    vertex = -math.cos(p["theta"]) * math.tan(p["beta"])
    return (math.acos(vertex),) if -1.0 <= vertex <= 1.0 else ()


def _pair_coefficients(g):
    c, s = np.cos(g), np.sin(g)
    return [(c * c, _SQRT2 * c * s, s * s)]


def _polarization_coefficients(g):
    t = math.pi / 4 + g / 2
    s, c = np.sin(t), np.cos(t)
    return [(s * s, _SQRT2 * s * c, c * c)]


def _phase_member(phi):
    return (np.full_like(phi, _R2), _R2 * np.exp(1j * phi))


def _polarization_closed(g, p):
    return (4.0 / 3.0) * np.sin(math.pi / 4 + g / 2) ** 2 * np.cos(g / 2) ** 2


def _intensity(g, p):
    # cos(g - theta) expanded, so that a far polarizer angle does not round g away
    c, s = np.cos(g), np.sin(g)
    field1 = c * math.cos(p["theta1"]) + s * math.sin(p["theta1"])
    field2 = c * math.cos(p["theta2"]) + s * math.sin(p["theta2"])
    return (p["amplitude"] / 2.0) ** 4 * field1 ** 2 * field2 ** 2


def _intensity_turns(p):
    # I ~ q^2 with q = cos(g - t1) cos(g - t2): q vanishes at t_i + pi/2 (mod pi), and
    # q' = -sin(2g - t1 - t2) at (t1 + t2)/2 (mod pi/2); a far angle is reduced first
    t1, t2 = (math.atan2(math.sin(p[name]), math.cos(p[name])) for name in ("theta1", "theta2"))
    half, middle = math.pi / 2, (t1 + t2) / 2
    return (t1 - half, t1 + half, t2 - half, t2 + half) + tuple(middle + k * half for k in range(-2, 3))


def classical_intensity(
    gamma: float, theta1: float, theta2: float, field_amplitude: float
) -> float:
    """Mean output intensity of the classical-light version of the cascade.

    (E0/2)^4 cos^2(gamma - theta1) cos^2(gamma - theta2) for a classical
    field of amplitude E0 polarized at angle gamma, split and sent through
    polarizers at theta1 and theta2.  An intensity, not a probability; it
    is not range-guarded.
    """
    t1, t2, amplitude = THETA1.check(theta1), THETA2.check(theta2), AMPLITUDE.check(field_amplitude)
    return float(_intensity(GAMMA.check(gamma), dict(theta1=t1, theta2=t2, amplitude=amplitude)))


class ScenarioSpec(NamedTuple):
    """One scenario: input state, transform, measurement, closed form, parameters.

    `coefficients` maps gamma (a float or an array) to one coefficient
    vector over `basis` per mixture member, weighted by `weights`, each
    coefficient of gamma's shape, so that a vector stacks into one array; the
    basis kets fix the mode count.  `transform` is the matrix U (None: the
    identity, so nothing is lifted).  The outcome kets are the `events` as
    basis kets, or else `outcomes(params)`, and `gain(params)` scales the
    whole form (eta^2 for two detectors).
    `closed_form(g, params)` is the independent analytic curve, on a float
    or an array of angles; it computes only the trigonometry it reads.
    `stationary(params)` holds, solved from the closed form, the angles where the
    curve's slope vanishes, at least those inside (0, pi/2); the ends need none.
    Classical light has no basis: its closed form is its only model, and
    its curve is an intensity, neither clamped nor range-guarded.
    """

    params: tuple
    closed_form: Callable
    basis: tuple = ()
    coefficients: Optional[Callable] = None
    weights: tuple = (1.0,)
    transform: Optional[transforms.ModeUnitary] = None
    events: tuple = ()
    outcomes: Optional[Callable[[dict], list]] = None
    gain: Callable[[dict], float] = lambda p: 1.0
    stationary: Callable[[dict], tuple] = lambda p: ()


_PAIR_BASIS = ((2, 2, 0, 0), (2, 1, 0, 1), (2, 0, 0, 2))
_POLARIZATION_BASIS = ((2, 0), (1, 1), (0, 2))

SCENARIOS = {
    ScenarioId.HOM2: ScenarioSpec(
        (), lambda g, p: (s := np.sin(g)) * s / 2.0, ((1, 1, 0, 0), (1, 0, 0, 1)),
        lambda g: [(np.cos(g), np.sin(g))],
        # coincidence window: one click per path
        transform=_DELAY, events=((1, 0, 0, 1), (0, 1, 1, 0)),
    ),
    ScenarioId.HOM4_COINCIDENCE: ScenarioSpec(
        (), _pair_coincidence_closed, _PAIR_BASIS, _pair_coefficients,
        # two-per-path coincidence window
        transform=_DELAY,
        events=((2, 2, 0, 0), (2, 1, 0, 1), (1, 2, 1, 0), (2, 0, 0, 2), (1, 1, 1, 1), (0, 2, 2, 0)),
        stationary=lambda p: (math.asin(math.sqrt(1.0 / 3.0)),),  # sin^2 g = 1/3: the 5/24 dip
    ),
    ScenarioId.HOM4_BUNCHING: ScenarioSpec(
        (), _pair_bunching_closed, _PAIR_BASIS, _pair_coefficients,
        # all four photons exiting the first path
        transform=_DELAY, events=((4, 0, 0, 0), (3, 0, 1, 0), (2, 0, 2, 0)),
    ),
    ScenarioId.SINGLE_DELIBERATE: ScenarioSpec(
        (BETA, THETA), _deliberate_closed,
        ((1, 0), (0, 1)), lambda g: [(np.cos(t := g / 2 + math.pi / 4), np.sin(t))],
        outcomes=lambda p: [single_photon_ket(p["beta"], p["theta"])], stationary=_deliberate_turns,
    ),
    ScenarioId.SINGLE_LOSS: ScenarioSpec(
        (BETA, THETA), _loss_closed,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        lambda g: [(_R2 * np.cos(g), np.full_like(g, _R2), _R2 * np.sin(g))],
        outcomes=_loss_outcomes, stationary=_loss_turns,
    ),
    ScenarioId.SINGLE_PHASE_NOISE: ScenarioSpec(
        (BETA, THETA),
        lambda g, p: (1.0 + math.cos(p["theta"]) * math.sin(2.0 * p["beta"]) * np.cos(g)) / 2.0,
        ((1, 0), (0, 1)), lambda g: [_phase_member(g), _phase_member(-g)], (0.5, 0.5),
        outcomes=lambda p: [single_photon_ket(p["beta"], p["theta"])],
    ),
    ScenarioId.TWO_PHOTON_POLARIZATION: ScenarioSpec(
        (), _polarization_closed, _POLARIZATION_BASIS, _polarization_coefficients,
        outcomes=lambda p: [_XI], stationary=lambda p: (math.pi / 4,),
    ),
    ScenarioId.HOFMANN_CASCADE: ScenarioSpec(
        (ETA,),
        lambda g, p: 3.0 * p["eta"] * p["eta"] * _polarization_closed(g, p) / 8.0,
        _POLARIZATION_BASIS, _polarization_coefficients,
        outcomes=lambda p: [_CASCADE_OUTCOME], gain=lambda p: p["eta"] ** 2,
        stationary=lambda p: (math.pi / 4,),
    ),
    ScenarioId.CLASSICAL_POLARIZATION: ScenarioSpec(
        (THETA1, THETA2, AMPLITUDE), _intensity, stationary=_intensity_turns,
    ),
}

#: scenarios backed by a Fock state or ensemble (everything but classical light)
QUANTUM_SCENARIOS = tuple(s for s in ScenarioId if SCENARIOS[s].coefficients is not None)


def checked_params(scenario: ScenarioId, given: Mapping[str, Optional[float]]) -> dict:
    """The parameters of `scenario` from `given` (None: not given), defaults filled in.

    Raises ValueError, with the parameter name first in the message, for
    a parameter the scenario does not use, a missing required one, or a
    value that is not finite or out of range.
    """
    schema = SCENARIOS[scenario].params
    names = {p.name for p in schema}
    for name, value in given.items():
        if value is not None and name not in names:
            raise ValueError(f"{name} is not used by scenario {scenario.value}")
    params = {}
    for p in schema:
        value = p.default if given.get(p.name) is None else given[p.name]
        if value is None:
            raise ValueError(f"{p.name} is required by scenario {scenario.value}")
        params[p.name] = p.check(value)
    return params


def scenario_state(scenario: ScenarioId, gamma: float):
    """Input state (FockState or StateEnsemble) for a quantum scenario."""
    spec = SCENARIOS[scenario]
    if spec.coefficients is None:
        raise UnsupportedScenarioError(f"{scenario.value} has no quantum input state")
    vectors = spec.coefficients(GAMMA.check(gamma))
    members = [FockState(len(spec.basis[0]), zip(spec.basis, c)) for c in vectors]
    return members[0] if len(members) == 1 else StateEnsemble(zip(spec.weights, members))


def hom_two_photon(gamma: float) -> FockState:
    """cos(g)|1,1,0,0> + sin(g)|1,0,0,1> on modes (early-1, early-2, late-1, late-2)."""
    return scenario_state(ScenarioId.HOM2, gamma)


def hom_two_pair(gamma: float) -> FockState:
    """A pair delayed against a pair: cos^2|2,2,0,0> + sqrt(2) cos sin|2,1,0,1> + sin^2|2,0,0,2>."""
    return scenario_state(ScenarioId.HOM4_COINCIDENCE, gamma)


def single_deliberate(gamma: float) -> FockState:
    """Single photon rotated off balance: cos(pi/4 + g/2)|1,0> + sin(pi/4 + g/2)|0,1>."""
    return scenario_state(ScenarioId.SINGLE_DELIBERATE, gamma)


def single_loss(gamma: float) -> FockState:
    """[cos(g)|1,0,0> + |0,1,0> + sin(g)|0,0,1>] / sqrt(2); the last mode is the loss ancilla."""
    return scenario_state(ScenarioId.SINGLE_LOSS, gamma)


def single_phase_noise(gamma: float) -> StateEnsemble:
    """Relative-phase noise as a two-point mixture at phases +gamma, -gamma.

    The distribution is symmetric with zero mean and satisfies
    <cos(phi)> = cos(gamma) exactly, which is all any projection
    probability of these states can depend on.
    """
    return scenario_state(ScenarioId.SINGLE_PHASE_NOISE, gamma)


_GAUSSIAN_NODES = 17


def single_phase_noise_gaussian(gamma: float) -> StateEnsemble:
    """Phase-noise mixture discretized from a wrapped Gaussian distribution on 17 nodes.

    The spread sigma is chosen so the wrapped Gaussian reproduces the two-point model's
    first moment, <cos(phi)> = cos(gamma).  Narrow distributions use Gauss-Hermite nodes on
    the real line (equivalent to the wrapped integral for any 2pi-periodic observable), whose
    error grows with sigma; wide ones switch to uniformly spaced circle nodes weighted by the
    wrapped density cut after its fourth harmonic, which degrades gracefully into the uniform
    limit at gamma = pi/2.  The switch is where that cut is exact: the first harmonic it drops,
    e^{-25 sigma^2/2}, falls below float epsilon at sigma^2 = -2 ln(eps)/25 ~ 2.88, taken up to
    sigma^2 = 3 (cos(gamma) < e^{-1.5}), where every weight is still positive.
    """
    g = GAMMA.check(gamma)
    c = math.cos(g)
    sigma_sq = math.inf if c <= 0.0 else -2.0 * math.log(c)
    if sigma_sq < 3.0:
        x, w = np.polynomial.hermite.hermgauss(_GAUSSIAN_NODES)
        phis = np.sqrt(2.0 * sigma_sq) * x
        weights = w / w.sum()
    else:
        phis = np.array([-math.pi + (2 * k + 1) * math.pi / _GAUSSIAN_NODES
                         for k in range(_GAUSSIAN_NODES)])
        density = np.ones(_GAUSSIAN_NODES)
        for n in range(1, 5):
            rho = math.exp(-0.5 * n * n * sigma_sq) if math.isfinite(sigma_sq) else 0.0
            density += 2.0 * rho * np.cos(n * phis)
        weights = density / density.sum()
    basis = SCENARIOS[ScenarioId.SINGLE_PHASE_NOISE].basis
    members = (FockState(2, zip(basis, _phase_member(phi))) for phi in phis.tolist())
    return StateEnsemble(zip(weights.tolist(), members))


def two_photon_polarization(gamma: float) -> FockState:
    """Pair rotated from diagonal toward H: t = pi/4 + g/2 in modes (H, V),
    sin^2(t)|2,0> + sqrt(2) sin(t) cos(t)|1,1> + cos^2(t)|0,2>."""
    return scenario_state(ScenarioId.TWO_PHOTON_POLARIZATION, gamma)


def scenario_reference(scenario: ScenarioId) -> FockState:
    """The maximally interfering pure state (gamma = 0) of a scenario."""
    state = scenario_state(scenario, 0.0)  # the phase-noise members coincide here
    return state.members[0][1] if isinstance(state, StateEnsemble) else state


def scenario_unitary(scenario: ScenarioId) -> transforms.ModeUnitary:
    """Interference transform applied before measurement (the identity for the
    polarization and loss scenarios, which fold any optics into the projector)."""
    spec = SCENARIOS[scenario]
    if spec.coefficients is None:
        raise UnsupportedScenarioError(f"{scenario.value} has no interference transform")
    return transforms.identity(len(spec.basis[0])) if spec.transform is None else spec.transform


def indistinguishability(scenario: ScenarioId, gamma: float) -> float:
    """Overlap probability with the gamma = 0 state of the same scenario.

    Closed forms (used as test oracles, not evaluated here): hom2 gives
    cos^2(g), the pair scenarios cos^4(g), the deliberate rotation
    cos^2(g/2), phase noise (1 + cos g)/2, and the loss model
    (1 + cos g)^2 / 4.
    """
    reference = scenario_reference(scenario)
    return fidelity(reference, scenario_state(scenario, gamma))
