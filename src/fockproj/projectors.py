"""Measurement models: pure projections, coincidence event sums, loss
marginalization, the proper interference projector, the two-detector
cascade, and the compiled curve of every scenario in the table.

Raw probabilities are range-guarded, never clamped: a value outside
[-1e-9, 1 + 1e-9] signals an algebra bug and raises instead of being
silently repaired.  Reporting-time clamping belongs to the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import fock, models, transforms
from .fock import (
    DimensionMismatchError,
    FockState,
    StateEnsemble,
    basis_ket,
    inner_product,
    tensor,
)
from .models import ScenarioId, classical_intensity, two_photon_xi  # noqa: F401  (re-exported)

PROBABILITY_SLACK = 1e-9


class ProbabilityRangeError(ArithmeticError):
    """A computed raw probability left [0, 1] by more than the slack."""


def _checked_probability(value):
    """`value` (a float or an array of them) if every entry is within the slack of [0, 1]."""
    values = np.asarray(value)
    outside = values[~((values >= -PROBABILITY_SLACK) & (values <= 1.0 + PROBABILITY_SLACK))]
    if outside.size:
        raise ProbabilityRangeError(
            f"raw probability {float(outside.flat[0])!r} outside "
            f"[-{PROBABILITY_SLACK}, 1 + {PROBABILITY_SLACK}]"
        )
    return value


@dataclass(frozen=True)
class ProjectorAngles:
    """Angles (beta, theta) selecting a pure two-mode single-photon projector."""

    beta: float
    theta: float

    def __post_init__(self) -> None:
        models.BETA.check(self.beta)
        models.THETA.check(self.theta)


@dataclass(frozen=True)
class DetectorModel:
    """Photon detectors with a common per-photon efficiency."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        models.ETA.check(self.eta)


class EventSumProjector:
    """Sum of detection patterns a coincidence window cannot resolve.

    Events are occupation patterns over the observed modes only; modes
    with a False entry in `observed_mask` are summed over exactly.
    """

    __slots__ = ("events", "observed_mask")

    def __init__(
        self, events: Iterable[Sequence[int]], observed_mask: Sequence[bool]
    ) -> None:
        mask = tuple(bool(f) for f in observed_mask)
        observed = sum(mask)
        patterns = tuple(tuple(int(n) for n in event) for event in events)
        if len(set(patterns)) != len(patterns):
            raise ValueError("event patterns must be pairwise distinct")
        for pattern in patterns:
            if len(pattern) != observed:
                raise ValueError(
                    f"event {pattern} has {len(pattern)} entries, mask observes {observed} modes"
                )
            if any(n < 0 for n in pattern):
                raise ValueError(f"event {pattern} has a negative count")
        self.events = patterns
        self.observed_mask = mask


def scenario_events(scenario: ScenarioId) -> EventSumProjector:
    """Coincidence-window event list of a delay scenario."""
    spec = models.SCENARIOS[scenario]
    if not spec.events:
        raise models.UnsupportedScenarioError(
            f"{scenario.value} is not measured through an event sum"
        )
    return EventSumProjector(spec.events, (True,) * len(spec.basis[0]))


def pure_projection(
    state: Union[FockState, StateEnsemble], projector: FockState
) -> float:
    """|<xi|psi>|^2 for pure states, weight-averaged over ensembles; `fidelity`
    refuses a projector that is not normalized."""
    return _checked_probability(fock.fidelity(projector, state))


def single_photon_projector(angles: ProjectorAngles) -> FockState:
    """cos(beta)|1,0> + e^{-i theta} sin(beta)|0,1>."""
    return models.single_photon_ket(angles.beta, angles.theta)


def loss_marginal_projection(state: FockState, projector: FockState) -> float:
    """Projection with the last mode of `state` traced out exactly.

    The ancilla (rightmost) mode is unobserved: the result is the sum over
    its occupation k of |<projector, k | state>|^2.  The projector is a
    normalized state on the remaining modes, single-photon in the loss
    scenario.
    """
    if state.mode_count != projector.mode_count + 1:
        raise DimensionMismatchError(
            f"state has {state.mode_count} modes, projector must cover all but the ancilla"
        )
    if not projector.normalized:
        raise ValueError("projector state must be normalized")
    by_ancilla: dict[int, complex] = {}
    for occ, amp in state._amps.items():
        head, k = occ[:-1], occ[-1]
        proj_amp = projector.amplitude(head)
        if proj_amp != 0j:
            by_ancilla[k] = by_ancilla.get(k, 0j) + proj_amp.conjugate() * amp
    raw = sum(abs(v) ** 2 for v in by_ancilla.values())
    return _checked_probability(raw)


def event_sum(state_out: FockState, projector: EventSumProjector) -> float:
    """Total probability of the listed patterns on the observed modes.

    Unobserved modes are marginalized by exact summation; `state_out` is
    expected to be the post-interference state.
    """
    mask = projector.observed_mask
    if len(mask) != state_out.mode_count:
        raise DimensionMismatchError(
            f"mask covers {len(mask)} modes, state has {state_out.mode_count}"
        )
    observed_idx = tuple(i for i, flag in enumerate(mask) if flag)
    wanted = set(projector.events)
    raw = 0.0
    for occ, amp in state_out._amps.items():
        if tuple(occ[i] for i in observed_idx) in wanted:
            raw += abs(amp) ** 2
    return _checked_probability(raw)


def proper_projector(scenario: ScenarioId) -> FockState:
    """Image of the maximally interfering state under the scenario transform.

    Projecting the transformed input onto this state reproduces the input
    overlap probability at every gamma, so the measured curve inherits the
    monotonic decay of the overlap itself.
    """
    reference = models.scenario_reference(scenario)
    return transforms.lift(models.scenario_unitary(scenario), reference)


def hofmann_cascade(state: FockState, detectors: DetectorModel) -> float:
    """Coincidence probability of the two-detector cascade projector.

    The two-photon polarization state is split on a non-polarizing 50:50
    beam splitter; one arm carries a diagonal polarizer and detector, the
    other a horizontal polarizer and detector.  Internally the two arms
    and two polarizations span four modes ordered (arm1-H, arm1-V,
    arm2-H, arm2-V).  Both detectors firing projects onto one diagonal
    photon in arm 1 and one horizontal photon in arm 2, scaled by eta per
    detector; the result is 3 eta^2 / 8 times the pure projection onto
    the two-photon projector above.
    """
    if state.mode_count != 2:
        raise DimensionMismatchError("cascade input must live on two polarization modes")
    if state.photon_numbers() != {2}:
        raise ValueError("cascade input must hold exactly two photons")
    extended = tensor(state, basis_ket((0, 0)))
    after_bs = transforms.lift(models.CASCADE_SPLIT, extended)
    raw = detectors.eta**2 * pure_projection(after_bs, models.CASCADE_COINCIDENCE)
    return _checked_probability(raw)


def scenario_curve(scenario: ScenarioId, params: dict) -> Callable[..., tuple]:
    """A scenario's measured curve on an array of angles, for checked `params`, returning
    (values, overlap).  A quantum curve is the range-guarded quadratic form
    gain * sum_w w sum_o |<o|U psi_w(g)>|^2 with its overlap sum_w w |<psi(0)|psi_w(g)>|^2;
    A[o, k] = <o|U b_k> is built once, here, with a last row conj(c_k(0)); every c_k(0) is 0 or
    far above PRUNE_TOL, so that row needs no pruning.  Classical light has no state: its values
    are its closed form, its overlap None."""
    spec = models.SCENARIOS[scenario]
    if spec.coefficients is None:
        return lambda gammas: (spec.closed_form(gammas, params), None)
    kets = [basis_ket(b) for b in spec.basis]
    if spec.transform is not None:
        kets = [transforms.lift(spec.transform, k) for k in kets]
    outcomes = [basis_ket(e) for e in spec.events] or spec.outcomes(params)
    overlap_row = [complex(c).conjugate() for c in spec.coefficients(0.0)[0]]  # members coincide
    a = np.array([[inner_product(o, k) for k in kets] for o in outcomes] + [overlap_row])
    gain = spec.gain(params)

    def curve(gammas: np.ndarray):
        total, overlaps = np.zeros(np.shape(gammas)), np.zeros(np.shape(gammas))
        for weight, coefficients in zip(spec.weights, spec.coefficients(gammas)):
            c = np.empty((len(coefficients),) + np.shape(gammas), np.result_type(*coefficients))
            for row, value in zip(c, coefficients):
                row[...] = value
            c[np.abs(c) <= fock.PRUNE_TOL] = 0.0  # as a FockState drops them
            amplitudes = (a[:, :, None] * c).sum(axis=1)  # A c without a BLAS call
            squares = amplitudes.real**2 + amplitudes.imag**2
            total += weight * squares[:-1].sum(axis=0)
            overlaps += weight * squares[-1]
        return _checked_probability(gain * total), _checked_probability(overlaps)

    return curve
