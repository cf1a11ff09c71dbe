import math
import random

import numpy as np
import pytest

import _oracles
from fockproj import (
    DetectorModel,
    DimensionMismatchError,
    EventSumProjector,
    ProbabilityRangeError,
    ProjectorAngles,
    ScenarioId,
    StateEnsemble,
    UnsupportedScenarioError,
    basis_ket,
    classical_intensity,
    event_sum,
    fidelity,
    fock,
    hofmann_cascade,
    indistinguishability,
    lift,
    loss_marginal_projection,
    models,
    proper_projector,
    pure_projection,
    scenario_events,
    single_photon_projector,
    two_photon_xi,
)
from fockproj.analysis import Verdict, classify_monotonicity, probability_function, sweep
from fockproj.projectors import scenario_curve

GRID_21 = [i * math.pi / 2 / 20 for i in range(21)]
SQ2 = math.sqrt(2.0)


def _pair_output(g):
    u = models.scenario_unitary(ScenarioId.HOM4_COINCIDENCE)
    return lift(u, models.hom_two_pair(g))


def test_pair_projection_table():
    # the six two-per-side patterns and their closed forms
    forms = {
        (2, 2, 0, 0): lambda c, s: c**4 / 4,
        (2, 1, 0, 1): lambda c, s: c * c * s * s / 8,
        (1, 2, 1, 0): lambda c, s: c * c * s * s / 8,
        (2, 0, 0, 2): lambda c, s: s**4 / 16,
        (1, 1, 1, 1): lambda c, s: s**4 / 4,
        (0, 2, 2, 0): lambda c, s: s**4 / 16,
    }
    for g in GRID_21:
        out = _pair_output(g)
        c, s = math.cos(g), math.sin(g)
        for occ, form in forms.items():
            assert abs(pure_projection(out, basis_ket(occ)) - form(c, s)) < 1e-11


def test_pair_cross_terms_are_non_monotonic_alone():
    curve = [
        pure_projection(_pair_output(g), basis_ket((2, 1, 0, 1))) for g in GRID_21
    ]
    assert classify_monotonicity(curve) is Verdict.NON_MONOTONIC


def test_two_photon_coincidence_sum(gamma_grid):
    u = models.scenario_unitary(ScenarioId.HOM2)
    events = scenario_events(ScenarioId.HOM2)
    for g in gamma_grid:
        out = lift(u, models.hom_two_photon(g))
        p = event_sum(out, events)
        assert abs(p - math.sin(g) ** 2 / 2) < 1e-12
        # complement of the overlap probability
        assert abs(p - (1 - indistinguishability(ScenarioId.HOM2, g)) / 2) < 1e-12


def test_pair_coincidence_sum(gamma_grid):
    events = scenario_events(ScenarioId.HOM4_COINCIDENCE)
    for g in gamma_grid:
        c, s = math.cos(g), math.sin(g)
        expected = c**4 / 4 + c * c * s * s / 4 + 3 * s**4 / 8
        assert abs(event_sum(_pair_output(g), events) - expected) < 1e-12


def test_pair_bunching_sum(gamma_grid):
    events = scenario_events(ScenarioId.HOM4_BUNCHING)
    for g in gamma_grid:
        c, s = math.cos(g), math.sin(g)
        expected = 3 * c * c / 8 + s**4 / 16
        assert abs(event_sum(_pair_output(g), events) - expected) < 1e-12


def test_event_sum_completeness():
    # summing over every pattern of the right photon number gives 1
    for scenario, photons in ((ScenarioId.HOM2, 2), (ScenarioId.HOM4_COINCIDENCE, 4)):
        u = models.scenario_unitary(scenario)
        everything = EventSumProjector(
            list(_oracles.compositions(photons, 4)), (True,) * 4
        )
        for g in GRID_21:
            out = lift(u, models.scenario_state(scenario, g))
            assert abs(event_sum(out, everything) - 1.0) < 1e-11


def test_event_sum_with_unobserved_modes():
    # marginalizing the late modes of the delayed two-photon output
    g = 0.8
    u = models.scenario_unitary(ScenarioId.HOM2)
    out = lift(u, models.hom_two_photon(g))
    early_first = EventSumProjector([(1, 0)], (True, True, False, False))
    # the delayed branch puts one photon early; both its late patterns count
    expected = 2 * (math.sin(g) / 2) ** 2
    assert abs(event_sum(out, early_first) - expected) < 1e-12


def test_event_sum_validates_mask_length():
    with pytest.raises(DimensionMismatchError):
        event_sum(basis_ket((1, 0)), scenario_events(ScenarioId.HOM2))


def test_event_sum_projector_validation():
    with pytest.raises(ValueError):
        EventSumProjector([(1, 0), (1, 0)], (True, True))
    with pytest.raises(ValueError):
        EventSumProjector([(1, 0, 0)], (True, True))


def test_event_sum_guards_raw_probability():
    inflated = 1.2 * basis_ket((1, 0, 0, 1))
    with pytest.raises(ProbabilityRangeError):
        event_sum(inflated, scenario_events(ScenarioId.HOM2))


def test_the_range_guard_passes_rounding_above_one_and_no_more():
    # PROBABILITY_SLACK is 1e-9: a raw 1 + 5e-10 is rounding, a raw 1 + 2e-9 an error
    events = scenario_events(ScenarioId.HOM2)
    assert event_sum(math.sqrt(1 + 5e-10) * basis_ket((1, 0, 0, 1)), events) > 1.0
    with pytest.raises(ProbabilityRangeError):
        event_sum(math.sqrt(1 + 2e-9) * basis_ket((1, 0, 0, 1)), events)


def test_single_photon_projector_examples():
    xi = single_photon_projector(ProjectorAngles(math.pi / 8, math.pi))
    assert abs(xi.amplitude((1, 0)) - math.cos(math.pi / 8)) < 1e-14
    assert abs(xi.amplitude((0, 1)) + math.sin(math.pi / 8)) < 1e-14
    assert single_photon_projector(ProjectorAngles(0.0, 0.0)).isclose(
        basis_ket((1, 0)), 1e-15
    )
    balanced = single_photon_projector(ProjectorAngles(math.pi / 4, 0.0))
    assert abs(balanced.amplitude((1, 0)) - 1 / SQ2) < 1e-14
    assert abs(balanced.amplitude((0, 1)) - 1 / SQ2) < 1e-14


def test_projector_angles_ranges():
    with pytest.raises(ValueError):
        ProjectorAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        ProjectorAngles(0.3, 2 * math.pi)


def test_loss_marginal_projection_formula(gamma_grid):
    rng = random.Random(2210)
    for _ in range(5):
        beta = rng.uniform(0.0, math.pi / 2)
        theta = rng.uniform(0.0, 2 * math.pi)
        xi = single_photon_projector(ProjectorAngles(beta, theta))
        for g in gamma_grid[::5]:
            p = loss_marginal_projection(models.single_loss(g), xi)
            expected = (
                math.cos(g) ** 2 * math.cos(beta) ** 2
                + math.cos(theta) * math.sin(2 * beta) * math.cos(g)
                + math.sin(beta) ** 2
            ) / 2.0
            assert abs(p - expected) < 1e-12


def test_loss_marginal_projection_frozen_point():
    xi = single_photon_projector(ProjectorAngles(math.pi / 8, math.pi))
    p = loss_marginal_projection(models.single_loss(math.pi / 2), xi)
    assert abs(p - math.sin(math.pi / 8) ** 2 / 2) < 1e-13
    assert abs(p - 0.07322330470336313) < 1e-12


def test_loss_marginal_projection_explicit_sum_oracle():
    # sum |<xi, k|psi>|^2 assembled by hand over the ancilla occupation
    from fockproj import inner_product, tensor

    xi = single_photon_projector(ProjectorAngles(0.5, 1.3))
    for g in (0.0, 0.7, 1.4):
        psi = models.single_loss(g)
        manual = sum(
            abs(inner_product(tensor(xi, basis_ket((k,))), psi)) ** 2 for k in range(2)
        )
        assert abs(loss_marginal_projection(psi, xi) - manual) < 1e-14


def test_loss_marginal_projection_reduces_to_pure_at_zero():
    xi = single_photon_projector(ProjectorAngles(0.9, 4.0))
    reference = models.scenario_reference(ScenarioId.SINGLE_PHASE_NOISE)
    p_loss = loss_marginal_projection(models.single_loss(0.0), xi)
    assert abs(p_loss - pure_projection(reference, xi)) < 1e-13


def test_loss_marginal_projection_dimension_check():
    xi = single_photon_projector(ProjectorAngles(0.5, 0.5))
    with pytest.raises(DimensionMismatchError):
        loss_marginal_projection(basis_ket((1, 0)), xi)


def test_pure_projection_rejects_unnormalized_projector():
    with pytest.raises(ValueError):
        pure_projection(basis_ket((1, 0)), 0.5 * basis_ket((1, 0)))


def test_pure_projection_self_is_one():
    psi = models.hom_two_pair(0.6)
    assert abs(pure_projection(psi, psi) - 1.0) < 1e-13


def test_proper_projector_examples():
    hom2 = proper_projector(ScenarioId.HOM2)
    assert abs(hom2.amplitude((2, 0, 0, 0)) - 1 / SQ2) < 1e-13
    assert abs(hom2.amplitude((0, 2, 0, 0)) + 1 / SQ2) < 1e-13
    deliberate = proper_projector(ScenarioId.SINGLE_DELIBERATE)
    assert abs(deliberate.amplitude((1, 0)) - 1 / SQ2) < 1e-14
    assert abs(deliberate.amplitude((0, 1)) - 1 / SQ2) < 1e-14
    with pytest.raises(UnsupportedScenarioError):
        proper_projector(ScenarioId.CLASSICAL_POLARIZATION)


@pytest.mark.parametrize("scenario", models.QUANTUM_SCENARIOS)
def test_proper_projection_recovers_overlap_probability(scenario, gamma_grid):
    u = models.scenario_unitary(scenario)
    xi = proper_projector(scenario)
    for g in gamma_grid[::4]:
        state = models.scenario_state(scenario, g)
        if hasattr(state, "members"):
            transformed = state  # identity transform for the noise model
        else:
            transformed = lift(u, state)
        p = pure_projection(transformed, xi)
        assert abs(p - indistinguishability(scenario, g)) < 1e-11


@pytest.mark.parametrize("scenario", models.QUANTUM_SCENARIOS)
def test_reference_coefficients_need_no_pruning(scenario):
    # scenario_curve builds its overlap row from conj(c_k(0)) without the prune a
    # FockState applies, which agree only while no c_k(0) is small but nonzero
    for member in models.SCENARIOS[scenario].coefficients(0.0):
        for c in member:
            assert c == 0 or abs(c) > fock.PRUNE_TOL, (scenario, member)


def test_the_prune_drops_the_rounding_of_cos_half_pi_and_keeps_1e_12():
    # cos(pi/2) is 6.1e-17, rounding that must give an overlap of exactly 0;
    # cos(pi/2 - 1e-12) is a real amplitude of 1e-12, whose square must survive
    _, overlap = scenario_curve(ScenarioId.HOM2, {})(np.array([math.pi / 2 - 1e-12, math.pi / 2]))
    assert 0.9e-24 < overlap[0] < 1.1e-24
    assert overlap[1] == 0.0


OFFAXIS = ProjectorAngles(math.pi / 8, math.pi)
PROPER = ProjectorAngles(math.pi / 4, 0.0)
DELAY_SCENARIOS = (ScenarioId.HOM2, ScenarioId.HOM4_COINCIDENCE, ScenarioId.HOM4_BUNCHING)


def _engine_measurement(scenario, angles, detectors):
    """The scenario's projector function on the lifted state, point by point."""
    if scenario in DELAY_SCENARIOS:
        return lambda out: event_sum(out, scenario_events(scenario))
    if scenario is ScenarioId.SINGLE_LOSS:
        return lambda out: loss_marginal_projection(out, single_photon_projector(angles))
    if scenario is ScenarioId.TWO_PHOTON_POLARIZATION:
        return lambda out: pure_projection(out, two_photon_xi())
    if scenario is ScenarioId.HOFMANN_CASCADE:
        return lambda out: hofmann_cascade(out, detectors)
    return lambda out: pure_projection(out, single_photon_projector(angles))


@pytest.mark.parametrize(
    "scenario,angles,detectors",
    [(s, None, None) for s in DELAY_SCENARIOS + (ScenarioId.TWO_PHOTON_POLARIZATION,)]
    + [
        (s, a, None)
        for s in (ScenarioId.SINGLE_DELIBERATE, ScenarioId.SINGLE_LOSS, ScenarioId.SINGLE_PHASE_NOISE)
        for a in (OFFAXIS, PROPER)
    ]
    + [(ScenarioId.HOFMANN_CASCADE, None, DetectorModel(eta)) for eta in (0.5, 1.0)],
)
def test_compiled_curves_match_engine_composition(scenario, angles, detectors):
    # the table's quadratic form against lift + measurement at every point
    measure = _engine_measurement(scenario, angles, detectors)
    u = models.scenario_unitary(scenario)
    reference = models.scenario_reference(scenario)
    f = probability_function(scenario, angles, detectors)
    result = sweep(scenario, 101, angles, detectors)
    for g, p, overlap in zip(result.gammas, result.probabilities, result.indistinguishability):
        state = models.scenario_state(scenario, g)
        engine = measure(state if isinstance(state, StateEnsemble) else lift(u, state))
        assert abs(f(g) - engine) < 1e-12
        assert abs(p - engine) < 1e-12
        assert abs(overlap - fidelity(reference, state)) < 1e-12


def test_two_photon_xi_amplitudes():
    xi = two_photon_xi()
    assert abs(xi.amplitude((2, 0)) - math.sqrt(2 / 3)) < 1e-14
    assert abs(xi.amplitude((1, 1)) - math.sqrt(1 / 3)) < 1e-14
    assert xi.amplitude((0, 2)) == 0j


def test_two_photon_projection_curve(gamma_grid):
    xi = two_photon_xi()
    for g in gamma_grid:
        p = pure_projection(models.two_photon_polarization(g), xi)
        expected = (4 / 3) * math.sin(math.pi / 4 + g / 2) ** 2 * math.cos(g / 2) ** 2
        assert abs(p - expected) < 1e-12
    at_zero = pure_projection(models.two_photon_polarization(0.0), xi)
    assert abs(at_zero - 2 / 3) < 1e-13
    at_quarter = pure_projection(models.two_photon_polarization(math.pi / 4), xi)
    assert abs(at_quarter - 0.9714045207910316) < 1e-12


def test_cascade_anchor_values():
    ideal = DetectorModel(1.0)
    assert abs(hofmann_cascade(models.two_photon_polarization(0.0), ideal) - 0.25) < 1e-13
    dark = DetectorModel(0.0)
    assert hofmann_cascade(models.two_photon_polarization(0.4), dark) == 0.0


def test_cascade_ratio_to_pure_projection(gamma_grid):
    xi = two_photon_xi()
    for eta in (1.0, 0.6, 0.25):
        detectors = DetectorModel(eta)
        for g in gamma_grid[::5]:
            state = models.two_photon_polarization(g)
            ratio = hofmann_cascade(state, detectors) / pure_projection(state, xi)
            assert abs(ratio - 3 * eta * eta / 8) < 1e-12


def test_cascade_rejects_wrong_photon_number():
    with pytest.raises(ValueError):
        hofmann_cascade(basis_ket((1, 0)), DetectorModel(1.0))
    with pytest.raises(DimensionMismatchError):
        hofmann_cascade(basis_ket((1, 1, 0)), DetectorModel(1.0))


def test_detector_model_range():
    with pytest.raises(ValueError):
        DetectorModel(1.5)
    with pytest.raises(ValueError):
        DetectorModel(-0.1)


def test_classical_intensity_aligned_and_crossed():
    assert abs(classical_intensity(0.3, 0.3, 0.3, 2.0) - 1.0) < 1e-14
    assert abs(classical_intensity(math.pi / 2, 0.0, math.pi / 4, 2.0)) < 1e-30
    assert abs(classical_intensity(0.2, 0.2, 0.2, 1.0) - (0.5) ** 4) < 1e-14


def test_classical_intensity_peak_location():
    # dense scan agrees with the analytic peak at pi/8
    grid = [i * math.pi / 2 / 20000 for i in range(20001)]
    values = [classical_intensity(g, 0.0, math.pi / 4, 2.0) for g in grid]
    best = grid[values.index(max(values))]
    assert abs(best - math.pi / 8) < 1e-4
    peak = classical_intensity(math.pi / 8, 0.0, math.pi / 4, 2.0)
    assert abs(peak - math.cos(math.pi / 8) ** 4) < 1e-14


def test_classical_intensity_validates_arguments():
    with pytest.raises(ValueError):
        classical_intensity(-0.1, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        classical_intensity(0.1, 0.0, 0.0, -1.0)
    for bad in ((math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.inf), (0.0, 0.0, 1e100)):
        with pytest.raises(ValueError):
            classical_intensity(0.1, *bad)


def test_event_sum_projector_refuses_a_negative_count():
    with pytest.raises(ValueError, match="negative count"):
        EventSumProjector([(1, -1)], (True, True))


def test_single_loss_is_not_an_event_sum_scenario():
    with pytest.raises(UnsupportedScenarioError, match="single-loss"):
        scenario_events(ScenarioId.SINGLE_LOSS)


# both measurements ask the projector the one question `FockState.normalized` answers
@pytest.mark.parametrize(
    "measure, state",
    [(pure_projection, basis_ket((1, 0))), (loss_marginal_projection, basis_ket((1, 0, 0)))],
    ids=["pure", "loss-marginal"],
)
def test_measurements_share_one_normalization_rule(measure, state):
    xi = basis_ket((1, 0))
    assert measure(state, xi) == 1.0
    near = (1.0 + 1e-13) * xi  # norm squared 1 + 2e-13, within fock.NORMALIZATION_TOL
    assert near.normalized and abs(measure(state, near) - 1.0) < 1e-12
    for off in (2.0 * xi, (1.0 + 1e-12) * xi):
        assert not off.normalized
        with pytest.raises(ValueError, match="must be normalized"):
            measure(state, off)
