import math

import pytest

from fockproj import (
    ScenarioId,
    UnsupportedScenarioError,
    basis_ket,
    fidelity,
    indistinguishability,
    models,
    pure_projection,
    single_photon_projector,
)
from fockproj.projectors import ProjectorAngles

QUANTUM = models.QUANTUM_SCENARIOS
DENSE_GRID = [i * math.pi / 2 / 1000 for i in range(1001)]


def test_hom_two_photon_endpoints():
    assert models.hom_two_photon(0.0).isclose(basis_ket((1, 1, 0, 0)), 1e-15)
    assert models.hom_two_photon(math.pi / 2).isclose(basis_ket((1, 0, 0, 1)), 1e-15)


def test_hom_two_photon_balanced_at_pi_over_4():
    state = models.hom_two_photon(math.pi / 4)
    assert abs(state.amplitude((1, 1, 0, 0)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(state.amplitude((1, 0, 0, 1)) - 1 / math.sqrt(2)) < 1e-14


def test_hom_two_pair_endpoints():
    assert models.hom_two_pair(0.0).isclose(basis_ket((2, 2, 0, 0)), 1e-15)
    assert models.hom_two_pair(math.pi / 2).isclose(basis_ket((2, 0, 0, 2)), 1e-15)


def test_single_deliberate_endpoints():
    balanced = models.single_deliberate(0.0)
    assert abs(balanced.amplitude((1, 0)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(balanced.amplitude((0, 1)) - 1 / math.sqrt(2)) < 1e-14
    assert models.single_deliberate(math.pi / 2).isclose(basis_ket((0, 1)), 1e-12)


def test_single_loss_endpoints():
    start = models.single_loss(0.0)
    assert abs(start.amplitude((1, 0, 0)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(start.amplitude((0, 1, 0)) - 1 / math.sqrt(2)) < 1e-14
    end = models.single_loss(math.pi / 2)
    assert abs(end.amplitude((0, 1, 0)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(end.amplitude((0, 0, 1)) - 1 / math.sqrt(2)) < 1e-14


def test_single_loss_overlap_with_start():
    # overlap (1 + cos g)/2, so the overlap probability is its square
    for g in (0.0, 0.5, 1.2, math.pi / 2):
        f = fidelity(models.single_loss(0.0), models.single_loss(g))
        assert abs(f - ((1.0 + math.cos(g)) / 2.0) ** 2) < 1e-13
    assert abs(indistinguishability(ScenarioId.SINGLE_LOSS, math.pi / 2) - 0.25) < 1e-13


def test_phase_noise_members_at_zero_coincide():
    ens = models.single_phase_noise(0.0)
    assert len(ens) == 2
    (w1, s1), (w2, s2) = ens.members
    assert w1 == w2 == 0.5
    assert s1.isclose(s2, 1e-15)


def test_phase_noise_overlap_probability():
    ref = models.scenario_reference(ScenarioId.SINGLE_PHASE_NOISE)
    for g in (0.0, 0.3, 0.9, math.pi / 2):
        f = fidelity(ref, models.single_phase_noise(g))
        assert abs(f - (1.0 + math.cos(g)) / 2.0) < 1e-13


def test_phase_noise_projection_formula():
    # [1 + cos(theta) sin(2 beta) cos(gamma)] / 2 for any projector angles
    angles = ProjectorAngles(0.61, 2.2)
    xi = single_photon_projector(angles)
    for g in (0.0, 0.4, 1.0, 1.5):
        p = pure_projection(models.single_phase_noise(g), xi)
        expected = (
            1.0 + math.cos(angles.theta) * math.sin(2 * angles.beta) * math.cos(g)
        ) / 2.0
        assert abs(p - expected) < 1e-13


def test_phase_noise_gaussian_matches_two_point():
    angles = ProjectorAngles(math.pi / 4, 0.0)
    xi = single_photon_projector(angles)
    for g in DENSE_GRID[::50] + [math.pi / 2]:
        p_two = pure_projection(models.single_phase_noise(g), xi)
        p_gauss = pure_projection(models.single_phase_noise_gaussian(g), xi)
        assert abs(p_two - p_gauss) < 1e-6


def test_phase_noise_gaussian_first_moment():
    # the 17-node discretization reproduces <cos phi> = cos gamma
    for g in (0.0, 0.2, 0.8, 1.3, 1.56, math.pi / 2):
        ens = models.single_phase_noise_gaussian(g)
        moment = sum(w * s.amplitude((0, 1)).real * math.sqrt(2) for w, s in ens.members)
        assert abs(moment - math.cos(g)) < 1e-9
        assert abs(sum(w for w, _ in ens.members) - 1.0) < 1e-12


def test_phase_noise_gaussian_first_moment_on_a_dense_grid():
    # on 2,001 angles 17 nodes miss <cos phi> = cos gamma by at most 4.4e-16, and 15 by 3.4e-14;
    # the Gauss-Hermite rule kept up to sigma^2 = 4 misses by 7.8e-15, and up to 9 by 1.84e-9
    for g in [i * math.pi / 2 / 2000 for i in range(2001)]:
        ens = models.single_phase_noise_gaussian(g)
        moment = sum(w * s.amplitude((0, 1)).real * math.sqrt(2) for w, s in ens.members)
        assert abs(moment - math.cos(g)) < 4e-15


def test_two_photon_polarization_endpoints():
    assert models.two_photon_polarization(math.pi / 2).isclose(basis_ket((2, 0)), 1e-12)
    diag = models.two_photon_polarization(0.0)
    assert abs(diag.amplitude((2, 0)) - 0.5) < 1e-14
    assert abs(diag.amplitude((1, 1)) - 1 / math.sqrt(2)) < 1e-14
    assert abs(diag.amplitude((0, 2)) - 0.5) < 1e-14


@pytest.mark.parametrize("scenario", QUANTUM)
def test_factories_normalized_on_dense_grid(scenario):
    for g in DENSE_GRID:
        state = models.scenario_state(scenario, g)
        if hasattr(state, "members"):
            assert all(s.normalized for _, s in state.members)
        else:
            assert abs(state.norm_squared() - 1.0) < 1e-12


@pytest.mark.parametrize("factory", [
    models.hom_two_photon,
    models.hom_two_pair,
    models.single_deliberate,
    models.single_loss,
    models.single_phase_noise,
    models.two_photon_polarization,
])
def test_factories_reject_out_of_range_gamma(factory):
    with pytest.raises(ValueError):
        factory(-0.01)
    with pytest.raises(ValueError):
        factory(math.pi / 2 + 0.01)


_CLOSED_FORMS = {
    ScenarioId.HOM2: lambda g: math.cos(g) ** 2,
    ScenarioId.HOM4_COINCIDENCE: lambda g: math.cos(g) ** 4,
    ScenarioId.HOM4_BUNCHING: lambda g: math.cos(g) ** 4,
    ScenarioId.SINGLE_DELIBERATE: lambda g: math.cos(g / 2) ** 2,
    ScenarioId.SINGLE_LOSS: lambda g: ((1 + math.cos(g)) / 2) ** 2,
    ScenarioId.SINGLE_PHASE_NOISE: lambda g: (1 + math.cos(g)) / 2,
    ScenarioId.TWO_PHOTON_POLARIZATION: lambda g: ((1 + math.cos(g)) / 2) ** 2,
    ScenarioId.HOFMANN_CASCADE: lambda g: ((1 + math.cos(g)) / 2) ** 2,
}


@pytest.mark.parametrize("scenario", QUANTUM)
def test_indistinguishability_matches_closed_form(scenario):
    form = _CLOSED_FORMS[scenario]
    for g in DENSE_GRID[::10]:
        assert abs(indistinguishability(scenario, g) - form(g)) < 1e-12


@pytest.mark.parametrize("scenario", QUANTUM)
def test_indistinguishability_starts_at_one_and_never_increases(scenario):
    values = [indistinguishability(scenario, g) for g in DENSE_GRID[::10]]
    assert abs(values[0] - 1.0) < 1e-12
    assert all(b - a <= 1e-12 for a, b in zip(values, values[1:]))
    assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)


def test_classical_scenario_has_no_quantum_state():
    with pytest.raises(UnsupportedScenarioError):
        models.scenario_state(ScenarioId.CLASSICAL_POLARIZATION, 0.3)
    with pytest.raises(UnsupportedScenarioError):
        indistinguishability(ScenarioId.CLASSICAL_POLARIZATION, 0.3)


def test_scenario_unitary_shapes():
    assert models.scenario_unitary(ScenarioId.HOM2).dimension == 4
    assert models.scenario_unitary(ScenarioId.SINGLE_LOSS).dimension == 3
    assert models.scenario_unitary(ScenarioId.TWO_PHOTON_POLARIZATION).dimension == 2
    with pytest.raises(UnsupportedScenarioError):
        models.scenario_unitary(ScenarioId.CLASSICAL_POLARIZATION)

