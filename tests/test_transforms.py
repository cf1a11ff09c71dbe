import math
import random

import numpy as np
import pytest

import _oracles
from fockproj import (
    DimensionMismatchError,
    ModeUnitary,
    basis_ket,
    beamsplitter_5050,
    identity,
    inner_product,
    lift,
    models,
    polarization_rotation,
)

SQ2 = math.sqrt(2.0)


def test_beamsplitter_bunches_photon_pair():
    out = lift(beamsplitter_5050(0, 1, 2), basis_ket((1, 1)))
    assert abs(out.amplitude((2, 0)) - 1 / SQ2) < 1e-14
    assert abs(out.amplitude((0, 2)) + 1 / SQ2) < 1e-14
    assert out.amplitude((1, 1)) == 0j


def test_beamsplitter_single_photon_columns():
    bs = beamsplitter_5050(0, 1, 2)
    first = lift(bs, basis_ket((1, 0)))
    assert abs(first.amplitude((1, 0)) - 1 / SQ2) < 1e-14
    assert abs(first.amplitude((0, 1)) - 1 / SQ2) < 1e-14
    second = lift(bs, basis_ket((0, 1)))
    assert abs(second.amplitude((1, 0)) - 1 / SQ2) < 1e-14
    assert abs(second.amplitude((0, 1)) + 1 / SQ2) < 1e-14


def test_beamsplitter_rejects_bad_indices():
    with pytest.raises(ValueError):
        beamsplitter_5050(0, 0, 2)
    with pytest.raises(ValueError):
        beamsplitter_5050(0, 3, 2)


def test_rotation_at_zero_is_identity():
    rot = polarization_rotation(0.0)
    assert np.allclose(rot.matrix, np.eye(2))


def test_rotation_single_photon_column():
    out = lift(polarization_rotation(math.pi / 4), basis_ket((1, 0)))
    assert abs(out.amplitude((1, 0)) - math.cos(math.pi / 4)) < 1e-14
    assert abs(out.amplitude((0, 1)) - math.sin(math.pi / 4)) < 1e-14


def test_rotation_reproduces_deliberate_single_photon_state():
    # the rotated single photon equals the factory state for every gamma
    for g in (0.0, 0.4, 1.0, math.pi / 2):
        rotated = lift(polarization_rotation(math.pi / 4 + g / 2), basis_ket((1, 0)))
        assert rotated.isclose(models.single_deliberate(g), 1e-13)


def test_rotation_reproduces_two_photon_polarization_state():
    for g in (0.0, 0.7, 1.3, math.pi / 2):
        rotated = lift(polarization_rotation(math.pi / 4 - g / 2), basis_ket((2, 0)))
        assert rotated.isclose(models.two_photon_polarization(g), 1e-13)


def test_lift_identity_is_noop():
    psi = (basis_ket((2, 1, 0)) + basis_ket((0, 1, 2))).normalize()
    assert lift(identity(3), psi).isclose(psi, 1e-15)


def test_lift_delayed_two_photon_state_amplitudes():
    g = 0.7
    u = models.scenario_unitary(models.ScenarioId.HOM2)
    out = lift(u, models.hom_two_photon(g))
    c, s = math.cos(g), math.sin(g)
    expected = {
        (2, 0, 0, 0): c / SQ2,
        (0, 2, 0, 0): -c / SQ2,
        (1, 0, 1, 0): s / 2,
        (1, 0, 0, 1): -s / 2,
        (0, 1, 1, 0): s / 2,
        (0, 1, 0, 1): -s / 2,
    }
    assert len(out) == len(expected)
    for occ, amp in expected.items():
        assert abs(out.amplitude(occ) - amp) < 1e-13


def test_lift_two_pairs_one_per_side():
    u = models.scenario_unitary(models.ScenarioId.HOM4_COINCIDENCE)
    out = lift(u, basis_ket((2, 2, 0, 0)))
    assert abs(out.amplitude((2, 2, 0, 0)) + 0.5) < 1e-13
    assert abs(out.amplitude((4, 0, 0, 0)) - math.sqrt(3 / 8)) < 1e-13
    assert abs(out.amplitude((0, 4, 0, 0)) - math.sqrt(3 / 8)) < 1e-13
    assert len(out) == 3
    # independent permanent-based expansion agrees
    assert out.isclose(_oracles.lift_oracle(u, basis_ket((2, 2, 0, 0))), 1e-12)


def test_lift_matches_permanent_oracle_on_random_cases():
    rng = random.Random(7321)
    for _ in range(30):
        modes = rng.randint(2, 4)
        u = _oracles.random_unitary(rng, modes)
        psi = _oracles.random_state(rng, modes)
        assert lift(u, psi).isclose(_oracles.lift_oracle(u, psi), 1e-11)


def test_lift_preserves_norm_and_inner_products():
    rng = random.Random(411)
    for _ in range(20):
        modes = rng.randint(2, 4)
        u = _oracles.random_unitary(rng, modes)
        a = _oracles.random_state(rng, modes)
        b = _oracles.random_state(rng, modes)
        assert abs(lift(u, a).norm() - a.norm()) < 1e-12
        assert abs(inner_product(lift(u, a), lift(u, b)) - inner_product(a, b)) < 1e-11


def test_lift_composition_homomorphism():
    rng = random.Random(95)
    for _ in range(20):
        modes = rng.randint(2, 4)
        u = _oracles.random_unitary(rng, modes)
        v = _oracles.random_unitary(rng, modes)
        psi = _oracles.random_state(rng, modes)
        assert lift(u @ v, psi).isclose(lift(u, lift(v, psi)), 1e-11)


def test_lift_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lift(identity(3), basis_ket((1, 0)))


def test_mode_unitary_rejects_non_unitary_matrix():
    with pytest.raises(ValueError):
        ModeUnitary([[1.0, 0.0], [0.0, 1.1]])
    with pytest.raises(ValueError):
        ModeUnitary([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_mode_unitary_composition_checks_dimension():
    with pytest.raises(DimensionMismatchError):
        identity(2) @ identity(3)


def test_mode_unitary_repr_names_its_dimension():
    assert repr(beamsplitter_5050(0, 2, 4)) == "ModeUnitary(dimension=4)"


@pytest.mark.parametrize(
    "modes, message",
    [((0, 0, 2), "two distinct modes"), ((0, 4, 4), "mode index 4 out of range for 4 modes"),
     ((-1, 0, 2), "mode index -1 out of range")],
)
def test_beamsplitter_names_the_mode_it_refuses(modes, message):
    with pytest.raises(ValueError, match=message):
        beamsplitter_5050(*modes)
