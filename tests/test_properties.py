"""Property-based checks of the algebraic invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from fockproj import (
    EventSumProjector,
    ProjectorAngles,
    ScenarioId,
    event_sum,
    fidelity,
    inner_product,
    lift,
    models,
    pure_projection,
    tensor,
)
from fockproj.analysis import MONOTONICITY_TOL, Verdict, classify_monotonicity, probability_function


@st.composite
def seeded_rng(draw):
    return random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(seeded_rng())
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz(rng):
    modes = rng.randint(2, 4)
    psi = _oracles.random_state(rng, modes)
    phi = _oracles.random_state(rng, modes)
    lhs = abs(inner_product(psi, phi)) ** 2
    rhs = psi.norm_squared() * phi.norm_squared()
    assert lhs <= rhs + 1e-12


@given(seeded_rng())
@settings(max_examples=40, deadline=None)
def test_tensor_associative(rng):
    a = _oracles.random_state(rng, 2, max_photons=2)
    b = _oracles.random_state(rng, 1, max_photons=2)
    c = _oracles.random_state(rng, 2, max_photons=2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.isclose(right, 1e-14)


@given(seeded_rng())
@settings(max_examples=60, deadline=None)
def test_fidelity_self_and_symmetry(rng):
    modes = rng.randint(2, 4)
    psi = _oracles.random_state(rng, modes)
    phi = _oracles.random_state(rng, modes)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    assert abs(fidelity(psi, phi) - fidelity(phi, psi)) < 1e-12


@given(seeded_rng())
@settings(max_examples=50, deadline=None)
def test_lift_preserves_norm(rng):
    modes = rng.randint(2, 4)
    u = _oracles.random_unitary(rng, modes)
    psi = _oracles.random_state(rng, modes)
    assert abs(lift(u, psi).norm() - psi.norm()) < 1e-12


@given(seeded_rng())
@settings(max_examples=40, deadline=None)
def test_lift_composition(rng):
    modes = rng.randint(2, 4)
    u = _oracles.random_unitary(rng, modes)
    v = _oracles.random_unitary(rng, modes)
    psi = _oracles.random_state(rng, modes)
    assert lift(u @ v, psi).isclose(lift(u, lift(v, psi)), 1e-11)


@given(seeded_rng())
@settings(max_examples=40, deadline=None)
def test_lift_preserves_inner_products(rng):
    modes = rng.randint(2, 4)
    u = _oracles.random_unitary(rng, modes)
    a = _oracles.random_state(rng, modes)
    b = _oracles.random_state(rng, modes)
    assert abs(inner_product(lift(u, a), lift(u, b)) - inner_product(a, b)) < 1e-11


@given(seeded_rng())
@settings(max_examples=40, deadline=None)
def test_event_sum_complete_over_fixed_photon_number(rng):
    modes = rng.randint(2, 4)
    photons = rng.randint(1, 4)
    psi = _oracles.random_fixed_number_state(rng, modes, photons)
    u = _oracles.random_unitary(rng, modes)
    everything = EventSumProjector(
        list(_oracles.compositions(photons, modes)), (True,) * modes
    )
    assert abs(event_sum(lift(u, psi), everything) - 1.0) < 1e-11


@given(
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_phase_noise_curves_never_turn_around(beta, theta):
    f = probability_function(ScenarioId.SINGLE_PHASE_NOISE, ProjectorAngles(beta, theta))
    values = [f(i * math.pi / 2 / 32) for i in range(33)]
    assert classify_monotonicity(values) in (
        Verdict.CONSTANT,
        Verdict.NON_DECREASING,
        Verdict.NON_INCREASING,
    )


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.lists(  # steps on both sides of the fixed tolerance +-1e-9, and some far outside it
        st.one_of(
            st.floats(min_value=-3e-9, max_value=3e-9),
            st.sampled_from([-0.25, -1e-9, 0.0, 1e-9, 0.25]),
        ),
        min_size=2,
        max_size=11,
    ),
)
@settings(max_examples=200, deadline=None)
def test_classify_monotonicity_matches_its_definition(start, steps):
    values = [start]
    for step in steps:
        values.append(values[-1] + step)
    diffs = [b - a for a, b in zip(values, values[1:])]
    tol = MONOTONICITY_TOL
    non_decreasing = all(d >= -tol for d in diffs)
    non_increasing = all(d <= tol for d in diffs)
    expected = {
        (True, True): Verdict.CONSTANT,
        (True, False): Verdict.NON_DECREASING,
        (False, True): Verdict.NON_INCREASING,
        (False, False): Verdict.NON_MONOTONIC,
    }[non_decreasing, non_increasing]
    assert classify_monotonicity(values) is expected


@given(st.floats(min_value=0.0, max_value=math.pi / 2))
@settings(max_examples=60, deadline=None)
def test_proper_projection_bounded_and_matches_overlap(gamma):
    from fockproj import proper_projector

    xi = proper_projector(ScenarioId.HOM4_COINCIDENCE)
    u = models.scenario_unitary(ScenarioId.HOM4_COINCIDENCE)
    p = pure_projection(lift(u, models.hom_two_pair(gamma)), xi)
    assert -1e-12 <= p <= 1.0 + 1e-12
    assert abs(p - math.cos(gamma) ** 4) < 1e-11
