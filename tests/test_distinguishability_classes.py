"""Why the delay curves turn: a weighting of distinguishability classes.

A delay scenario's basis ket b_k holds k delayed photons, and its curve is
sum_o |sum_k A_ok c_k(g)|^2 with A_ok = <o|U|b_k>.  The delay transform acts on
the early and the late modes apart, and every event is an occupation pattern,
so no event is reached from two classes: the Gram matrix A^H A is diagonal, and
the curve is sum_k P_k |c_k(g)|^2 with the class probabilities P_k = sum_o |A_ok|^2.
No term couples two classes.  In u = sin^2 g, which rises on [0, pi/2], that sum is
a quadratic Bernstein polynomial with control points P_0, P_1, P_2, whose turns
follow from the three numbers alone (Shchesnovich, Phys. Rev. A 91, 013844, 2015).

A single-photon curve has one class, and its Gram matrix M = gain A^H A is not
diagonal: the curve is a population part (M's diagonal) plus an interference
part (its off-diagonal).  Each part is monotone in g, so a curve turns only
where the two move in opposite directions; with phase noise the population part
is constant, and the curve cannot turn.
"""

import math
import random

import _oracles
import numpy as np
import pytest

from fockproj import ProjectorAngles, analysis, models, transforms
from fockproj.analysis import ExtremumKind, Verdict, classify_monotonicity
from fockproj.fock import basis_ket, inner_product
from fockproj.models import ScenarioId

DELAY = (ScenarioId.HOM2, ScenarioId.HOM4_COINCIDENCE, ScenarioId.HOM4_BUNCHING)
# P_k, the event probability of the class with k delayed photons
CLASS_PROBABILITIES = {
    ScenarioId.HOM2: (0.0, 1 / 2),
    ScenarioId.HOM4_COINCIDENCE: (1 / 4, 1 / 8, 3 / 8),
    ScenarioId.HOM4_BUNCHING: (3 / 8, 3 / 16, 1 / 16),
}


def _engine_amplitudes(scenario):
    spec = models.SCENARIOS[scenario]
    kets = [transforms.lift(spec.transform, basis_ket(b)) for b in spec.basis]
    return np.array([[inner_product(basis_ket(o), k) for k in kets] for o in spec.events])


def _oracle_amplitudes(scenario):
    spec = models.SCENARIOS[scenario]
    return np.array([[_oracles.transition_amplitude(spec.transform, b, o) for b in spec.basis]
                     for o in spec.events])


def _class_probabilities(scenario):
    return (np.abs(_oracle_amplitudes(scenario)) ** 2).sum(axis=0)


def _control_points(scenario):
    """P_0, P_1, P_2 in u; hom2 is linear in u, so its two points are raised to degree 2."""
    p = _class_probabilities(scenario)
    return (p[0], (p[0] + p[1]) / 2, p[1]) if len(p) == 2 else tuple(p)


@pytest.mark.parametrize("amplitudes", [_engine_amplitudes, _oracle_amplitudes])
@pytest.mark.parametrize("scenario", DELAY)
def test_no_event_is_reached_from_two_classes(scenario, amplitudes):
    a = amplitudes(scenario)
    gram = a.conj().T @ a
    assert np.all(gram[~np.eye(len(gram), dtype=bool)] == 0.0)  # exactly, not within rounding


@pytest.mark.parametrize("amplitudes", [_engine_amplitudes, _oracle_amplitudes])
@pytest.mark.parametrize("scenario", DELAY)
def test_the_class_probabilities(scenario, amplitudes):
    p = (np.abs(amplitudes(scenario)) ** 2).sum(axis=0)
    assert np.abs(p - CLASS_PROBABILITIES[scenario]).max() <= 1e-15


@pytest.mark.parametrize("scenario", DELAY)
def test_each_curve_is_its_classes_weighted_by_their_probabilities(scenario):
    spec = models.SCENARIOS[scenario]
    grid = np.linspace(0.0, math.pi / 2, 1001)
    (coefficients,) = spec.coefficients(grid)
    weighted = sum(p * np.abs(c) ** 2 for p, c in zip(_class_probabilities(scenario), coefficients))
    assert np.abs(weighted - spec.closed_form(grid, {})).max() <= 1e-15


@pytest.mark.parametrize("scenario", DELAY)
def test_the_bernstein_rule_gives_each_verdict(scenario):
    # B'(u) is linear in u: it changes sign on [0, 1] iff its end values P1 - P0, P2 - P1 do
    p0, p1, p2 = _control_points(scenario)
    rise, then = p1 - p0, p2 - p1
    if rise * then < 0:
        expected = Verdict.NON_MONOTONIC
    else:
        expected = Verdict.NON_DECREASING if rise + then > 0 else Verdict.NON_INCREASING
    result = analysis.sweep(scenario, 1001)
    assert result.verdict is expected
    assert (result.extrema == ()) == (expected is not Verdict.NON_MONOTONIC)


def test_the_four_photon_dip_is_the_bernstein_minimum():
    p0, p1, p2 = _control_points(ScenarioId.HOM4_COINCIDENCE)
    u = (p0 - p1) / (p0 - 2 * p1 + p2)
    value = (p0 * p2 - p1 * p1) / (p0 - 2 * p1 + p2)
    assert abs(u - 1 / 3) <= 1e-15 and abs(value - 5 / 24) <= 1e-15
    (dip,) = analysis.sweep(ScenarioId.HOM4_COINCIDENCE, 1001).extrema
    assert dip.kind is ExtremumKind.MIN
    assert abs(dip.gamma - math.asin(math.sqrt(u))) <= 1e-12
    assert abs(dip.gamma - math.acos(math.sqrt(2 / 3))) <= 1e-12
    assert abs(dip.value - value) <= 1e-12


SINGLE = (ScenarioId.SINGLE_DELIBERATE, ScenarioId.SINGLE_LOSS, ScenarioId.SINGLE_PHASE_NOISE)


def _single_photon_parts(scenario, params, grid):
    """The population part (M's diagonal) and the interference part (its off-diagonal) of
    the curve on `grid`, each summed over the mixture members."""
    spec = models.SCENARIOS[scenario]
    a = np.array([[inner_product(o, basis_ket(b)) for b in spec.basis]
                  for o in spec.outcomes(params)])
    gram = spec.gain(params) * a.conj().T @ a
    diagonal = np.eye(len(gram), dtype=bool)
    population = interference = 0.0
    for weight, coefficients in zip(spec.weights, spec.coefficients(grid)):
        c = np.array(np.broadcast_arrays(grid, *coefficients)[1:])  # one row per basis ket
        terms = np.einsum("kg,kl,lg->klg", c.conj(), gram, c).real
        population = population + weight * terms[diagonal].sum(axis=0)
        interference = interference + weight * terms[~diagonal].sum(axis=0)
    return population, interference


def _angles(rng):
    """A seeded (beta, theta) with |cos 2beta| and |sin 2beta cos theta| at least 1e-2, so
    that neither part of a single-photon curve is within rounding of flat."""
    while True:
        beta, theta = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi)
        if min(abs(math.cos(2 * beta)), abs(math.sin(2 * beta) * math.cos(theta))) >= 1e-2:
            return ProjectorAngles(beta, theta)


@pytest.mark.parametrize("scenario", SINGLE)
def test_a_single_photon_curve_turns_only_where_its_two_monotone_parts_compete(scenario):
    # deliberate: (1 - cos2b sin g)/2 + sin2b cos t cos g/2; loss: (cos^2 b cos^2 g + sin^2 b)/2
    # plus the same interference part; phase noise: a constant population part
    rng = random.Random(f"classes:{scenario.value}")
    turning = 0
    for _ in range(300):
        result = analysis.sweep(scenario, 1001, _angles(rng))
        population, interference = _single_photon_parts(scenario, result.params, result.gammas)
        assert np.abs(population + interference - result.closed_forms).max() <= 1e-14
        verdicts = classify_monotonicity(population), classify_monotonicity(interference)
        assert Verdict.NON_MONOTONIC not in verdicts
        if scenario is ScenarioId.SINGLE_PHASE_NOISE:
            assert verdicts[0] is Verdict.CONSTANT
        if result.verdict is Verdict.NON_MONOTONIC:  # the converse fails for some loss draws
            turning += 1
            assert set(verdicts) == {Verdict.NON_DECREASING, Verdict.NON_INCREASING}
    assert (turning > 0) == (scenario is not ScenarioId.SINGLE_PHASE_NOISE)
