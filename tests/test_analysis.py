import math
import random
import sys

import numpy as np
import pytest

import _oracles
from test_cli import _python, _seeded_sweep
from fockproj import (
    DetectorModel,
    ProjectorAngles,
    ScenarioId,
    models,
    projectors,
    transforms,
)
from fockproj.analysis import (
    MAX_STEPS,
    _TIE,
    ExtremumKind,
    Verdict,
    _extrema,
    _scan,
    classify_monotonicity,
    closed_form,
    find_extrema,
    probability_function,
    sweep,
)
from fockproj.fock import basis_ket

OFFAXIS = ProjectorAngles(math.pi / 8, math.pi)


def test_pair_coincidence_closed_forms_agree(gamma_grid):
    # the expanded and overlap-based expressions are the same polynomial
    for g in gamma_grid:
        overlap = math.cos(g) ** 4
        rewritten = (3 * overlap - 4 * math.sqrt(overlap) + 3) / 8
        assert abs(closed_form(ScenarioId.HOM4_COINCIDENCE, g) - rewritten) < 1e-12


def test_pair_coincidence_minimum_value():
    g_star = math.acos(math.sqrt(2 / 3))
    assert abs(closed_form(ScenarioId.HOM4_COINCIDENCE, g_star) - 5 / 24) < 1e-13


def test_deliberate_closed_form_zero_at_quarter_pi():
    assert abs(closed_form(ScenarioId.SINGLE_DELIBERATE, math.pi / 4, OFFAXIS)) < 1e-15


def test_closed_form_requires_angles():
    with pytest.raises(ValueError):
        closed_form(ScenarioId.SINGLE_DELIBERATE, 0.3)
    with pytest.raises(ValueError):
        closed_form(ScenarioId.SINGLE_LOSS, 0.3)


def test_unused_and_non_finite_parameters_are_rejected():
    with pytest.raises(ValueError):
        sweep(ScenarioId.HOM2, 11, OFFAXIS)
    with pytest.raises(ValueError):
        sweep(ScenarioId.SINGLE_LOSS, 11, OFFAXIS, DetectorModel(0.5))
    with pytest.raises(ValueError):
        probability_function(ScenarioId.HOM4_BUNCHING, amplitude=2.0)
    with pytest.raises(ValueError):
        closed_form(ScenarioId.CLASSICAL_POLARIZATION, 0.3, theta1=math.nan)


@pytest.mark.parametrize(
    "scenario,angles",
    [
        (ScenarioId.HOM2, None),
        (ScenarioId.HOM4_COINCIDENCE, None),
        (ScenarioId.HOM4_BUNCHING, None),
        (ScenarioId.SINGLE_DELIBERATE, OFFAXIS),
        (ScenarioId.SINGLE_LOSS, OFFAXIS),
        (ScenarioId.SINGLE_PHASE_NOISE, OFFAXIS),
        (ScenarioId.TWO_PHOTON_POLARIZATION, None),
        (ScenarioId.HOFMANN_CASCADE, None),
        (ScenarioId.CLASSICAL_POLARIZATION, None),
    ],
)
def test_engine_matches_closed_form(scenario, angles):
    result = sweep(scenario, 101, angles)
    assert result.max_closed_form_deviation() < 1e-10


def test_engine_matches_closed_form_random_angles():
    rng = random.Random(5150)
    for scenario in (
        ScenarioId.SINGLE_DELIBERATE,
        ScenarioId.SINGLE_LOSS,
        ScenarioId.SINGLE_PHASE_NOISE,
    ):
        for _ in range(3):
            angles = ProjectorAngles(
                rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
            )
            assert sweep(scenario, 51, angles).max_closed_form_deviation() < 1e-10


def test_sweep_two_photon_endpoints_and_verdict():
    result = sweep(ScenarioId.HOM2, 101)
    assert abs(result.probabilities[0]) < 1e-12
    assert abs(result.probabilities[-1] - 0.5) < 1e-12
    assert result.verdict is Verdict.NON_DECREASING
    assert result.extrema == ()
    assert result.indistinguishability is not None
    assert classify_monotonicity(result.indistinguishability) is Verdict.NON_INCREASING


def test_sweep_pair_coincidence_dip():
    result = sweep(ScenarioId.HOM4_COINCIDENCE, 101)
    assert abs(result.probabilities[0] - 0.25) < 1e-12
    assert abs(result.probabilities[-1] - 0.375) < 1e-12
    assert result.verdict is Verdict.NON_MONOTONIC
    (minimum,) = result.extrema
    assert minimum.kind is ExtremumKind.MIN
    assert abs(minimum.gamma - math.acos(math.sqrt(2 / 3))) < 1e-8
    assert abs(minimum.value - 5 / 24) < 1e-10


def test_sweep_two_photon_polarization_peak():
    result = sweep(ScenarioId.TWO_PHOTON_POLARIZATION, 101)
    assert abs(result.probabilities[0] - 2 / 3) < 1e-12
    assert abs(result.probabilities[-1] - 2 / 3) < 1e-12
    assert result.verdict is Verdict.NON_MONOTONIC
    (peak,) = result.extrema
    assert peak.kind is ExtremumKind.MAX
    assert abs(peak.gamma - math.pi / 4) < 1e-8
    assert abs(peak.value - 0.9714045207910316) < 1e-10


def test_sweep_rejects_too_few_steps():
    with pytest.raises(ValueError):
        sweep(ScenarioId.HOM2, 2)


def test_sweep_refuses_a_grid_above_the_cap():
    # the cap is checked first, before the missing angles are noticed
    with pytest.raises(ValueError, match="steps"):
        sweep(ScenarioId.SINGLE_DELIBERATE, MAX_STEPS + 1)


def test_sweep_refuses_a_non_integer_steps():
    # checked first, before the missing angles are noticed; 10.5 would give an
    # 11-point grid that runs past pi/2
    with pytest.raises(ValueError, match="steps"):
        sweep(ScenarioId.SINGLE_DELIBERATE, 10.5)
    assert len(sweep(ScenarioId.HOM2, np.int64(11)).gammas) == 11


def test_sweep_requires_angles_for_single_photon_scenarios():
    with pytest.raises(ValueError):
        sweep(ScenarioId.SINGLE_DELIBERATE, 11)


def test_classify_monotonicity_verdicts():
    assert classify_monotonicity([0.0, 0.1, 0.2]) is Verdict.NON_DECREASING
    assert classify_monotonicity([0.2, 0.1, 0.0]) is Verdict.NON_INCREASING
    assert classify_monotonicity([0.1, 0.1, 0.1]) is Verdict.CONSTANT
    assert classify_monotonicity([0.0, 0.2, 0.1]) is Verdict.NON_MONOTONIC


@pytest.mark.parametrize(
    "signs,verdict",
    [
        ([], Verdict.CONSTANT),
        ([1.0] * 5, Verdict.NON_DECREASING),
        ([-1.0] * 5, Verdict.NON_INCREASING),
        ([1.0, 1.0, -1.0, 1.0], Verdict.NON_MONOTONIC),
        ([-1.0, 1.0], Verdict.NON_MONOTONIC),
    ],
)
def test_verdict_of_step_signs(signs, verdict):
    assert _scan(np.cumsum([0.0, 0.0, 0.0] + signs))[0] is verdict


def test_classify_monotonicity_tolerance_absorbs_noise():
    # steps of 6e-10 lie inside the fixed +-1e-9, steps of 6e-9 outside it
    assert classify_monotonicity([0.5, 0.5 + 3e-10, 0.5 - 3e-10, 0.5]) is Verdict.CONSTANT
    assert classify_monotonicity([0.5, 0.5 + 3e-9, 0.5 - 3e-9, 0.5]) is Verdict.NON_MONOTONIC


def test_classify_monotonicity_needs_three_points():
    with pytest.raises(ValueError):
        classify_monotonicity([0.0, 1.0])


@pytest.mark.parametrize(
    "values", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf], [-math.inf, 0.0, 1.0]]
)
def test_classify_monotonicity_refuses_non_finite_samples(values):
    with pytest.raises(ValueError, match="finite"):
        classify_monotonicity(values)


def test_classify_monotonicity_accepts_any_sequence():
    assert classify_monotonicity(0.1 * i for i in range(5)) is Verdict.NON_DECREASING
    assert classify_monotonicity((3, 2, 2)) is Verdict.NON_INCREASING


def _seeded_params(rng, scenario):
    # a draw inside each schema range, kept to moderate magnitudes
    return {
        p.name: rng.uniform(max(p.lo, -4.0), min(p.hi, 4.0))
        for p in models.SCENARIOS[scenario].params
    }


def _seeded_sweep_arguments(rng, scenario):
    params = _seeded_params(rng, scenario)
    beta, theta, eta = (params.pop(k, None) for k in ("beta", "theta", "eta"))
    angles = None if beta is None else ProjectorAngles(beta, theta)
    detectors = None if eta is None else DetectorModel(eta)
    return angles, detectors, params


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_non_monotonic_verdict_exactly_when_extrema_are_found(scenario):
    rng = random.Random(f"turns:{scenario.value}")
    for steps in (3, 11, 101):
        for _ in range(4):
            angles, detectors, params = _seeded_sweep_arguments(rng, scenario)
            result = sweep(scenario, steps, angles, detectors, **params)
            assert (result.verdict is Verdict.NON_MONOTONIC) == bool(result.extrema)


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_sweep_closed_forms_match_the_scalar_closed_form(scenario):
    # the column is one call on the grid array, the scalar one call per gamma
    angles, detectors, extra = _seeded_sweep_arguments(random.Random(f"closed:{scenario.value}"), scenario)
    result = sweep(scenario, 101, angles, detectors, **extra)
    intensity = scenario not in models.QUANTUM_SCENARIOS
    for gamma, column in zip(result.gammas, result.closed_forms):
        scalar = closed_form(scenario, gamma, angles, detectors, **extra)
        assert abs(scalar - column) <= 1e-15 * (abs(column) if intensity else 1.0)


@pytest.mark.parametrize(
    "scenario,lifts",
    # three basis kets through the delay transform; the cascade's coincidence ket is
    # pulled back once, at import
    [(ScenarioId.HOM4_COINCIDENCE, 3), (ScenarioId.HOFMANN_CASCADE, 0)],
)
def test_a_sweep_compiles_its_curve_once(monkeypatch, scenario, lifts):
    calls = []
    lift = transforms.lift
    monkeypatch.setattr(transforms, "lift", lambda *args: calls.append(args) or lift(*args))
    result = sweep(scenario, 101)
    assert result.extrema  # refinement ran, on the same compiled curve
    assert len(calls) == lifts
    assert find_extrema(result) == result.extrema


def _brackets(result, tol=1e-9):
    """(lo, hi, kind) of every sampled turn: two consecutive steps outside
    +-tol with opposite signs, j < k, bracket [gammas[j], gammas[k + 1]]."""
    values, gammas = result.probabilities, result.gammas
    steps = [(j, b - a) for j, (a, b) in enumerate(zip(values, values[1:])) if abs(b - a) > tol]
    return [
        (gammas[j], gammas[k + 1], ExtremumKind.MAX if before > 0.0 else ExtremumKind.MIN)
        for (j, before), (k, after) in zip(steps, steps[1:])
        if (before > 0.0) != (after > 0.0)
    ]


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_every_bracket_yields_one_extremum_strictly_inside(scenario):
    rng = random.Random(f"brackets:{scenario.value}")
    for steps in (3, 11, 101, 1001):
        for _ in range(4):
            angles, detectors, params = _seeded_sweep_arguments(rng, scenario)
            result = sweep(scenario, steps, angles, detectors, **params)
            brackets = _brackets(result)
            assert len(result.extrema) == len(brackets)
            for e, (lo, hi, kind) in zip(result.extrema, brackets):
                assert e.kind is kind and lo < e.gamma < hi and 0.0 < e.gamma < math.pi / 2


@pytest.mark.parametrize(
    "scenario,bound",
    [
        (ScenarioId.SINGLE_DELIBERATE, 1e-12),
        (ScenarioId.SINGLE_LOSS, 1e-12),
        # a root of a cluster of width d moves by ~eps / d^2; seeded polarizers are far apart
        (ScenarioId.CLASSICAL_POLARIZATION, 1e-10),
    ],
)
def test_every_extremum_lies_on_an_analytic_stationary_point(scenario, bound):
    rng = random.Random(f"analytic:{scenario.value}")
    found = 0
    for steps in (3, 11, 101, 1001):
        for _ in range(25):
            angles, detectors, params = _seeded_sweep_arguments(rng, scenario)
            result = sweep(scenario, steps, angles, detectors, **params)
            analytic = _oracles.analytic_stationary_points(scenario.value, result.params)
            for e in result.extrema:
                assert min(abs(e.gamma - x) for x in analytic) < bound
                found += 1
    assert found >= 20


def test_single_deliberate_extrema_lie_within_rounding_of_the_analytic_turn():
    # the table's turn and the oracle's are one formula; they may differ by rounding only
    found = 0
    for seed in range(300):
        for steps in (3, 11, 101):
            result = _seeded_sweep(ScenarioId.SINGLE_DELIBERATE, steps, seed)
            analytic = _oracles.analytic_stationary_points("single-deliberate", result.params)
            for e in result.extrema:
                assert min(abs(e.gamma - x) for x in analytic) < 1.5e-15
                found += 1
    assert found >= 300


# polarizers 0.0024 apart (mod pi): their two zeros and the peak between lie 0.0012 apart
NEAR_ZEROS = dict(theta1=-1.5479621485615525, theta2=-4.68714630310717, amplitude=8.389071388121284)


def test_roots_a_thousandth_apart_are_not_merged():
    # merged, they would give their centroid, where the curve is 6.5e-10 and not 0
    (minimum,) = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101, **NEAR_ZEROS).extrema
    assert minimum.kind is ExtremumKind.MIN
    assert abs(minimum.gamma - (NEAR_ZEROS["theta1"] + math.pi / 2)) < 1e-10


# polarizers 0.039 apart: both zeros and the peak between them lie within three 101-grid steps
CLOSE_TURNS = dict(theta1=2.9263573872328643, theta2=2.8875634741545064, amplitude=1.5062245575841724)


def test_close_classical_turns_lie_on_the_polarizer_zeros():
    result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101, **CLOSE_TURNS)
    assert [e.kind for e in result.extrema] == [ExtremumKind.MIN, ExtremumKind.MAX, ExtremumKind.MIN]
    first, peak, last = result.extrema
    assert abs(first.gamma - (CLOSE_TURNS["theta2"] - math.pi / 2)) < 1e-12
    assert abs(last.gamma - (CLOSE_TURNS["theta1"] - math.pi / 2)) < 1e-12
    middle = (CLOSE_TURNS["theta1"] + CLOSE_TURNS["theta2"]) / 2 - math.pi / 2
    assert abs(peak.gamma - middle) < 1e-12


def test_a_far_polarizer_angle_keeps_gamma():
    # cos(g - 1e13) keeps about three digits of g; the same polarizer in (-pi, pi] keeps all
    reduced = math.atan2(math.sin(1e13), math.cos(1e13))
    result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 1001, theta1=1e13, theta2=0.3)
    g = result.gammas
    assert np.abs(result.probabilities - np.cos(g - reduced) ** 2 * np.cos(g - 0.3) ** 2).max() < 1e-15
    peak, zero = result.extrema  # not a Min and a Max at each of two gammas
    assert (peak.kind, zero.kind) == (ExtremumKind.MAX, ExtremumKind.MIN)
    assert abs(peak.gamma - (reduced + 0.3) / 2) < 1e-12
    assert abs(zero.gamma - (reduced + math.pi / 2)) < 1e-12


NODES = np.arange(16) * (math.pi / 8)  # one period, twice the rate a degree-4 curve needs


def _harmonics(samples):
    """c_0..c_8 of the trigonometric polynomial through `samples` at NODES, which is
    c_0 + 2 Re sum_{k=1..7} c_k e^{ikg} + c_8 cos 8g; for a curve of degree <= 4 it is the curve."""
    return np.fft.rfft(samples) / 16


def _l1(c):
    """The l1 norm of all 16 coefficients, which bounds the polynomial everywhere."""
    return abs(c[0]) + 2 * np.abs(c[1:8]).sum() + abs(c[8])


def _slope(c, g):
    """The slope at g of the degree-4 part of the polynomial with harmonics `c`."""
    k = np.arange(1, 5)
    return 2 * (1j * k * c[1:5] * np.exp(1j * k * g)).sum().real


def _oracle_curve(scenario, params):
    """The curve on an array of angles by the permanent oracle: A[o, k] = <o|U b_k> from
    transition amplitudes, through the cascade's split itself rather than its pulled-back ket."""
    spec = models.SCENARIOS[scenario]
    basis, transform = spec.basis, spec.transform
    outcomes = [basis_ket(o) for o in spec.events] or spec.outcomes(params)
    if scenario is ScenarioId.HOFMANN_CASCADE:
        basis = [b + (0, 0) for b in basis]
        transform, outcomes = models.CASCADE_SPLIT, [models.CASCADE_COINCIDENCE]
    transform = transform or transforms.identity(len(basis[0]))
    a = np.array([[sum(amp.conjugate() * _oracles.transition_amplitude(transform, b, occ)
                       for occ, amp in o.items()) for b in basis] for o in outcomes])
    gain = spec.gain(params)
    return lambda g: gain * sum(w * (np.abs(a @ np.array(c)) ** 2).sum(axis=0)
                                for w, c in zip(spec.weights, spec.coefficients(g)))


# every scenario but these three can turn inside (0, pi/2)
TURNING = [s for s in ScenarioId
           if s not in (ScenarioId.HOM2, ScenarioId.HOM4_BUNCHING, ScenarioId.SINGLE_PHASE_NOISE)]


@pytest.mark.parametrize("scenario", TURNING)
def test_the_engine_slope_vanishes_at_every_extremum(scenario):
    # the points come from the scenario table, not from the engine; the engine's own slope,
    # read from its harmonics, must still vanish at each one within rounding
    found = 0
    for seed in range(100):
        for steps in (3, 11, 101, 1001):
            result = _seeded_sweep(scenario, steps, seed)
            if result.extrema:
                samples = projectors.scenario_curve(scenario, result.params)(NODES)[0]
                c, top = _harmonics(samples), np.abs(samples).max()
                for e in result.extrema:
                    assert abs(_slope(c, e.gamma)) <= 1e-13 * top
                    found += 1
    assert found >= 50


@pytest.mark.parametrize("scenario", models.QUANTUM_SCENARIOS)
def test_the_overlap_never_turns_so_gamma_is_distinguishability_mirrored(scenario):
    # a verdict or an extremum in gamma is then one in the overlap, read from the other end.
    # The overlap is even in g, so it is q(cos g) with deg q <= 4, as cos kg = T_k(cos g); its
    # slope -sin g q'(cos g) keeps one sign on [0, pi/2] when q' has no negative coefficient
    curve = projectors.scenario_curve(scenario, _seeded_params(random.Random(f"axis:{scenario.value}"), scenario))
    c = _harmonics(curve(NODES)[1])
    assert np.abs(c.imag).max() <= 1e-15 and np.abs(c[5:]).max() <= 1e-15
    q = np.polynomial.chebyshev.cheb2poly(np.concatenate(([c[0].real], 2 * c[1:5].real)))
    assert np.polynomial.polynomial.polyder(q).min() >= -1e-14
    grid = np.arange(MAX_STEPS) * (math.pi / 2) / (MAX_STEPS - 1)
    assert np.diff(curve(grid)[1]).max() <= 0.0


@pytest.mark.parametrize("steps", [101, 1001])
@pytest.mark.parametrize(
    "scenario,params,turns",
    [(ScenarioId.CLASSICAL_POLARIZATION, CLOSE_TURNS, 3), (ScenarioId.TWO_PHOTON_POLARIZATION, {}, 1)],
)
def test_a_sweep_evaluates_its_scenario_at_most_twice(monkeypatch, scenario, params, turns, steps):
    # the grid, then every stationary point from the scenario table; classical light has no
    # coefficient map, its closed form is its curve and its closed-form column
    spec = models.SCENARIOS[scenario]
    field = "coefficients" if scenario in models.QUANTUM_SCENARIOS else "closed_form"
    model, calls, references = getattr(spec, field), [], []

    def counted(gammas, *args):
        calls.append(np.shape(gammas))
        return model(gammas, *args)

    monkeypatch.setitem(models.SCENARIOS, scenario, spec._replace(**{field: counted}))
    monkeypatch.setattr(models, "scenario_reference", lambda *args: references.append(args))
    assert len(sweep(scenario, steps, **params).extrema) == turns
    arrays = [shape for shape in calls if shape]  # the overlap row reads the map once at gamma = 0
    assert len(calls) - len(arrays) <= 1
    assert len(arrays) <= 2
    assert arrays[0] == (steps,)
    assert references == []


@pytest.mark.parametrize("steps", [3, 101, 1001])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_the_fused_evaluation_is_the_curve_on_the_grid(scenario, steps):
    # evaluating the overlap row with the events must not move a bit of either column
    angles, detectors, extra = _seeded_sweep_arguments(random.Random(f"fused:{scenario.value}"), scenario)
    result = sweep(scenario, steps, angles, detectors, **extra)
    values, overlap = projectors.scenario_curve(scenario, result.params)(np.array(result.gammas))
    assert result.probabilities.tobytes() == values.tobytes()
    if scenario in models.QUANTUM_SCENARIOS:
        assert result.indistinguishability.tobytes() == overlap.tobytes()
        for gamma, column in zip(result.gammas, result.indistinguishability):
            assert abs(column - models.indistinguishability(scenario, gamma)) <= 1e-15
    else:
        assert overlap is None


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_every_column_of_a_sweep_is_read_only(scenario):
    # the result is frozen and so is every column it holds, written whole, in a slice or in place
    angles, detectors, extra = _seeded_sweep_arguments(random.Random(f"frozen:{scenario.value}"), scenario)
    result = sweep(scenario, 11, angles, detectors, **extra)
    columns = [result.gammas, result.probabilities, result.closed_forms, result.indistinguishability]
    assert (columns[-1] is None) == (scenario not in models.QUANTUM_SCENARIOS)
    columns = [c for c in columns if c is not None]
    before = [c.tobytes() for c in columns]
    writes = [lambda c: c.__setitem__(0, 0.5), lambda c: c[1:].fill(0.5),
              lambda c: np.add(c, 1.0, out=c)]
    for column in columns:
        assert column.dtype == np.float64 and column.shape == (11,)
        for write in writes:
            with pytest.raises(ValueError):
                write(column)
        with pytest.raises(ValueError):  # a view of a read-only array: the flag stays off
            column.flags.writeable = True
    assert [c.tobytes() for c in columns] == before


@pytest.mark.parametrize("steps", [3, 101, 1001])
@pytest.mark.parametrize("d", [0.0, 1e-12, 1e-9, 1e-6, 1e-4])
def test_coincident_polarizers_give_one_minimum_at_their_zero(steps, d):
    # cos^4(g - theta): the slope's triple root splits by ~eps^(1/3) and is merged
    result = sweep(ScenarioId.CLASSICAL_POLARIZATION, steps, theta1=2.5, theta2=2.5 + d)
    minima = [e for e in result.extrema if e.kind is ExtremumKind.MIN]
    assert len(minima) == 1
    assert abs(minima[0].gamma - (2.5 - math.pi / 2)) <= max(1e-10, d)


@pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-5])
def test_close_polarizers_anywhere_give_one_minimum_on_their_cluster(d):
    # rounding spreads the two zeros and the peak between them over ~1e-5, and where the
    # halving cuts fall in that spread varies with theta; every split must give one point,
    # one of the three or the middle, where the cluster's third derivative vanishes
    rng = random.Random(f"cluster:{d}")
    for _ in range(100):
        theta = rng.uniform(1.6, 3.1)
        result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101, theta1=theta, theta2=theta + d)
        (minimum,) = [e for e in result.extrema if e.kind is ExtremumKind.MIN]
        zero = theta - math.pi / 2
        assert min(abs(minimum.gamma - x) for x in (zero, zero + d / 2, zero + d)) < 1e-12


# two zeros 0.029 apart with a turn between them shallower than the tolerance
HIDDEN_ZEROS = dict(theta1=1.9821824965123502, theta2=1.95331230531348, amplitude=0.6532518923717097)


def test_a_bracket_hiding_two_zeros_reports_the_lowest_stationary_value():
    # both zeros are exact, so their values differ by rounding alone: values within _TIE times
    # the largest sample are equal and the lowest gamma wins; at NEAR_ZEROS the higher rounds lower
    for params, zero in ((HIDDEN_ZEROS, HIDDEN_ZEROS["theta2"] - math.pi / 2),
                         (NEAR_ZEROS, NEAR_ZEROS["theta1"] + math.pi / 2)):
        result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101, **params)
        (minimum,) = result.extrema
        assert minimum.kind is ExtremumKind.MIN
        assert abs(minimum.gamma - zero) < 1e-15
        ((lo, hi, _),) = _brackets(result)
        curve = projectors.scenario_curve(result.scenario, result.params)
        x = sorted(models.SCENARIOS[result.scenario].stationary(result.params))
        inside = [g for g in x if lo < g < hi]
        values = curve(np.array(inside))[0]
        assert len(inside) == 3  # both zeros and the shallow peak between them
        assert minimum.gamma == inside[0]
        assert minimum.value - values.min() <= _TIE * np.abs(result.probabilities).max()
        turns = _scan(result.probabilities)[1]
        assert _extrema(curve, x, result.probabilities, result.gammas, turns) == (minimum,)
        (untied,) = _extrema(curve, x, 0.0 * result.probabilities, result.gammas, turns)
        assert untied.value == values.min()  # with no tie width, the zero that rounds lower


def test_a_stationary_value_lower_by_more_than_rounding_beats_a_lower_gamma():
    # the largest sample is 1: points 10 eps apart in value differ, and the lower value wins;
    # points eps/2 apart are one value, and the lower gamma wins
    gammas, values = np.array([0.0, 0.5, 1.0, 1.5]), np.array([1.0, 0.5, 0.5, 1.0])
    for gap, expected in ((10 * sys.float_info.epsilon, 0.7), (sys.float_info.epsilon / 2, 0.6)):
        def curve(g, gap=gap):
            return np.where(g < 0.65, gap, 0.0), None

        (minimum,) = _extrema(curve, (0.7, 0.6), values, gammas, [(0, 2, False)])
        assert (minimum.gamma, minimum.kind) == (expected, ExtremumKind.MIN)


def test_turns_of_rounding_noise_are_not_extrema():
    # cos(pi/2) ~ 6e-17: the curve is constant up to rounding, which tolerance 0 reads as turns;
    # phase noise has no stationary point inside (0, pi/2), so no turn finds one
    result = sweep(ScenarioId.SINGLE_PHASE_NOISE, 101, ProjectorAngles(0.3, math.pi / 2))
    assert result.verdict is Verdict.CONSTANT
    assert len(_brackets(result, tol=0.0)) > 10
    diffs = np.diff(result.probabilities)
    index = np.flatnonzero(diffs)
    turns = [(j, k, bool(diffs[j] > 0)) for j, k in zip(index, index[1:])
             if (diffs[j] > 0) != (diffs[k] > 0)]
    assert turns
    curve = projectors.scenario_curve(result.scenario, result.params)
    spec = models.SCENARIOS[result.scenario]
    assert _extrema(curve, spec.stationary(result.params), result.probabilities, result.gammas, turns) == ()
    # the ends are stationary, and never inside a bracket
    assert _extrema(curve, (0.0, math.pi / 2), result.probabilities, result.gammas, turns) == ()


@pytest.mark.parametrize("steps", [3, 101, 1001])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_a_sweep_needs_no_eigensolver_and_no_fft(monkeypatch, scenario, steps):
    # their first use costs a process about 1.3 MB of peak RSS for LAPACK and 0.5 MB for numpy.fft
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK or numpy.fft was called")

    for module, name in ((np.linalg, "eigvals"), (np.linalg, "eig"), (np.fft, "rfft")):
        monkeypatch.setattr(module, name, refuse)
    for seed in range(3):
        for e in _seeded_sweep(scenario, steps, seed).extrema:
            assert 0.0 < e.gamma < math.pi / 2


def test_a_process_that_sweeps_and_renders_every_scenario_never_imports_numpy_fft():
    code = (
        "import math, sys, numpy\n"
        "eager = 'numpy.fft' in sys.modules  # an older numpy imports it with itself\n"
        "from fockproj import ProjectorAngles, ScenarioId, analysis, cli\n"
        "for scenario in ScenarioId:\n"
        "    angles = ProjectorAngles(math.pi / 8, math.pi) if scenario.value.startswith('single') else None\n"
        "    result = analysis.sweep(scenario, 101, angles)\n"
        "    cli.render_csv(result), cli.render_json(result)\n"
        "assert eager or 'numpy.fft' not in sys.modules, 'numpy.fft was imported'\n"
    )
    proc = _python("-c", code, capture_output=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_find_extrema_reads_the_sweep_without_compiling_a_curve(monkeypatch, scenario):
    angles, detectors, params = _seeded_sweep_arguments(random.Random(f"read:{scenario.value}"), scenario)
    result = sweep(scenario, 101, angles, detectors, **params)

    def refuse(*args):
        raise AssertionError("find_extrema compiled a curve")

    monkeypatch.setattr(projectors, "scenario_curve", refuse)
    assert find_extrema(result) is result.extrema


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_engine_oracle_and_closed_form_are_one_function_over_the_whole_interval(scenario):
    # each curve is a trigonometric polynomial of degree <= 4, so 16 samples determine it, and
    # the l1 norm of the harmonics of engine - closed form bounds their difference on all of
    # [0, pi/2], not only on a grid; classical light's engine is its closed form, until it has one
    spec = models.SCENARIOS[scenario]
    for seed in range(100):
        params = _seeded_sweep(scenario, 3, seed).params
        closed = spec.closed_form(NODES, params)
        engine = projectors.scenario_curve(scenario, params)(NODES)[0]
        top = np.abs(engine).max()
        curves = [engine, closed]
        if scenario in models.QUANTUM_SCENARIOS:
            curves.append(_oracle_curve(scenario, params)(NODES))
        for curve in curves:
            assert np.abs(_harmonics(curve)[5:]).max() <= 1e-14 * top
            assert _l1(_harmonics(curve - closed)) <= 1e-14 * top


def test_find_extrema_deliberate_minimum_is_zero():
    result = sweep(ScenarioId.SINGLE_DELIBERATE, 101, OFFAXIS)
    assert result.verdict is Verdict.NON_MONOTONIC
    (minimum,) = result.extrema
    assert minimum.kind is ExtremumKind.MIN
    assert abs(minimum.gamma - math.pi / 4) < 1e-8
    assert abs(minimum.value) < 1e-12


def test_find_extrema_loss_minimum():
    result = sweep(ScenarioId.SINGLE_LOSS, 101, OFFAXIS)
    assert result.verdict is Verdict.NON_MONOTONIC
    (minimum,) = result.extrema
    assert minimum.kind is ExtremumKind.MIN
    # the conditional state passes exactly through the orthogonal projector
    assert abs(minimum.gamma - math.acos(math.sqrt(2) - 1)) < 1e-8
    assert abs(minimum.value) < 1e-12


@pytest.mark.parametrize(
    "scenario,angles",
    [
        (ScenarioId.HOM4_COINCIDENCE, None),
        (ScenarioId.SINGLE_DELIBERATE, OFFAXIS),
        (ScenarioId.TWO_PHOTON_POLARIZATION, None),
        (ScenarioId.CLASSICAL_POLARIZATION, None),
    ],
)
def test_refined_extrema_are_stationary(scenario, angles):
    result = sweep(scenario, 101, angles)
    f = probability_function(scenario, angles)
    h = 1e-5
    for e in result.extrema:
        slope = (f(e.gamma + h) - f(e.gamma - h)) / (2 * h)
        assert abs(slope) < 1e-6


@pytest.mark.parametrize(
    "scenario,angles,analytic",
    [
        (ScenarioId.HOM4_COINCIDENCE, None, math.acos(math.sqrt(2 / 3))),
        (ScenarioId.SINGLE_DELIBERATE, OFFAXIS, math.pi / 4),
        (ScenarioId.SINGLE_LOSS, OFFAXIS, math.acos(math.sqrt(2) - 1)),
        # a loss vertex the unpolished root misses by 2e-11
        (
            ScenarioId.SINGLE_LOSS,
            ProjectorAngles(1.5027018415825288, 1.5726324056713223),
            math.acos(-math.cos(1.5726324056713223) * math.tan(1.5027018415825288)),
        ),
        (ScenarioId.TWO_PHOTON_POLARIZATION, None, math.pi / 4),
        (ScenarioId.HOFMANN_CASCADE, None, math.pi / 4),
        (ScenarioId.CLASSICAL_POLARIZATION, None, math.pi / 8),
    ],
)
def test_extremum_lies_on_the_analytic_stationary_point(scenario, angles, analytic):
    # comparing values stalls ~sqrt(eps) ~ 1e-8 away from a flat extremum
    for steps in (101, 1001):
        (extremum,) = sweep(scenario, steps, angles).extrema
        assert abs(extremum.gamma - analytic) < 1e-12


def test_classical_sweep_is_non_monotonic():
    result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101)
    assert result.verdict is Verdict.NON_MONOTONIC
    assert result.indistinguishability is None
    (peak,) = result.extrema
    assert peak.kind is ExtremumKind.MAX
    assert abs(peak.gamma - math.pi / 8) < 1e-8
    assert abs(peak.value - math.cos(math.pi / 8) ** 4) < 1e-10


def test_cascade_sweep_carries_eta_param():
    result = sweep(ScenarioId.HOFMANN_CASCADE, 21, detectors=DetectorModel(0.6))
    assert result.params == {"eta": 0.6}
    assert result.max_closed_form_deviation() < 1e-10


def test_pruning_does_not_move_probabilities():
    # amplitudes at or below fock.PRUNE_TOL are dropped; the curve must still match
    # the hand-written closed form, which prunes nothing
    cases = [
        (ScenarioId.HOM2, None),
        (ScenarioId.HOM4_COINCIDENCE, None),
        (ScenarioId.HOM4_BUNCHING, None),
        (ScenarioId.SINGLE_DELIBERATE, OFFAXIS),
        (ScenarioId.SINGLE_LOSS, OFFAXIS),
        (ScenarioId.SINGLE_PHASE_NOISE, OFFAXIS),
        (ScenarioId.TWO_PHOTON_POLARIZATION, None),
        (ScenarioId.HOFMANN_CASCADE, None),
    ]
    gammas = [i * math.pi / 2 / 6 for i in range(7)]
    for scenario, angles in cases:
        f = probability_function(scenario, angles)
        for g in gammas:
            assert abs(f(g) - closed_form(scenario, g, angles)) < 1e-12, (scenario, g)
