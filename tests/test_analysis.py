import math
import random
import sys

import numpy as np
import pytest

import _oracles
from table_digests import checked_keys, seeded_sweep, sweep_of
from test_cli import _python
from fockproj import (
    DetectorModel,
    ProjectorAngles,
    ScenarioId,
    analysis,
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


def test_every_grid_ends_at_pi_over_2_exactly():
    # i * GAMMA_MAX / (steps - 1) lands one ulp off pi/2 at the last point for 275 of these
    # counts, 12 the first; closed_form refused the gamma above it
    for steps in range(3, 2001):
        gammas = sweep(ScenarioId.HOM2, steps).gammas
        assert gammas[-1] == models.GAMMA_MAX, steps
        closed_form(ScenarioId.HOM2, gammas[-1])


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
    assert _scan(np.cumsum([0.0, 0.0, 0.0] + signs)) is verdict


def test_classify_monotonicity_tolerance_absorbs_noise():
    # near 1, steps of 6e-10 lie inside +-1e-9 times the largest |sample|, steps of 6e-9 outside
    # it; the tolerance scales with the curve, so the same shapes scaled keep their verdicts
    noise, turn = np.array([1.0, 1.0 + 3e-10, 1.0 - 3e-10, 1.0]), np.array([1.0, 1.0 + 3e-9, 1.0 - 3e-9, 1.0])
    for scale in (1.0, 1e-6, 1e6):
        assert classify_monotonicity(scale * noise) is Verdict.CONSTANT
        assert classify_monotonicity(scale * turn) is Verdict.NON_MONOTONIC


@pytest.mark.parametrize("steps", [101, 1001])
def test_a_faint_curve_turns_where_a_bright_one_does(steps):
    # the tolerance scales with the curve, so a cascade with poor detectors and a weak or
    # strong classical field keep the verdict and extrema of their unit-scale curves
    def field(amplitude, **pair):
        return sweep(ScenarioId.CLASSICAL_POLARIZATION, steps, amplitude=amplitude, **pair)

    cascade = [sweep(ScenarioId.HOFMANN_CASCADE, steps, detectors=DetectorModel(eta)) for eta in (1.0, 1e-3)]
    pairs = [cascade] + [(field(2.0), field(amplitude)) for amplitude in (0.03, 0.05, 2e77)]
    rng = random.Random("faint")
    for _ in range(300):
        pair = dict(theta1=rng.uniform(-10.0, 10.0), theta2=rng.uniform(-10.0, 10.0))
        pairs.append((field(2.0, **pair), field(2e77, **pair)))
    assert cascade[0].verdict is pairs[1][0].verdict is Verdict.NON_MONOTONIC
    for unit, scaled in pairs:
        assert scaled.verdict is unit.verdict, unit.params
        assert [(e.gamma, e.kind) for e in scaled.extrema] == [(e.gamma, e.kind) for e in unit.extrema]


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


def _deliberate_region(beta, theta):
    # p' vanishes inside (0, pi/2) where tan g = -cos 2beta / (cos theta sin 2beta) > 0
    q = math.cos(2.0 * beta) * math.cos(theta)
    return q < 0.0, abs(q)


def _loss_region(beta, theta):
    # p is quadratic in cos g, with its vertex at cos g = v: a turn when v lies in (0, 1)
    v = -math.cos(theta) * math.tan(beta)
    return 0.0 < v < 1.0, min(abs(v), abs(1.0 - v))


# the paper's regions, from the closed forms: (inside, distance from the boundary) per setting
REGIONS = {
    ScenarioId.SINGLE_DELIBERATE: _deliberate_region,
    ScenarioId.SINGLE_LOSS: _loss_region,
    ScenarioId.SINGLE_PHASE_NOISE: lambda beta, theta: (False, math.inf),
}
REGION_MARGIN = 0.01


@pytest.mark.parametrize("scenario", list(REGIONS))
def test_the_sampled_verdict_is_non_monotonic_exactly_in_the_papers_region(scenario):
    # 1,500 seeded settings, each kept REGION_MARGIN from its boundary, where a turn can fall
    # between grid points or under the tolerance: at margin 0 some draws of deliberate and of
    # loss disagree.  About half of deliberate, a third of loss and no phase-noise draw turn.
    # The verdict is still the grid's; once it is read from the curve instead, compare it
    # with the sampled verdict at 100,001 points, so that the check is not circular
    rng, count, turning = random.Random(f"region:{scenario.value}"), 0, 0
    while count < 1500:
        beta, theta = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2.0 * math.pi)
        inside, distance = REGIONS[scenario](beta, theta)
        if distance > REGION_MARGIN:
            verdict = sweep(scenario, 1001, ProjectorAngles(beta, theta)).verdict
            assert (verdict is Verdict.NON_MONOTONIC) == inside, (beta, theta)
            count, turning = count + 1, turning + inside
    assert turning > 300 or scenario is ScenarioId.SINGLE_PHASE_NOISE


def _classical_region(theta1, theta2):
    # I ~ q^2 with q = cos(g - t1) cos(g - t2): q' vanishes at (t1 + t2)/2 + k pi/2, q at
    # t_i + pi/2 + k pi; a turn when one of them lies in (0, pi/2)
    half, inside, distance = math.pi / 2, False, math.inf
    for x, period in (((theta1 + theta2) / 2, half), (theta1 + half, math.pi), (theta2 + half, math.pi)):
        r = x % period  # the copy in [0, period); the others lie further from [0, pi/2]
        inside = inside or 0.0 < r < half
        distance = min(distance, r, period - r, abs(r - half))
    return inside, distance


def test_the_sampled_classical_verdict_is_non_monotonic_exactly_in_the_papers_region():
    # 1,500 seeded polarizer pairs, each candidate kept REGION_MARGIN from 0 and pi/2, with
    # amplitudes log-uniform over six decades: the verdict is the curve's, whatever its scale.
    # Every draw turns, as q' vanishes once in each interval of length pi/2; no field is refused,
    # as its curve would be 0
    rng, count = random.Random("region:classical"), 0
    while count < 1500:
        theta1, theta2 = (rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(2))
        amplitude = 10.0 ** rng.uniform(-3.0, 3.0)
        inside, distance = _classical_region(theta1, theta2)
        if distance >= REGION_MARGIN:
            pair = dict(theta1=theta1, theta2=theta2)
            verdict = sweep(ScenarioId.CLASSICAL_POLARIZATION, 1001, **pair, amplitude=amplitude).verdict
            assert (verdict is Verdict.NON_MONOTONIC) == inside, (pair, amplitude)
            if count % 10 == 0:
                with pytest.raises(ValueError, match="amplitude"):
                    sweep(ScenarioId.CLASSICAL_POLARIZATION, 1001, **pair, amplitude=0.0)
            count += 1


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_non_monotonic_verdict_exactly_when_extrema_are_found(scenario):
    rng = random.Random(f"turns:{scenario.value}")
    for steps in (3, 11, 101):
        for _ in range(4):
            result = sweep_of(scenario, steps, _seeded_params(rng, scenario))
            assert (result.verdict is Verdict.NON_MONOTONIC) == bool(result.extrema)


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_sweep_closed_forms_match_the_scalar_closed_form(scenario):
    # the column is one call on the grid array, the scalar one call per gamma
    extra = _seeded_params(random.Random(f"closed:{scenario.value}"), scenario)
    result = sweep_of(scenario, 101, extra)
    angles = ProjectorAngles(extra.pop("beta"), extra.pop("theta")) if "beta" in extra else None
    detectors = DetectorModel(extra.pop("eta")) if "eta" in extra else None
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
    """(lo, hi, kind) of every sampled turn: two consecutive steps outside +-tol times the
    largest |sample| with opposite signs, j < k, bracket [gammas[j], gammas[k + 1]]."""
    values, gammas = result.probabilities, result.gammas
    flat = tol * max(abs(v) for v in values)
    steps = [(j, b - a) for j, (a, b) in enumerate(zip(values, values[1:])) if abs(b - a) > flat]
    return [
        (gammas[j], gammas[k + 1], ExtremumKind.MAX if before > 0.0 else ExtremumKind.MIN)
        for (j, before), (k, after) in zip(steps, steps[1:])
        if (before > 0.0) != (after > 0.0)
    ]


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_every_bracket_yields_one_extremum_strictly_inside(scenario):
    # the extrema are the exact curve's turns, so a coarse grid may miss some of them: each
    # sampled bracket holds one of its kind, and Min and Max alternate
    rng = random.Random(f"brackets:{scenario.value}")
    for steps in (3, 11, 101, 1001):
        for _ in range(4):
            result = sweep_of(scenario, steps, _seeded_params(rng, scenario))
            brackets = _brackets(result)
            assert len(result.extrema) >= len(brackets)
            for lo, hi, kind in brackets:
                assert any(e.kind is kind and lo < e.gamma < hi for e in result.extrema)
            kinds = [e.kind for e in result.extrema]
            assert all(a is not b for a, b in zip(kinds, kinds[1:]))
            assert all(0.0 < e.gamma < math.pi / 2 for e in result.extrema)


def test_extrema_do_not_depend_on_the_grid():
    # the share of seeded sweeps that the digest test checks: a curve that turns at two or
    # more step counts reports the same extrema at each
    turning = {}
    for scenario, seed, steps in checked_keys():
        result = seeded_sweep(ScenarioId(scenario), steps, seed)
        if result.verdict is Verdict.NON_MONOTONIC:
            turning.setdefault((scenario, seed), []).append(result.extrema)
    pairs = {key: extrema for key, extrema in turning.items() if len(extrema) >= 2}
    for key, extrema in pairs.items():
        assert all(e == extrema[0] for e in extrema), key
    assert len(pairs) == 236


def _walk(curve, points, steps=101):
    """`_extrema` of `curve` sampled on the sweep grid, with `points` and their curve values."""
    grid = np.arange(steps) * models.GAMMA_MAX / (steps - 1)
    return _extrema(points, [curve(g) for g in points], curve(grid))


def test_a_stationary_point_between_two_monotone_legs_is_not_an_extremum():
    # p' = 3 (g - 0.7)^2 has a double root at 0.7: the curve rises, flattens and rises on
    assert _walk(lambda g: (g - 0.7) ** 3 + 1.0, [0.7]) == ()
    assert _walk(lambda g: 1.0 - (g - 0.7) ** 3, [0.7]) == ()
    # p' = 4 (g - 0.4)^2 (g - 1): the walk falls past 0.4 to the one turn, a Min at 1
    (minimum,) = _walk(lambda g: (g - 0.4) ** 3 * (g - 1.2), [0.4, 1.0])
    assert (minimum.gamma, minimum.kind) == (1.0, ExtremumKind.MIN)


def test_the_walk_has_no_direction_until_a_point_leaves_the_start_by_more_than_the_tolerance():
    # the largest sample is 1, so tol is 1e-9: a point 4e-10 above the start is not a rise, and
    # the fall after it is no turn; 4e-9 above the start, it is a Max
    values = np.array([1.0, 0.75, 0.5, 0.25])
    assert _extrema([0.5], [1.0 + 4e-10], values) == ()
    (peak,) = _extrema([0.5], [1.0 + 4e-9], values)
    assert (peak.gamma, peak.kind) == (0.5, ExtremumKind.MAX)


def test_the_ends_are_never_extrema():
    # sin^2 g and cos^2 2g are stationary at both ends; the walk reads the end values from the
    # samples, so a point at exactly 0 or pi/2 is not part of it, whatever its value
    end = models.GAMMA_MAX
    assert _walk(lambda g: np.sin(g) ** 2, [0.0, end]) == ()
    (minimum,) = _walk(lambda g: np.cos(2.0 * g) ** 2, [0.0, math.pi / 4, end])
    assert (minimum.gamma, minimum.kind) == (math.pi / 4, ExtremumKind.MIN)
    samples = np.sin(np.linspace(0.0, end, 101)) ** 2
    assert _extrema([0.0, end], [5.0, -5.0], samples) == ()
    assert _extrema([0.0, 0.5, end], [-5.0, 0.2, 5.0], samples) == ()


def test_a_turn_shallower_than_the_tolerance_is_dropped_and_the_lower_zero_kept():
    # seed 45: two exact zeros 0.01 apart with a real peak of 5e-8 between them, under the
    # tolerance of 1e-9 times the largest sample, 7.1e-8; every grid that turns gives one Min
    for steps in (11, 101, 1001):
        result = seeded_sweep(ScenarioId.CLASSICAL_POLARIZATION, steps, 45)
        x = sorted(g for g in models.SCENARIOS[result.scenario].stationary(result.params)
                   if 0.0 < g < math.pi / 2)
        at = projectors.scenario_curve(result.scenario, result.params, np.array(x))[0].tolist()
        tol = 1e-9 * np.abs(result.probabilities).max()
        assert len(x) == 3 and 0.5 * tol < at[1] - max(at[0], at[2]) <= tol
        (minimum,) = result.extrema
        assert (minimum.gamma, minimum.value, minimum.kind) == (x[0], at[0], ExtremumKind.MIN)


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
            result = sweep_of(scenario, steps, _seeded_params(rng, scenario))
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
            result = seeded_sweep(ScenarioId.SINGLE_DELIBERATE, steps, seed)
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


def test_the_lowest_peak_of_the_smallest_field_is_a_normal_float():
    # q = cos(g - t1) cos(g - t2) = (cos(2g - t1 - t2) + cos(t1 - t2)) / 2 peaks at |q| = 1/4,
    # the least of any pair, when t1 + t2 = pi/2 and t1 - t2 = 2pi/3: at 0, pi/4 and pi/2
    amplitude = models.AMPLITUDE.lo
    result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 1001, theta1=7 * math.pi / 12,
                   theta2=-math.pi / 12, amplitude=amplitude)
    (peak,) = [e for e in result.extrema if e.kind is ExtremumKind.MAX]
    assert abs(peak.gamma - math.pi / 4) < 1e-12
    lowest = (amplitude / 2.0) ** 4 / 16.0
    assert lowest >= sys.float_info.min and abs(peak.value - lowest) <= 1e-15 * lowest
    assert abs(max(result.probabilities) - lowest) <= 1e-15 * lowest


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
    """The curve on an array of angles over the permanent oracle's matrix A."""
    spec, a = models.SCENARIOS[scenario], _oracles.oracle_matrix(scenario, params)
    gain = spec.gain(params)
    return lambda g: gain * sum(w * (np.abs(a @ np.array(c)) ** 2).sum(axis=0)
                                for w, c in zip(spec.weights, spec.coefficients(g)))


@pytest.mark.parametrize("scenario", models.QUANTUM_SCENARIOS)
def test_the_engine_and_oracle_matrices_agree(scenario):
    # the outcome rows of A by lift and inner products, and by permanents; the cascade's by its
    # pulled-back ket, and through the split
    for seed in range(50):
        params = seeded_sweep(scenario, 3, seed).params
        engine = projectors.scenario_matrix(scenario, params)[:-1]  # the overlap row is no outcome
        assert np.abs(engine - _oracles.oracle_matrix(scenario, params)).max() <= 1e-15


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
            result = seeded_sweep(scenario, steps, seed)
            if result.extrema:
                samples = projectors.scenario_curve(scenario, result.params, NODES)[0]
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
    params = _seeded_params(random.Random(f"axis:{scenario.value}"), scenario)
    c = _harmonics(projectors.scenario_curve(scenario, params, NODES)[1])
    assert np.abs(c.imag).max() <= 1e-15 and np.abs(c[5:]).max() <= 1e-15
    q = np.polynomial.chebyshev.cheb2poly(np.concatenate(([c[0].real], 2 * c[1:5].real)))
    assert np.polynomial.polynomial.polyder(q).min() >= -1e-14
    grid = np.arange(MAX_STEPS) * (math.pi / 2) / (MAX_STEPS - 1)
    assert np.diff(projectors.scenario_curve(scenario, params, grid)[1]).max() <= 0.0


@pytest.mark.parametrize("steps", [101, 1001])
@pytest.mark.parametrize(
    "scenario,params,turns",
    [(ScenarioId.CLASSICAL_POLARIZATION, CLOSE_TURNS, 3), (ScenarioId.TWO_PHOTON_POLARIZATION, {}, 1)],
)
def test_a_sweep_evaluates_its_scenario_once(monkeypatch, scenario, params, turns, steps):
    # one call on the grid followed by every stationary point from the scenario table, whose
    # values the extrema take; classical light has no coefficient map, its closed form is its
    # curve and its closed-form column
    spec = models.SCENARIOS[scenario]
    field = "coefficients" if scenario in models.QUANTUM_SCENARIOS else "closed_form"
    model, calls, references = getattr(spec, field), [], []

    def counted(gammas, *args):
        calls.append(np.shape(gammas))
        return model(gammas, *args)

    monkeypatch.setitem(models.SCENARIOS, scenario, spec._replace(**{field: counted}))
    monkeypatch.setattr(models, "scenario_reference", lambda *args: references.append(args))
    result = sweep(scenario, steps, **params)
    assert len(result.extrema) == turns
    arrays = [shape for shape in calls if shape]  # the overlap row reads the map once at gamma = 0
    assert len(calls) - len(arrays) <= 1
    assert arrays == [(steps + len(spec.stationary(result.params)),)]
    assert references == []


@pytest.mark.parametrize("steps", [3, 101, 1001])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_the_fused_evaluation_is_the_curve_on_the_grid(scenario, steps):
    # evaluating the overlap row with the events must not move a bit of either column
    result = sweep_of(scenario, steps, _seeded_params(random.Random(f"fused:{scenario.value}"), scenario))
    values, overlap = projectors.scenario_curve(scenario, result.params, np.array(result.gammas))
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
    result = sweep_of(scenario, 11, _seeded_params(random.Random(f"frozen:{scenario.value}"), scenario))
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


# two zeros 0.005 apart with a turn between them shallower than the tolerance
HIDDEN_ZEROS = dict(theta1=1.9821824965123502, theta2=1.9771824965123502, amplitude=0.6532518923717097)


def test_a_bracket_hiding_two_zeros_reports_the_lowest_stationary_value(monkeypatch):
    # both zeros are exact, so their values differ by rounding alone: values within _TIE times
    # the largest sample are equal and the lowest gamma wins; at NEAR_ZEROS the higher rounds lower
    for params, zero in ((HIDDEN_ZEROS, HIDDEN_ZEROS["theta2"] - math.pi / 2),
                         (NEAR_ZEROS, NEAR_ZEROS["theta1"] + math.pi / 2)):
        result = sweep(ScenarioId.CLASSICAL_POLARIZATION, 101, **params)
        (minimum,) = result.extrema
        assert minimum.kind is ExtremumKind.MIN
        assert abs(minimum.gamma - zero) < 1e-15
        ((lo, hi, _),) = _brackets(result)
        x = sorted(models.SCENARIOS[result.scenario].stationary(result.params))
        at = projectors.scenario_curve(result.scenario, result.params, np.array(x))[0].tolist()
        inside, values = zip(*((g, v) for g, v in zip(x, at) if lo < g < hi))
        assert len(inside) == 3  # both zeros and the shallow peak between them
        assert minimum.gamma == inside[0]
        assert minimum.value - min(values) <= _TIE * np.abs(result.probabilities).max()
        assert _extrema(x, at, result.probabilities) == (minimum,)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_TIE", 0.0)
            (untied,) = _extrema(x, at, result.probabilities)
        assert untied.value == min(values)  # with no tie width, the zero that rounds lower


def test_a_stationary_value_lower_by_more_than_rounding_beats_a_lower_gamma():
    # the largest sample is 1: points 10 eps apart in value differ, and the lower value wins;
    # points eps/2 apart are one value, and the lower gamma wins
    values = np.array([1.0, 0.5, 0.5, 1.0])
    for gap, expected in ((10 * sys.float_info.epsilon, 0.7), (sys.float_info.epsilon / 2, 0.6)):
        (minimum,) = _extrema([0.6, 0.7], [gap, 0.0], values)
        assert (minimum.gamma, minimum.kind) == (expected, ExtremumKind.MIN)


def test_turns_of_rounding_noise_are_not_extrema():
    # cos(pi/2) ~ 6e-17: the curve is constant up to rounding, which tolerance 0 reads as turns;
    # phase noise has no stationary point inside (0, pi/2), so the walk has no turn to pass
    result = sweep(ScenarioId.SINGLE_PHASE_NOISE, 101, ProjectorAngles(0.3, math.pi / 2))
    assert result.verdict is Verdict.CONSTANT
    assert len(_brackets(result, tol=0.0)) > 10
    assert models.SCENARIOS[result.scenario].stationary(result.params) == ()
    assert _extrema([], [], result.probabilities) == ()
    # the ends are stationary, and never extrema
    ends = [result.gammas[0], result.gammas[-1]], [result.probabilities[0], result.probabilities[-1]]
    assert _extrema(*ends, result.probabilities) == ()


@pytest.mark.parametrize("steps", [3, 101, 1001])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_a_sweep_needs_no_eigensolver_and_no_fft(monkeypatch, scenario, steps):
    # their first use costs a process about 1.3 MB of peak RSS for LAPACK and 0.5 MB for numpy.fft
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK or numpy.fft was called")

    for module, name in ((np.linalg, "eigvals"), (np.linalg, "eig"), (np.fft, "rfft")):
        monkeypatch.setattr(module, name, refuse)
    for seed in range(3):
        for e in seeded_sweep(scenario, steps, seed).extrema:
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
    result = sweep_of(scenario, 101, _seeded_params(random.Random(f"read:{scenario.value}"), scenario))

    def refuse(*args):
        raise AssertionError("find_extrema evaluated a curve")

    monkeypatch.setattr(projectors, "scenario_curve", refuse)
    assert find_extrema(result) is result.extrema


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_engine_oracle_and_closed_form_are_one_function_over_the_whole_interval(scenario):
    # each curve is a trigonometric polynomial of degree <= 4, so 16 samples determine it, and
    # the l1 norm of the harmonics of engine - closed form bounds their difference on all of
    # [0, pi/2], not only on a grid; classical light's engine is its closed form, until it has one
    spec = models.SCENARIOS[scenario]
    for seed in range(100):
        params = seeded_sweep(scenario, 3, seed).params
        closed = spec.closed_form(NODES, params)
        engine = projectors.scenario_curve(scenario, params, NODES)[0]
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
