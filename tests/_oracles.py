"""Independent cross-checks and random-case generators for the test suite.

The transition-amplitude oracle here goes through matrix permanents of
row/column-repeated submatrices, a completely different route than the
package's creation-operator expansion, so the two can validate each other.
The analytic stationary points are solved by hand from the closed forms: a
test-side copy of the `stationary` entries of the scenario table, which
`analysis.sweep` reports from.  The four-product curve is the reference for
the bytes of `projectors.scenario_curve`, which skips products by zero.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from fockproj import FockState, ModeUnitary, fock, models, projectors, transforms


def permanent(matrix) -> complex:
    """Permanent by direct permutation sum (fine for n <= 4)."""
    n = len(matrix)
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        product = 1.0 + 0j
        for i, j in enumerate(perm):
            product *= matrix[i][j]
        total += product
    return total


def transition_amplitude(u: ModeUnitary, occ_in, occ_out) -> complex:
    """<occ_out| U |occ_in> via the permanent of the repeated submatrix."""
    cols = [i for i, n in enumerate(occ_in) for _ in range(n)]
    rows = [j for j, n in enumerate(occ_out) for _ in range(n)]
    if len(cols) != len(rows):
        return 0j
    sub = [[complex(u.matrix[r, c]) for c in cols] for r in rows]
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in occ_in)
        * math.prod(math.factorial(n) for n in occ_out)
    )
    return permanent(sub) / norm


def compositions(total: int, parts: int):
    """All occupation tuples of `parts` modes holding `total` photons."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def lift_oracle(u: ModeUnitary, state: FockState) -> FockState:
    """Full transformed state assembled from permanent amplitudes."""
    modes = state.mode_count
    out: dict[tuple, complex] = {}
    for occ_in, amp in state.items():
        for occ_out in compositions(sum(occ_in), modes):
            contrib = amp * transition_amplitude(u, occ_in, occ_out)
            if contrib != 0j:
                out[occ_out] = out.get(occ_out, 0j) + contrib
    return FockState(modes, out)


def random_unitary(rng: random.Random, dim: int) -> ModeUnitary:
    """Haar-ish unitary from random two-mode rotations and phase layers."""
    m = np.eye(dim, dtype=complex)
    for _ in range(2 * dim):
        a, b = rng.sample(range(dim), 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        block = np.eye(dim, dtype=complex)
        c, s = math.cos(angle), math.sin(angle)
        phase = complex(math.cos(chi), math.sin(chi))
        block[a, a] = c
        block[a, b] = -s * phase.conjugate()
        block[b, a] = s * phase
        block[b, b] = c
        m = block @ m
    phases = np.diag([
        complex(math.cos(t), math.sin(t))
        for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim))
    ])
    return ModeUnitary(phases @ m)


def random_state(rng: random.Random, modes: int, max_photons: int = 4) -> FockState:
    """Random normalized state with a handful of sparse terms."""
    amps: dict[tuple, complex] = {}
    for _ in range(rng.randint(1, 5)):
        total = rng.randint(0, max_photons)
        occ = rng.choice(list(compositions(total, modes)))
        amps[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    state = FockState(modes, amps)
    if state.norm() == 0.0:
        return random_state(rng, modes, max_photons)
    return state.normalize()


def random_fixed_number_state(rng: random.Random, modes: int, photons: int) -> FockState:
    """Random normalized state whose terms all hold `photons` photons."""
    patterns = list(compositions(photons, modes))
    chosen = rng.sample(patterns, rng.randint(1, min(4, len(patterns))))
    amps = {
        occ: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for occ in chosen
    }
    state = FockState(modes, amps)
    if state.norm() == 0.0:
        return random_fixed_number_state(rng, modes, photons)
    return state.normalize()


def analytic_stationary_points(scenario: str, p: dict) -> list:
    """Angles near [0, pi/2] where the slope of a single-deliberate, single-loss or
    classical closed form vanishes, solved by hand from each closed form.

    deliberate: p' ~ -(cos 2beta cos g + cos theta sin 2beta sin g);
    loss: p is quadratic in cos g with its vertex at -cos theta tan beta;
    classical: I ~ q^2 with q = cos(g - theta1) cos(g - theta2).
    """
    if scenario == "single-deliberate":
        base = [math.atan2(-math.cos(2 * p["beta"]), math.cos(p["theta"]) * math.sin(2 * p["beta"]))]
        period = math.pi
    elif scenario == "single-loss":
        vertex = -math.cos(p["theta"]) * math.tan(p["beta"])
        return [math.acos(vertex)] if -1.0 <= vertex <= 1.0 else []
    else:
        t1, t2 = p["theta1"], p["theta2"]
        base = [(t1 + t2) / 2, (t1 + t2) / 2 + math.pi / 2, t1 + math.pi / 2, t2 + math.pi / 2]
        period = math.pi
    shifts = [x - period * math.floor(x / period) for x in base]  # into [0, pi)
    return sorted(x + k * period for x in shifts for k in (-1, 0, 1))


def four_product_curve(scenario, params: dict, gammas: np.ndarray) -> tuple:
    """`projectors.scenario_curve` without its range guard, and with every `A c` formed from
    all four real products, re += ar*cr - ai*ci and im += ar*ci + ai*cr, whatever planes of
    `A` and `c` are zero throughout."""
    spec = models.SCENARIOS[scenario]
    kets, events, overlap_row = projectors._KETS[scenario]
    if spec.transform is not None:
        kets = [transforms.lift(spec.transform, k) for k in kets]
    outcomes = events or spec.outcomes(params)
    a = np.array([[fock.inner_product(o, k) for k in kets] for o in outcomes] + [overlap_row])
    total = overlaps = 0.0
    for weight, coefficients in zip(spec.weights, spec.coefficients(gammas)):
        c = np.array(coefficients)
        c[np.abs(c) <= fock.PRUNE_TOL] = 0.0
        (ar, ai), (cr, ci), re, im = (a.real, a.imag), (c.real, c.imag), 0.0, 0.0
        for k in range(len(c)):
            re += ar[:, k, None] * cr[k] - ai[:, k, None] * ci[k]
            im += ar[:, k, None] * ci[k] + ai[:, k, None] * cr[k]
        squares = re**2 + im**2
        total, overlaps = total + weight * squares[:-1].sum(axis=0), overlaps + weight * squares[-1]
    return spec.gain(params) * total, overlaps
