"""Independent cross-checks and random-case generators for the test suite.

The transition-amplitude oracle here goes through matrix permanents of
row/column-repeated submatrices, a completely different route than the
package's creation-operator expansion, so the two can validate each other.
The reference bisection takes one step per curve call, in plain loops, as
the batched refinement of `analysis.sweep` must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from fockproj import FockState, ModeUnitary
from fockproj.models import GAMMA_MAX


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


def reference_stationary_point(curve, lo: float, hi: float, rising: float, tol: float = 1e-10):
    """(x, f(x)) where rising * (f(x + h) - f(x - h)) changes sign in [lo, hi],
    bisected one step per call of the array `curve` until the bracket is within `tol`."""
    h = 1e-5
    a, b = lo, hi
    while b - a > tol:
        x = 0.5 * (a + b)
        above, below = curve(np.array([min(x + h, GAMMA_MAX), max(x - h, 0.0)])).tolist()
        if rising * (above - below) > 0.0:
            a = x
        else:
            b = x
    x = 0.5 * (a + b)
    return x, float(curve(np.array([x]))[0])


def reference_extrema(curve, gammas, values, tol: float = 1e-9) -> list:
    """(kind, x, f(x)) of every turn of a sampled curve: two consecutive steps
    outside +-tol with opposite signs, j < k, bracket [gammas[j], gammas[k + 1]]."""
    steps = [(j, b - a) for j, (a, b) in enumerate(zip(values, values[1:])) if abs(b - a) > tol]
    found = []
    for (j, before), (k, after) in zip(steps, steps[1:]):
        if (before > 0.0) != (after > 0.0):
            rising = 1.0 if before > 0.0 else -1.0
            x, value = reference_stationary_point(curve, gammas[j], gammas[k + 1], rising)
            found.append(("Max" if rising > 0.0 else "Min", x, value))
    return found
